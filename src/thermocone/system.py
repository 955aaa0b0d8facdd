"""Finite-level Hamiltonians and the states living on copies of them.

A state is carried in one of three interchangeable representations
(density matrix in the energy basis, spectrum plus average energy, or a
bare macrostate) together with a copy count ``n``. The copy count is a
positive real: at the many-copies level it plays the role of an amount
of substance rather than an integer.

Entropy is in nats throughout the thermodynamic modules, so that the
tangent relation dS = beta dE holds with beta in inverse energy units.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .numerics import as_hermitian_matrix

__all__ = [
    "as_number",
    "HamiltonianSpec",
    "Macrostate",
    "ConePoint",
    "QuantumState",
    "validate_state",
    "macrostate_of",
    "cone_point_of",
    "hamiltonian_from_json",
    "state_from_json",
]


def as_number(value, field: str) -> float:
    """``float(value)``, so a string that spells a number, such as ``"2"``
    or ``" 1e0 "``, is read as one; a boolean, any other string, an
    integer past the float range or a non-number raises ``ValidationError``."""
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("bad-number", f"{field} must be a number, got {value!r}") from exc


def complex_matrix(rows, code: str) -> np.ndarray:
    """Decode nested ``[re, im]`` pairs; a malformed entry raises ``ValidationError(code)``."""
    try:
        return np.array([[complex(c[0], c[1]) for c in row] for row in rows])
    except (TypeError, LookupError, ValueError) as exc:  # ValueError: ragged rows
        raise ValidationError(code, f"matrix entries must be [re, im] pairs: {exc}") from exc


def _degeneracy(g) -> int:
    """``g`` as a whole number in [1, 2**53]: past 2**53 a float no longer
    holds every whole number, so an integer, or a string that spells one,
    is checked as it is, before any float conversion could round 2**53 + 1
    to 2**53."""
    if isinstance(g, str):
        try:
            g = int(g)
        except ValueError:
            pass  # not an integer literal: read as a number below
    exact = isinstance(g, (int, np.integer)) and not isinstance(g, bool)
    value = int(g) if exact else as_number(g, "degeneracy")
    if not ((exact or value.is_integer()) and 1 <= value <= 2**53):
        raise ValidationError("bad-level", f"degeneracy must be a whole number in [1, 2**53], got {g}")
    return int(value)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Energy levels with degeneracies, strictly ascending in energy."""

    levels: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.levels:
            raise ValidationError("empty-hamiltonian", "need at least one energy level")
        levels = tuple((as_number(e, "level energy"), _degeneracy(g)) for e, g in self.levels)
        for e, _ in levels:
            if not math.isfinite(e):
                raise ValidationError("bad-level", f"non-finite level energy {e}")
        object.__setattr__(self, "levels", levels)
        es = [e for e, _ in self.levels]
        if any(b <= a for a, b in zip(es, es[1:])):
            raise ValidationError("bad-level", "level energies must be strictly ascending")
        if not math.isfinite(self.span):
            raise ValidationError("bad-level", f"level span {es[-1]} - {es[0]} overflows")

    @cached_property
    def dim(self) -> int:
        return sum(g for _, g in self.levels)

    @property
    def e_min(self) -> float:
        return self.levels[0][0]

    @property
    def e_max(self) -> float:
        return self.levels[-1][0]

    @cached_property
    def span(self) -> float:
        """E_max - E_min, the scale of every energy tolerance."""
        return self.e_max - self.e_min

    @cached_property
    def unit(self) -> float:
        """The thermal kernel's energy unit, the power of two in (span/2, span]: rescaling by it is exact."""
        return math.ldexp(0.5, math.frexp(self.span)[1]) if self.span else 1.0

    def require_span(self) -> None:
        """Raise ``DomainError`` for a single level, which has no scale and no thermal curve."""
        if not self.span:
            raise DomainError("degenerate-hamiltonian", "all levels share one energy; there is no thermal curve")

    def energy_tol(self, tol: float) -> float:
        """``tol`` as an energy: relative to the span (absolute for a single level)."""
        return tol * (self.span or 1.0)

    @cached_property
    def unit_levels(self) -> tuple[tuple[tuple[float, int], ...], ...]:
        """``levels`` as ((e - E_min)/unit, g) and as ((e - E_max)/unit, g)."""
        return tuple(tuple(((e - ref) / self.unit, g) for e, g in self.levels) for ref in (self.e_min, self.e_max))

    @property
    def g_ground(self) -> int:
        return self.levels[0][1]

    @property
    def g_top(self) -> int:
        return self.levels[-1][1]

    @cached_property
    def log_dim(self) -> float:
        return math.log(self.dim)

    def energies(self) -> np.ndarray:
        return np.array([e for e, _ in self.levels])

    def expanded_energies(self) -> np.ndarray:
        """Per-basis-state energies (levels repeated by degeneracy)."""
        return np.repeat(self.energies(), [g for _, g in self.levels])

    @cached_property
    def mixed_energy(self) -> float:
        """Average energy of the maximally mixed state."""
        return float(np.dot(self.energies(), [float(g) for _, g in self.levels]) / self.dim)

    def to_json(self) -> dict:
        return {"levels": [{"energy": e, "degeneracy": g} for e, g in self.levels]}


@dataclass(frozen=True)
class Macrostate:
    """Per-copy (average energy, entropy) pair; entropy in nats."""

    energy: float
    entropy: float

    def __post_init__(self):
        if not (math.isfinite(self.energy) and math.isfinite(self.entropy)):
            raise ValidationError("bad-macrostate", "macrostate coordinates must be finite")


@dataclass(frozen=True)
class ConePoint:
    """Extensive coordinates (total energy, total entropy, amount)."""

    energy: float
    entropy: float
    size: float

    def __add__(self, other: "ConePoint") -> "ConePoint":
        return ConePoint(self.energy + other.energy, self.entropy + other.entropy, self.size + other.size)

    def __sub__(self, other: "ConePoint") -> "ConePoint":
        return ConePoint(self.energy - other.energy, self.entropy - other.entropy, self.size - other.size)

    def scaled(self, factor: float) -> "ConePoint":
        return ConePoint(factor * self.energy, factor * self.entropy, factor * self.size)

    def normalized(self) -> Macrostate:
        if self.size <= 0:
            raise DomainError("zero-size", "cannot normalize a point with size <= 0")
        return Macrostate(self.energy / self.size, self.entropy / self.size)


_NEG_EIG_TOL = 1e-10
_TRACE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class QuantumState:
    """One of {matrix, spectrum+energy, macrostate}, with copy count n.

    Construction runs, once, every check that needs no Hamiltonian. A
    matrix is stored symmetrised and read-only, with its spectrum; a
    spectrum is clipped and normalised; both carry their von Neumann
    ``entropy`` (nats, 0 log 0 = 0). ``validate_state`` does the rest.
    States compare by value: two matrix states by n and their stored
    matrices, the others by n, spectrum, energy and macrostate.
    """

    n: float = 1.0
    matrix: Optional[np.ndarray] = None
    spectrum: Optional[tuple[float, ...]] = None
    energy: Optional[float] = None
    macro: Optional[Macrostate] = None
    entropy: Optional[float] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.n) and self.n > 0):
            raise ValidationError("bad-copy-count", f"copy count must be a positive real, got {self.n}")
        forms = sum(x is not None for x in (self.matrix, self.spectrum, self.macro))
        if forms != 1:
            raise ValidationError("bad-state", "exactly one of matrix / spectrum / macro must be given")
        if self.spectrum is not None and self.energy is None:
            raise ValidationError("bad-state", "spectral form needs an average energy")
        if self.matrix is not None:
            a = as_hermitian_matrix(self.matrix)
            tr = float(a.trace().real)
            if abs(tr - 1.0) > _TRACE_TOL:
                raise ValidationError("bad-trace", f"trace is {tr:.12g}, expected 1")
            a.setflags(write=False)
            object.__setattr__(self, "matrix", a)
            eigs = np.linalg.eigvalsh(a)
        elif self.spectrum is not None:
            eigs = np.asarray(self.spectrum, dtype=float)
        else:
            return
        # clip eigenvalues in [-1e-10, 0) to zero and renormalize
        if not np.isfinite(eigs).all():
            raise ValidationError("non-finite-eigenvalue", f"spectrum {eigs.tolist()} has a non-finite entry")
        if float(eigs.min(initial=0.0)) < -_NEG_EIG_TOL:
            raise ValidationError("negative-eigenvalue", f"eigenvalue {eigs.min():.3g} below -1e-10")
        eigs = np.clip(eigs, 0.0, None)
        total = float(eigs.sum())
        if abs(total - 1.0) > _TRACE_TOL:
            raise ValidationError("bad-trace", f"spectrum sums to {total:.12g}, expected 1")
        eigs = eigs / total
        pos = eigs[eigs > 0.0]
        entropy = float(-np.dot(pos, np.log(pos))) if pos.size else 0.0
        object.__setattr__(self, "spectrum", tuple(eigs))
        object.__setattr__(self, "entropy", min(max(entropy, 0.0), math.log(eigs.size)))

    def __eq__(self, other):
        if not isinstance(other, QuantumState):
            return NotImplemented
        if self.matrix is None or other.matrix is None:
            return self.matrix is other.matrix and self._values() == other._values()
        return self.n == other.n and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        if self.matrix is None:
            return hash(self._values())
        # entries as Python numbers, which hash alike when they compare equal (0.0 and -0.0)
        return hash((self.n, tuple(self.matrix.ravel().tolist())))

    def _values(self) -> tuple:
        return self.n, self.spectrum, self.energy, self.macro

    @classmethod
    def from_matrix(cls, matrix, n: float = 1.0) -> "QuantumState":
        return cls(n=n, matrix=np.asarray(matrix, dtype=complex))

    @classmethod
    def from_spectrum(cls, eigenvalues: Sequence[float], energy: float, n: float = 1.0) -> "QuantumState":
        spectrum = tuple(as_number(x, "spectrum entry") for x in eigenvalues)
        return cls(n=n, spectrum=spectrum, energy=as_number(energy, "energy"))

    @classmethod
    def from_macro(cls, energy: float, entropy: float, n: float = 1.0) -> "QuantumState":
        return cls(n=n, macro=Macrostate(as_number(energy, "E"), as_number(entropy, "S")))

    @property
    def kind(self) -> str:
        if self.matrix is not None:
            return "matrix"
        if self.spectrum is not None:
            return "spectrum"
        return "macro"


def validate_state(state: QuantumState, h: HamiltonianSpec) -> QuantumState:
    """Check ``state`` against ``h``: its dimension and energy, or a
    macrostate's membership in the diagram. Returns the state; a matrix
    comes back in spectral form, its energy read off the diagonal."""
    if state.macro is not None:
        from .diagram import Verdict, diagram_contains

        if diagram_contains(h, state.macro, tol=1e-9) is Verdict.OUTSIDE:
            raise ValidationError(
                "macrostate-outside-diagram",
                f"({state.macro.energy}, {state.macro.entropy}) is not an achievable macrostate",
            )
        return state
    if len(state.spectrum) != h.dim:
        raise ValidationError(
            "dimension-mismatch", f"state dimension {len(state.spectrum)} != Hamiltonian dimension {h.dim}"
        )
    if state.matrix is None:
        e_tol = h.energy_tol(1e-9)
        if not h.e_min - e_tol <= state.energy <= h.e_max + e_tol:
            raise ValidationError(
                "energy-out-of-range", f"average energy {state.energy} outside [{h.e_min}, {h.e_max}]"
            )
        return state
    a = state.matrix
    energy = float(np.dot(h.expanded_energies(), a.diagonal().real)) / float(a.trace().real)
    reduced = copy.copy(state)  # not ``replace``: building anew would renormalise the spectrum again
    object.__setattr__(reduced, "matrix", None)
    object.__setattr__(reduced, "energy", energy)
    return reduced


def macrostate_of(state: QuantumState, h: HamiltonianSpec) -> Macrostate:
    """Per-copy (average energy, von Neumann entropy) of a state, in nats."""
    state = validate_state(state, h)
    if state.macro is not None:
        return state.macro
    return Macrostate(float(state.energy), state.entropy)


def cone_point_of(state: QuantumState, h: HamiltonianSpec) -> ConePoint:
    """Extensive point n*(E, S, 1); additive over tensor products."""
    x = macrostate_of(state, h)
    return ConePoint(state.n * x.energy, state.n * x.entropy, state.n)


def _parsed(data):
    """``data``, or the JSON it spells when it is a string."""
    if not isinstance(data, str):
        return data
    try:
        return json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError("malformed-json", f"invalid JSON: {exc}") from exc


def hamiltonian_from_json(data) -> HamiltonianSpec:
    """Decode ``{"levels": [{"energy": E, "degeneracy": g}, ...]}``, or the JSON text of it."""
    data = _parsed(data)
    try:
        levels = tuple((lvl["energy"], lvl.get("degeneracy", 1)) for lvl in data["levels"])
    except (KeyError, TypeError) as exc:
        raise ValidationError("bad-hamiltonian-json", f"malformed Hamiltonian object: {exc}") from exc
    return HamiltonianSpec(levels)


def state_from_json(data) -> QuantumState:
    """Decode a state object, or the JSON text of one.

    Accepted forms: ``{"matrix": [[[re, im], ...], ...]}``,
    ``{"spectrum": [...], "energy": E}`` or ``{"macro": {"E": .., "S": ..}}``,
    each optionally with ``{"n": amount}``.
    """
    data = _parsed(data)
    if not isinstance(data, dict):
        raise ValidationError("bad-state-json", "state must be a JSON object")
    n = as_number(data.get("n", 1.0), "n")
    if "matrix" in data:
        return QuantumState.from_matrix(complex_matrix(data["matrix"], "bad-state-json"), n=n)
    if "spectrum" in data:
        if "energy" not in data:
            raise ValidationError("bad-state-json", "spectral form needs an 'energy' field")
        if not isinstance(data["spectrum"], list):
            raise ValidationError("bad-state-json", "spectrum must be a JSON array")
        return QuantumState.from_spectrum(data["spectrum"], data["energy"], n=n)
    if "macro" in data:
        m = data["macro"]
        try:
            return QuantumState.from_macro(m["E"], m["S"], n=n)
        except (KeyError, TypeError) as exc:
            raise ValidationError("bad-state-json", f"macro form needs E and S: {exc}") from exc
    raise ValidationError("bad-state-json", "state needs one of: matrix, spectrum, macro")

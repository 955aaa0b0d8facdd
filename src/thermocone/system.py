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

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .numerics import as_hermitian_matrix, eigvals_hermitian

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
    """``float(value)``; a non-number (say, a decoded JSON string or
    boolean) raises ``ValidationError``."""
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError("bad-number", f"{field} must be a number, got {value!r}") from exc


@dataclass(frozen=True)
class HamiltonianSpec:
    """Energy levels with degeneracies, strictly ascending in energy."""

    levels: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.levels:
            raise ValidationError("empty-hamiltonian", "need at least one energy level")
        levels = tuple((as_number(e, "level energy"), as_number(g, "degeneracy")) for e, g in self.levels)
        for e, g in levels:
            if not math.isfinite(e):
                raise ValidationError("bad-level", f"non-finite level energy {e}")
            if not (g.is_integer() and g >= 1):
                raise ValidationError("bad-level", f"degeneracy must be a whole number >= 1, got {g}")
        object.__setattr__(self, "levels", tuple((e, int(g)) for e, g in levels))
        es = [e for e, _ in self.levels]
        if any(b <= a for a, b in zip(es, es[1:])):
            raise ValidationError("bad-level", "level energies must be strictly ascending")
        if not math.isfinite(self.span):
            raise ValidationError("bad-level", f"level span {es[-1]} - {es[0]} overflows")

    @property
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

    @property
    def log_dim(self) -> float:
        return math.log(self.dim)

    def energies(self) -> np.ndarray:
        return np.array([e for e, _ in self.levels])

    def expanded_energies(self) -> np.ndarray:
        """Per-basis-state energies (levels repeated by degeneracy)."""
        return np.repeat(self.energies(), [g for _, g in self.levels])

    @cached_property
    def _mixed_energy(self) -> float:
        return float(np.dot(self.energies(), [float(g) for _, g in self.levels]) / self.dim)

    def mixed_energy(self) -> float:
        """Average energy of the maximally mixed state."""
        return self._mixed_energy

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


@dataclass(frozen=True)
class QuantumState:
    """One of {matrix, spectrum+energy, macrostate}, with copy count n."""

    n: float = 1.0
    matrix: Optional[np.ndarray] = None
    spectrum: Optional[tuple[float, ...]] = None
    energy: Optional[float] = None
    macro: Optional[Macrostate] = None

    def __post_init__(self):
        if not (math.isfinite(self.n) and self.n > 0):
            raise ValidationError("bad-copy-count", f"copy count must be a positive real, got {self.n}")
        forms = sum(x is not None for x in (self.matrix, self.spectrum, self.macro))
        if forms != 1:
            raise ValidationError("bad-state", "exactly one of matrix / spectrum / macro must be given")
        if self.spectrum is not None and self.energy is None:
            raise ValidationError("bad-state", "spectral form needs an average energy")

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


def _clip_spectrum(eigs: np.ndarray) -> np.ndarray:
    """Clip eigenvalues in [-1e-10, 0) to zero and renormalize."""
    if not np.isfinite(eigs).all():
        raise ValidationError("non-finite-eigenvalue", f"spectrum {eigs.tolist()} has a non-finite entry")
    if float(eigs.min(initial=0.0)) < -_NEG_EIG_TOL:
        raise ValidationError("negative-eigenvalue", f"eigenvalue {eigs.min():.3g} below -1e-10")
    eigs = np.clip(eigs, 0.0, None)
    total = float(eigs.sum())
    if abs(total - 1.0) > _TRACE_TOL:
        raise ValidationError("bad-trace", f"spectrum sums to {total:.12g}, expected 1")
    return eigs / total


def validate_state(state: QuantumState, h: HamiltonianSpec) -> QuantumState:
    """Check all representation invariants against ``h``; return a
    normalized copy.

    Matrix input is reduced to spectral form (spectrum via
    ``eigvals_hermitian``, energy from the diagonal), since clipping tiny
    negative eigenvalues is only well defined on the spectrum.
    """
    if state.matrix is not None:
        a = as_hermitian_matrix(state.matrix)
        if a.shape[0] != h.dim:
            raise ValidationError(
                "dimension-mismatch", f"state dimension {a.shape[0]} != Hamiltonian dimension {h.dim}"
            )
        tr = float(a.trace().real)
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValidationError("bad-trace", f"trace is {tr:.12g}, expected 1")
        eigs = _clip_spectrum(np.array(eigvals_hermitian(a)))
        energy = float(np.real(np.dot(h.expanded_energies(), a.diagonal().real))) / tr
        return QuantumState(n=state.n, spectrum=tuple(eigs), energy=energy)
    if state.spectrum is not None:
        eigs = np.asarray(state.spectrum, dtype=float)
        if eigs.size != h.dim:
            raise ValidationError(
                "dimension-mismatch", f"spectrum length {eigs.size} != Hamiltonian dimension {h.dim}"
            )
        eigs = _clip_spectrum(eigs)
        e_tol = h.energy_tol(1e-9)
        if not h.e_min - e_tol <= state.energy <= h.e_max + e_tol:
            raise ValidationError(
                "energy-out-of-range", f"average energy {state.energy} outside [{h.e_min}, {h.e_max}]"
            )
        return QuantumState(n=state.n, spectrum=tuple(eigs), energy=float(state.energy))
    # macro form: membership in the energy-entropy diagram
    from .diagram import Verdict, diagram_contains

    if diagram_contains(h, state.macro, tol=1e-9) is Verdict.OUTSIDE:
        raise ValidationError(
            "macrostate-outside-diagram",
            f"({state.macro.energy}, {state.macro.entropy}) is not an achievable macrostate",
        )
    return state


def macrostate_of(state: QuantumState, h: HamiltonianSpec) -> Macrostate:
    """Per-copy (average energy, von Neumann entropy) of a state.

    Entropy uses the convention 0*log 0 = 0 and is reported in nats.
    """
    state = validate_state(state, h)
    if state.macro is not None:
        return state.macro
    eigs = np.asarray(state.spectrum)
    pos = eigs[eigs > 0.0]
    entropy = float(-np.dot(pos, np.log(pos))) if pos.size else 0.0
    entropy = min(max(entropy, 0.0), h.log_dim)
    return Macrostate(float(state.energy), entropy)


def cone_point_of(state: QuantumState, h: HamiltonianSpec) -> ConePoint:
    """Extensive point n*(E, S, 1); additive over tensor products."""
    x = macrostate_of(state, h)
    return ConePoint(state.n * x.energy, state.n * x.entropy, state.n)


def hamiltonian_from_json(data) -> HamiltonianSpec:
    """Decode ``{"levels": [{"energy": E, "degeneracy": g}, ...]}``."""
    if isinstance(data, str):
        data = json.loads(data)
    try:
        levels = tuple((lvl["energy"], lvl.get("degeneracy", 1)) for lvl in data["levels"])
    except (KeyError, TypeError) as exc:
        raise ValidationError("bad-hamiltonian-json", f"malformed Hamiltonian object: {exc}") from exc
    return HamiltonianSpec(levels)


def state_from_json(data) -> QuantumState:
    """Decode a state object.

    Accepted forms: ``{"matrix": [[[re, im], ...], ...]}``,
    ``{"spectrum": [...], "energy": E}`` or ``{"macro": {"E": .., "S": ..}}``,
    each optionally with ``{"n": amount}``.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValidationError("bad-state-json", "state must be a JSON object")
    n = as_number(data.get("n", 1.0), "n")
    if "matrix" in data:
        rows = data["matrix"]
        try:
            mat = np.array([[complex(c[0], c[1]) for c in row] for row in rows])
        except (TypeError, IndexError) as exc:
            raise ValidationError("bad-state-json", f"matrix entries must be [re, im] pairs: {exc}") from exc
        return QuantumState.from_matrix(mat, n=n)
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

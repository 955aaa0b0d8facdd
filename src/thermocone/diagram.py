"""Geometry of the energy-entropy diagram: the convex set of per-copy
(average energy, entropy) pairs achievable for a fixed Hamiltonian.

The set is bounded below by S = 0 and above by the thermal curve, and is
cut out dually by the linear functionals A_beta(x) = beta*x_E - x_S +
log Z_beta (one per beta), each vanishing on its own thermal point. A_0
is the negentropy log d - S. Membership is decided by a single
root-find against the upper boundary; the facet family is kept as an
independent cross-check since it cannot be evaluated exhaustively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .system import HamiltonianSpec, Macrostate, QuantumState, macrostate_of
from .thermal import _shifted_weights, beta_from_energy, beta_from_entropy, log_partition, thermal_point

__all__ = [
    "Verdict",
    "DecompositionWeights",
    "FacetSlack",
    "athermality",
    "max_entropy_at_energy",
    "diagram_contains",
    "facet_check",
    "combine_macrostates",
    "decompose",
    "w_max",
]

DEFAULT_BOUNDARY_TOL = 1e-9


class Verdict(str, Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"

    @property
    def is_member(self) -> bool:
        return self is not Verdict.OUTSIDE


def check_tolerance(tol: float, positive: bool = False) -> None:
    """Raise ``ValidationError`` unless ``tol`` is finite and >= 0 (> 0 if ``positive``)."""
    if not (math.isfinite(tol) and (tol > 0.0 if positive else tol >= 0.0)):
        bound = "> 0" if positive else ">= 0"
        raise ValidationError("bad-tolerance", f"tolerance must be finite and {bound}, got {tol}")


def athermality(h: HamiltonianSpec, x: Macrostate, beta: float) -> float:
    """A_beta(x) = beta*x_E - x_S + log Z_beta; zero on the thermal point,
    nonnegative on every achievable macrostate, linear in x."""
    if not math.isfinite(beta):
        raise ValidationError("bad-beta", "beta must be finite")
    # the scalar kernel at any finite beta: thermal_point's plateau rule
    # would drop the weights of levels close to the extreme one
    ref, g_ref, rest, _, _ = _shifted_weights(h, beta * h.unit)
    return beta * x.energy - x.entropy + (math.log(g_ref + rest) - beta * ref)


def max_entropy_at_energy(h: HamiltonianSpec, energy: float) -> float:
    """Upper boundary of the diagram: the thermal entropy at this energy."""
    if not h.e_min <= energy <= h.e_max:
        raise DomainError("energy-out-of-range", f"energy {energy} outside [{h.e_min}, {h.e_max}]")
    if energy == h.e_min:
        return math.log(h.g_ground)
    if energy == h.e_max:
        return math.log(h.g_top)
    return thermal_point(h, beta_from_energy(h, energy)).entropy


def diagram_contains(
    h: HamiltonianSpec, x: Macrostate, tol: float = DEFAULT_BOUNDARY_TOL
) -> Verdict:
    """Three-way membership verdict from the boundary test
    E_min <= x_E <= E_max and 0 <= x_S <= S_max(x_E).

    Points within ``tol`` of any bound are reported as BOUNDARY; both
    INSIDE and BOUNDARY count as members. On energy ``tol`` is relative to
    the span E_max - E_min (absolute for a single level), on entropy it
    is in nats.
    """
    check_tolerance(tol)
    e_tol = h.energy_tol(tol)
    if x.energy < h.e_min - e_tol or x.energy > h.e_max + e_tol:
        return Verdict.OUTSIDE
    if x.entropy < -tol:
        return Verdict.OUTSIDE
    e_clamped = min(max(x.energy, h.e_min), h.e_max)
    s_max = max_entropy_at_energy(h, e_clamped)
    if x.entropy > s_max + tol:
        return Verdict.OUTSIDE
    on_edge = (
        x.energy <= h.e_min + e_tol
        or x.energy >= h.e_max - e_tol
        or x.entropy <= tol
        or x.entropy >= s_max - tol
    )
    return Verdict.BOUNDARY if on_edge else Verdict.INSIDE


@dataclass(frozen=True)
class FacetSlack:
    """Minimal slack over the checked facet family.

    ``facet`` is one of 'entropy', 'athermality', 'ground', 'top';
    ``beta`` is set only for athermality facets. A negative slack
    certifies the point lies outside the diagram.
    """

    slack: float
    facet: str
    beta: Optional[float] = None


def facet_check(
    h: HamiltonianSpec,
    x: Macrostate,
    beta_grid: Sequence[float],
) -> FacetSlack:
    """Minimum of {x_S, A_beta(x) over the grid, and the two energy-limit
    functionals} with the achieving facet; an independent, grid-based
    cross-check of ``diagram_contains``."""
    betas = np.asarray(beta_grid, dtype=float)
    if betas.size == 0:
        raise ValidationError("bad-grid", "beta grid must be nonempty")
    slacks = betas * x.energy - x.entropy + log_partition(h, betas)
    i = int(np.argmin(slacks))
    best = FacetSlack(float(slacks[i]), "athermality", float(betas[i]))
    if x.entropy < best.slack:
        best = FacetSlack(x.entropy, "entropy")
    ground = x.energy - h.e_min
    top = h.e_max - x.energy
    if ground < best.slack:
        best = FacetSlack(ground, "ground")
    if top < best.slack:
        best = FacetSlack(top, "top")
    return best


def combine_macrostates(parts: Sequence[tuple[Macrostate, float]]) -> tuple[Macrostate, float]:
    """Mix subsystems: size-weighted convex combination of the per-copy
    coordinates, with sizes adding."""
    if not parts:
        raise ValidationError("empty-mix", "need at least one component")
    for _, n in parts:
        if not n > 0:
            raise ValidationError("bad-copy-count", f"component size must be positive, got {n}")
    total = float(sum(n for _, n in parts))
    energy = sum(n * x.energy for x, n in parts) / total
    entropy = sum(n * x.entropy for x, n in parts) / total
    return Macrostate(energy, entropy), total


@dataclass(frozen=True)
class DecompositionWeights:
    """Convex weights on {thermal state at beta, pure ground, pure top}."""

    c_beta: float
    c_min: float
    c_max: float

    def __post_init__(self):
        if min(self.c_beta, self.c_min, self.c_max) < -1e-12:
            raise ValidationError("bad-weights", "decomposition weights must be nonnegative")
        if abs(self.c_beta + self.c_min + self.c_max - 1.0) > 1e-10:
            raise ValidationError("bad-weights", "decomposition weights must sum to 1")


def decompose(h: HamiltonianSpec, x: Macrostate, beta: float) -> DecompositionWeights:
    """Write ``x`` as a convex mix of the thermal macrostate at ``beta``
    and the two pure extreme macrostates (E_min, 0) and (E_max, 0).

    The 3x3 system (energy, entropy, normalization) determines the
    weights uniquely for a given beta; a negative weight means ``x`` is
    not in the feasible wedge for that beta and raises a domain error
    naming the violated weight.
    """
    h.require_span()
    tp = thermal_point(h, beta)
    if tp.entropy <= 0.0 and x.entropy > 0.0:
        raise DomainError("infeasible-beta", f"thermal entropy at beta={beta} is zero; cannot carry x_S")
    c_beta = x.entropy / tp.entropy if x.entropy > 0.0 else 0.0
    if c_beta > 1.0 + 1e-12:
        raise DomainError(
            "infeasible-decomposition",
            f"c_beta = {c_beta:.6g} > 1: thermal entropy at beta={beta} is below x_S",
        )
    c_max = (x.energy - c_beta * tp.energy - (1.0 - c_beta) * h.e_min) / h.span
    c_min = 1.0 - c_beta - c_max
    for name, value in (("c_min", c_min), ("c_max", c_max)):
        if value < -1e-12:
            raise DomainError(
                "infeasible-decomposition",
                f"{name} = {value:.6g} < 0: no decomposition at beta={beta} for ({x.energy}, {x.entropy})",
            )
    return DecompositionWeights(c_beta, c_min, c_max)


def w_max(h: HamiltonianSpec, state: QuantumState) -> float:
    """Maximal work extractable per copy: move horizontally (entropy is
    conserved once a battery absorbs the pure energy) to the cheapest
    energy with the same entropy.

    That target sits on the positive-beta branch of the thermal curve,
    except below the ground-degeneracy plateau (S <= log g_ground) where
    the floor is E_min itself.
    """
    x = macrostate_of(state, h)
    if x.entropy <= math.log(h.g_ground) or h.e_max == h.e_min:
        floor = h.e_min
    else:
        floor = thermal_point(h, beta_from_entropy(h, x.entropy, branch="positive")).energy
    work = x.energy - floor
    # 1e-10 of the span, plus the rounding of energies far from the origin
    if work < -(h.energy_tol(1e-10) + 2 * math.ulp(max(abs(h.e_min), abs(h.e_max)))):
        raise DomainError("negative-work", f"state energy {x.energy} below its entropy floor {floor}")
    return max(0.0, work)

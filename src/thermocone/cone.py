"""The convex cone of extensive macrostates (total energy, total
entropy, amount), its ordering, and optimal conversion rates.

The cone is the homogenization of the energy-entropy diagram: a point is
a member iff its entropy coordinate is nonnegative and every athermality
functional A_beta is nonnegative on it. One state converts into another
(allowing unentangled junk to be discarded) exactly when the difference
of their points is a member, and the best conversion rate is computed
two independent ways:

* ``rate_bisect``: the boundary test along y(r) = y_rho - r*y_sigma,
  i.e. push r up to where the ray leaves the cone (authoritative). The
  first linear facet the ray crosses (size, entropy, ground or top edge,
  each in closed form) bounds r; below it, the slack of the curved facet,
  g(r) = n*S_max(E/n) - S, is concave in r with slope -A_beta(y_sigma),
  so one bracketed Newton solve from the right end finds where it
  vanishes. The name is kept from an earlier membership bisection, so
  that stored outputs keep their keys;
* ``rate_monotone``: the smallest ratio of an additive monotone
  (entropy, the A_beta family, and the two energy-edge functionals) on
  rho versus sigma, skipping zero denominators (cross-check).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagram import (
    DEFAULT_BOUNDARY_TOL,
    Verdict,
    check_tolerance,
    diagram_contains,
    max_entropy_at_energy,
)
from .errors import DomainError
from .numerics import Bracket, minimize_scalar, solve_root_bracketed
from .system import ConePoint, HamiltonianSpec, Macrostate
from .thermal import _T_CAP, _moments, beta_from_energy, log_partition, thermal_point

__all__ = ["ConePoint", "RateResult", "cone_contains", "edge_monotones", "dominates", "r_max"]

# t = beta*span samples over (-inf, inf): a tanh-uniform core, log-spaced tails to the cap
_TAIL = np.geomspace(6.0, _T_CAP, 256)
_T_GRID = np.sort(np.concatenate([2.0 * np.arctanh(np.linspace(-1.0, 1.0, 2050)[1:-1]), [0.0], _TAIL, -_TAIL]))


@dataclass(frozen=True)
class RateResult:
    """Outcome of the two rate computations.

    ``argmin_beta`` identifies the binding monotone: a finite beta for an
    athermality facet, +inf / -inf for the ground / top energy edges, and
    None when the entropy ratio binds. ``agreement_gap`` is the absolute
    difference between the two algorithms.
    """

    rate_bisect: float
    rate_monotone: float
    argmin_beta: Optional[float]
    agreement_gap: float


def cone_contains(h: HamiltonianSpec, y: ConePoint, tol: float = DEFAULT_BOUNDARY_TOL) -> Verdict:
    """Membership verdict for an extensive point.

    Points with size within ``tol`` of zero are members only if they are
    the apex, to within ``tol`` in entropy and ``tol`` of the span in
    energy above the ground line; otherwise the point is normalized and
    tested against the diagram.
    """
    check_tolerance(tol)
    if y.size < -tol:
        return Verdict.OUTSIDE
    if abs(y.size) <= tol:
        if abs(y.entropy) <= tol and abs(edge_monotones(h, y)[0]) <= h.energy_tol(tol):
            return Verdict.INSIDE
        return Verdict.OUTSIDE
    return diagram_contains(h, Macrostate(y.energy / y.size, y.entropy / y.size), tol)


def edge_monotones(h: HamiltonianSpec, y: ConePoint) -> tuple[float, float]:
    """The two limiting linear monotones (energy above the ground line,
    energy below the top line); nonnegative on cone members."""
    return (y.energy - y.size * h.e_min, y.size * h.e_max - y.energy)


def dominates(
    h: HamiltonianSpec, y_rho: ConePoint, y_sigma: ConePoint, tol: float = DEFAULT_BOUNDARY_TOL
) -> bool:
    """Asymptotic ordering: the difference of the points is a cone member."""
    return cone_contains(h, y_rho - y_sigma, tol).is_member


def _slack(y: ConePoint, beta, log_z):
    """A_beta(y) from log Z at the same beta (floats or arrays)."""
    return beta * y.energy - y.entropy + y.size * log_z


def _boundary_slack(h: HamiltonianSpec, y_rho: ConePoint, y_sigma: ConePoint, r: float):
    """(g, g') at y = y_rho - r*y_sigma, where g = n*S_max(E/n) - S is the
    slack of the curved facet and g' = -A_beta(y_sigma) at the thermal
    point of energy E/n. The slope is nan where it does not exist: at
    E/n = E_min or E_max, and at the apex n <= 0, where g is -S."""
    y = y_rho - y_sigma.scaled(r)
    if y.size <= 0.0:
        return -y.entropy, math.nan
    e = min(max(y.energy / y.size, h.e_min), h.e_max)
    if h.e_min < e < h.e_max:
        tp = thermal_point(h, beta_from_energy(h, e))
        return y.size * tp.entropy - y.entropy, -_slack(y_sigma, tp.beta, tp.log_z)
    return y.size * max_entropy_at_energy(h, e) - y.entropy, math.nan


def r_max(
    h: HamiltonianSpec,
    y_rho: ConePoint,
    y_sigma: ConePoint,
    tol: float = 1e-8,
) -> RateResult:
    """Maximal conversion rate from rho to sigma, by both algorithms;
    ``tol`` (> 0) is the relative width at which the boundary Newton
    solve stops (``rate_bisect``)."""
    check_tolerance(tol, positive=True)
    scale = max(1.0, abs(y_rho.size), abs(y_sigma.size))
    g_rho, t_rho = edge_monotones(h, y_rho)
    g_sigma, t_sigma = edge_monotones(h, y_sigma)
    zero = 1e-15 * scale
    if max(abs(y_sigma.entropy), abs(y_sigma.size)) <= zero and abs(g_sigma) <= h.energy_tol(zero):
        raise DomainError("zero-target", "target point is zero; the rate is unbounded")
    for name, y in (("source", y_rho), ("target", y_sigma)):
        if not cone_contains(h, y).is_member:
            raise DomainError("not-a-member", f"{name} point {y} is not a cone member")

    floor = 1e-12 * scale
    edge_floor = h.energy_tol(floor)
    # the ray y(r) = y_rho - r*y_sigma first crosses a linear facet (size,
    # entropy, ground or top edge) at r_hi; it crosses none only when the
    # target is zero to within the floor
    facets = zip(
        (y_rho.size, y_rho.entropy, g_rho, t_rho),
        (y_sigma.size, y_sigma.entropy, g_sigma, t_sigma),
        (0.0, floor, edge_floor, edge_floor),
    )
    r_hi = min((max(0.0, a) / b for a, b, least in facets if b > least), default=math.inf)
    if not math.isfinite(r_hi):
        raise DomainError("zero-target", "target point is zero; the rate is unbounded")

    candidates: list[tuple[float, Optional[float]]] = []
    if y_sigma.entropy > floor:
        candidates.append((max(0.0, y_rho.entropy) / y_sigma.entropy, None))
    if g_sigma > edge_floor:
        candidates.append((max(0.0, g_rho) / g_sigma, math.inf))
    if t_sigma > edge_floor:
        candidates.append((max(0.0, t_rho) / t_sigma, -math.inf))

    betas = _T_GRID / h.span if h.span > 0 else np.zeros(1)
    log_z = log_partition(h, betas)
    num = _slack(y_rho, betas, log_z)
    den = _slack(y_sigma, betas, log_z)
    ok = den > floor
    if ok.any():
        ratios = np.where(ok, np.maximum(num, 0.0) / np.where(ok, den, 1.0), np.inf)
        i = int(np.argmin(ratios))

        def ratio_at(t: float) -> tuple[float, float, float]:
            # R = N/D in t = beta*unit, with N' = (y_E - size*E)/unit and
            # N'' = size*Var/unit^2 (likewise D)
            tp, var = thermal_point(h, t / h.unit), _moments(h, t)[2]
            n, d = _slack(y_rho, tp.beta, tp.log_z), _slack(y_sigma, tp.beta, tp.log_z)
            if d <= floor:
                return math.inf, math.nan, math.nan
            if n <= 0.0:
                return 0.0, 0.0, 0.0
            dn, dd = ((y.energy - y.size * tp.energy) / h.unit for y in (y_rho, y_sigma))
            r, dr = n / d, (dn * d - n * dd) / (d * d)
            return r, dr, (var * (y_rho.size - r * y_sigma.size) - 2.0 * dr * dd) / d

        lo, mid, hi = betas[[max(0, i - 1), i, min(betas.size - 1, i + 1)]] * h.unit
        if lo < hi:
            cell = [lo, mid, hi] if lo < mid < hi else [lo, 0.5 * (lo + hi), hi]
            t_best, r_best = minimize_scalar(ratio_at, cell, refine_tol=1e-11 * max(1.0, abs(lo), abs(hi)))
            b_best = t_best / h.unit
        else:
            b_best, r_best = float(betas[i]), float(ratios[i])
        if math.isfinite(r_best):
            candidates.append((r_best, b_best))

    if not candidates:
        candidates.append((y_rho.size / y_sigma.size, None))
    rate_monotone, argmin_beta = min(candidates, key=lambda c: c[0])

    # the boundary test: where the ray leaves the cone, at r_hi or where
    # the curved facet's slack g vanishes below it
    slack = functools.cache(lambda r: _boundary_slack(h, y_rho, y_sigma, r))
    if r_hi <= 0.0 or slack(r_hi)[0] >= -floor:
        rate_bisect = r_hi  # a linear facet binds
    elif slack(0.0)[0] <= 0.0:
        rate_bisect = 0.0  # the source sits on the boundary
    else:
        # g is concave, so Newton steps from the right end never overshoot
        bracket = Bracket(0.0, r_hi, tolerance=tol * max(1.0, r_hi))
        rate_bisect = solve_root_bracketed(slack, bracket, x0=r_hi)

    return RateResult(
        rate_bisect=rate_bisect,
        rate_monotone=rate_monotone,
        argmin_beta=argmin_beta,
        agreement_gap=abs(rate_bisect - rate_monotone),
    )

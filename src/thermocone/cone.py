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
  each in closed form) bounds r at r_hi; below it the ray leaves where
  the slack of the curved facet, g = n*S_max(E/n) - S, vanishes. The
  solve runs in beta: on that facet E/n = E(beta), so
  r(beta) = (E_rho - n_rho E(beta)) / (E_sigma - n_sigma E(beta)) in
  closed form, and g at r(beta), times |E_sigma - n_sigma E(beta)| so
  that no step divides, costs one thermal point per Newton step in
  t = beta*unit. The steps start at the beta of r = 0; the bracket's far
  end is the beta already solved for at r_hi. The rate is the r-space
  Newton step (g' = -A_beta(y_sigma)) from the evaluated point where that
  weighted |g| is least: its error is second order in the point's
  distance from the root, so it stays accurate where r(beta) is steep.
  ``tol``, a relative width in r, becomes a width in t through the bound
  Var <= span^2/4.
  Three cases need care; at a fixed thermal entropy s, g is linear in r
  with root (n_rho s - S_rho) / (n_sigma s - S_sigma):
  - a vertical ray, n_sigma E_rho = n_rho E_sigma to rounding (a single
    level, a ray along an edge): E/n stays E_rho/n_rho, where s = S_max;
  - an end on an edge or at the apex: its beta is -+beta_cap, with the
    sign of n_sigma E_rho - n_rho E_sigma at the r_hi end;
  - the band beyond +-beta_cap, where ``beta_from_energy`` returns the
    cap, so S_max is s = S(+-cap): if g changes sign there, the root is
    the linear one.
  The name is kept from an earlier membership bisection, so that stored
  outputs keep their keys. The boundary test never uses the A_beta
  minimiser, so it stays independent of the monotone ratio;
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
)
from .errors import DomainError
from .numerics import Bracket, minimize_scalar, solve_root_bracketed
from .system import ConePoint, HamiltonianSpec
from .thermal import _T_CAP, _unit_point, beta_cap, beta_from_energy, log_partition

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
    return diagram_contains(h, y.normalized(), tol)


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


def _boundary_rate(h: HamiltonianSpec, y_rho: ConePoint, y_sigma: ConePoint, r_hi: float, floor: float,
                   tol: float) -> float:
    """``rate_bisect``: where y(r) = y_rho - r*y_sigma leaves the cone, at
    r_hi > 0 or at the root of the curved facet's slack g below it, solved
    in beta as the module docstring describes. A step below ``tol`` relative
    to r_hi moves r by at most that much, since Var <= span^2/4."""
    point = functools.cache(functools.partial(_unit_point, h))
    cap = beta_cap(h)
    n_rho, n_sigma = y_rho.size, y_sigma.size

    def end(y: ConePoint) -> tuple[float, float, float]:
        """(g, S_max(E/n), beta) at y: beta is +-cap on or beyond an edge, nan at the apex n <= 0."""
        if y.size <= 0.0:
            return -y.entropy, 0.0, math.nan
        e = y.energy / y.size
        if h.e_min < e < h.e_max:
            beta = beta_from_energy(h, e)
            s = point(beta)[3]
        else:
            beta, s = (cap, math.log(h.g_ground)) if e <= h.e_min else (-cap, math.log(h.g_top))
        return y.size * s - y.entropy, s, beta

    def linear_root(s: float) -> float:
        """The root of g = n(r)*s - S(r), linear in r while E/n keeps the entropy s."""
        den = n_sigma * s - y_sigma.entropy
        return min(max((n_rho * s - y_rho.entropy) / den, 0.0), r_hi) if den > 0.0 else r_hi

    g_hi, _, beta_hi = end(y_rho - y_sigma.scaled(r_hi))
    if g_hi >= -floor:
        return r_hi  # a linear facet binds
    g_0, s_0, beta_0 = end(y_rho)
    if g_0 <= 0.0:
        return 0.0  # the source sits on the boundary
    # d = n_sigma*E_rho - n_rho*E_sigma: E/n moves along the ray with the
    # sign of d, and does not move where d is 0 to the rounding of its terms
    d_rho, d_sigma = n_sigma * (y_rho.energy - n_rho * h.e_min), n_rho * (y_sigma.energy - n_sigma * h.e_min)
    d = d_rho - d_sigma
    if not h.span or abs(d) <= 4.0 * math.ulp(1.0) * (abs(d_rho) + abs(d_sigma)):
        return linear_root(s_0)  # a vertical ray: E/n stays put

    # where E/n = E(beta), r = a_rho/a_sigma with a_y = E_y - n_y*E(beta),
    # and a_sigma = -d/n(r) has the sign of -d: so f = |a_sigma|*g has g's
    # sign and root with no division, and its t-derivative,
    # |a_sigma|*g' + g*d|a_sigma|/dt, is -+(Var/unit)*(n_rho S_sigma - n_sigma S_rho + beta*d)
    side = -math.copysign(1.0, d)
    k = n_rho * y_sigma.entropy - n_sigma * y_rho.entropy

    def at(beta: float) -> tuple[float, float, float, float]:
        """(f, df/dt, |a_sigma|, the r-space Newton step r - g/g') where
        E/n = E(beta); the step is A_beta(y_rho)/A_beta(y_sigma), as
        g' = -A_beta(y_sigma)."""
        ref, _, rel, s, var = point(beta)
        a_rho, a_sigma = ((y.energy - y.size * ref) - y.size * rel * h.unit for y in (y_rho, y_sigma))
        c_rho, c_sigma = n_rho * s - y_rho.entropy, n_sigma * s - y_sigma.entropy
        f = side * (a_sigma * c_rho - a_rho * c_sigma)
        a_sigma_beta = beta * a_sigma + c_sigma
        step = (beta * a_rho + c_rho) / a_sigma_beta if a_sigma_beta > 0.0 else math.nan
        return f, side * var * h.unit * (k + beta * d), abs(a_sigma), step

    # an end on an edge, at the apex or in the band beyond the cap is the
    # cap point; where g changes sign in the band, g is linear there
    known = {}
    if abs(beta_0) == cap:
        if at(beta_0)[0] <= 0.0:
            return linear_root(point(beta_0)[3])
    else:
        known[beta_0] = g_0
    if math.isnan(beta_hi) or abs(beta_hi) == cap:
        beta_hi = -math.copysign(cap, d) if math.isnan(beta_hi) else beta_hi
        if at(beta_hi)[0] >= 0.0:
            return linear_root(point(beta_hi)[3])
    else:
        known[beta_hi] = g_hi
    if beta_0 == beta_hi:
        return linear_root(s_0)

    # Newton steps in t = beta*unit from the source's end; the rate is the
    # r-space Newton step from the evaluated point of least |f| (the solver
    # returns its last step's end, which it does not evaluate)
    best = [math.inf, r_hi]

    def f(t: float) -> tuple[float, float]:
        beta = t / h.unit
        value, slope, scale, step = at(beta)
        if beta in known:
            value = scale * known[beta]
        if abs(value) < best[0] and math.isfinite(step):
            best[:] = abs(value), step
        return value, slope

    n_max = max(n_rho, n_rho - r_hi * n_sigma)
    tol_t = 4.0 * tol * max(1.0, r_hi) * abs(d) * h.unit / (n_max * h.span) ** 2
    t_0, t_hi = beta_0 * h.unit, beta_hi * h.unit
    solve_root_bracketed(f, Bracket(min(t_0, t_hi), max(t_0, t_hi), tolerance=max(tol_t, math.ulp(1.0))), x0=t_0)
    return min(max(best[1], 0.0), r_hi)


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
            # N'' = size*Var/unit^2 (likewise D); log Z, E and Var come from
            # one kernel point (the unit is a power of two: t/unit*unit == t)
            beta = t / h.unit
            ref, log_z, rel, _, var = _unit_point(h, beta)
            log_z, energy = log_z - beta * ref, ref + rel * h.unit
            n, d = _slack(y_rho, beta, log_z), _slack(y_sigma, beta, log_z)
            if d <= floor:
                return math.inf, math.nan, math.nan
            if n <= 0.0:
                return 0.0, 0.0, 0.0
            dn, dd = ((y.energy - y.size * energy) / h.unit for y in (y_rho, y_sigma))
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

    rate_bisect = _boundary_rate(h, y_rho, y_sigma, r_hi, floor, tol) if r_hi > 0.0 else r_hi

    return RateResult(
        rate_bisect=rate_bisect,
        rate_monotone=rate_monotone,
        argmin_beta=argmin_beta,
        agreement_gap=abs(rate_bisect - rate_monotone),
    )

"""Partition function, thermal states, and the inverse problems
(inverse temperature from energy or from entropy) for beta anywhere in
[-inf, +inf].

Negative temperatures are first class: they describe population-inverted
(active) states and trace the right-hand half of the thermal curve. All
evaluations shift the Boltzmann weights to the plateau level on beta's
side, so no overflow occurs for any finite beta; beyond ``beta_cap`` the
curve is numerically flat and the exact plateau values are returned. One
formula has two kernels: a scalar one (``thermal_point`` and the inverse
solvers) and an array one (``thermal_points`` and ``log_partition``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .numerics import Bracket, solve_root_bracketed
from .system import HamiltonianSpec

__all__ = [
    "ThermalPoint",
    "beta_cap",
    "log_partition",
    "thermal_point",
    "thermal_points",
    "beta_from_energy",
    "beta_from_entropy",
    "energy_variance",
]


@dataclass(frozen=True)
class ThermalPoint:
    """One sample (beta, log Z, average energy, entropy) on the thermal curve."""

    beta: float
    log_z: float
    energy: float
    entropy: float


def beta_cap(h: HamiltonianSpec) -> float:
    """Largest |beta| worth resolving: 750/(E_max - E_min).

    Beyond this the Boltzmann weights have collapsed to the extreme level
    at double precision, so the curve sits on its plateau.
    """
    span = h.e_max - h.e_min
    return 750.0 / span if span > 0 else math.inf


def _beyond_cap(h: HamiltonianSpec, beta):
    """The plateau rule, for one beta or an array of them: +-inf and
    finite |beta| > beta_cap sit on the plateau."""
    mag = abs(beta)
    return (mag > beta_cap(h)) | (mag == math.inf)


def _plateau(h: HamiltonianSpec, beta: float) -> ThermalPoint:
    if beta > 0:
        e, g = h.e_min, h.g_ground
    else:
        e, g = h.e_max, h.g_top
    log_z = math.log(g) if e == 0.0 else math.log(g) - beta * e
    return ThermalPoint(beta=beta, log_z=log_z, energy=e, entropy=math.log(g))


def _shifted_weights(h: HamiltonianSpec, beta: float):
    """Scalar kernel at finite beta: Boltzmann weights shifted to the
    plateau level ``ref`` on beta's side (E_min for beta >= +0.0, E_max
    for beta <= -0.0), so none exceeds its degeneracy. Returns (ref,
    g_ref, rest, rel, weights): ``rest`` sums the weights off the ref
    level, z = g_ref + rest, rel = E - ref, and ``weights`` holds the
    (w_i, e_i - ref) pairs."""
    ref, g_ref = (h.e_max, h.g_top) if math.copysign(1.0, beta) < 0 else (h.e_min, h.g_ground)
    weights = [(g * math.exp(-beta * (e - ref)), e - ref) for e, g in h.levels]
    rest = sum(w for w, d in weights if d != 0.0)
    rel = sum(w * d for w, d in weights) / (g_ref + rest)
    return ref, g_ref, rest, rel, weights


def _shifted_weight_rows(h: HamiltonianSpec, b: np.ndarray):
    """Array kernel: ``_shifted_weights`` for each finite beta of ``b``,
    as (ref, d, w, z) with d = e_i - ref and the weights w as (len(b),
    levels) arrays. Sums run in level order (``cumsum``), as in the
    scalar kernel, so both kernels round alike."""
    top = np.signbit(b)
    ref = np.where(top, h.e_max, h.e_min)
    d = h.energies() - ref[:, None]
    w = h.degeneracies() * np.exp(-b[:, None] * d)
    rest = np.cumsum(np.where(d != 0.0, w, 0.0), axis=1)[:, -1]
    return ref, d, w, np.where(top, h.g_top, h.g_ground) + rest


def log_partition(h: HamiltonianSpec, betas) -> np.ndarray:
    """log Z = log z - beta*ref at each finite beta (vectorized)."""
    b = np.atleast_1d(np.asarray(betas, dtype=float))
    ref, _, _, z = _shifted_weight_rows(h, b)
    return np.log(z) - b * ref


def thermal_point(h: HamiltonianSpec, beta: float) -> ThermalPoint:
    """The thermal state's (log Z, E, S) at inverse temperature ``beta``.

    ``beta`` may be +-inf; the ground plateau (E_min, log g_ground) and the
    top plateau (E_max, log g_top) are returned exactly there, and also for
    any finite beta beyond the cap.
    """
    if math.isnan(beta):
        raise ValidationError("bad-beta", "beta must not be NaN")
    if _beyond_cap(h, beta):
        return _plateau(h, beta)
    ref, g_ref, rest, rel, _ = _shifted_weights(h, beta)
    log_z = math.log(g_ref + rest)
    # S = log z + beta*rel: both terms share one sign, so the sum never cancels
    entropy = min(max(log_z + beta * rel, 0.0), h.log_dim)
    return ThermalPoint(beta=float(beta), log_z=log_z - beta * ref, energy=ref + rel, entropy=entropy)


def thermal_points(h: HamiltonianSpec, betas) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (beta, log Z, E, S) at each of ``betas``: ``thermal_point``
    for a whole sweep at once, with the same plateau rule."""
    b = np.array(betas, dtype=float, ndmin=1)
    if np.isnan(b).any():
        raise ValidationError("bad-beta", "beta must not be NaN")
    plateau = _beyond_cap(h, b)
    finite_b = np.where(plateau, 0.0, b)
    ref, d, w, z = _shifted_weight_rows(h, finite_b)
    rel = np.cumsum(w * d, axis=1)[:, -1] / z
    log_z = np.log(z)
    entropy = np.clip(log_z + finite_b * rel, 0.0, h.log_dim)
    log_z -= finite_b * ref
    energy = ref + rel
    for i in np.flatnonzero(plateau):
        p = _plateau(h, float(b[i]))
        log_z[i], energy[i], entropy[i] = p.log_z, p.energy, p.entropy
    return b, log_z, energy, entropy


def _require_nondegenerate(h: HamiltonianSpec):
    if h.e_max == h.e_min:
        raise DomainError(
            "degenerate-hamiltonian", "all levels share one energy; the thermal curve is a single point"
        )


def _moments(h: HamiltonianSpec, beta: float) -> tuple[float, float, float]:
    """Scalar (E - ref, S - log g_ref, Var) of tau_beta at finite beta,
    the fast path of the inverse solvers. Both gaps are sums of
    like-signed terms and keep full relative precision near the plateau;
    Var is in centred form.
    """
    _, g_ref, rest, rel, weights = _shifted_weights(h, beta)
    var = sum(w * (d - rel) ** 2 for w, d in weights) / (g_ref + rest)
    return rel, math.log1p(rest / g_ref) + beta * rel, var


def _fold_solve(h: HamiltonianSpec, sign: float, gap, target: float, m0, x0: float) -> float:
    """beta = sign*b solving gap(moments at beta, b) = target on
    [0, beta_cap], where ``gap`` gives the distance of E or S from its
    plateau and the b-derivative (``m0``: moments at b = 0). Newton steps
    from ``x0`` act on log(gap/target), almost linear as the gap decays,
    in the unit-free t = b*span; sign*cap if the target is not reached."""
    cap, span = beta_cap(h), h.e_max - h.e_min

    def f(t):
        g, slope = gap(m0 if t == 0.0 else _moments(h, sign * t / span), t / span)
        return (math.log(g / target), slope / g / span) if g > 0.0 else (-math.inf, 0.0)

    try:
        t = solve_root_bracketed(f, Bracket(0.0, cap * span, tolerance=1e-14 * cap * span), x0=x0 * span)
    except DomainError:
        return sign * cap
    return sign * min(t / span, cap)


def beta_from_energy(h: HamiltonianSpec, energy: float) -> float:
    """Invert E(tau_beta) = energy.

    E(tau_beta) decreases strictly in beta, so the root is unique; valid
    for energy strictly inside (E_min, E_max).
    """
    _require_nondegenerate(h)
    if not h.e_min < energy < h.e_max:
        raise DomainError(
            "energy-out-of-range", f"energy {energy} not strictly inside ({h.e_min}, {h.e_max})"
        )
    # fold beta < 0 onto b = -beta and solve for the distance to the
    # plateau being approached, using dE/dbeta = -Var
    sign = 1.0 if energy < h.mixed_energy() else -1.0
    target = sign * (energy - (h.e_min if sign > 0 else h.e_max))
    m0 = _moments(h, sign * 0.0)
    if sign * m0[0] <= target:
        return 0.0
    return _fold_solve(h, sign, lambda m, b: (sign * m[0], -m[2]), target, m0, 0.0)


def beta_from_entropy(h: HamiltonianSpec, entropy: float, branch: str = "positive") -> float:
    """Invert S(tau_beta) = entropy on one sign branch of beta.

    The positive branch runs from S = log(dim) at beta=0 down to the
    ground plateau log(g_ground); the negative branch mirrors it toward
    the top plateau. Entropy at or below the branch floor raises a domain
    error (the caller decides what the plateau means for it).
    """
    if branch not in ("positive", "negative"):
        raise ValidationError("bad-branch", f"branch must be 'positive' or 'negative', got {branch!r}")
    _require_nondegenerate(h)
    floor = math.log(h.g_ground if branch == "positive" else h.g_top)
    if entropy > h.log_dim + 1e-12:
        raise DomainError("entropy-out-of-range", f"entropy {entropy} exceeds log d = {h.log_dim}")
    if entropy <= floor:
        raise DomainError(
            "entropy-below-plateau",
            f"entropy {entropy} is at or below the {branch}-branch floor log g = {floor}",
        )
    # entropy falls off monotonically on either side of beta = 0; fold the
    # negative branch onto the positive one and solve there, using
    # dS/dbeta = -beta*Var
    sign = 1.0 if branch == "positive" else -1.0
    target = entropy - floor
    m0 = _moments(h, sign * 0.0)
    if m0[1] <= target:
        return 0.0
    # dS/dbeta vanishes at beta = 0, so start from the quadratic model
    # S ~ log d - beta^2 Var(0)/2 instead of the endpoint
    x0 = math.sqrt(2.0 * (m0[1] - target) / m0[2])
    return _fold_solve(h, sign, lambda m, b: (m[1], -b * m[2]), target, m0, x0)


def energy_variance(h: HamiltonianSpec, beta: float) -> float:
    """Variance of energy in the thermal state; equals -dE/dbeta."""
    if not math.isfinite(beta):
        raise ValidationError("bad-beta", "beta must be finite")
    cap = beta_cap(h)
    return _moments(h, min(max(beta, -cap), cap))[2]

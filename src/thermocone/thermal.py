"""Partition function, thermal states, and the inverse problems
(inverse temperature from energy or from entropy) for beta anywhere in
[-inf, +inf].

Negative temperatures are first class: they describe population-inverted
(active) states and trace the right-hand half of the thermal curve. The
kernels run in the exact units of ``HamiltonianSpec.unit`` (t = beta*unit,
energies (e - ref)/unit; the public functions map back) with the weights
shifted to the plateau level ``ref`` on beta's side, so nothing overflows;
beyond ``beta_cap`` the curve is numerically flat and the exact plateau
values are returned. One formula has two kernels: a scalar one
(``thermal_point`` and the inverse solvers) and an array one
(``thermal_points`` and ``log_partition``).
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


_T_CAP = 750.0


def beta_cap(h: HamiltonianSpec) -> float:
    """Largest |beta| worth resolving, 750/(E_max - E_min): beyond it the
    Boltzmann weights have collapsed to the extreme level at double
    precision, so the curve sits on its plateau."""
    return _T_CAP / h.span if h.span > 0 else math.inf


def _beyond_cap(h: HamiltonianSpec, beta):
    """The plateau rule, for one beta or an array of them: +-inf and
    finite |beta| > beta_cap sit on the plateau."""
    mag = abs(beta)
    return (mag > beta_cap(h)) | (mag == math.inf)


def _shifted_weights(h: HamiltonianSpec, t: float):
    """Scalar kernel at finite t: weights shifted to ``ref`` (E_min for
    t >= +0.0, E_max for t <= -0.0), so none exceeds its degeneracy.
    Returns (ref, g_ref, rest, rel, weights): ``rest`` sums the weights
    off the ref level, z = g_ref + rest, rel = (E - ref)/unit, and
    ``weights`` holds the (w_i, (e_i - ref)/unit) pairs."""
    top = math.copysign(1.0, t) < 0
    ref, g_ref = (h.e_max, h.g_top) if top else (h.e_min, h.g_ground)
    weights = [(g * math.exp(-t * d), d) for d, g in h.unit_levels[top]]
    rest = sum(w for w, d in weights if d != 0.0)
    rel = sum(w * d for w, d in weights) / (g_ref + rest)
    return ref, g_ref, rest, rel, weights


def _shifted_weight_rows(h: HamiltonianSpec, t: np.ndarray):
    """Array kernel: ``_shifted_weights`` for each finite t, as (ref, d,
    w, z) with d = (e_i - ref)/unit and the weights w as (len(t), levels)
    arrays. Sums run in level order (``cumsum``), as in the scalar
    kernel, so both kernels round alike."""
    top = np.signbit(t)
    ref = np.where(top, h.e_max, h.e_min)
    levels = np.array(h.unit_levels)
    d = levels[top.astype(np.intp), :, 0]
    w = levels[0, :, 1] * np.exp(-t[:, None] * d)
    rest = np.cumsum(np.where(d != 0.0, w, 0.0), axis=1)[:, -1]
    return ref, d, w, np.where(top, h.g_top, h.g_ground) + rest


def log_partition(h: HamiltonianSpec, betas) -> np.ndarray:
    """log Z = log z - beta*ref at each finite beta (vectorized)."""
    b = np.atleast_1d(np.asarray(betas, dtype=float))
    ref, _, _, z = _shifted_weight_rows(h, b * h.unit)
    return np.log(z) - b * ref


def _unit_point(h: HamiltonianSpec, beta: float) -> tuple[float, float, float, float]:
    """``thermal_point`` in kernel units: (ref, log z, rel, S) with E = ref
    + rel*unit and log Z = log z - beta*ref; on the plateau, rel = 0."""
    if math.isnan(beta):
        raise ValidationError("bad-beta", "beta must not be NaN")
    if _beyond_cap(h, beta):
        ref, g = (h.e_max, h.g_top) if beta < 0 else (h.e_min, h.g_ground)
        return ref, math.log(g), 0.0, math.log(g)
    t = beta * h.unit
    ref, g_ref, rest, rel, _ = _shifted_weights(h, t)
    log_z = math.log(g_ref + rest)
    # S = log z + t*rel: both terms share one sign, so the sum never cancels
    return ref, log_z, rel, min(max(log_z + t * rel, 0.0), h.log_dim)


def thermal_point(h: HamiltonianSpec, beta: float) -> ThermalPoint:
    """The thermal state's (log Z, E, S) at inverse temperature ``beta``.

    ``beta`` may be +-inf; the ground plateau (E_min, log g_ground) and the
    top plateau (E_max, log g_top) are returned exactly there, and also for
    any finite beta beyond the cap.
    """
    ref, log_z, rel, entropy = _unit_point(h, beta)
    # ref == 0 skips beta*ref, which is nan at beta = +-inf
    log_z = log_z - beta * ref if ref else log_z
    return ThermalPoint(beta=float(beta), log_z=log_z, energy=ref + rel * h.unit, entropy=entropy)


def thermal_points(h: HamiltonianSpec, betas) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (beta, log Z, E, S) at each of ``betas``: ``thermal_point``
    for a whole sweep at once, with the same plateau rule."""
    b = np.array(betas, dtype=float, ndmin=1)
    if np.isnan(b).any():
        raise ValidationError("bad-beta", "beta must not be NaN")
    plateau = _beyond_cap(h, b)
    finite_b = np.where(plateau, 0.0, b)
    t = finite_b * h.unit
    ref, d, w, z = _shifted_weight_rows(h, t)
    rel = np.cumsum(w * d, axis=1)[:, -1] / z
    log_z = np.log(z)
    entropy = np.clip(log_z + t * rel, 0.0, h.log_dim)
    log_z -= finite_b * ref
    energy = ref + rel * h.unit
    for i in np.flatnonzero(plateau):
        p = thermal_point(h, float(b[i]))
        log_z[i], energy[i], entropy[i] = p.log_z, p.energy, p.entropy
    return b, log_z, energy, entropy


def _curve_step(h: HamiltonianSpec, beta1: float, beta2: float) -> tuple[float, float]:
    """(S(tau_b1) - S(tau_b2), E(tau_b1) - E(tau_b2)); the energy step is
    taken in kernel units, free of rounding at the energies' origin."""
    ref1, _, rel1, s1 = _unit_point(h, beta1)
    ref2, _, rel2, s2 = _unit_point(h, beta2)
    return s1 - s2, (ref1 - ref2) + (rel1 - rel2) * h.unit


def _moments(h: HamiltonianSpec, t: float) -> tuple[float, float, float]:
    """Scalar ((E - ref)/unit, S - log g_ref, Var/unit^2) at finite t, the
    fast path of the inverse solvers: both gaps are sums of like-signed terms
    and keep full relative precision near the plateau; Var is centred."""
    _, g_ref, rest, rel, weights = _shifted_weights(h, t)
    var = sum(w * (d - rel) ** 2 for w, d in weights) / (g_ref + rest)
    return rel, math.log1p(rest / g_ref) + t * rel, var


def _fold_solve(h: HamiltonianSpec, sign: float, gap, target: float, start) -> float:
    """beta = sign*t/unit solving gap(moments at sign*t, t) = target on
    [0, beta_cap*unit], where ``gap`` gives the distance of E/unit or S
    from its plateau and the t-derivative: 0 if the target is met at t = 0.
    Newton steps from ``start(moments at t = 0)`` act on log(gap/target),
    almost linear as the gap decays; sign*beta_cap if it is not reached."""
    m0 = _moments(h, sign * 0.0)
    if gap(m0, 0.0)[0] <= target:
        return 0.0
    cap = beta_cap(h) * h.unit

    def f(t):
        g, slope = gap(m0 if t == 0.0 else _moments(h, sign * t), t)
        return (math.log(g / target), slope / g) if g > 0.0 else (-math.inf, 0.0)

    try:
        t = solve_root_bracketed(f, Bracket(0.0, cap, tolerance=1e-14 * cap), x0=start(m0))
    except DomainError:
        t = cap
    return sign * min(t, cap) / h.unit


def beta_from_energy(h: HamiltonianSpec, energy: float) -> float:
    """Invert E(tau_beta) = energy.

    E(tau_beta) decreases strictly in beta, so the root is unique; valid
    for energy strictly inside (E_min, E_max).
    """
    h.require_span()
    if not h.e_min < energy < h.e_max:
        raise DomainError(
            "energy-out-of-range", f"energy {energy} not strictly inside ({h.e_min}, {h.e_max})"
        )
    # fold beta < 0 onto t = -beta*unit and solve for the distance, in
    # kernel units, to the plateau being approached, using
    # d(E/unit)/dt = -Var/unit^2
    sign = 1.0 if energy < h.mixed_energy() else -1.0
    target = sign * (energy - (h.e_min if sign > 0 else h.e_max)) / h.unit
    return _fold_solve(h, sign, lambda m, t: (sign * m[0], -m[2]), target, lambda m0: 0.0)


def beta_from_entropy(h: HamiltonianSpec, entropy: float, branch: str = "positive") -> float:
    """Invert S(tau_beta) = entropy on one sign branch of beta.

    The positive branch runs from S = log(dim) at beta=0 down to the
    ground plateau log(g_ground); the negative branch mirrors it toward
    the top plateau. Entropy at or below the branch floor raises a domain
    error (the caller decides what the plateau means for it).
    """
    if branch not in ("positive", "negative"):
        raise ValidationError("bad-branch", f"branch must be 'positive' or 'negative', got {branch!r}")
    h.require_span()
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
    # dS/dt = -t*Var/unit^2
    sign = 1.0 if branch == "positive" else -1.0
    target = entropy - floor
    # dS/dt vanishes at t = 0, so start from the quadratic model
    # S ~ log d - t^2 Var(0)/(2 unit^2) instead of the endpoint
    start = lambda m0: math.sqrt(2.0 * (m0[1] - target) / m0[2])
    return _fold_solve(h, sign, lambda m, t: (m[1], -t * m[2]), target, start)


def energy_variance(h: HamiltonianSpec, beta: float) -> float:
    """Variance of energy in the thermal state; equals -dE/dbeta."""
    if not math.isfinite(beta):
        raise ValidationError("bad-beta", "beta must be finite")
    cap = beta_cap(h)
    return _moments(h, min(max(beta, -cap), cap) * h.unit)[2] * h.unit * h.unit

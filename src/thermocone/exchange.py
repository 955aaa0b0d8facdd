"""State conversion against a finite thermal reservoir and a battery:
reservoir sizing, effective temperature, work, heat, erasure cost, the
infinite-bath limit, and engine/refrigerator efficiencies.

The reservoir holds m copies of a thermal state whose inverse
temperature moves from beta1 to beta2 during the conversion; the battery
holds pure extreme-energy states. Entropy bookkeeping fixes m, energy
bookkeeping fixes the battery count, and everything is reported per copy
of the converted system. The chord slope of the thermal curve between
the two reservoir points acts as an effective inverse temperature:

    beta_eff = (S(tau_b1) - S(tau_b2)) / (E(tau_b1) - E(tau_b2))

    W = (E(rho) - E(sigma)) - beta_eff^-1 (S(rho) - S(sigma))
    Q = beta_eff^-1 (S(sigma) - S(rho))

so Q - W = E(sigma) - E(rho) (first law) holds identically, and in the
limit beta2 -> beta1 both reduce to the usual free-energy expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .system import HamiltonianSpec, Macrostate, QuantumState, macrostate_of
from .thermal import _curve_step, energy_variance, thermal_point

__all__ = [
    "ExchangeSpec",
    "ExchangeResult",
    "ReservoirSizing",
    "EnginePerformance",
    "beta_eff",
    "reservoir_ratio",
    "work_heat",
    "erasure_work",
    "reservoir_size_for_epsilon",
    "engine_efficiencies",
]

@dataclass(frozen=True)
class ExchangeSpec:
    """A conversion rho -> sigma against a reservoir going beta1 -> beta2."""

    hamiltonian: HamiltonianSpec
    rho: QuantumState
    sigma: QuantumState
    beta1: float
    beta2: float


@dataclass(frozen=True)
class ExchangeResult:
    """Per-copy bookkeeping of a finite-reservoir conversion.

    ``ell_over_n`` is the battery size W/(E_max - E_min), kept signed;
    ``battery_reversed`` flags the work-injection direction (battery runs
    from its top state down to the ground state).
    """

    m_over_n: float
    ell_over_n: float
    beta_eff: float
    work: float
    heat: float
    battery_reversed: bool


@dataclass(frozen=True)
class ReservoirSizing:
    """Reservoir size per system copy for a small temperature change."""

    leading_term: float
    exact_ratio: float
    epsilon: float


@dataclass(frozen=True)
class EnginePerformance:
    eta_engine: float
    eta_refrigerator: float
    work: float
    q_hot: float
    q_cold: float


def beta_eff(h: HamiltonianSpec, beta1: float, beta2: float) -> float:
    """Chord slope of the thermal curve between beta1 and beta2.

    Symmetric in its arguments and strictly between them; for betas
    within 1e-6 of each other in t = beta*span the 0/0 quotient is
    replaced by the tangent slope at the midpoint (the slope of the curve
    at beta is beta itself).
    """
    if not (math.isfinite(beta1) and math.isfinite(beta2)):
        raise ValidationError("bad-beta", "reservoir betas must be finite")
    h.require_span()
    if abs(beta1 - beta2) * h.span < 1e-6 * (1.0 + abs(beta1) * h.span):
        return 0.5 * (beta1 + beta2)
    ds, de = _curve_step(h, beta1, beta2)
    return ds / de


def _reservoir_ratio(spec: ExchangeSpec, x_rho: Macrostate, x_sigma: Macrostate) -> float:
    """m/n = (S(sigma)-S(rho)) / (S(tau_b1)-S(tau_b2)); raises on inconsistent signs."""
    ds_system = x_sigma.entropy - x_rho.entropy
    p1 = thermal_point(spec.hamiltonian, spec.beta1)
    p2 = thermal_point(spec.hamiltonian, spec.beta2)
    ds_reservoir = p1.entropy - p2.entropy
    if ds_system == 0.0:
        return 0.0
    if ds_reservoir == 0.0:
        raise ValidationError(
            "equal-reservoir-betas",
            "beta1 and beta2 give equal reservoir entropy but the system entropy changes; "
            "a finite reservoir cannot absorb the difference",
        )
    if (ds_system > 0) != (ds_reservoir > 0):
        raise DomainError(
            "direction-mismatch",
            "reservoir betas are ordered against the entropy flow: the reservoir must take up "
            f"the system's entropy change ({ds_system:+.6g}), which moves its own entropy the "
            "same way; swap beta1 and beta2",
        )
    return ds_system / ds_reservoir


def reservoir_ratio(spec: ExchangeSpec) -> float:
    """Reservoir copies per system copy: m/n = dS_system / dS_reservoir."""
    h = spec.hamiltonian
    return _reservoir_ratio(spec, macrostate_of(spec.rho, h), macrostate_of(spec.sigma, h))


def work_heat(spec: ExchangeSpec) -> ExchangeResult:
    """Work extracted and heat provided per copy, with the reservoir and
    battery sizes that realize the conversion."""
    h = spec.hamiltonian
    x_rho, x_sigma = macrostate_of(spec.rho, h), macrostate_of(spec.sigma, h)
    m_over_n = _reservoir_ratio(spec, x_rho, x_sigma)
    b_eff = beta_eff(h, spec.beta1, spec.beta2)
    work = (x_rho.energy - x_sigma.energy) - (x_rho.entropy - x_sigma.entropy) / b_eff
    heat = (x_sigma.entropy - x_rho.entropy) / b_eff
    return ExchangeResult(
        m_over_n=m_over_n,
        ell_over_n=work / h.span,
        beta_eff=b_eff,
        work=work,
        heat=heat,
        battery_reversed=work < 0.0,
    )


def erasure_work(
    h: HamiltonianSpec, rho: QuantumState, sigma: QuantumState, beta1: float, beta2: float
) -> float:
    """Work cost of resetting a memory at fixed energy against a finite
    reservoir: beta_eff^-1 (S(rho) - S(sigma)).

    For a maximally mixed to pure reset this is beta_eff^-1 log d, and it
    converges to the familiar beta^-1 log d as the reservoir grows.
    """
    x_rho = macrostate_of(rho, h)
    x_sigma = macrostate_of(sigma, h)
    if abs(x_rho.energy - x_sigma.energy) > 1e-9 * h.span:
        raise DomainError(
            "energy-mismatch",
            f"erasure requires equal energies, got {x_rho.energy} vs {x_sigma.energy}",
        )
    return (x_rho.entropy - x_sigma.entropy) / beta_eff(h, beta1, beta2)


def reservoir_size_for_epsilon(
    h: HamiltonianSpec, rho: QuantumState, sigma: QuantumState, beta1: float, epsilon: float
) -> ReservoirSizing:
    """Reservoir size needed so its temperature only moves by epsilon:
    leading term (S(sigma)-S(rho)) / (beta1 Var(H) epsilon), returned
    alongside the exact ratio at beta2 = beta1 + epsilon."""
    if epsilon == 0.0:
        raise ValidationError("bad-epsilon", "epsilon must be nonzero")
    if beta1 == 0.0:
        raise DomainError("bad-beta", "the small-epsilon expansion degenerates at beta1 = 0")
    var = energy_variance(h, beta1)
    if var <= 0.0:
        raise DomainError("zero-variance", "energy variance vanishes; no reservoir response")
    x_rho = macrostate_of(rho, h)
    x_sigma = macrostate_of(sigma, h)
    ds_system = x_sigma.entropy - x_rho.entropy
    if ds_system == 0.0:
        return ReservoirSizing(0.0, 0.0, epsilon)
    exact = _reservoir_ratio(ExchangeSpec(h, rho, sigma, beta1, beta1 + epsilon), x_rho, x_sigma)
    return ReservoirSizing(ds_system / (beta1 * var * epsilon), exact, epsilon)


def engine_efficiencies(
    h: HamiltonianSpec,
    beta_cold: float,
    beta_less_cold: float,
    beta_less_hot: float,
    beta_hot: float,
) -> EnginePerformance:
    """Best efficiency of any engine (or refrigerator) run between two
    finite reservoirs that assimilate from (cold, hot) to (less-cold,
    less-hot).

    Both efficiencies depend only on the two chord slopes and are
    strictly below their Carnot values; they approach Carnot as the
    temperature changes of the reservoirs shrink.
    """
    if not beta_cold > beta_less_cold > beta_less_hot > beta_hot:
        raise DomainError(
            "bad-ordering",
            "need beta_cold > beta_less_cold > beta_less_hot > beta_hot, got "
            f"({beta_cold}, {beta_less_cold}, {beta_less_hot}, {beta_hot})",
        )
    if beta_hot <= 0.0:
        raise DomainError("bad-ordering", "reservoir temperatures must be positive (beta_hot > 0)")
    b_c = beta_eff(h, beta_cold, beta_less_cold)
    b_h = beta_eff(h, beta_hot, beta_less_hot)
    # the cold reservoir's (entropy, energy) drop from now to later
    ds, de = _curve_step(h, beta_cold, beta_less_cold)
    return EnginePerformance(
        eta_engine=1.0 - b_h / b_c,
        eta_refrigerator=1.0 / (b_c / b_h - 1.0),
        work=de - ds / b_h,
        q_hot=-ds / b_h,
        q_cold=-de,
    )

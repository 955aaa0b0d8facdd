"""Invariance under a change of energy unit and origin, E -> c*E + b with
beta -> beta/c: the energy-entropy diagram has no background temperature,
so membership verdicts, both r_max rates, W_max/c and the exchange
quantities (W/c, Q/c, c*beta_eff) must not depend on (c, b).

Each case moves a random 2-6-level degenerate Hamiltonian and its states by
c in {1e-12, ..., 1e12} and a shift |b| up to 1e6 * span. Tolerances are a
relative error plus the inputs' own rounding: a moved level is known to
eps * max|E| / span of the span, where no method can do better.
"""

import math

import numpy as np
import pytest

from thermocone import (
    ConePoint,
    ExchangeSpec,
    HamiltonianSpec,
    Macrostate,
    QuantumState,
    Verdict,
    cone_contains,
    diagram_contains,
    macrostate_of,
    max_entropy_at_energy,
    r_max,
    validate_state,
    w_max,
    work_heat,
)

from conftest import random_density_matrix, random_hamiltonian

SCALES = (1e-12, 1e-9, 1e-6, 1e6, 1e12)
CASES = 12
EPS = float(np.finfo(float).eps)
# t = beta*span reaches the cap 750, so a relative energy error shows up
# in an entropy or a slack up to about 1e3 times larger
CONDITION = 1e3


def _moved_cases(seed: int, c: float):
    """(rng, h, moved h, move, rounding) for CASES random Hamiltonians:
    ``move(E)`` is c*E + b, and ``rounding`` is the moved levels' own
    resolution relative to the span, plus that of the unmoved ones."""
    rng = np.random.default_rng(seed)
    for _ in range(CASES):
        h = random_hamiltonian(rng, d_min=2, d_max=6, degenerate=True)
        shift = 0.0 if rng.integers(4) == 0 else float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 6.0))
        b = shift * c * h.span

        def move(e, b=b):
            return c * e + b

        moved = HamiltonianSpec(tuple((move(e), g) for e, g in h.levels))
        rounding = EPS * (
            max(abs(moved.e_min), abs(moved.e_max)) / moved.span + max(abs(h.e_min), abs(h.e_max)) / h.span
        )
        yield rng, h, moved, move, rounding


def _random_state(rng, h: HamiltonianSpec) -> tuple[np.ndarray, float]:
    """(spectrum, energy) of a random density matrix on ``h``."""
    rho = random_density_matrix(rng, h.dim)
    return np.linalg.eigvalsh(rho).clip(0.0, None), float(np.dot(h.expanded_energies(), rho.diagonal().real))


def _thermal_state(rng, h: HamiltonianSpec) -> tuple[np.ndarray, float]:
    """(spectrum, energy) of the exact thermal state at a random t = beta*span."""
    beta = float(rng.uniform(-5.0, 5.0)) / h.span
    e = h.expanded_energies()
    p = np.exp(-beta * (e - (e.min() if beta > 0 else e.max())))
    p /= p.sum()
    return p, float(np.dot(p, e))


@pytest.mark.parametrize("c", SCALES)
def test_diagram_verdicts(c):
    checked = 0
    for rng, h, moved, move, _ in _moved_cases(101, c):
        for _ in range(25):
            energy = h.e_min + float(rng.uniform(-0.1, 1.1)) * h.span
            entropy = float(rng.uniform(0.0, 1.1)) * h.log_dim
            clamped = min(max(energy, h.e_min), h.e_max)
            margins = (
                abs(energy - h.e_min) / h.span,
                abs(energy - h.e_max) / h.span,
                entropy,
                abs(entropy - max_entropy_at_energy(h, clamped)),
            )
            if min(margins) <= 1e-6:
                continue
            want = diagram_contains(h, Macrostate(energy, entropy))
            assert want is not Verdict.BOUNDARY
            assert diagram_contains(moved, Macrostate(move(energy), entropy)) is want, (h, c, energy, entropy)
            checked += 1
    assert checked > 200


@pytest.mark.parametrize("c", SCALES)
def test_r_max_rates(c):
    for rng, h, moved, move, rounding in _moved_cases(202, c):
        for _ in range(5):
            points = []
            for _ in range(2):
                spectrum, energy = _random_state(rng, h)
                x = macrostate_of(QuantumState.from_spectrum(spectrum, energy), h)
                n = float(rng.uniform(0.5, 2.0))
                points.append((n, x))
            want = r_max(h, *(ConePoint(n * x.energy, n * x.entropy, n) for n, x in points))
            got = r_max(moved, *(ConePoint(n * move(x.energy), n * x.entropy, n) for n, x in points))
            for name in ("rate_bisect", "rate_monotone"):
                a, b = getattr(got, name), getattr(want, name)
                assert abs(a - b) <= (1e-9 + CONDITION * rounding) * max(1.0, b), (name, h, c, a, b)


@pytest.mark.parametrize("c", SCALES)
def test_w_max(c):
    for rng, h, moved, move, rounding in _moved_cases(303, c):
        for make in (_random_state, _thermal_state, _thermal_state):
            spectrum, energy = make(rng, h)
            want = w_max(h, QuantumState.from_spectrum(spectrum, energy))
            got = w_max(moved, QuantumState.from_spectrum(spectrum, move(energy))) / c
            assert abs(got - want) <= 1e-9 * want + CONDITION * rounding * h.span, (h, c, got, want)


@pytest.mark.parametrize("c", SCALES)
def test_work_heat(c):
    for rng, h, moved, move, rounding in _moved_cases(404, c):
        for _ in range(5):
            (p_rho, e_rho), (p_sigma, e_sigma) = _random_state(rng, h), _random_state(rng, h)
            s_rho, s_sigma = (macrostate_of(QuantumState.from_spectrum(p, e), h).entropy
                              for p, e in ((p_rho, e_rho), (p_sigma, e_sigma)))
            t_lo = float(rng.uniform(0.1, 3.0))
            t_hi = t_lo + 10.0 ** float(rng.uniform(-5.0, 0.5))
            t1, t2 = (t_lo, t_hi) if s_sigma > s_rho else (t_hi, t_lo)
            want = work_heat(ExchangeSpec(
                h, QuantumState.from_spectrum(p_rho, e_rho), QuantumState.from_spectrum(p_sigma, e_sigma),
                t1 / h.span, t2 / h.span,
            ))
            got = work_heat(ExchangeSpec(
                moved,
                QuantumState.from_spectrum(p_rho, move(e_rho)),
                QuantumState.from_spectrum(p_sigma, move(e_sigma)),
                t1 / (c * h.span),
                t2 / (c * h.span),
            ))
            rel = 1e-8 + CONDITION * rounding
            assert abs(c * got.beta_eff - want.beta_eff) <= rel * want.beta_eff, (h, c, t1, t2)
            for name in ("work", "heat"):
                a, b = getattr(got, name) / c, getattr(want, name)
                assert abs(a - b) <= rel * (abs(b) + h.span), (name, h, c, t1, t2, a, b)
            assert math.isclose(got.m_over_n, want.m_over_n, rel_tol=rel, abs_tol=rel)


def test_single_level_keeps_absolute_tolerances():
    """A single level has no span, so its energy tolerances stay absolute:
    a rounded E/n still meets the level."""
    h = HamiltonianSpec(((0.1, 3),))
    assert 0.3 / 3.0 != 0.1
    assert cone_contains(h, ConePoint(0.3, 3.0 * math.log(3.0), 3.0)).is_member
    assert diagram_contains(h, Macrostate(0.1 + 5e-10, 0.5)) is Verdict.BOUNDARY
    mixed = [1.0 / 3.0] * 3
    assert validate_state(QuantumState.from_spectrum(mixed, 0.1 + 5e-10), h).energy == 0.1 + 5e-10
    assert w_max(h, QuantumState.from_spectrum(mixed, 0.1 - 5e-11)) == 0.0

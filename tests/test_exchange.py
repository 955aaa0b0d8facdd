import math

import numpy as np
import pytest

from thermocone import (
    DomainError,
    ExchangeSpec,
    HamiltonianSpec,
    Macrostate,
    QuantumState,
    ValidationError,
    athermality,
    beta_cap,
    beta_eff,
    engine_efficiencies,
    erasure_work,
    macrostate_of,
    reservoir_ratio,
    reservoir_size_for_epsilon,
    thermal_point,
    work_heat,
)

import frozen_values as fv
from conftest import random_density_matrix, random_hamiltonian

RHO = QuantumState.from_matrix(np.diag([0.75, 0.25]))  # E = 0.25
SIGMA = QuantumState.from_matrix(np.eye(2) / 2)


class TestBetaEff:
    def test_coincident_betas_return_tangent(self, qubit):
        assert beta_eff(qubit, 1.0, 1.0) == 1.0
        assert beta_eff(qubit, 1.0, 1.0 + 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_qubit_example(self, qubit):
        assert beta_eff(qubit, 1.0, 2.0) == pytest.approx(fv.BETA_EFF_1_2, abs=1e-12)

    def test_symmetry_exact(self, qubit):
        rng = np.random.default_rng(40)
        for _ in range(100):
            b1, b2 = rng.uniform(-3, 3, size=2)
            if abs(b1 - b2) < 1e-5:
                continue
            assert beta_eff(qubit, float(b1), float(b2)) == beta_eff(qubit, float(b2), float(b1))

    def test_strict_betweenness(self):
        rng = np.random.default_rng(42)
        count = 0
        while count < 100:
            h = random_hamiltonian(rng, degenerate=True)
            b1, b2 = sorted(rng.uniform(-3, 3, size=2))
            if b2 - b1 < 1e-4:
                continue
            eff = beta_eff(h, float(b1), float(b2))
            assert b1 < eff < b2
            count += 1

    def test_constant_hamiltonian_rejected(self):
        with pytest.raises(DomainError):
            beta_eff(HamiltonianSpec(((1.0, 2),)), 1.0, 2.0)


class TestReservoirRatio:
    def test_no_entropy_change(self, qubit):
        spec = ExchangeSpec(qubit, RHO, RHO, 1.0, 2.0)
        assert reservoir_ratio(spec) == 0.0

    def test_qubit_example(self, qubit):
        spec = ExchangeSpec(qubit, RHO, SIGMA, 1.0, 2.0)
        assert reservoir_ratio(spec) == pytest.approx(fv.EXCHANGE_M_OVER_N, abs=1e-12)

    def test_wrong_direction(self, qubit):
        spec = ExchangeSpec(qubit, RHO, SIGMA, 2.0, 1.0)
        with pytest.raises(DomainError) as err:
            reservoir_ratio(spec)
        assert err.value.code == "direction-mismatch"

    def test_equal_betas_with_entropy_change(self, qubit):
        with pytest.raises(ValidationError):
            reservoir_ratio(ExchangeSpec(qubit, RHO, SIGMA, 1.0, 1.0))


class TestWorkHeat:
    def test_identity_conversion(self, qubit):
        res = work_heat(ExchangeSpec(qubit, RHO, RHO, 1.0, 2.0))
        assert res.work == 0.0
        assert res.heat == 0.0

    def test_qubit_example(self, qubit):
        res = work_heat(ExchangeSpec(qubit, RHO, SIGMA, 1.0, 2.0))
        assert res.work == pytest.approx(fv.EXCHANGE_W, abs=1e-12)
        assert res.heat == pytest.approx(fv.EXCHANGE_Q, abs=1e-12)
        assert res.heat - res.work == pytest.approx(0.25, abs=1e-14)
        assert res.m_over_n == pytest.approx(fv.EXCHANGE_M_OVER_N, abs=1e-12)
        assert res.ell_over_n == res.work
        assert res.battery_reversed

    def test_infinite_bath_limit_matches_free_energy_form(self, qubit):
        eps = 1e-4
        res = work_heat(ExchangeSpec(qubit, RHO, SIGMA, 1.0, 1.0 + eps))
        x_rho = macrostate_of(RHO, qubit)
        x_sigma = macrostate_of(SIGMA, qubit)
        standard = (athermality(qubit, x_rho, 1.0) - athermality(qubit, x_sigma, 1.0)) / 1.0
        assert res.work == pytest.approx(standard, abs=5 * eps)

    def test_first_law_on_random_specs(self):
        rng = np.random.default_rng(44)
        count = 0
        while count < 100:
            h = random_hamiltonian(rng, degenerate=True)
            rho = QuantumState.from_matrix(random_density_matrix(rng, h.dim))
            sigma = QuantumState.from_matrix(random_density_matrix(rng, h.dim))
            x_rho, x_sigma = macrostate_of(rho, h), macrostate_of(sigma, h)
            b1, b2 = sorted(rng.uniform(0.1, 3.0, size=2))
            if b2 - b1 < 1e-3 or abs(x_rho.entropy - x_sigma.entropy) < 1e-9:
                continue
            if x_sigma.entropy < x_rho.entropy:
                b1, b2 = b2, b1  # reservoir must cool to absorb system entropy
            spec = ExchangeSpec(h, rho, sigma, float(b1), float(b2))
            res = work_heat(spec)
            assert res.heat - res.work == pytest.approx(x_sigma.energy - x_rho.energy, abs=1e-12)
            standard = (
                athermality(h, x_rho, res.beta_eff) - athermality(h, x_sigma, res.beta_eff)
            ) / res.beta_eff
            assert res.work == pytest.approx(standard, abs=1e-10)
            count += 1

    def test_shift_invariance(self, qubit):
        shifted = HamiltonianSpec(((5.0, 1), (6.0, 1)))
        res_a = work_heat(ExchangeSpec(qubit, RHO, SIGMA, 1.0, 2.0))
        rho_b = QuantumState.from_spectrum([0.75, 0.25], 5.25)
        sigma_b = QuantumState.from_spectrum([0.5, 0.5], 5.5)
        res_b = work_heat(ExchangeSpec(shifted, rho_b, sigma_b, 1.0, 2.0))
        assert res_b.work == pytest.approx(res_a.work, abs=1e-9)
        assert res_b.heat == pytest.approx(res_a.heat, abs=1e-9)
        assert res_b.m_over_n == pytest.approx(res_a.m_over_n, abs=1e-9)


class TestCurveSteps:
    """Each reservoir's (dS, dE) step is taken once: two thermal points per
    reservoir, shared by its chord slope and its size."""

    @staticmethod
    def count_points(monkeypatch):
        from thermocone import thermal

        calls = []
        unit_point = thermal._unit_point
        monkeypatch.setattr(thermal, "_unit_point", lambda h, beta: calls.append(beta) or unit_point(h, beta))
        return calls

    def test_work_heat(self, qubit, monkeypatch):
        # the README's library example
        spec = ExchangeSpec(qubit, QuantumState.from_spectrum([0.75, 0.25], 0.25),
                            QuantumState.from_spectrum([0.5, 0.5], 0.5), beta1=1.0, beta2=2.0)
        calls = self.count_points(monkeypatch)
        work_heat(spec)
        assert calls == [1.0, 2.0]

    def test_engine(self, qubit, monkeypatch):
        calls = self.count_points(monkeypatch)
        engine_efficiencies(qubit, 2.0, 1.5, 1.0, 0.5)
        assert calls == [2.0, 1.5, 0.5, 1.0]


class TestErasure:
    def test_noop(self, qubit):
        assert erasure_work(qubit, SIGMA, SIGMA, 2.0, 1.0) == 0.0

    def test_qubit_example(self, qubit):
        pure = QuantumState.from_matrix(np.full((2, 2), 0.5))
        value = erasure_work(qubit, SIGMA, pure, 2.0, 1.0)
        assert value == pytest.approx(fv.ERASURE_EXAMPLE, abs=1e-12)

    def test_energy_mismatch_rejected(self, qubit):
        with pytest.raises(DomainError):
            erasure_work(qubit, SIGMA, QuantumState.from_matrix(np.diag([1.0, 0.0])), 2.0, 1.0)

    def test_infinite_bath_limit(self, qubit):
        pure = QuantumState.from_matrix(np.full((2, 2), 0.5))
        value = erasure_work(qubit, SIGMA, pure, 1.0, 1.0 + 1e-6)
        assert value == pytest.approx(math.log(2), abs=1e-6)


class TestReservoirSizing:
    def test_zero_for_equal_entropy(self, qubit):
        sizing = reservoir_size_for_epsilon(qubit, RHO, RHO, 1.0, 0.01)
        assert sizing.leading_term == 0.0 and sizing.exact_ratio == 0.0

    def test_qubit_example(self, qubit):
        sizing = reservoir_size_for_epsilon(qubit, RHO, SIGMA, 1.0, 0.01)
        assert sizing.leading_term == pytest.approx(fv.RESERVOIR_LEAD_EXAMPLE, abs=1e-9)

    def test_exact_matches_leading_within_two_percent(self, qubit):
        sizing = reservoir_size_for_epsilon(qubit, RHO, SIGMA, 1.0, 1e-3)
        assert sizing.exact_ratio == pytest.approx(sizing.leading_term, rel=0.02)

    def test_reduces_each_state_once(self, qubit, monkeypatch):
        from thermocone import system

        calls = []
        validate = system.validate_state
        monkeypatch.setattr(system, "validate_state", lambda *a: calls.append(a) or validate(*a))
        reservoir_size_for_epsilon(qubit, RHO, SIGMA, 1.0, 0.01)
        assert len(calls) == 2

    def test_degenerate_inputs_rejected(self, qubit):
        with pytest.raises(ValidationError):
            reservoir_size_for_epsilon(qubit, RHO, SIGMA, 1.0, 0.0)
        with pytest.raises(DomainError):
            reservoir_size_for_epsilon(qubit, RHO, SIGMA, 0.0, 0.01)


class TestEngine:
    def test_qubit_example(self, qubit):
        res = engine_efficiencies(qubit, 2.0, 1.5, 1.0, 0.5)
        assert res.eta_engine == pytest.approx(fv.ETA_ENGINE_EXAMPLE, abs=1e-12)
        assert res.eta_refrigerator == pytest.approx(fv.ETA_REFRIG_EXAMPLE, abs=1e-12)
        assert res.work == pytest.approx(res.eta_engine * res.q_hot, abs=1e-10)
        assert res.work > 0 and res.q_hot > 0 and res.q_cold > 0
        assert res.eta_refrigerator == pytest.approx(res.q_cold / res.work, abs=1e-10)

    def test_carnot_limit(self, qubit):
        res = engine_efficiencies(qubit, 2.0, 2.0 - 1e-4, 0.5 + 1e-4, 0.5)
        assert res.eta_engine == pytest.approx(1.0 - 0.5 / 2.0, abs=1e-3)

    def test_strictly_below_carnot(self):
        rng = np.random.default_rng(46)
        count = 0
        while count < 100:
            h = random_hamiltonian(rng, degenerate=True)
            betas = np.sort(rng.uniform(0.05, 4.0, size=4))[::-1]
            b_cold, b_lc, b_lh, b_hot = map(float, betas)
            if min(b_cold - b_lc, b_lc - b_lh, b_lh - b_hot) < 1e-3:
                continue
            res = engine_efficiencies(h, b_cold, b_lc, b_lh, b_hot)
            assert res.eta_engine < 1.0 - b_hot / b_cold
            assert res.eta_refrigerator < 1.0 / (b_lc / b_lh - 1.0)
            count += 1

    def test_ordering_enforced(self, qubit):
        with pytest.raises(DomainError):
            engine_efficiencies(qubit, 1.0, 1.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            engine_efficiencies(qubit, 2.0, 1.5, 1.0, -0.5)


@pytest.mark.parametrize(
    "call, error, code",
    [
        (lambda h: beta_eff(h, math.nan, 1.0), ValidationError, "bad-beta"),
        (lambda h: beta_eff(h, 1.0, math.nan), ValidationError, "bad-beta"),
        # beyond the cap the qubit's upper weight exp(-750) underflows to 0
        (lambda h: reservoir_size_for_epsilon(h, RHO, SIGMA, 2.0 * beta_cap(h), 0.01), DomainError, "zero-variance"),
    ],
    ids=["beta-eff-nan-1", "beta-eff-nan-2", "zero-variance-beyond-cap"],
)
def test_error_codes(qubit, call, error, code):
    with pytest.raises(error) as err:
        call(qubit)
    assert err.value.code == code

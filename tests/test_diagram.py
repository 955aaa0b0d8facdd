import math

import mpmath
import numpy as np
import pytest

from thermocone import (
    DecompositionWeights,
    DomainError,
    ValidationError,
    HamiltonianSpec,
    Macrostate,
    QuantumState,
    Verdict,
    athermality,
    combine_macrostates,
    decompose,
    diagram_contains,
    facet_check,
    macrostate_of,
    max_entropy_at_energy,
    thermal_point,
    validate_state,
    w_max,
)

from thermocone.thermal import beta_cap

import frozen_values as fv
from conftest import random_density_matrix, random_hamiltonian, well_gapped_hamiltonian
from mp_thermal import mp_thermal_point


def facet_grid(h, points=2001):
    span = h.e_max - h.e_min
    return np.linspace(-50.0, 50.0, points) / span


class TestAthermality:
    def test_zero_on_own_thermal_point(self, qubit):
        rng = np.random.default_rng(1)
        for h in (qubit, random_hamiltonian(rng), random_hamiltonian(rng)):
            for beta in (-1.5, -0.3, 0.4, 2.0):
                tp = thermal_point(h, beta)
                assert athermality(h, Macrostate(tp.energy, tp.entropy), beta) == pytest.approx(0.0, abs=1e-10)

    def test_negentropy_at_zero_beta(self, qubit):
        assert athermality(qubit, Macrostate(0.3, 0.0), 0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_plugin_value(self, qubit):
        assert athermality(qubit, Macrostate(0.5, 0.2), 0.0) == pytest.approx(math.log(2) - 0.2, abs=1e-12)

    def test_linear_in_macrostate(self, qubit):
        a = Macrostate(0.2, 0.1)
        b = Macrostate(0.8, 0.4)
        mid = Macrostate(0.5, 0.25)
        vals = [athermality(qubit, x, 1.3) for x in (a, b, mid)]
        assert vals[2] == pytest.approx(0.5 * (vals[0] + vals[1]), abs=1e-12)

    def test_nonnegative_on_states(self, qubit):
        rng = np.random.default_rng(14)
        for _ in range(50):
            h = random_hamiltonian(rng, degenerate=True)
            x = macrostate_of(QuantumState.from_matrix(random_density_matrix(rng, h.dim)), h)
            for beta in rng.uniform(-4, 4, size=5):
                assert athermality(h, x, float(beta)) >= -1e-10

    def test_matches_high_precision_log_partition(self):
        """A_beta agrees with a 40-digit reference to 2 ulp of the terms'
        scale, also for |beta| beyond the cap, where the weights of levels
        close to the extreme one are still resolved."""
        rng = np.random.default_rng(15)
        with mpmath.workdps(40):
            for _ in range(60):
                h = random_hamiltonian(rng, d_min=2, d_max=6, degenerate=True)
                x = macrostate_of(QuantumState.from_matrix(random_density_matrix(rng, h.dim)), h)
                for beta in rng.uniform(-3.0, 3.0, size=8) * beta_cap(h):
                    beta = float(beta)
                    log_z = mp_thermal_point(h.levels, mpmath.mpf(beta))[0]
                    scale = abs(beta * x.energy) + x.entropy + abs(float(log_z))
                    want = mpmath.mpf(beta) * x.energy - x.entropy + log_z
                    assert abs(athermality(h, x, beta) - want) <= 2 * math.ulp(scale)


class TestMaxEntropy:
    def test_qubit_examples(self, qubit):
        assert max_entropy_at_energy(qubit, 0.5) == pytest.approx(math.log(2), abs=1e-12)
        assert max_entropy_at_energy(qubit, 0.0) == 0.0
        assert max_entropy_at_energy(qubit, 0.25) == pytest.approx(fv.S_DIAG_75_25, abs=1e-10)

    def test_out_of_range(self, qubit):
        with pytest.raises(DomainError):
            max_entropy_at_energy(qubit, 1.5)


class TestDiagramContains:
    def test_examples(self, qubit):
        assert diagram_contains(qubit, Macrostate(0.5, 0.8)) is Verdict.OUTSIDE
        assert diagram_contains(qubit, Macrostate(0.5, 0.0)).is_member
        assert diagram_contains(qubit, Macrostate(1.2, 0.0)) is Verdict.OUTSIDE

    def test_interior_point(self, qubit):
        assert diagram_contains(qubit, Macrostate(0.5, 0.2)) is Verdict.INSIDE

    def test_thermal_points_on_boundary(self, qubit):
        tp = thermal_point(qubit, 1.0)
        assert diagram_contains(qubit, Macrostate(tp.energy, tp.entropy)) is Verdict.BOUNDARY

    def test_convexity(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            h = random_hamiltonian(rng, degenerate=True)
            a = macrostate_of(QuantumState.from_matrix(random_density_matrix(rng, h.dim)), h)
            b = macrostate_of(QuantumState.from_matrix(random_density_matrix(rng, h.dim)), h)
            for t in rng.uniform(0, 1, size=10):
                mix = Macrostate(t * a.energy + (1 - t) * b.energy, t * a.entropy + (1 - t) * b.entropy)
                assert diagram_contains(h, mix, tol=1e-9).is_member


    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_rejects_bad_tolerance(self, qubit, tol):
        with pytest.raises(ValidationError) as err:
            diagram_contains(qubit, Macrostate(0.5, 5.0), tol=tol)
        assert err.value.code == "bad-tolerance"

    def test_zero_tolerance_allowed(self, qubit):
        assert diagram_contains(qubit, Macrostate(0.5, 0.2), tol=0.0) is Verdict.INSIDE


class TestFacetCheck:
    def test_thermal_point_slack_zero(self, qubit):
        tp = thermal_point(qubit, 1.0)
        res = facet_check(qubit, Macrostate(tp.energy, tp.entropy), facet_grid(qubit))
        assert res.slack == pytest.approx(0.0, abs=1e-7)
        assert res.facet == "athermality"
        assert res.beta == pytest.approx(1.0, abs=0.05)

    def test_outside_point_negative_slack(self, qubit):
        res = facet_check(qubit, Macrostate(0.5, 0.8), facet_grid(qubit))
        assert res.slack < 0
        assert res.beta == pytest.approx(0.0, abs=0.05)

    def test_interior_point_positive_slack(self, qubit):
        assert facet_check(qubit, Macrostate(0.5, 0.2), facet_grid(qubit)).slack > 0

    def test_agrees_with_boundary_test(self):
        rng = np.random.default_rng(18)
        for _ in range(3):
            h = well_gapped_hamiltonian(rng)
            grid = facet_grid(h)
            for _ in range(300):
                x = Macrostate(
                    float(rng.uniform(h.e_min - 0.2, h.e_max + 0.2)),
                    float(rng.uniform(-0.2, h.log_dim + 0.2)),
                )
                verdict = diagram_contains(h, x, tol=1e-6)
                if verdict is Verdict.BOUNDARY:
                    continue
                res = facet_check(h, x, grid)
                if abs(res.slack) <= 5e-6 * (1.0 + abs(res.beta or 0.0)):
                    continue
                assert (res.slack > 0) == (verdict is Verdict.INSIDE)


class TestCombine:
    def test_single_part(self):
        x, n = combine_macrostates([(Macrostate(0.3, 0.1), 2.0)])
        assert (x, n) == (Macrostate(0.3, 0.1), 2.0)

    def test_midpoint(self):
        x, n = combine_macrostates([(Macrostate(0.0, 0.0), 3.0), (Macrostate(1.0, 0.0), 3.0)])
        assert x == Macrostate(0.5, 0.0)
        assert n == 6.0

    def test_weighted_mean(self):
        x, n = combine_macrostates([(Macrostate(0.5, math.log(2)), 1.0), (Macrostate(1.0, 0.0), 1.0)])
        assert x.energy == pytest.approx(0.75)
        assert x.entropy == pytest.approx(math.log(2) / 2)
        assert n == 2.0


class TestDecompose:
    def test_thermal_point_is_pure_thermal(self, qubit):
        tp = thermal_point(qubit, 0.7)
        w = decompose(qubit, Macrostate(tp.energy, tp.entropy), 0.7)
        assert w.c_beta == pytest.approx(1.0, abs=1e-10)
        assert w.c_min == pytest.approx(0.0, abs=1e-10)
        assert w.c_max == pytest.approx(0.0, abs=1e-10)

    def test_qubit_example(self, qubit):
        w = decompose(qubit, Macrostate(0.5, 0.4), 0.0)
        assert w.c_beta == pytest.approx(fv.DECOMP_C_BETA, abs=1e-9)
        assert w.c_min == pytest.approx(fv.DECOMP_C_EDGE, abs=1e-9)
        assert w.c_max == pytest.approx(fv.DECOMP_C_EDGE, abs=1e-9)

    def test_infeasible_beta(self, qubit):
        with pytest.raises(DomainError) as err:
            decompose(qubit, Macrostate(0.5, 0.4), 3.0)
        assert "c_beta" in str(err.value)

    def test_reconstruction_on_random_feasible_points(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            h = random_hamiltonian(rng)
            beta = float(rng.uniform(-2.0, 2.0))
            tp = thermal_point(h, beta)
            weights = rng.dirichlet(np.ones(3))
            x = Macrostate(
                weights[0] * tp.energy + weights[1] * h.e_min + weights[2] * h.e_max,
                weights[0] * tp.entropy,
            )
            got = decompose(h, x, beta)
            total = got.c_beta + got.c_min + got.c_max
            rebuilt_e = got.c_beta * tp.energy + got.c_min * h.e_min + got.c_max * h.e_max
            rebuilt_s = got.c_beta * tp.entropy
            assert total == pytest.approx(1.0, abs=1e-10)
            assert rebuilt_e == pytest.approx(x.energy, abs=1e-10)
            assert rebuilt_s == pytest.approx(x.entropy, abs=1e-10)


class TestWmax:
    def test_qubit_example(self, qubit):
        assert w_max(qubit, QuantumState.from_matrix(np.diag([0.25, 0.75]))) == pytest.approx(0.5, abs=1e-8)

    def test_thermal_states_yield_nothing(self, qubit):
        for beta in (0.5, 1.0, 2.0):
            tp = thermal_point(qubit, beta)
            state = QuantumState.from_macro(tp.energy, tp.entropy)
            assert w_max(qubit, state) == pytest.approx(0.0, abs=1e-8)

    def test_pure_excited(self, qubit):
        assert w_max(qubit, QuantumState.from_matrix(np.diag([0.0, 1.0]))) == pytest.approx(1.0, abs=1e-12)

    def test_ground_degeneracy_plateau(self):
        h = HamiltonianSpec(((0.0, 2), (1.0, 1)))
        state = QuantumState.from_spectrum([0.6, 0.4, 0.0], 0.4)
        x = macrostate_of(validate_state(state, h), h)
        assert x.entropy < math.log(2)
        assert w_max(h, state) == pytest.approx(0.4, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            h = random_hamiltonian(rng, degenerate=True)
            rho = random_density_matrix(rng, h.dim)
            shift = float(rng.normal())
            shifted = HamiltonianSpec(tuple((e + shift, g) for e, g in h.levels))
            a = w_max(h, QuantumState.from_matrix(rho))
            b = w_max(shifted, QuantumState.from_matrix(rho))
            assert a == pytest.approx(b, abs=1e-10)

    def test_nonnegative_on_random_states(self, qubit):
        rng = np.random.default_rng(24)
        for _ in range(200):
            rho = random_density_matrix(rng, 2)
            assert w_max(qubit, QuantumState.from_matrix(rho)) >= 0.0


@pytest.mark.parametrize(
    "call, error, code",
    [
        (lambda h: athermality(h, Macrostate(0.5, 0.1), math.inf), ValidationError, "bad-beta"),
        (lambda h: athermality(h, Macrostate(0.5, 0.1), -math.inf), ValidationError, "bad-beta"),
        (lambda h: facet_check(h, Macrostate(0.5, 0.1), []), ValidationError, "bad-grid"),
        (lambda h: combine_macrostates([]), ValidationError, "empty-mix"),
        (lambda h: combine_macrostates([(Macrostate(0.5, 0.1), 0.0)]), ValidationError, "bad-copy-count"),
        (lambda h: DecompositionWeights(-0.1, 0.6, 0.5), ValidationError, "bad-weights"),
        (lambda h: DecompositionWeights(0.5, 0.5, 0.5), ValidationError, "bad-weights"),
        (lambda h: decompose(h, Macrostate(0.5, 0.1), math.inf), DomainError, "infeasible-beta"),
        (lambda h: decompose(h, Macrostate(0.5, 0.6), 3.0), DomainError, "infeasible-decomposition"),
    ],
    ids=["athermality-inf", "athermality-minus-inf", "empty-facet-grid", "empty-mix", "zero-copy-count",
         "negative-weight", "weights-sum", "zero-thermal-entropy", "c-beta-above-1"],
)
def test_error_codes(qubit, call, error, code):
    with pytest.raises(error) as err:
        call(qubit)
    assert err.value.code == code

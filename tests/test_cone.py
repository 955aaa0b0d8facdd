import math

import numpy as np
import pytest

from thermocone import (
    ConePoint,
    DomainError,
    ValidationError,
    QuantumState,
    Verdict,
    cone_contains,
    cone_point_of,
    dominates,
    edge_monotones,
    r_max,
    thermal_point,
)

import frozen_values as fv
from conftest import random_density_matrix, random_hamiltonian


def random_cone_point(rng, h):
    from thermocone import macrostate_of

    x = macrostate_of(QuantumState.from_matrix(random_density_matrix(rng, h.dim)), h)
    n = float(rng.uniform(0.2, 3.0))
    return ConePoint(n * x.energy, n * x.entropy, n)


class TestConeContains:
    def test_apex(self, qubit):
        assert cone_contains(qubit, ConePoint(0.0, 0.0, 0.0)).is_member

    def test_scaled_thermal_point(self, qubit):
        tp = thermal_point(qubit, 1.0)
        y = ConePoint(tp.energy, tp.entropy, 1.0).scaled(2.5)
        assert cone_contains(qubit, y).is_member

    def test_zero_size_nonzero_energy(self, qubit):
        assert cone_contains(qubit, ConePoint(0.5, 0.2, 0.0)) is Verdict.OUTSIDE

    def test_negative_size(self, qubit):
        assert cone_contains(qubit, ConePoint(-0.5, -0.2, -1.0)) is Verdict.OUTSIDE

    def test_interior(self, qubit):
        assert cone_contains(qubit, ConePoint(1.0, 0.4, 2.0)) is Verdict.INSIDE


class TestEdgeMonotones:
    def test_pure_ground(self, qubit):
        assert edge_monotones(qubit, ConePoint(0.0, 0.0, 1.0)) == (0.0, 1.0)

    def test_pure_excited(self, qubit):
        assert edge_monotones(qubit, ConePoint(1.0, 0.0, 1.0)) == (1.0, 0.0)

    def test_maximally_mixed(self, qubit):
        assert edge_monotones(qubit, ConePoint(0.5, math.log(2), 1.0)) == (0.5, 0.5)


class TestDominates:
    def test_reflexive(self, qubit):
        y = ConePoint(0.5, 0.2, 1.0)
        assert dominates(qubit, y, y)

    def test_discard_half(self, qubit):
        assert dominates(qubit, ConePoint(1.0, 0.0, 1.0), ConePoint(0.5, 0.0, 0.5))

    def test_entropy_cannot_drop_at_zero_size(self, qubit):
        assert not dominates(qubit, ConePoint(0.5, math.log(2), 1.0), ConePoint(0.5, 0.0, 1.0))

    def test_preorder_on_random_triples(self):
        rng = np.random.default_rng(30)
        checked = 0
        while checked < 100:
            h = random_hamiltonian(rng)
            a, b, c = (random_cone_point(rng, h).scaled(s) for s in (3.0, 2.0, 1.0))
            if dominates(h, a, b) and dominates(h, b, c):
                assert dominates(h, a, c, tol=1e-7)
                checked += 1


class TestRmax:
    def test_identical_points(self, qubit):
        y = ConePoint(0.6, 0.3, 1.2)
        res = r_max(qubit, y, y)
        assert res.rate_bisect == pytest.approx(1.0, abs=1e-7)
        assert res.rate_monotone == pytest.approx(1.0, abs=1e-9)

    def test_qubit_closed_form(self, qubit):
        res = r_max(qubit, ConePoint(0.5, 0.2, 1.0), ConePoint(0.5, 0.0, 1.0))
        assert res.rate_bisect == pytest.approx(fv.RATE_QUBIT_EXAMPLE, abs=1e-6)
        assert res.rate_monotone == pytest.approx(fv.RATE_QUBIT_EXAMPLE, abs=1e-9)
        assert res.agreement_gap < 1e-6
        assert res.argmin_beta == pytest.approx(0.0, abs=1e-5)

    def test_thermal_source_converts_at_zero_rate(self, qubit):
        tp = thermal_point(qubit, 1.0)
        res = r_max(qubit, ConePoint(tp.energy, tp.entropy, 1.0), ConePoint(0.5, 0.0, 1.0))
        assert res.rate_bisect == pytest.approx(0.0, abs=1e-9)
        assert res.rate_monotone == pytest.approx(0.0, abs=1e-6)

    def test_pure_source_cannot_feed_entropy(self, qubit):
        res = r_max(qubit, ConePoint(1.0, 0.0, 1.0), ConePoint(0.5, 0.3, 1.0))
        assert res.rate_monotone == pytest.approx(0.0, abs=1e-12)
        assert res.rate_bisect == pytest.approx(0.0, abs=1e-9)
        assert res.argmin_beta is None

    def test_zero_target_rejected(self, qubit):
        with pytest.raises(DomainError):
            r_max(qubit, ConePoint(0.5, 0.2, 1.0), ConePoint(0.0, 0.0, 0.0))

    def test_non_member_rejected(self, qubit):
        with pytest.raises(DomainError):
            r_max(qubit, ConePoint(0.5, 0.9, 1.0), ConePoint(0.5, 0.2, 1.0))

    def test_algorithms_agree_on_random_pairs(self):
        rng = np.random.default_rng(32)
        for dim in (2, 3, 4):
            h = random_hamiltonian(rng, d_min=dim, d_max=dim)
            for _ in range(20):
                res = r_max(h, random_cone_point(rng, h), random_cone_point(rng, h), tol=1e-8)
                assert res.agreement_gap <= 1e-6

    def test_composition_inequality(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            h = random_hamiltonian(rng)
            a, b, c = (random_cone_point(rng, h) for _ in range(3))
            r_ac = r_max(h, a, c, tol=1e-10).rate_bisect
            r_ab = r_max(h, a, b, tol=1e-10).rate_bisect
            r_bc = r_max(h, b, c, tol=1e-10).rate_bisect
            assert r_ac >= r_ab * r_bc - 1e-8

    def test_reciprocity(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            h = random_hamiltonian(rng)
            a, b = random_cone_point(rng, h), random_cone_point(rng, h)
            forward = r_max(h, a, b, tol=1e-10).rate_bisect
            backward = r_max(h, b, a, tol=1e-10).rate_bisect
            assert forward * backward <= 1.0 + 1e-8

    def test_reciprocity_tight_for_proportional_points(self, qubit):
        y = ConePoint(0.55, 0.25, 1.0)
        forward = r_max(qubit, y, y.scaled(0.5)).rate_bisect
        backward = r_max(qubit, y.scaled(0.5), y).rate_bisect
        assert forward * backward == pytest.approx(1.0, abs=1e-6)

    def test_scaling(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            h = random_hamiltonian(rng)
            a, b = random_cone_point(rng, h), random_cone_point(rng, h)
            lam = float(rng.uniform(0.3, 2.5))
            base = r_max(h, a, b, tol=1e-10).rate_bisect
            scaled = r_max(h, a.scaled(lam), b, tol=1e-10).rate_bisect
            assert scaled == pytest.approx(lam * base, abs=1e-8)


class TestToleranceValidation:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_cone_contains(self, qubit, tol):
        with pytest.raises(ValidationError) as err:
            cone_contains(qubit, ConePoint(0.5, 0.2, 1.0), tol=tol)
        assert err.value.code == "bad-tolerance"

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8, 0.0])
    def test_r_max_needs_positive_tolerance(self, qubit, tol):
        with pytest.raises(ValidationError) as err:
            r_max(qubit, ConePoint(0.5, 0.2, 1.0), ConePoint(0.5, 0.0, 1.0), tol=tol)
        assert err.value.code == "bad-tolerance"

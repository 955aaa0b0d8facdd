import math
from dataclasses import astuple
from pathlib import Path

import mpmath
import numpy as np
import pytest

from thermocone import (
    ConePoint,
    DomainError,
    HamiltonianSpec,
    ValidationError,
    QuantumState,
    Verdict,
    cone_contains,
    cone_point_of,
    dominates,
    edge_monotones,
    max_entropy_at_energy,
    r_max,
    thermal_point,
)
from thermocone.thermal import beta_cap, beta_from_energy

import frozen_values as fv
from conftest import random_density_matrix, random_hamiltonian
from mp_thermal import mp_boundary_root, mp_thermal_point


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

    def test_target_crossing_no_facet_rejected(self, qubit):
        # a member within the apex tolerance, with no facet value above the floor
        with pytest.raises(DomainError) as err:
            r_max(qubit, ConePoint(0.5, 0.2, 1.0), ConePoint(0.0, 1e-12, 0.0))
        assert err.value.code == "zero-target"

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


def stationary_beta(h, y_rho, y_sigma, start):
    """A root of N'D - ND' at 40 digits, by mpmath's secant iteration from
    ``start``, where N and D are the athermalities of ``y_rho`` and
    ``y_sigma``: a stationary point of their ratio."""
    with mpmath.workdps(40):
        def slope_numerator(beta):
            log_z, energy, _, _ = mp_thermal_point(h.levels, beta)
            n = beta * y_rho.energy - y_rho.entropy + y_rho.size * log_z
            d = beta * y_sigma.energy - y_sigma.entropy + y_sigma.size * log_z
            return (y_rho.energy - y_rho.size * energy) * d - n * (y_sigma.energy - y_sigma.size * energy)

        return float(mpmath.findroot(slope_numerator, mpmath.mpf(start)))


class TestArgminBeta:
    def test_matches_high_precision_stationary_point(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(24):
            h = random_hamiltonian(rng, degenerate=True)
            y_rho, y_sigma = random_cone_point(rng, h), random_cone_point(rng, h)
            beta = r_max(h, y_rho, y_sigma).argmin_beta
            if beta is None or math.isinf(beta):
                continue  # the entropy or an energy edge binds
            assert beta == pytest.approx(stationary_beta(h, y_rho, y_sigma, beta), rel=1e-10)
            checked += 1
        assert checked >= 8

    def test_balanced_qubit_pair_binds_at_beta_zero(self, qubit):
        # rho has diagonal (1/2, 1/2) and sigma is pure at the same energy;
        # the ratio is even in beta, so its minimum sits at beta = 0
        rng = np.random.default_rng(43)
        for _ in range(5):
            c = rng.uniform(0.05, 0.45) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            psi = np.array([1.0, np.exp(1j * rng.uniform(0, 2 * np.pi))]) / math.sqrt(2.0)
            rho = QuantumState.from_matrix([[0.5, c], [np.conj(c), 0.5]])
            sigma = QuantumState.from_matrix(np.outer(psi, psi.conj()))
            res = r_max(qubit, cone_point_of(rho, qubit), cone_point_of(sigma, qubit))
            assert abs(res.argmin_beta) <= 1e-12

    def test_refinement_evaluation_count(self, monkeypatch):
        """The facet-side minimiser makes at most 12 objective evaluations
        per call on every r_max of the benchmark's queries seeds 1-3."""
        import thermocone.cone as cone_module

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        counts = []
        minimize = cone_module.minimize_scalar

        def counted(f, grid, refine_tol):
            counts.append(0)

            def g(x):
                counts[-1] += 1
                return f(x)

            return minimize(g, grid, refine_tol)

        monkeypatch.setattr(cone_module, "minimize_scalar", counted)
        for seed in (1, 2, 3):
            for op in workloads.build_queries(seed, tiny=False).ops:
                q = op.data
                h = HamiltonianSpec(tuple(q["levels"]))
                rho, sigma = (cone_point_of(QuantumState.from_matrix(q[k]), h) for k in ("rho", "sigma"))
                r_max(h, rho, sigma)
        assert len(counts) == 450
        assert max(counts) <= 12


def boundary_root(h, y_rho, y_sigma, start):
    """``mp_boundary_root`` at 40 digits around the float root ``start``,
    with the library's plateau rule beyond ``beta_cap``."""
    y = y_rho - y_sigma.scaled(start)
    with mpmath.workdps(40):
        beta = beta_from_energy(h, y.energy / y.size)
        return float(mp_boundary_root(h.levels, astuple(y_rho), astuple(y_sigma), start, beta, beta_cap(h)))


def macro_point(h, e, fraction, n):
    """n copies at energy e per copy and ``fraction`` of S_max(e)."""
    return ConePoint(n * e, n * fraction * max_entropy_at_energy(h, e), n)


def ray_family(family, c):
    """(h, y_rho, y_sigma) rays of one kind, on levels scaled by c, where
    the curved facet binds: ``interior`` rays; ``vertical`` rays, E/n the
    same at both ends (n_sigma = 2 keeps that exact); ``apex`` rays, whose
    E/n differs by 1e-9..1e-3 of the span, so they leave near the apex;
    ``band`` rays, whose root lies where E/n is within the band beyond
    beta_cap above E_min, on levels whose lowest gap is 0.004 of the span."""
    rng = np.random.default_rng({"interior": 50, "vertical": 51, "apex": 52, "band": 53}[family])
    base = ((0.0, 2), (0.3, 1), (0.55, 2), (1.0, 3))
    if family == "band":
        base = ((0.0, 2), (0.004, 1), (0.5, 1), (1.0, 1))
    h = HamiltonianSpec(tuple((c * e, g) for e, g in base))
    rays = []
    for _ in range(6):
        e_rho, e_sigma = (c * float(x) for x in rng.uniform(0.1, 0.9, size=2))
        a, b = sorted(rng.uniform(0.2, 0.9, size=2))
        if family == "interior":
            rays.append((macro_point(h, e_rho, b, float(rng.uniform(0.5, 2.0))),
                         macro_point(h, e_sigma, a / 4.0, float(rng.uniform(0.5, 2.0)))))
        elif family == "vertical":
            rays.append((macro_point(h, e_rho, b, 1.0), macro_point(h, e_rho, a / 2.0, 2.0)))
        elif family == "apex":
            e_sigma = e_rho + c * float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -3.0))
            rays.append((macro_point(h, e_rho, b, 1.0), macro_point(h, e_sigma, a / 2.0, 2.0)))
        else:
            # rho's entropy puts the root halfway between r_cap, where E/n
            # is E(beta_cap), and the ground edge
            e_rho, e_sigma = 0.5 * e_rho, 0.5 * e_sigma + 0.5 * c
            y_sigma = macro_point(h, e_sigma, a, 1.0)
            cap = thermal_point(h, beta_cap(h))
            r = 0.5 * (e_rho / e_sigma + (e_rho - cap.energy) / (e_sigma - cap.energy))
            rays.append((ConePoint(e_rho, (1.0 - r) * cap.entropy + r * y_sigma.entropy, 1.0), y_sigma))
    return h, rays


class TestBoundarySolve:
    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("family", ["interior", "vertical", "apex", "band"])
    def test_ray_families_match_high_precision_root(self, family, c):
        h, rays = ray_family(family, c)
        for y_rho, y_sigma in rays:
            res = r_max(h, y_rho, y_sigma)
            y = y_rho - y_sigma.scaled(res.rate_bisect)
            assert 0.0 < y.size and 0.0 < y.entropy
            if family == "band":
                assert h.e_min < y.energy / y.size < thermal_point(h, beta_cap(h)).energy
            want = boundary_root(h, y_rho, y_sigma, res.rate_bisect)
            assert res.rate_bisect == pytest.approx(want, rel=1e-12, abs=0), (family, c, y_rho, y_sigma)

    def test_matches_high_precision_boundary_root(self):
        rng = np.random.default_rng(44)
        checked = 0
        for _ in range(40):
            h = random_hamiltonian(rng, degenerate=True)
            y_rho, y_sigma = random_cone_point(rng, h), random_cone_point(rng, h)
            res = r_max(h, y_rho, y_sigma)
            if res.argmin_beta is None or math.isinf(res.argmin_beta) or res.rate_bisect == 0.0:
                continue  # a linear facet binds, or the source is on the boundary
            want = boundary_root(h, y_rho, y_sigma, res.rate_bisect)
            assert res.rate_bisect == pytest.approx(want, rel=1e-12, abs=0)
            checked += 1
        assert checked >= 20

    def test_qubit_closed_form(self, qubit):
        res = r_max(qubit, ConePoint(0.5, 0.2, 1.0), ConePoint(0.5, 0.0, 1.0))
        assert res.rate_bisect == pytest.approx(1.0 - 0.2 / math.log(2.0), rel=0, abs=1e-12)

    @pytest.mark.parametrize("c", [0.4, 1.0, 2.5])
    def test_apex_exit(self, c):
        h = HamiltonianSpec(((-0.5, 2), (0.25, 1), (1.5, 3)))
        y_sigma = ConePoint(0.3, 0.9, 1.3)
        res = r_max(h, y_sigma.scaled(c), y_sigma)
        assert res.rate_bisect == pytest.approx(c, rel=1e-12)

    def test_entropy_facet_exit(self, qubit):
        # the entropy reaches 0 at r = 0.2/0.3 while the energy per copy stays 1/2
        res = r_max(qubit, ConePoint(0.5, 0.2, 1.0), ConePoint(0.25, 0.3, 0.5))
        assert res.rate_bisect == pytest.approx(2.0 / 3.0, rel=1e-14, abs=0.0)

    def test_ground_edge_exit(self):
        # at r = 0.6 the point is (E_min, 0.35) per copy, inside as log 2 > 0.35
        h = HamiltonianSpec(((0.0, 2), (1.0, 1)))
        res = r_max(h, ConePoint(0.3, 0.2, 1.0), ConePoint(0.5, 0.1, 1.0))
        assert res.rate_bisect == pytest.approx(0.6, rel=1e-14, abs=0.0)

    def test_top_edge_exit(self):
        h = HamiltonianSpec(((0.0, 1), (1.0, 2)))
        res = r_max(h, ConePoint(0.7, 0.2, 1.0), ConePoint(0.5, 0.1, 1.0))
        assert res.rate_bisect == pytest.approx(0.6, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "levels, rho, sigma",
        [
            (((0.5, 2),), (0.5, 0.5, 1.0), (0.5, 0.1, 1.0)),
            (((0.5, 3),), (1.0, 1.2 * math.log(3), 2.0), (0.5, 0.2 * math.log(3), 1.0)),
            (((0.0, 2), (1.0, 1)), (0.0, 0.6, 1.0), (0.0, 0.2, 1.0)),
            (((0.0, 1), (1.0, 2)), (1.0, 0.6, 1.0), (1.0, 0.2, 1.0)),
        ],
        ids=["single-level-g2", "single-level-g3", "ground-edge", "top-edge"],
    )
    def test_edge_ray_is_exact(self, levels, rho, sigma):
        """Along an edge of degeneracy g, g(r) = n(r) log g - S(r) is
        linear in r, so one Newton step from the size facet r_hi lands on
        its root, to the rounding of that step; on a single level the
        one-point grid gives the same ratio at beta = 0."""
        h = HamiltonianSpec(levels)
        y_rho, y_sigma = ConePoint(*rho), ConePoint(*sigma)
        log_g = math.log(2 if len(levels) > 1 else levels[0][1])
        want = (y_rho.entropy - y_rho.size * log_g) / (y_sigma.entropy - y_sigma.size * log_g)
        res = r_max(h, y_rho, y_sigma)
        assert abs(res.rate_bisect - want) <= 2 * math.ulp(y_rho.size / y_sigma.size)
        if len(levels) == 1:
            assert abs(res.rate_monotone - want) <= 2 * math.ulp(want)
            assert res.argmin_beta == 0.0

    def test_single_level_without_entropy(self):
        # no monotone has a positive denominator: the rate is the size ratio
        h = HamiltonianSpec(((0.5, 1),))
        res = r_max(h, ConePoint(1.0, 0.0, 2.0), ConePoint(0.5, 0.0, 1.0))
        assert (res.rate_bisect, res.rate_monotone, res.argmin_beta) == (2.0, 2.0, None)

    def test_source_on_boundary_gives_zero(self):
        h = HamiltonianSpec(((-0.5, 2), (0.25, 1), (1.5, 3)))
        for beta in (-1.2, 0.3, 2.0):
            tp = thermal_point(h, beta)
            res = r_max(h, ConePoint(tp.energy, tp.entropy, 1.0).scaled(1.7), ConePoint(0.3, 0.9, 1.3))
            assert res.rate_bisect == pytest.approx(0.0, abs=1e-12)

    def test_evaluation_counts(self, monkeypatch):
        """Over every r_max of the benchmark's queries seeds 1-3: the
        boundary test makes at most 6 thermal-point evaluations on average
        and 18 in one call, and no membership calls beyond the two member
        checks."""
        import thermocone.cone as cone_module
        import thermocone.thermal as thermal_module

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        counts = {"point": 0, "contains": 0}
        inside = []
        unit_point, boundary_rate = thermal_module._unit_point, cone_module._boundary_rate

        def counted_point(*args):
            counts["point"] += bool(inside)
            return unit_point(*args)

        def counted_rate(*args):
            inside.append(True)
            try:
                return boundary_rate(*args)
            finally:
                inside.pop()

        def counted_contains(*args, **kwargs):
            counts["contains"] += 1
            return contains(*args, **kwargs)

        contains = cone_module.cone_contains
        for module in (cone_module, thermal_module):
            monkeypatch.setattr(module, "_unit_point", counted_point)
        monkeypatch.setattr(cone_module, "_boundary_rate", counted_rate)
        monkeypatch.setattr(cone_module, "cone_contains", counted_contains)
        evals, members = [], []
        for seed in (1, 2, 3):
            for op in workloads.build_queries(seed, tiny=False).ops:
                q = op.data
                h = HamiltonianSpec(tuple(q["levels"]))
                rho, sigma = (cone_point_of(QuantumState.from_matrix(q[k]), h) for k in ("rho", "sigma"))
                counts.update(point=0, contains=0)
                r_max(h, rho, sigma)
                evals.append(counts["point"])
                members.append(counts["contains"])
        assert len(evals) == 450
        assert sum(evals) / len(evals) <= 6
        assert max(evals) <= 18
        assert max(members) <= 2


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

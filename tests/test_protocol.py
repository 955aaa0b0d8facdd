import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocone import (
    Distribution,
    DomainError,
    ValidationError,
    build_coarse_graining,
    renyi,
    run_entropy_protocol,
    typical_set,
)
from thermocone import protocol


def random_distribution(rng, size):
    return Distribution(tuple(rng.dirichlet(np.ones(size))))


class TestDistribution:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Distribution(())
        with pytest.raises(ValidationError):
            Distribution((0.5, 0.6))
        with pytest.raises(ValidationError):
            Distribution((1.2, -0.2))

    def test_tiny_negative_clipped(self):
        d = Distribution((1.0 + 1e-16, -1e-16))
        assert d.probabilities[1] == 0.0


class TestRenyi:
    def test_uniform(self):
        r = renyi(Distribution((0.25,) * 4))
        assert (r.h_inf, r.h_1, r.h_0, r.h_neg_inf) == (2.0, 2.0, 2.0, 2.0)

    def test_deterministic(self):
        r = renyi(Distribution((1.0, 0.0)))
        assert (r.h_inf, r.h_1, r.h_0, r.h_neg_inf) == (0.0, 0.0, 0.0, 0.0)

    def test_mixed_example(self):
        r = renyi(Distribution((0.5, 0.25, 0.25)))
        assert r.h_inf == 1.0
        assert r.h_1 == pytest.approx(1.5)
        assert r.h_0 == pytest.approx(math.log2(3))
        assert r.h_neg_inf == 2.0

    def test_chain_on_random_distributions(self):
        rng = np.random.default_rng(50)
        for _ in range(1000):
            size = int(rng.integers(1, 12))
            r = renyi(random_distribution(rng, size))
            assert r.h_inf <= r.h_1 + 1e-12
            assert r.h_1 <= r.h_0 + 1e-12
            assert r.h_0 <= r.h_neg_inf + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=16))
    def test_chain_hypothesis(self, weights):
        total = sum(weights)
        r = renyi(Distribution(tuple(w / total for w in weights)))
        assert r.h_inf <= r.h_1 + 1e-9 <= r.h_0 + 2e-9 <= r.h_neg_inf + 3e-9


class TestCoarseGraining:
    def test_identity(self):
        p = Distribution((0.3, 0.7))
        result = build_coarse_graining(p, p)
        assert result.distance <= 1e-15
        assert result.pushforward == pytest.approx(p.probabilities)

    def test_uniform_collapse(self):
        result = build_coarse_graining(Distribution((0.25,) * 4), Distribution((0.5, 0.5)))
        assert result.distance == 0.0
        assert sorted(result.fiber_sizes) == [2, 2]
        assert result.l1_bound == pytest.approx(0.5)
        assert result.fibre_size_bound == pytest.approx(3.0)

    def test_handrun_example(self):
        result = build_coarse_graining(Distribution((0.4, 0.3, 0.2, 0.1)), Distribution((0.7, 0.3)))
        assert result.distance <= 1e-15
        assert result.l1_bound == pytest.approx(2.0 ** (1 - math.log2(1 / 0.4)))

    def test_zero_target_probability_rejected(self):
        with pytest.raises(ValidationError):
            build_coarse_graining(Distribution((0.5, 0.5)), Distribution((1.0, 0.0)))

    def test_bounds_hold_exactly_on_random_pairs(self):
        rng = np.random.default_rng(52)
        for _ in range(1000):
            p = random_distribution(rng, int(rng.integers(1, 65)))
            q = random_distribution(rng, int(rng.integers(1, 17)))
            result = build_coarse_graining(p, q)
            assert result.distance <= result.l1_bound
            assert max(result.fiber_sizes) <= result.fibre_size_bound
            # pushforward is a genuine distribution on the target
            push = np.asarray(result.pushforward)
            assert float(push.min()) >= 0.0
            assert math.fsum(result.pushforward) == pytest.approx(1.0, abs=1e-12)
            assert all(0 <= y < len(q.probabilities) for y in result.assignment)


def item_greedy(runs, targets):
    """Reference for ``protocol._greedy_assign``, one item at a time: each
    item goes to the largest deficit (lowest index on ties); once v <= 0 or
    no deficit is positive, the rest of the run goes to the argmax."""
    deficit = np.array(targets, dtype=float)
    coverage = np.zeros(deficit.size)
    fibers = np.zeros(deficit.size, dtype=np.int64)
    last = []
    for count, v in runs:
        y = -1
        for left in range(count, 0, -1):
            y = int(np.argmax(deficit))
            k = left if v <= 0.0 or deficit[y] <= 0.0 else 1
            deficit[y] -= k * v
            coverage[y] += k * v
            fibers[y] += k
            if k == left:
                break
        last.append(y)
    return coverage, fibers, last


def assert_matches_item_greedy(runs, targets):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        coverage, fibers, last = protocol._greedy_assign(runs, np.asarray(targets, dtype=float))
    want_coverage, want_fibers, want_last = item_greedy(runs, targets)
    assert fibers.tolist() == want_fibers.tolist()
    assert last == want_last
    # the reference adds one item at a time: at most one rounding per item
    tol = np.finfo(float).eps * np.maximum(fibers, 1) * np.maximum(np.abs(want_coverage), 1.0)
    assert np.all(np.abs(coverage - want_coverage) <= tol)


class TestGreedyEngine:
    """The level fill against the item-level greedy it batches."""

    def test_seeded_run_sets(self):
        rng = np.random.default_rng(53)
        for _ in range(2000):
            targets = rng.dirichlet(np.ones(int(rng.integers(1, 9))))
            if rng.random() < 0.3:  # exactly repeated targets
                targets = np.repeat(targets[: max(1, targets.size // 2)], 2)
            runs = []
            for _ in range(int(rng.integers(1, 6))):
                m, kind = int(rng.integers(0, 40)), rng.random()
                if kind < 0.1:
                    v = 0.0
                elif kind < 0.15:
                    v = 1e-300
                elif kind < 0.3:  # over-covering
                    v = float(rng.uniform(0.2, 1.0))
                else:
                    v = float(rng.uniform(0.0, 2.0 / max(m, 1)))
                runs.append((m, v))
            assert_matches_item_greedy(runs, targets)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-8, 64), min_size=1, max_size=10),
        st.lists(
            st.tuples(st.integers(0, 30), st.one_of(st.integers(0, 80).map(lambda j: j / 64), st.just(1e-300))),
            min_size=1,
            max_size=6,
        ),
    )
    def test_dyadic_run_sets(self, numerators, runs):
        # small dyadic masses make every deficit exact, so ties are exact and frequent
        assert_matches_item_greedy(runs, [x / 64 for x in numerators])

    def test_protocol_matches_item_greedy(self, monkeypatch):
        rng = np.random.default_rng(54)
        cases = []
        while len(cases) < 40:
            p = Distribution(tuple(rng.dirichlet(np.full(int(rng.integers(2, 5)), 4.0))))
            q = Distribution(tuple(rng.permutation(p.probabilities)))
            k = int(rng.integers(1, 6))
            for n in range(int(rng.integers(4, 9)), 12):
                try:  # the smallest n whose typical sets are not empty
                    cases.append((p, q, n, k, run_entropy_protocol(p, q, n, ancilla_bits=k)))
                    break
                except DomainError:
                    pass
        monkeypatch.setattr(protocol, "_greedy_assign", item_greedy)
        for p, q, n, k, rep in cases:
            want = run_entropy_protocol(p, q, n, ancilla_bits=k)
            assert rep.max_fiber == want.max_fiber
            assert abs(rep.map_distance - want.map_distance) <= 1e-12 + 1e-9 * want.map_distance


class TestTypicalSet:
    def test_deterministic_source(self):
        ts = typical_set(Distribution((1.0, 0.0)), 6)
        assert len(ts.type_classes) == 1
        assert ts.type_classes[0].counts == (6, 0)
        assert ts.p_typ == 1.0

    def test_uniform_binary_n4(self):
        ts = typical_set(Distribution((0.5, 0.5)), 4)
        assert ts.count_ranges == ((1, 3), (1, 3))
        assert [tc.counts[0] for tc in ts.type_classes] == [1, 2, 3]
        assert ts.p_typ == 0.875

    def test_uniform_binary_n12(self):
        ts = typical_set(Distribution((0.5, 0.5)), 12)
        assert [tc.counts[0] for tc in ts.type_classes] == [4, 5, 6, 7, 8]
        assert ts.p_typ == 3498 / 4096
        assert ts.p_typ == pytest.approx(0.854004, abs=1e-6)

    def test_uniform_binary_typicality_probability_stays_high(self):
        for n in range(12, 21):
            assert typical_set(Distribution((0.5, 0.5)), n).p_typ >= 0.85

    def test_window_rule_exact_binomial(self):
        # window bounds follow the sqrt(n ln n) rule
        ts = typical_set(Distribution((0.5, 0.5)), 4)
        half = math.sqrt(4 * math.log(4))
        assert ts.windows[0] == (pytest.approx((4 - half) * 0.5), pytest.approx((4 + half) * 0.5))

    def test_renyi_window_bounds_at_n12(self):
        # conditional Renyi entropies vs n*S(p)*(1 -/+ sqrt(ln n / n))
        p = Distribution((0.7, 0.3))
        ts = typical_set(p, 12)
        base = 12 * p.shannon_bits()
        spread = math.sqrt(math.log(12) / 12)
        assert ts.h_0 >= ts.h_inf >= base * (1 - spread)
        assert ts.h_0 <= ts.h_neg_inf <= base * (1 + spread)

    def test_type_class_cap(self, monkeypatch):
        p = Distribution((0.5, 0.5))
        assert len(typical_set(p, 12).type_classes) == 5
        monkeypatch.setattr(protocol, "DEFAULT_TYPE_CLASS_CAP", 5)
        assert len(typical_set(p, 12).type_classes) == 5
        monkeypatch.setattr(protocol, "DEFAULT_TYPE_CLASS_CAP", 4)
        with pytest.raises(DomainError) as err:
            typical_set(p, 12)
        assert err.value.code == "type-class-cap"
        with pytest.raises(DomainError) as err:
            run_entropy_protocol(p, p, 12, ancilla_bits=2)
        assert err.value.code == "type-class-cap"

    def test_empty_window_raises(self):
        with pytest.raises(DomainError) as err:
            typical_set(Distribution((0.6, 0.3, 0.1)), 6)
        assert "symbol 2" in str(err.value)

    def test_exact_fraction_cross_check_n12(self):
        # exact-arithmetic oracle for P_typ of the (0.7, 0.3) source
        p_exact = (Fraction(7, 10), Fraction(3, 10))
        ts = typical_set(Distribution((0.7, 0.3)), 12)
        total = Fraction(0)
        for tc in ts.type_classes:
            total += tc.multiplicity * p_exact[0] ** tc.counts[0] * p_exact[1] ** tc.counts[1]
        assert ts.p_typ == pytest.approx(float(total), abs=1e-14)


class TestEntropyProtocol:
    def test_uniform_self_conversion_distance_is_atypical_mass(self):
        p = Distribution((0.5, 0.5))
        rep = run_entropy_protocol(p, p, 8, ancilla_bits=8)
        assert rep.distance <= (1.0 - rep.p_typ_target) + 1e-12
        assert rep.map_distance <= 1e-12

    def test_biased_binary_converges(self):
        p = Distribution((0.7, 0.3))
        q = Distribution((0.3, 0.7))
        distances = {n: run_entropy_protocol(p, q, n, ancilla_bits=10).distance for n in (4, 6, 8, 10)}
        assert distances[10] < distances[4]

    def test_three_symbol_permutation(self):
        p = Distribution((0.6, 0.3, 0.1))
        q = Distribution((0.1, 0.6, 0.3))
        rep = run_entropy_protocol(p, q, 12, ancilla_bits=6)
        assert rep.map_distance <= rep.l1_bound + 1e-12
        assert rep.max_fiber <= rep.fibre_size_bound
        assert rep.distance <= rep.l1_bound + (1 - rep.p_typ_source) + (1 - rep.p_typ_target) + 1e-12

    def test_map_distance_within_l1_bound(self):
        p = Distribution((0.7, 0.3))
        q = Distribution((0.3, 0.7))
        for n in (4, 8):
            rep = run_entropy_protocol(p, q, n, ancilla_bits=8)
            assert rep.map_distance <= rep.l1_bound + 1e-12
            assert rep.max_fiber <= rep.fibre_size_bound

    def test_readme_case_map_distance(self):
        # the README case. Each of its three runs gives every target what the item-level
        # greedy gives it; half the l1 distance of the pushforward, summed in exact
        # rational arithmetic (the float run masses and targets taken as Fractions),
        # is this value
        rep = run_entropy_protocol(Distribution((0.7, 0.3)), Distribution((0.3, 0.7)), 10, ancilla_bits=10)
        assert rep.map_distance == pytest.approx(7.971938775508433e-05, rel=1e-12, abs=0.0)

    def test_entropy_mismatch_rejected(self):
        p = Distribution((0.7, 0.3))
        with pytest.raises(DomainError) as err:
            run_entropy_protocol(p, Distribution((0.5, 0.5)), 6)
        assert err.value.code == "entropy-mismatch"
        # H(0.3 + e, 0.7 - e) - H(0.3, 0.7) is about log2(7/3) * e bits; the protocol allows 1e-6
        assert run_entropy_protocol(p, Distribution((0.3 + 1e-7, 0.7 - 1e-7)), 4, ancilla_bits=2).n == 4
        with pytest.raises(DomainError) as err:
            run_entropy_protocol(p, Distribution((0.3 + 1e-5, 0.7 - 1e-5)), 4, ancilla_bits=2)
        assert err.value.code == "entropy-mismatch"

    def test_cap_enforced(self):
        p = Distribution((0.5, 0.5))
        with pytest.raises(DomainError):
            run_entropy_protocol(p, p, 8, ancilla_bits=20, outcome_cap=2**16)

    @pytest.mark.parametrize("cap", [-1, 0, 2**63])
    def test_cap_outside_range_refused(self, cap):
        p = Distribution((0.5, 0.5))
        with pytest.raises(ValidationError) as err:
            run_entropy_protocol(p, p, 4, ancilla_bits=0, outcome_cap=cap)
        assert err.value.code == "bad-outcome-cap"
        assert run_entropy_protocol(p, p, 4, ancilla_bits=0, outcome_cap=16).n == 4

    def test_default_ancilla_bits_formula(self):
        p = Distribution((0.7, 0.3))
        from thermocone.protocol import default_ancilla_bits

        assert default_ancilla_bits(p, 10) == round(3 * math.sqrt(10 * math.log2(10)) * p.shannon_bits())


def test_typical_set_needs_a_copy():
    with pytest.raises(ValidationError) as err:
        typical_set(Distribution((0.7, 0.3)), 0)
    assert err.value.code == "bad-copy-count"


def test_single_copy_needs_no_ancilla():
    assert protocol.default_ancilla_bits(Distribution((0.7, 0.3)), 1) == 0

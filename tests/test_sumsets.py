import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocone import DomainError, LevelSet, ValidationError, find_doubling_k, k_fold, minkowski_diff, minkowski_sum


def fracs(*values):
    return LevelSet(tuple(Fraction(v) for v in values))


def pairwise(op, xs, ys):
    """Sorted distinct op(x, y) over exact Fractions: the reference the
    integer kernel must reproduce."""
    return tuple(sorted({op(x, y) for x in xs for y in ys}))


# mixed denominators, negative values, and floats whose exact binary
# value has a huge denominator (0.1 is n / 2**55, 1e-300 is n / 2**1049)
LEVEL = st.one_of(
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
    st.integers(-40, 40),
    st.sampled_from([0.1, -0.1, 0.3, 2.5, 1e-300, -3e-300]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
LEVELS = st.lists(LEVEL, min_size=1, max_size=5)


class TestLevelSet:
    def test_dedup_and_sort(self):
        l = fracs(1, 0, 1, Fraction(1, 2))
        assert l.values == (Fraction(0), Fraction(1, 2), Fraction(1))

    def test_from_floats_is_exact(self):
        l = LevelSet([0.5, 0.25])
        assert l.values == (Fraction(1, 4), Fraction(1, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            LevelSet(())

    def test_decimal_exponent_bound(self):
        # the smallest subnormal's exact value, written with an integer mantissa
        assert LevelSet([f"{5**1074}e-1074"]).values == (Fraction(5e-324),)
        assert LevelSet(["-1E+1100"]).values == (Fraction(-(10**1100)),)
        for text in ("1e-1101", "1e+1101", "1e" + "9" * 5000):
            with pytest.raises(ValidationError) as err:
                LevelSet([text])
            assert err.value.code == "bad-level"

    def test_equality_and_hash_ignore_the_denominators_used(self):
        a = LevelSet([Fraction(1, 2), 1])
        b = LevelSet(["2/4", "3/3"])
        assert a == b and hash(a) == hash(b)
        # the same set reached over a larger common denominator
        c = minkowski_diff(LevelSet([Fraction(5, 6), Fraction(4, 3)]), LevelSet([Fraction(1, 3)]))
        assert c == a and hash(c) == hash(a)
        assert (c.nums, c.den) == ((1, 2), 2)
        assert a != LevelSet([Fraction(1, 2)]) and a != a.values

    def test_every_input_form_gives_the_same_set(self):
        whole = [-3, 0, 2, 7]
        forms = (whole, [Fraction(v) for v in whole], [float(v) for v in whole], [str(v) for v in whole])
        assert len({LevelSet(form) for form in forms}) == 1
        dyadic = [Fraction(-5, 4), Fraction(0), Fraction(1, 2), Fraction(3)]
        forms = (dyadic, [float(v) for v in dyadic], [str(float(v)) for v in dyadic], [-1.25, 0, "1/2", 3])
        assert len({LevelSet(form) for form in forms}) == 1

    def test_booleans_refused(self):
        for values in ([True], [0, False], [Fraction(1, 2), True, 3]):
            with pytest.raises(ValidationError) as err:
                LevelSet(values)
            assert err.value.code == "bad-level"

    def test_membership_and_magnitude(self):
        l = fracs(Fraction(-7, 3), 0, Fraction(1, 2))
        assert Fraction(-7, 3) in l and 0.5 in l and "1/2" in l
        assert Fraction(1, 3) not in l and 1 not in l and Fraction(7, 3) not in l
        assert l.magnitude() == Fraction(7, 3)
        assert fracs(-1, 2).magnitude() == 2


class TestIntegerKernel:
    """The integer-numerator kernel against a naive Fraction reference."""

    @settings(max_examples=200, deadline=None)
    @given(a=LEVELS, b=LEVELS, k=st.integers(1, 3))
    def test_matches_fraction_reference(self, a, b, k):
        xs, ys = [Fraction(v) for v in a], [Fraction(v) for v in b]
        la, lb = LevelSet(a), LevelSet(b)
        assert la.values == tuple(sorted(set(xs)))
        assert minkowski_sum(la, lb).values == pairwise(operator.add, xs, ys)
        assert minkowski_diff(la, lb).values == pairwise(operator.sub, xs, ys)
        want = set(xs)
        for _ in range(k - 1):
            want = set(pairwise(operator.add, want, xs))
        assert k_fold(la, k).values == tuple(sorted(want))
        for got in (la, minkowski_sum(la, lb), minkowski_diff(la, lb)):
            assert math.gcd(got.den, *got.nums) == 1
            assert got == LevelSet(got.values) and hash(got) == hash(LevelSet(got.values))


class TestMinkowski:
    def test_binary_sum(self):
        assert minkowski_sum(fracs(0, 1), fracs(0, 1)).values == (Fraction(0), Fraction(1), Fraction(2))

    def test_difference(self):
        assert minkowski_diff(fracs(0, 1), fracs(0, 1)).values == (Fraction(-1), Fraction(0), Fraction(1))

    def test_k_fold_progression(self):
        for k in (1, 2, 5, 9):
            assert len(k_fold(fracs(0, 1), k)) == k + 1

    def test_k_fold_with_rational(self):
        result = k_fold(fracs(0, 1, Fraction(5, 2)), 2)
        expected = (Fraction(0), Fraction(1), Fraction(2), Fraction(5, 2), Fraction(7, 2), Fraction(5))
        assert result.values == expected

    def test_size_bound(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            a = fracs(*(int(x) for x in rng.integers(-20, 20, size=5)))
            b = fracs(*(int(x) for x in rng.integers(-20, 20, size=4)))
            assert len(minkowski_sum(a, b)) <= len(a) * len(b)


class TestDoublingK:
    def test_singleton(self):
        k, ratio, _ = find_doubling_k(fracs(0), 0.5, 10)
        assert k == 1 and ratio == 1.0

    def test_binary_loose_delta(self):
        k, ratio, _ = find_doubling_k(fracs(0, 1), 0.5, 10)
        assert k == 1
        assert ratio == pytest.approx(1.5)

    def test_binary_tight_delta(self):
        k, ratio, report = find_doubling_k(fracs(0, 1), 0.01, 120)
        assert k == 99
        assert ratio == pytest.approx(101 / 100)
        assert report.sizes[:3] == (2, 3, 4)

    def test_failure_raises(self):
        with pytest.raises(DomainError):
            find_doubling_k(fracs(0, 1), 0.01, 50)

    def test_one_sum_per_k(self, monkeypatch):
        from thermocone import sumsets

        # the benchmark counts sumset work by wrapping these module globals
        calls = {"minkowski_sum": [], "minkowski_diff": []}
        for name, seen in calls.items():
            plain = getattr(sumsets, name)
            monkeypatch.setattr(sumsets, name, lambda a, b, seen=seen, plain=plain: seen.append(len(a)) or plain(a, b))
        k, _, report = find_doubling_k(fracs(0, 1), 0.01, 120)
        assert k == 99 and report.sizes == tuple(range(2, 101))
        assert calls["minkowski_sum"] == calls["minkowski_diff"] == list(report.sizes)

    def test_sizes_nondecreasing(self):
        _, _, report = find_doubling_k(fracs(0, 1, Fraction(7, 3)), 0.2, 64)
        assert all(b >= a for a, b in zip(report.sizes, report.sizes[1:]))

    def test_polynomial_growth_of_window_combinations(self):
        # level sets built like typical energy windows grow polynomially
        rng = np.random.default_rng(62)
        for _ in range(3):
            energies = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5))) for _ in range(3)]
            center = [int(c) for c in rng.integers(2, 5, size=3)]
            values = {
                c0 * energies[0] + c1 * energies[1] + c2 * energies[2]
                for c0 in range(center[0] - 1, center[0] + 2)
                for c1 in range(center[1] - 1, center[1] + 2)
                for c2 in range(center[2] - 1, center[2] + 2)
            }
            l = LevelSet(tuple(values))
            sizes = [len(k_fold(l, k)) for k in range(1, 13)]
            slope = np.polyfit(np.log(np.arange(1, 13)), np.log(sizes), 1)[0]
            assert slope <= 4.0
            assert all(b >= a for a, b in zip(sizes, sizes[1:]))


@pytest.mark.parametrize(
    "call, code",
    [
        (lambda l: k_fold(l, 0), "bad-k"),
        (lambda l: find_doubling_k(l, 0.5, 0), "bad-k"),
        (lambda l: find_doubling_k(l, 0.0, 4), "bad-delta"),
        (lambda l: find_doubling_k(l, 1.0, 4), "bad-delta"),
    ],
    ids=["k-fold-zero", "k-max-zero", "delta-zero", "delta-one"],
)
def test_error_codes(call, code):
    with pytest.raises(ValidationError) as err:
        call(LevelSet((0, 1)))
    assert err.value.code == code

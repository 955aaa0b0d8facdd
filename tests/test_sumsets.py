from fractions import Fraction

import numpy as np
import pytest

from thermocone import DomainError, LevelSet, ValidationError, find_doubling_k, k_fold, minkowski_diff, minkowski_sum


def fracs(*values):
    return LevelSet(tuple(Fraction(v) for v in values))


class TestLevelSet:
    def test_dedup_and_sort(self):
        l = fracs(1, 0, 1, Fraction(1, 2))
        assert l.values == (Fraction(0), Fraction(1, 2), Fraction(1))

    def test_from_floats_is_exact(self):
        l = LevelSet.from_energies([0.5, 0.25])
        assert l.values == (Fraction(1, 4), Fraction(1, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            LevelSet(())

    def test_symmetrized(self):
        assert fracs(0, 1).symmetrized().values == (Fraction(-1), Fraction(0), Fraction(1))


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

        calls = []
        plain = sumsets.minkowski_sum
        monkeypatch.setattr(sumsets, "minkowski_sum", lambda a, b: calls.append(len(a)) or plain(a, b))
        k, _, report = find_doubling_k(fracs(0, 1), 0.01, 120)
        assert k == 99 and report.sizes == tuple(range(2, 101))
        assert len(calls) == k

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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocone import Bracket, DomainError, ValidationError, eigvals_hermitian, minimize_scalar, solve_root_bracketed

from frozen_values import RATE_QUBIT_EXAMPLE
from conftest import random_unitary


class TestEigvals:
    def test_identity(self):
        assert eigvals_hermitian(np.eye(2)) == pytest.approx([1.0, 1.0])

    def test_already_diagonal(self):
        assert eigvals_hermitian(np.diag([0.0, 1.0])) == pytest.approx([0.0, 1.0])

    def test_complex_pauli_like(self):
        m = np.array([[1.0, 1j], [-1j, 1.0]])
        assert eigvals_hermitian(m) == pytest.approx([0.0, 2.0], abs=1e-10)

    def test_trace_and_numpy_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = int(rng.integers(2, 9))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = g + g.conj().T
            eigs = eigvals_hermitian(m)
            assert abs(sum(eigs) - np.trace(m).real) <= 1e-10 * d
            assert eigs == pytest.approx(list(np.linalg.eigvalsh(m)), abs=1e-9)

    def test_recovers_known_spectrum(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            d = int(rng.integers(1, 9))
            lam = np.sort(rng.uniform(-2.0, 2.0, size=d))
            u = random_unitary(rng, d)
            m = u @ np.diag(lam) @ u.conj().T
            got = eigvals_hermitian(m)
            assert isinstance(got, list) and all(isinstance(x, float) for x in got)
            assert got == pytest.approx(list(lam), abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = g + g.conj().T
            c = float(rng.normal())
            base = eigvals_hermitian(m)
            shifted = eigvals_hermitian(m + c * np.eye(d))
            assert shifted == pytest.approx([x + c for x in base], abs=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError) as err:
            eigvals_hermitian(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert "(0,1)" in str(err.value) or "(1,0)" in str(err.value)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            eigvals_hermitian(np.ones((2, 3)))


class TestRootFinding:
    """Objectives whose Newton steps from an endpoint leave the bracket."""

    def test_exponential(self):
        # the first Newton step from x=-10 lands near 2e10
        f = lambda x: (math.exp(x) - 2.0, math.exp(x))
        root = solve_root_bracketed(f, Bracket(-10.0, 10.0, tolerance=1e-12))
        assert root == pytest.approx(math.log(2.0), abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(root=st.floats(-5.0, 5.0), scale=st.floats(0.1, 10.0), saturating=st.booleans())
    def test_monotone_root_recovered(self, root, scale, saturating):
        if saturating:
            f = lambda x: (scale * math.tanh(x - root), scale / math.cosh(x - root) ** 2)
        else:
            f = lambda x: (scale * math.expm1(x - root), scale * math.exp(x - root))
        got = solve_root_bracketed(f, Bracket(-8.0, 8.0, tolerance=1e-12))
        assert got == pytest.approx(root, abs=1e-9)


class TestNewtonRootFinding:
    @staticmethod
    def with_slope(f, df):
        return lambda x: (f(x), df(x))

    def test_linear(self):
        f = self.with_slope(lambda x: x - 2.0, lambda x: 1.0)
        assert solve_root_bracketed(f, Bracket(0.0, 10.0)) == pytest.approx(2.0, abs=1e-10)

    def test_odd_symmetry(self):
        f = self.with_slope(lambda x: x, lambda x: 1.0)
        assert solve_root_bracketed(f, Bracket(-1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_exponential(self):
        f = self.with_slope(lambda x: math.exp(x) - 2.0, math.exp)
        root = solve_root_bracketed(f, Bracket(0.0, 2.0))
        assert root == pytest.approx(math.log(2.0), abs=1e-12)

    def test_same_sign_bracket_rejected(self):
        with pytest.raises(DomainError):
            solve_root_bracketed(self.with_slope(lambda x: x * x + 1.0, lambda x: 2.0 * x), Bracket(-1.0, 1.0))

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValidationError):
            Bracket(1.0, 1.0)
        with pytest.raises(ValidationError):
            Bracket(0.0, 1.0, tolerance=0.0)

    @pytest.mark.parametrize("r", [-7.5, -3.0, -0.4, 0.0, 1.7, 5.0, 7.9])
    def test_overshooting_newton_falls_back_to_bisection(self, r):
        # Newton on atan diverges from more than ~1.39 away from the root,
        # so the steps from the far endpoint leave the bracket
        f = self.with_slope(lambda x: math.atan(x - r), lambda x: 1.0 / (1.0 + (x - r) ** 2))
        calls = []
        counted = lambda x: calls.append(x) or f(x)
        got = solve_root_bracketed(counted, Bracket(-8.0, 8.0, tolerance=1e-12))
        assert got == pytest.approx(r, abs=1e-10)
        assert len(calls) <= 60

    def test_start_point(self):
        f = self.with_slope(lambda x: x**3 - 2.0, lambda x: 3.0 * x**2)
        got = solve_root_bracketed(f, Bracket(0.0, 4.0), x0=1.2)
        assert got == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(root=st.floats(-5.0, 5.0), scale=st.floats(0.1, 10.0), cubic=st.booleans())
    def test_monotone_root_recovered(self, root, scale, cubic):
        if cubic:
            f = self.with_slope(
                lambda x: scale * ((x - root) ** 3 + (x - root)), lambda x: scale * (3.0 * (x - root) ** 2 + 1.0)
            )
        else:
            f = self.with_slope(lambda x: scale * (x - root), lambda x: scale)
        got = solve_root_bracketed(f, Bracket(-8.0, 8.0, tolerance=1e-12))
        assert got == pytest.approx(root, abs=1e-9)


class TestMinimizeScalar:
    def test_quadratic(self):
        f = lambda x: ((x - 3.0) ** 2, 2.0 * (x - 3.0), 2.0)
        x, v = minimize_scalar(f, np.linspace(0.0, 6.0, 25), refine_tol=1e-8)
        assert x == pytest.approx(3.0, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_even_function(self):
        f = lambda x: (math.cosh(x), math.sinh(x), math.cosh(x))
        x, v = minimize_scalar(f, np.linspace(-2.0, 2.0, 21), refine_tol=1e-8)
        assert x == pytest.approx(0.0, abs=1e-6)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_athermality_ratio_objective(self, qubit):
        from thermocone import Macrostate, athermality, energy_variance, thermal_point

        top = Macrostate(0.5, 0.2)
        bottom = Macrostate(0.5, 0.0)

        def ratio(b):
            # both points sit at E = 0.5: A_beta' = 0.5 - E(tau_beta), A_beta'' = Var(tau_beta)
            n, d = athermality(qubit, top, b), athermality(qubit, bottom, b)
            slope, var = 0.5 - thermal_point(qubit, b).energy, energy_variance(qubit, b)
            r = n / d
            dr = slope * (1.0 - r) / d
            return r, dr, (var * (1.0 - r) - 2.0 * dr * slope) / d

        x, v = minimize_scalar(ratio, np.linspace(-2.0, 2.0, 41), refine_tol=1e-8)
        assert x == pytest.approx(0.0, abs=1e-5)
        assert v == pytest.approx(RATE_QUBIT_EXAMPLE, abs=1e-10)

    def test_minimum_never_exceeds_grid_samples(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = float(rng.uniform(-2.0, 2.0))
            grid = np.sort(rng.uniform(-4.0, 4.0, size=9))
            if grid[0] == grid[-1]:
                continue
            f = lambda x: (
                math.sin(3 * x) + 0.2 * (x - c) ** 2,
                3.0 * math.cos(3 * x) + 0.4 * (x - c),
                -9.0 * math.sin(3 * x) + 0.4,
            )
            _, v = minimize_scalar(f, grid, refine_tol=1e-9)
            assert all(v <= f(x)[0] + 1e-15 for x in grid)

    def test_convex_recovers_minimizer(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = float(rng.uniform(-2.5, 2.5))
            f = lambda t: ((t - c) ** 2, 2.0 * (t - c), 2.0)
            x, _ = minimize_scalar(f, np.linspace(-3.0, 3.0, 13), refine_tol=1e-6)
            assert x == pytest.approx(c, abs=1e-6)

    def test_grid_end_sloping_outwards_is_returned(self):
        f = lambda x: (x, 1.0, 0.0)
        assert minimize_scalar(f, [0.0, 1.0, 2.0], refine_tol=1e-9) == (0.0, 0.0)

    def test_degenerate_grid_rejected(self):
        f = lambda x: (x, 1.0, 0.0)
        with pytest.raises(ValidationError):
            minimize_scalar(f, [0.0, 1.0], refine_tol=1e-6)
        with pytest.raises(ValidationError):
            minimize_scalar(f, [1.0, 1.0, 1.0], refine_tol=1e-6)


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)], ids=["inf-hi", "inf-lo", "nan-lo"])
def test_non_finite_bracket_refused(lo, hi):
    with pytest.raises(ValidationError) as err:
        Bracket(lo, hi)
    assert err.value.code == "bad-bracket"


@pytest.mark.parametrize("root", [0.0, 1.0], ids=["lo", "hi"])
def test_exact_zero_at_bracket_end_is_returned(root):
    assert solve_root_bracketed(lambda x: (x - root, 1.0), Bracket(0.0, 1.0)) == root

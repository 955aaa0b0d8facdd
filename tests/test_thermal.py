import math

import mpmath
import numpy as np
import pytest

from thermocone import (
    DomainError,
    HamiltonianSpec,
    ValidationError,
    beta_cap,
    beta_from_energy,
    beta_from_entropy,
    energy_variance,
    thermal,
    thermal_point,
    thermal_points,
)

import frozen_values as fv
from conftest import random_hamiltonian
from mp_thermal import mp_beta_from_energy, mp_beta_from_entropy

BETAS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def level_order_sums(g_ref, weights):
    """(z, rel, var) from (w_i, d_i) pairs: z = g_ref + the weights off the
    ref level, rel = sum(w_i*d_i)/z and var = sum(w_i*(d_i - rel)**2)/z,
    each added from 0.0 in level order with plain additions, as the kernels
    add (``sum()`` over floats is compensated from Python 3.12 on)."""
    rest = first = var = 0.0
    for w, d in weights:
        if d != 0.0:
            rest += w
        first += w * d
    z = g_ref + rest
    rel = first / z
    for w, d in weights:
        var += w * (d - rel) ** 2
    return z, rel, var / z


class TestThermalPoint:
    def test_infinite_temperature(self, qubit):
        tp = thermal_point(qubit, 0.0)
        assert tp.energy == pytest.approx(0.5)
        assert tp.entropy == pytest.approx(math.log(2))

    def test_zero_temperature(self, qubit):
        tp = thermal_point(qubit, math.inf)
        assert (tp.energy, tp.entropy) == (0.0, 0.0)

    def test_negative_zero_temperature(self, qubit):
        tp = thermal_point(qubit, -math.inf)
        assert (tp.energy, tp.entropy) == (1.0, 0.0)

    def test_unit_beta_against_oracle(self, qubit):
        tp = thermal_point(qubit, 1.0)
        assert tp.energy == pytest.approx(fv.QUBIT_E_BETA1, abs=1e-12)
        assert tp.entropy == pytest.approx(fv.QUBIT_S_BETA1, abs=1e-12)
        assert tp.log_z == pytest.approx(fv.QUBIT_LOGZ_BETA1, abs=1e-12)

    def test_degenerate_plateaus(self):
        h = HamiltonianSpec(((0.0, 2), (1.0, 3)))
        assert thermal_point(h, math.inf).entropy == pytest.approx(math.log(2))
        assert thermal_point(h, -math.inf).entropy == pytest.approx(math.log(3))

    def test_beyond_cap_returns_plateau(self, qubit):
        cap = beta_cap(qubit)
        tp = thermal_point(qubit, cap * 2)
        assert (tp.energy, tp.entropy) == (0.0, 0.0)

    def test_identity_fundamental_relation(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = random_hamiltonian(rng, degenerate=True)
            for beta in BETAS:
                tp = thermal_point(h, beta)
                assert tp.entropy == pytest.approx(beta * tp.energy + tp.log_z, abs=1e-10)
                assert 0.0 <= tp.entropy <= h.log_dim + 1e-12

    def test_entropy_maximal_at_zero_beta(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            h = random_hamiltonian(rng, degenerate=True)
            assert thermal_point(h, 0.0).entropy == h.log_dim
            for beta in BETAS:
                assert thermal_point(h, beta).entropy <= h.log_dim

    def test_underflowing_degenerate_level(self):
        # at beta = -750 the ground weight is subnormal; divided by its
        # degeneracy 2 it underflows to zero and must drop out of S
        h = HamiltonianSpec(((0.0, 2), (0.0077, 3), (0.9984, 2), (1.0, 3)))
        with np.errstate(divide="raise"):
            tp = thermal_point(h, -750.0)
        # the scalar path measures S from the top plateau, log 3
        assert tp.entropy == pytest.approx(math.log(3) + thermal._moments(h, -750.0)[1], abs=1e-12)

    def test_kernel_units_rescale_exactly(self):
        """The kernels work in a power-of-two unit of the span, so at any
        energy scale their results equal the Boltzmann sums taken in user
        units bit for bit."""
        rng = np.random.default_rng(6)
        for _ in range(100):
            c = 10.0 ** rng.uniform(-12.0, 12.0)
            levels = random_hamiltonian(rng, d_min=2, d_max=6, degenerate=True).levels
            h = HamiltonianSpec(tuple((c * e, g) for e, g in levels))
            for t in rng.uniform(-40.0, 40.0, size=4):
                beta = float(t) / h.span
                ref, g_ref = (h.e_min, h.g_ground) if beta > 0 else (h.e_max, h.g_top)
                weights = [(g * math.exp(-beta * (e - ref)), e - ref) for e, g in h.levels]
                z, rel, _ = level_order_sums(g_ref, weights)
                entropy = min(max(math.log(z) + beta * rel, 0.0), h.log_dim)
                tp = thermal_point(h, beta)
                assert (tp.energy, tp.log_z, tp.entropy) == (ref + rel, math.log(z) - beta * ref, entropy)

    def test_kernels_add_in_level_order(self):
        """Both kernels give z and rel, and the scalar kernel var, as plain
        level-order sums of their own weights, on every Python, so they
        agree bit for bit wherever their weights do (``np.exp`` and
        ``math.exp`` may differ in the last bit: numpy's AVX-512 exp does)."""
        rng = np.random.default_rng(19)
        agreeing = 0
        for _ in range(200):
            h = random_hamiltonian(rng, d_min=1, d_max=7, degenerate=True)
            cap = beta_cap(h) * h.unit if h.span else thermal._T_CAP
            ts = np.concatenate([[0.0, -0.0, cap, -cap], rng.uniform(-cap, cap, 8), rng.uniform(-20.0, 20.0, 8)])
            refs, ds, ws, zs = thermal._shifted_weight_rows(h, ts)
            rels = thermal._level_sum(ws * ds) / zs
            for i, t in enumerate(ts.tolist()):
                ref, g_ref, rest, rel, var = thermal._shifted_weights(h, t)
                weights = [(g * math.exp(-t * d), d) for d, g in h.unit_levels[math.copysign(1.0, t) < 0]]
                assert (g_ref + rest, rel, var) == level_order_sums(g_ref, weights)
                column = list(zip(ws[:, i].tolist(), ds[:, i].tolist()))
                assert (zs[i], rels[i]) == level_order_sums(g_ref, column)[:2]
                assert refs[i] == ref
                if column == weights:
                    agreeing += 1
                    assert (zs[i], rels[i]) == (g_ref + rest, rel)
        assert agreeing > 0

    def test_constant_hamiltonian(self):
        h = HamiltonianSpec(((0.7, 3),))
        tp = thermal_point(h, 12.0)
        assert tp.energy == 0.7
        assert tp.entropy == pytest.approx(math.log(3))

    @pytest.mark.parametrize("levels", [
        ((0.0, 2), (0.5, 1), (1.0, 3)),  # ground plateau at E = 0
        ((-2.0, 3), (-0.5, 1), (0.0, 2)),  # top plateau at E = 0
        ((-1.0, 2), (0.25, 1), (1.5, 4)),  # both plateaus off zero
        ((-0.0, 1), (1e-300, 2)),  # a signed zero, and a cap past 1e300
        ((0.0, 5),),  # one level: only +-inf is on the plateau
    ])
    def test_plateau_rows_match_scalar_kernel_bit_for_bit(self, levels):
        # thermal_points fills the rows beyond the cap from one point per side
        h = HamiltonianSpec(levels)
        cap = beta_cap(h)
        betas = [s * b for s in (1.0, -1.0) for b in (cap * (1 + 1e-15), cap * (1 - 1e-15), 1e300, 1.7e308, math.inf)]
        _, log_z, energy, entropy = thermal_points(h, betas)
        plateau = 0
        for k, beta in enumerate(betas):
            if abs(beta) > cap or math.isinf(beta):
                tp = thermal_point(h, beta)
                got, want = (log_z[k], energy[k], entropy[k]), (tp.log_z, tp.energy, tp.entropy)
                assert np.array(got).tobytes() == np.array(want).tobytes(), (beta, got, want)
                plateau += 1
        assert plateau >= 2


class TestTangentSlope:
    def test_slope_equals_beta(self, qubit):
        rng = np.random.default_rng(6)
        hams = [qubit] + [random_hamiltonian(rng) for _ in range(5)]
        h_step = 1e-4
        for h in hams:
            for beta in BETAS:
                hi = thermal_point(h, beta + h_step)
                lo = thermal_point(h, beta - h_step)
                slope = (hi.entropy - lo.entropy) / (hi.energy - lo.energy)
                assert slope == pytest.approx(beta, abs=1e-3)


class TestInverseProblems:
    def test_energy_examples(self, qubit):
        assert beta_from_energy(qubit, 0.5) == pytest.approx(0.0, abs=1e-10)
        assert beta_from_energy(qubit, 0.25) == pytest.approx(math.log(3), abs=1e-10)
        assert beta_from_energy(qubit, fv.QUBIT_E_BETA1) == pytest.approx(1.0, abs=1e-8)

    def test_energy_out_of_range(self, qubit):
        for energy in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                beta_from_energy(qubit, energy)

    def test_constant_hamiltonian_rejected(self):
        h = HamiltonianSpec(((1.0, 4),))
        with pytest.raises(DomainError):
            beta_from_energy(h, 1.0)

    def test_entropy_examples(self, qubit):
        assert beta_from_entropy(qubit, math.log(2), "positive") == pytest.approx(0.0, abs=1e-10)
        assert beta_from_entropy(qubit, math.log(2), "negative") == pytest.approx(0.0, abs=1e-10)
        assert beta_from_entropy(qubit, fv.QUBIT_S_BETA1, "positive") == pytest.approx(1.0, abs=1e-8)
        assert beta_from_entropy(qubit, fv.QUBIT_S_BETA1, "negative") == pytest.approx(-1.0, abs=1e-8)

    def test_entropy_below_plateau(self):
        h = HamiltonianSpec(((0.0, 2), (1.0, 1)))
        with pytest.raises(DomainError):
            beta_from_entropy(h, 0.5 * math.log(2), "positive")

    def test_round_trips(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            h = random_hamiltonian(rng)
            for beta in BETAS:
                tp = thermal_point(h, beta)
                assert beta_from_energy(h, tp.energy) == pytest.approx(beta, abs=1e-8)
                branch = "positive" if beta > 0 else "negative"
                assert beta_from_entropy(h, tp.entropy, branch) == pytest.approx(beta, abs=1e-8)

    def test_matches_high_precision_inverse(self):
        """Both inverse solves against 40-digit secant roots for the same
        float targets, at t = beta*span where a target's rounding moves
        beta by less than 1e-12 relative."""
        rng = np.random.default_rng(60)
        for _ in range(30):
            h = random_hamiltonian(rng, 2, 6, degenerate=True)
            for t in (-3.0, -0.5, 0.7, 4.0):
                tp = thermal_point(h, t / h.span)
                branch = "positive" if t > 0 else "negative"
                got_e, got_s = beta_from_energy(h, tp.energy), beta_from_entropy(h, tp.entropy, branch)
                with mpmath.workdps(40):
                    want_e = mp_beta_from_energy(h.levels, tp.energy, got_e)
                    want_s = mp_beta_from_entropy(h.levels, tp.entropy, got_s)
                assert got_e == pytest.approx(float(want_e), rel=1e-12, abs=0)
                assert got_s == pytest.approx(float(want_s), rel=1e-12, abs=0)

    @pytest.mark.parametrize("c", [1e-12, 1e-6, 1e6, 1e12])
    def test_scale_free(self, c):
        # E -> c*E maps beta -> beta/c, so c*beta(cE) = beta(E) in any energy unit: to
        # 1e-12 relative, plus what a few ulp of the target move beta by, over the slope
        # |dE/dbeta| = Var or |dS/dbeta| = |beta|*Var
        ulps = 4.0 * np.finfo(float).eps
        rng = np.random.default_rng(9)
        for _ in range(100):
            h = random_hamiltonian(rng, 2, 6, degenerate=True)
            hc = HamiltonianSpec(tuple((c * e, g) for e, g in h.levels))
            for beta in BETAS:
                tp = thermal_point(h, beta)
                var = energy_variance(h, beta)
                want = beta_from_energy(h, tp.energy)
                tol = 1e-12 * abs(want) + ulps * max(abs(h.e_min), abs(h.e_max)) / var
                assert abs(c * beta_from_energy(hc, c * tp.energy) - want) <= tol
                branch = "positive" if beta > 0 else "negative"
                want = beta_from_entropy(h, tp.entropy, branch)
                tol = 1e-12 * abs(want) + ulps * h.log_dim / (abs(beta) * var)
                assert abs(c * beta_from_entropy(hc, tp.entropy, branch) - want) <= tol


class TestEnergyVariance:
    def test_qubit_values(self, qubit):
        assert energy_variance(qubit, 0.0) == pytest.approx(0.25, abs=1e-14)
        assert energy_variance(qubit, 1.0) == pytest.approx(fv.QUBIT_VAR_BETA1, abs=1e-12)

    def test_constant_hamiltonian(self):
        assert energy_variance(HamiltonianSpec(((2.0, 5),)), 3.0) == 0.0

    def test_matches_energy_derivative(self):
        rng = np.random.default_rng(10)
        h_step = 1e-4
        for _ in range(10):
            h = random_hamiltonian(rng, degenerate=True)
            for beta in BETAS:
                hi = thermal_point(h, beta + h_step)
                lo = thermal_point(h, beta - h_step)
                derivative = -(hi.energy - lo.energy) / (2 * h_step)
                assert derivative == pytest.approx(energy_variance(h, beta), rel=1e-4)


def small_gap_hamiltonian(rng: np.random.Generator) -> HamiltonianSpec:
    """Levels on [0, 1] whose lowest and highest gaps are 1e-3..1e-2, so
    the thermal curve stays off its plateaus up to |beta| near beta_cap."""
    low, high = rng.uniform(1e-3, 1e-2, size=2)
    inner = np.sort(rng.uniform(0.1, 0.9, size=int(rng.integers(0, 3))))
    energies = [0.0, float(low), *map(float, inner), float(1.0 - high), 1.0]
    degs = rng.integers(1, 4, size=len(energies))
    return HamiltonianSpec(tuple((e, int(g)) for e, g in zip(energies, degs)))


class TestInverseEvaluationCount:
    """Newton steps on the tangent relations keep every inverse solve,
    the hard cases included, within 12 evaluations of the thermal moments.
    Each solve runs on a fresh ``HamiltonianSpec``, so the moments at
    t = 0 and at the cap, which a spec keeps after its first solve, are
    counted too."""

    MAX_EVALS = 12

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        moments = thermal._moments
        monkeypatch.setattr(thermal, "_moments", lambda h, beta: seen.append(beta) or moments(h, beta))
        return seen

    @staticmethod
    def hamiltonians():
        rng = np.random.default_rng(21)
        return [random_hamiltonian(rng, 2, 6, degenerate=True) for _ in range(40)] + [
            small_gap_hamiltonian(rng) for _ in range(20)
        ]

    def solve(self, calls, fn, h, *args):
        calls.clear()
        beta = fn(HamiltonianSpec(h.levels), *args)
        assert 0 < len(calls) <= self.MAX_EVALS, (h, args, len(calls))
        return beta

    def test_warm_spec_skips_the_cached_ends(self, calls):
        """A solve on a spec whose ends on that side of beta = 0 a solve
        for another target has evaluated makes the cold count less those
        ends (t = 0, and the cap unless the target is met at t = 0), and
        returns the same beta, bit for bit."""
        for h in self.hamiltonians():
            span = h.e_max - h.e_min
            for sign in (1.0, -1.0):
                branch = "positive" if sign > 0 else "negative"
                near, far = (thermal_point(h, sign * t / span) for t in (0.5, 3.0))
                solves = [(beta_from_energy, (near.energy,), (far.energy,)),
                          (beta_from_entropy, (near.entropy, branch), (far.entropy, branch))]
                if sign < 0:  # E_mix folds onto the negative side and is met at t = 0
                    solves.append((beta_from_energy, (h.mixed_energy,), (far.energy,)))
                for fn, args, other in solves:
                    calls.clear()
                    cold = fn(HamiltonianSpec(h.levels), *args)
                    cold_calls = len(calls)
                    spec = HamiltonianSpec(h.levels)
                    fn(spec, *other)
                    calls.clear()
                    warm = fn(spec, *args)
                    assert len(calls) == cold_calls - (1 if cold == 0.0 else 2), (h, fn, args)
                    assert math.copysign(1.0, warm) == math.copysign(1.0, cold) and warm == cold

    def test_solved_betas_are_kept_per_spec(self, calls):
        """A repeated target on one spec is not solved again until
        ``_SOLVED_KEPT`` other targets have followed it."""
        h = HamiltonianSpec(((0.0, 1), (0.3, 2), (1.0, 1)))
        energies = [thermal_point(h, beta).energy for beta in np.linspace(0.1, 5.0, thermal._SOLVED_KEPT + 1)]
        first = beta_from_energy(h, energies[0])
        calls.clear()
        assert beta_from_energy(h, energies[0]) == first and not calls
        for energy in energies[1:]:
            beta_from_energy(h, energy)
        calls.clear()
        assert beta_from_energy(h, energies[0]) == first and calls

    def test_thermal_points(self, calls):
        for h in self.hamiltonians():
            span, cap = h.e_max - h.e_min, beta_cap(h)
            for beta in (-10.0 / span, -2.0 / span, -0.5 / span, 0.5 / span, 2.0 / span, 10.0 / span,
                         0.9 * cap, -0.9 * cap):
                tp = thermal_point(h, beta)
                branch = "positive" if beta > 0 else "negative"
                if h.e_min < tp.energy < h.e_max:
                    found = self.solve(calls, beta_from_energy, h, tp.energy)
                    assert thermal_point(h, found).energy == pytest.approx(tp.energy, abs=1e-12)
                if tp.entropy > math.log(h.g_ground if beta > 0 else h.g_top):
                    found = self.solve(calls, beta_from_entropy, h, tp.entropy, branch)
                    assert thermal_point(h, found).entropy == pytest.approx(tp.entropy, abs=1e-12)

    def test_near_cap(self, calls):
        for h in self.hamiltonians()[40:]:
            for beta in (0.9 * beta_cap(h), -0.9 * beta_cap(h)):
                tp = thermal_point(h, beta)
                branch = "positive" if beta > 0 else "negative"
                assert self.solve(calls, beta_from_energy, h, tp.energy) == pytest.approx(beta, rel=1e-9)
                assert self.solve(calls, beta_from_entropy, h, tp.entropy, branch) == pytest.approx(beta, rel=1e-9)

    def test_targets_near_the_plateaus(self, calls):
        eps = 1e-6
        for h in self.hamiltonians():
            span, cap = h.e_max - h.e_min, beta_cap(h)
            for plateau, sign in ((h.e_min, 1.0), (h.e_max, -1.0)):
                target = plateau + sign * eps * span
                beta = self.solve(calls, beta_from_energy, h, target)
                reached = thermal_point(h, beta).energy - plateau
                if abs(beta) == cap:  # not reached before the cap
                    assert abs(reached) > eps * span
                else:
                    assert reached == pytest.approx(target - plateau, rel=1e-7)
            for branch, g in (("positive", h.g_ground), ("negative", h.g_top)):
                for target in (math.log(g) + eps, h.log_dim - eps):
                    beta = self.solve(calls, beta_from_entropy, h, target, branch)
                    if abs(beta) == cap:
                        assert thermal._moments(h, beta)[1] > eps
                    else:
                        assert thermal_point(h, beta).entropy == pytest.approx(target, abs=1e-12)


@pytest.mark.parametrize(
    "call, error, code",
    [
        (lambda h: thermal_point(h, math.nan), ValidationError, "bad-beta"),
        (lambda h: thermal_points(h, [0.0, math.nan]), ValidationError, "bad-beta"),
        (lambda h: energy_variance(h, math.inf), ValidationError, "bad-beta"),
        (lambda h: energy_variance(h, -math.inf), ValidationError, "bad-beta"),
        (lambda h: beta_from_entropy(h, 0.5, branch="both"), ValidationError, "bad-branch"),
        (lambda h: beta_from_entropy(h, math.log(2.0) + 1e-9), DomainError, "entropy-out-of-range"),
    ],
    ids=["point-nan", "points-nan", "variance-inf", "variance-minus-inf", "entropy-branch", "entropy-above-log-d"],
)
def test_error_codes(qubit, call, error, code):
    with pytest.raises(error) as err:
        call(qubit)
    assert err.value.code == code

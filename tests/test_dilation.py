import math
from fractions import Fraction

import numpy as np
import pytest

from thermocone import (
    DomainError,
    HamiltonianSpec,
    LevelSet,
    QuantumState,
    ValidationError,
    build_energy_preserving_dilation,
    k_fold,
    minkowski_diff,
    minkowski_sum,
)
from thermocone import dilation

from conftest import random_density_matrix, random_unitary

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def m_range(k):
    return LevelSet(tuple(Fraction(v) for v in range(-k, k + 1)))


def loop_apply_case(u, state, energies, anc, m_levels, case):
    """The oracle of ``dilation._apply_case``: V entry by entry over
    (i, j, ancilla) triples, one block search per total energy, and the
    output through the full joint state rho (x) |psi><psi|."""
    d = u.shape[0]
    a_dim = len(anc)
    den = math.lcm(anc.den, m_levels.den, *(Fraction(e).denominator for e in energies))
    levels = [int(Fraction(e) * den) for e in energies]
    anc_values = [n * (den // anc.den) for n in anc.nums]
    m_values = {n * (den // m_levels.den) for n in m_levels.nums}
    anc_index = {v: i for i, v in enumerate(anc_values)}
    joint = d * a_dim
    vt = np.zeros((joint, joint), dtype=complex)
    target = case == "incoherent-target"
    for j, row in enumerate(u.T.tolist()):
        for i, uij in enumerate(row):
            if uij == 0.0:
                continue
            for a_in, val_in in enumerate(anc_values):
                hh = val_in + levels[j] if target else val_in - levels[i]
                if hh in m_values:
                    val_out = hh - levels[i] if target else hh + levels[j]
                    vt[i * a_dim + anc_index[val_out], j * a_dim + a_in] = uij

    codes: dict = {}
    code_arr = np.array([codes.setdefault(e + v, len(codes)) for e in levels for v in anc_values])
    residual = float(np.abs(vt[np.not_equal.outer(code_arr, code_arr)]).max(initial=0.0))

    ut = np.zeros_like(vt)
    blocks = [np.flatnonzero(code_arr == code) for code in range(len(codes))]
    for size in {len(b) for b in blocks}:
        idx = np.array([b for b in blocks if len(b) == size])
        rows, cols = idx[:, :, None], idx[:, None, :]
        ub, _s, vhb = np.linalg.svd(vt[rows, cols])
        ut[rows, cols] = ub @ vhb

    psi = np.full(a_dim, 1.0 / math.sqrt(a_dim))
    omega = np.kron(state, np.outer(psi, psi))
    out_joint = ut @ omega @ ut.conj().T
    output = np.einsum("iaja->ij", out_joint.reshape(d, a_dim, d, a_dim))
    passed = float((vt @ omega @ vt.conj().T).trace().real)
    return output, residual, passed


# (levels with degeneracies, base set M): integer qubit and qutrit, a doubly
# degenerate level with a gapped M, and float levels whose exact integers
# run to 2**54
ORACLE_SYSTEMS = {
    "qubit": (((0.0, 1), (1.0, 1)), m_range(3)),
    "qutrit": (((0.0, 1), (1.0, 1), (2.0, 1)), m_range(4)),
    "degenerate-gapped": (((0.0, 1), (1.0, 2)), LevelSet([-5, -4, -2, 0, 1, 3, 6])),
    "thirds": (((0.0, 1), (1 / 3, 1), (1.0, 1)), k_fold(LevelSet([-1.0, -1 / 3, 0.0, 1 / 3, 1.0]), 3)),
}


class TestSingleCases:
    def test_identity_on_diagonal_state(self, qubit):
        rho = QuantumState.from_matrix(np.diag([0.3, 0.7]))
        rep = build_energy_preserving_dilation(qubit, np.eye(2), rho, rho, m_range(3), delta=1 / 7)
        assert rep.output_distance <= 1e-12
        assert rep.commutation_residual == 0.0
        assert rep.case == "incoherent-target"

    def test_swap_reports_exact_deficit(self, qubit):
        rho = QuantumState.from_matrix(np.diag([0.0, 1.0]))
        sigma = QuantumState.from_matrix(np.diag([1.0, 0.0]))
        rep = build_energy_preserving_dilation(qubit, SWAP, rho, sigma, m_range(3), delta=1 / 7)
        assert rep.commutation_residual <= 1e-12
        # |M| = 7 and |M - L| = 8 for the qubit level set
        assert rep.deficit_factors[0] == pytest.approx(7 / 8, abs=1e-12)
        assert rep.output_distance <= 2 * rep.delta
        assert rep.total_dimension == 16

    def test_deficit_shrinks_with_wider_ancilla(self, qubit):
        rho = QuantumState.from_matrix(np.diag([0.0, 1.0]))
        sigma = QuantumState.from_matrix(np.diag([1.0, 0.0]))
        small = build_energy_preserving_dilation(qubit, SWAP, rho, sigma, m_range(3), delta=1 / 7)
        wide = build_energy_preserving_dilation(qubit, SWAP, rho, sigma, m_range(20), delta=1 / 41)
        assert wide.deficit_factors[0] > small.deficit_factors[0]
        assert wide.output_distance < small.output_distance


class TestComposedCase:
    def test_coherent_to_coherent(self, qubit):
        plus = np.full((2, 2), 0.5, dtype=complex)
        angle = 0.4
        u = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]], dtype=complex)
        sigma = u @ plus @ u.conj().T
        rep = build_energy_preserving_dilation(
            qubit,
            u,
            QuantumState.from_matrix(plus),
            QuantumState.from_matrix(sigma),
            m_range(3),
            delta=2 / 7,
        )
        assert rep.case == "composed"
        assert rep.commutation_residual <= 1e-10
        assert rep.output_distance <= 4 * rep.delta + 1e-9
        assert rep.deficit_factors == (pytest.approx(7 / 8, abs=1e-12), pytest.approx(7 / 8, abs=1e-12))

    def test_random_energy_mixing_unitaries(self, qubit):
        rng = np.random.default_rng(64)
        plus = np.full((2, 2), 0.5, dtype=complex)
        for _ in range(5):
            u = random_unitary(rng, 2)
            sigma = u @ plus @ u.conj().T
            rep = build_energy_preserving_dilation(
                qubit,
                u,
                QuantumState.from_matrix(plus),
                QuantumState.from_matrix(sigma),
                m_range(3),
                delta=2 / 7,
            )
            assert rep.commutation_residual <= 1e-10
            assert rep.output_distance <= 4 * rep.delta + 1e-9


class TestBlockForm:
    @pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
    def test_matches_entry_by_entry_oracle(self, monkeypatch, name):
        levels, m = ORACLE_SYSTEMS[name]
        h = HamiltonianSpec(levels)
        block_form = dilation._apply_case
        steps = []

        def checked(*args):
            got, want = block_form(*args), loop_apply_case(*args)
            np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)
            assert got[2] == pytest.approx(want[2], abs=1e-12)
            assert np.trace(got[0]).real == pytest.approx(np.trace(args[1]).real, abs=1e-12)
            steps.append(args[-1])
            return got

        monkeypatch.setattr(dilation, "_apply_case", checked)
        l_set = LevelSet(e for e, _ in levels)
        grown = max(len(minkowski_sum(m, l_set)), len(minkowski_diff(m, l_set)))
        delta = grown / len(m) - 1.0 + 1e-9
        rng = np.random.default_rng(24)
        cases = []
        for _ in range(3):
            lam = rng.dirichlet(np.ones(h.dim))
            coherent = random_density_matrix(rng, h.dim)
            _, v = np.linalg.eigh(coherent)
            runs = (
                (np.diag(lam), np.eye(h.dim)[rng.permutation(h.dim)]),  # incoherent target, diagonal state
                (coherent, v.conj().T),  # incoherent target, coherent state
                (np.diag(lam), random_unitary(rng, h.dim)),  # incoherent source
                (coherent, random_unitary(rng, h.dim)),  # composed
            )
            for rho, u in runs:
                sigma = u @ rho @ u.conj().T
                rep = build_energy_preserving_dilation(
                    h, u, QuantumState.from_matrix(rho), QuantumState.from_matrix(sigma), m, delta
                )
                assert rep.commutation_residual <= 1e-12
                cases.append(rep.case)
        target, source = "incoherent-target", "incoherent-source"
        assert cases == [target, target, source, "composed"] * 3
        # the composed case runs one step of each kind
        assert steps == [target, target, source, target, source] * 3

    @pytest.mark.parametrize("u", [SWAP, np.eye(3)[[2, 0, 1]].astype(complex)], ids=["swap", "cycle"])
    def test_signed_zeros_of_u_leave_v_unchanged(self, u):
        d = u.shape[0]
        h = HamiltonianSpec(tuple((float(e), 1) for e in range(d)))
        u_neg = np.where(u == 0, complex(-0.0, -0.0), u)
        assert np.signbit(u_neg.real[u == 0]).all() and np.signbit(u_neg.imag[u == 0]).all()
        p = np.linspace(1.0, 2.0, d)
        diagonal, coherence = np.diag(p / p.sum()).astype(complex), 0.04 * (1 - np.eye(d))
        states = {
            "incoherent-target": (diagonal, u @ diagonal @ u.conj().T),
            "incoherent-source": (diagonal, u @ diagonal @ u.conj().T + coherence),
            "composed": (diagonal + coherence, u @ (diagonal + coherence) @ u.conj().T),
        }
        for case, (rho, sigma) in states.items():
            rho, sigma = QuantumState.from_matrix(rho), QuantumState.from_matrix(sigma)
            reps = [build_energy_preserving_dilation(h, x, rho, sigma, m_range(4), 0.25) for x in (u, u_neg)]
            assert reps[0].case == case
            assert reps[0] == reps[1]


class TestPreconditions:
    def test_distance_precondition(self, qubit):
        rho = QuantumState.from_matrix(np.diag([0.0, 1.0]))
        sigma = QuantumState.from_matrix(np.diag([0.5, 0.5]))
        with pytest.raises(DomainError):
            build_energy_preserving_dilation(qubit, np.eye(2), rho, sigma, m_range(3), delta=0.01)

    def test_sumset_growth_precondition(self, qubit):
        rho = QuantumState.from_matrix(np.diag([0.0, 1.0]))
        sigma = QuantumState.from_matrix(np.diag([1.0, 0.0]))
        with pytest.raises(DomainError) as err:
            build_energy_preserving_dilation(qubit, SWAP, rho, sigma, m_range(3), delta=0.05)
        assert err.value.code == "sumset-growth"

    def test_dimension_cap(self, qubit):
        rho = QuantumState.from_matrix(np.diag([0.0, 1.0]))
        sigma = QuantumState.from_matrix(np.diag([1.0, 0.0]))
        with pytest.raises(DomainError) as err:
            build_energy_preserving_dilation(qubit, SWAP, rho, sigma, m_range(90), delta=0.9)
        assert err.value.code == "dimension-cap"

    def test_magnitude_precondition(self):
        h = HamiltonianSpec(((0.0, 1), (5.0, 1)))
        rho = QuantumState.from_matrix(np.diag([0.0, 1.0]))
        sigma = QuantumState.from_matrix(np.diag([1.0, 0.0]))
        with pytest.raises(DomainError) as err:
            build_energy_preserving_dilation(h, SWAP, rho, sigma, m_range(3), delta=0.5)
        assert err.value.code == "level-magnitude"

    def test_not_unitary_rejected(self, qubit):
        rho = QuantumState.from_matrix(np.diag([0.0, 1.0]))
        with pytest.raises(ValidationError):
            build_energy_preserving_dilation(qubit, np.ones((2, 2)), rho, rho, m_range(3), delta=0.5)

    def test_matrix_form_required(self, qubit):
        macro = QuantumState.from_macro(0.5, 0.2)
        with pytest.raises(ValidationError):
            build_energy_preserving_dilation(qubit, np.eye(2), macro, macro, m_range(3), delta=0.5)


@pytest.mark.parametrize(
    "unitary, rho, delta, code",
    [
        (np.eye(2), np.diag([0.0, 1.0]), 0.0, "bad-delta"),
        (np.eye(2), np.diag([0.0, 1.0]), 1.0, "bad-delta"),
        (np.eye(3), np.diag([0.0, 1.0]), 0.5, "dimension-mismatch"),
        (np.eye(2), np.diag([0.0, 0.5, 0.5]), 0.5, "dimension-mismatch"),
    ],
    ids=["delta-zero", "delta-one", "unitary-dimension", "state-dimension"],
)
def test_error_codes(qubit, unitary, rho, delta, code):
    state = QuantumState.from_matrix(rho)
    with pytest.raises(ValidationError) as err:
        build_energy_preserving_dilation(qubit, unitary, state, state, m_range(3), delta=delta)
    assert err.value.code == code

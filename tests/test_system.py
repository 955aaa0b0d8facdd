import json
import math

import numpy as np
import pytest

from thermocone import (
    ConePoint,
    DomainError,
    ExchangeSpec,
    HamiltonianSpec,
    Macrostate,
    QuantumState,
    ValidationError,
    cone_point_of,
    hamiltonian_from_json,
    macrostate_of,
    state_from_json,
    validate_state,
    w_max,
    work_heat,
)

from conftest import random_hamiltonian


class TestHamiltonianSpec:
    def test_derived_quantities(self):
        h = HamiltonianSpec(((0.0, 2), (0.5, 1), (2.0, 3)))
        assert h.dim == 6
        assert h.e_min == 0.0 and h.e_max == 2.0
        assert h.g_ground == 2 and h.g_top == 3
        assert h.mixed_energy == pytest.approx((0.5 + 3 * 2.0) / 6)
        assert list(h.expanded_energies()) == [0.0, 0.0, 0.5, 2.0, 2.0, 2.0]

    def test_rejects_bad_levels(self):
        with pytest.raises(ValidationError):
            HamiltonianSpec(((1.0, 1), (0.0, 1)))
        with pytest.raises(ValidationError):
            HamiltonianSpec(((0.0, 0),))
        with pytest.raises(ValidationError):
            HamiltonianSpec(())

    def test_degeneracy_must_be_whole(self):
        with pytest.raises(ValidationError) as err:
            HamiltonianSpec(((0.0, 1.7), (1.0, 1)))
        assert err.value.code == "bad-level"
        assert HamiltonianSpec(((0.0, 2.0), (1.0, 1))).levels == ((0.0, 2), (1.0, 1))
        for bad in (math.nan, math.inf, "two"):
            with pytest.raises(ValidationError):
                HamiltonianSpec(((0.0, bad), (1.0, 1)))
        # an integer is checked exactly: through a float, 2**53 + 1 would read as 2**53
        assert HamiltonianSpec(((0.0, 2**53), (1.0, np.int64(3)))).levels == ((0.0, 2**53), (1.0, 3))
        assert HamiltonianSpec(((0.0, "2"), (1.0, "3.0"))).levels == ((0.0, 2), (1.0, 3))
        for bad in (2**53 + 1, np.int64(2**53 + 1), str(2**53 + 1), 0, np.int64(-2), "1.5"):
            with pytest.raises(ValidationError) as err:
                HamiltonianSpec(((0.0, bad), (1.0, 1)))
            assert err.value.code == "bad-level"

    def test_non_numeric_level_json(self):
        for level in ('{"energy": "x"}', '{"energy": 0, "degeneracy": [2]}', '{"energy": 0, "degeneracy": 1.5}'):
            with pytest.raises(ValidationError):
                hamiltonian_from_json('{"levels": [%s, {"energy": 1}]}' % level)

    def test_numeric_string_energy_decodes(self):
        h = hamiltonian_from_json('{"levels": [{"energy": "0"}, {"energy": " 1e0 ", "degeneracy": "2"}]}')
        assert h.levels == ((0.0, 1), (1.0, 2))
        with pytest.raises(ValidationError) as err:
            hamiltonian_from_json('{"levels": [{"energy": "x"}, {"energy": 1}]}')
        assert err.value.code == "bad-number"

    def test_malformed_json_text(self):
        for decode in (hamiltonian_from_json, state_from_json):
            with pytest.raises(ValidationError) as err:
                decode("abc")
            assert err.value.code == "malformed-json"

    def test_json_round_trip(self):
        h = HamiltonianSpec(((0.0, 1), (1.0, 2)))
        assert hamiltonian_from_json(json.dumps(h.to_json())) == h


class TestValidateState:
    def test_maximally_mixed_ok(self, qubit):
        state = validate_state(QuantumState.from_matrix(np.eye(2) / 2), qubit)
        assert state.spectrum == pytest.approx((0.5, 0.5))

    def test_trace_error(self, qubit):
        with pytest.raises(ValidationError) as err:
            validate_state(QuantumState.from_matrix(np.diag([0.6, 0.6])), qubit)
        assert err.value.code == "bad-trace"

    def test_tiny_negative_eigenvalue_clipped(self, qubit):
        state = validate_state(QuantumState.from_matrix(np.diag([-1e-12, 1.0 + 1e-12])), qubit)
        assert min(state.spectrum) == 0.0
        assert sum(state.spectrum) == pytest.approx(1.0, abs=1e-15)

    def test_large_negative_eigenvalue_rejected(self, qubit):
        with pytest.raises(ValidationError):
            validate_state(QuantumState.from_spectrum([-1e-8, 1.0 + 1e-8], 0.5), qubit)

    def test_dimension_mismatch(self, qubit):
        with pytest.raises(ValidationError):
            validate_state(QuantumState.from_matrix(np.eye(3) / 3), qubit)

    def test_macro_outside_diagram_rejected(self, qubit):
        with pytest.raises(ValidationError):
            validate_state(QuantumState.from_macro(0.5, 0.8), qubit)

    def test_state_needs_exactly_one_form(self):
        with pytest.raises(ValidationError):
            QuantumState(n=1.0)
        with pytest.raises(ValidationError):
            QuantumState(n=0.0, macro=None, spectrum=(1.0,), energy=0.0)


class TestConstruction:
    def test_one_eigensolve_per_matrix_state(self, qubit, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        rho = QuantumState.from_matrix(np.diag([0.75, 0.25]))
        sigma = QuantumState.from_matrix(np.eye(2) / 2)
        assert len(calls) == 2
        for state in (rho, sigma):
            macrostate_of(state, qubit)
            w_max(qubit, state)
            cone_point_of(state, qubit)
        work_heat(ExchangeSpec(qubit, rho, sigma, 1.0, 2.0))
        assert len(calls) == 2

    def test_matrix_is_a_read_only_copy(self):
        given = np.eye(2, dtype=complex) / 2
        state = QuantumState.from_matrix(given)
        given[0, 0] = 1.0
        assert state.matrix[0, 0] == 0.5
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0

    def test_matrix_reduces_to_its_spectral_form(self, qubit):
        matrix = QuantumState.from_matrix(np.diag([0.25, 0.75]), n=2.0)
        spectral = validate_state(matrix, qubit)
        assert spectral.kind == "spectrum" and spectral.n == 2.0
        assert spectral.spectrum is matrix.spectrum and spectral.entropy == matrix.entropy
        assert spectral.energy == 0.75
        assert macrostate_of(QuantumState.from_spectrum(matrix.spectrum, 0.75), qubit) == macrostate_of(matrix, qubit)

    def test_checks_without_a_hamiltonian(self):
        for matrix, code in (
            (np.diag([0.6, 0.6]), "bad-trace"),
            (np.diag([-0.5, 1.5]), "negative-eigenvalue"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "not-hermitian"),
        ):
            with pytest.raises(ValidationError) as err:
                QuantumState.from_matrix(matrix)
            assert err.value.code == code


class TestStateEquality:
    def test_equal_values_compare_equal_and_hash_alike(self):
        pairs = [
            (QuantumState.from_matrix(np.eye(2) / 2), QuantumState.from_matrix(np.eye(2) / 2)),
            (QuantumState.from_matrix(np.array([[0.5, 0.0], [0.0, 0.5]]), n=2.0),
             QuantumState.from_matrix(np.array([[0.5, -0.0], [-0.0, 0.5]]), n=2.0)),
            (QuantumState.from_spectrum([0.25, 0.75], 0.5), QuantumState.from_spectrum([0.25, 0.75], 0.5)),
            (QuantumState.from_macro(0.5, 0.3, n=3.0), QuantumState.from_macro(0.5, 0.3, n=3.0)),
        ]
        for a, b in pairs:
            assert (a == b) is True and (a != b) is False
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_different_values_compare_unequal(self):
        rho = QuantumState.from_matrix(np.diag([0.25, 0.75]))
        others = [
            QuantumState.from_matrix(np.diag([0.75, 0.25])),
            QuantumState.from_matrix(np.diag([0.25, 0.75]), n=2.0),
            QuantumState.from_matrix(np.diag([0.25, 0.25, 0.5])),
            QuantumState.from_spectrum(rho.spectrum, 0.75),
            QuantumState.from_spectrum([0.25, 0.75], 0.7),
            QuantumState.from_macro(0.75, 0.5),
        ]
        for i, a in enumerate([rho, *others]):
            for b in others[i:]:
                assert (a == b) is False and (a != b) is True
        assert (rho == "rho") is False

    def test_matrix_reduced_to_spectral_form_is_another_value(self, qubit):
        rho = QuantumState.from_matrix(np.diag([0.25, 0.75]))
        spectral = validate_state(rho, qubit)
        assert spectral != rho
        assert spectral == QuantumState.from_spectrum([0.25, 0.75], 0.75)


class TestMacrostate:
    def test_maximally_mixed(self, qubit):
        x = macrostate_of(QuantumState.from_matrix(np.eye(2) / 2), qubit)
        assert x.energy == pytest.approx(0.5)
        assert x.entropy == pytest.approx(math.log(2), abs=1e-12)

    def test_pure_excited(self, qubit):
        x = macrostate_of(QuantumState.from_matrix(np.diag([0.0, 1.0])), qubit)
        assert (x.energy, x.entropy) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-12))

    def test_pure_superposition_has_zero_entropy(self, qubit):
        x = macrostate_of(QuantumState.from_matrix(np.full((2, 2), 0.5)), qubit)
        assert x.energy == pytest.approx(0.5)
        assert x.entropy == pytest.approx(0.0, abs=1e-10)

    def test_entropy_invariant_under_unitary_rotations(self, qubit):
        rng = np.random.default_rng(19)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            h = random_hamiltonian(rng, d_min=d, d_max=d)
            probs = rng.dirichlet(np.ones(h.dim))
            rho = np.diag(probs).astype(complex)
            # conjugate by a product of random phased plane rotations
            for _ in range(2 * h.dim):
                i, j = rng.choice(h.dim, size=2, replace=False)
                theta, phi = rng.uniform(0, 2 * np.pi, size=2)
                g = np.eye(h.dim, dtype=complex)
                g[i, i] = np.cos(theta)
                g[i, j] = -np.sin(theta) * np.exp(1j * phi)
                g[j, i] = np.sin(theta) * np.exp(-1j * phi)
                g[j, j] = np.cos(theta)
                rho = g @ rho @ g.conj().T
            x = macrostate_of(QuantumState.from_matrix(rho), h)
            expected = -float(np.sum(probs[probs > 0] * np.log(probs[probs > 0])))
            assert x.entropy == pytest.approx(expected, abs=1e-9)

    def test_maximally_mixed_macrostate_general(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            h = random_hamiltonian(rng, degenerate=True)
            x = macrostate_of(QuantumState.from_matrix(np.eye(h.dim) / h.dim), h)
            assert x.energy == pytest.approx(h.mixed_energy, abs=1e-10)
            assert x.entropy == pytest.approx(h.log_dim, abs=1e-10)


class TestConePoint:
    def test_single_copy(self, qubit):
        y = cone_point_of(QuantumState.from_matrix(np.eye(2) / 2), qubit)
        assert (y.energy, y.entropy, y.size) == (
            pytest.approx(0.5),
            pytest.approx(math.log(2)),
            1.0,
        )

    def test_scaling_with_copy_count_is_exact(self, qubit):
        for k in (2, 3, 7, 2.5):
            single = cone_point_of(QuantumState.from_macro(0.5, 0.3, n=1.0), qubit)
            many = cone_point_of(QuantumState.from_macro(0.5, 0.3, n=float(k)), qubit)
            assert many == single.scaled(float(k))

    def test_tensor_additivity(self, qubit):
        excited = cone_point_of(QuantumState.from_matrix(np.diag([0.0, 1.0])), qubit)
        mixed = cone_point_of(QuantumState.from_matrix(np.eye(2) / 2), qubit)
        total = excited + mixed
        assert total.energy == pytest.approx(1.5)
        assert total.entropy == pytest.approx(math.log(2))
        assert total.size == 2.0

    def test_normalized(self):
        assert ConePoint(1.0, 0.5, 2.0).normalized().energy == pytest.approx(0.5)


class TestStateJson:
    def test_matrix_form(self, qubit):
        state = state_from_json('{"matrix": [[[0.5, 0], [0, -0.5]], [[0, 0.5], [0.5, 0]]], "n": 2}')
        assert state.kind == "matrix"
        assert state.n == 2.0
        x = macrostate_of(state, qubit)
        assert x.entropy == pytest.approx(0.0, abs=1e-10)

    def test_spectrum_form(self):
        state = state_from_json({"spectrum": [0.25, 0.75], "energy": 0.75})
        assert state.kind == "spectrum"

    def test_macro_form(self):
        state = state_from_json({"macro": {"E": 0.5, "S": 0.2}})
        assert state.kind == "macro"

    def test_non_numeric_fields(self):
        for payload in (
            {"spectrum": [0.5, 0.5], "energy": 0.5, "n": "abc"},
            {"spectrum": [0.5, 0.5], "energy": "half"},
            {"spectrum": [0.5, None], "energy": 0.5},
            {"spectrum": 0.5, "energy": 0.5},
            {"macro": {"E": "x", "S": 0.1}},
            {"macro": {"E": 0.5, "S": [0.1]}},
        ):
            with pytest.raises(ValidationError) as err:
                state_from_json(payload)
            assert err.value.code in ("bad-number", "bad-state-json")

    def test_bad_payloads(self):
        for payload in ("{}", '{"spectrum": [1.0]}', '{"macro": {"E": 1}}', "[1, 2]"):
            with pytest.raises(ValidationError):
                state_from_json(payload)


@pytest.mark.parametrize(
    "call, error, code",
    [
        (lambda h: HamiltonianSpec(((0.0, 1), ("inf", 1))), ValidationError, "bad-level"),
        (lambda h: Macrostate(math.nan, 0.1), ValidationError, "bad-macrostate"),
        (lambda h: Macrostate(0.5, math.inf), ValidationError, "bad-macrostate"),
        (lambda h: ConePoint(0.0, 0.0, 0.0).normalized(), DomainError, "zero-size"),
        (lambda h: QuantumState(spectrum=(0.5, 0.5)), ValidationError, "bad-state"),
        (lambda h: validate_state(QuantumState.from_spectrum([0.5, 0.5], 2.0), h), ValidationError,
         "energy-out-of-range"),
    ],
    ids=["infinite-level", "nan-energy", "infinite-entropy", "normalize-zero-size", "spectrum-without-energy",
         "spectral-energy-outside"],
)
def test_error_codes(qubit, call, error, code):
    with pytest.raises(error) as err:
        call(qubit)
    assert err.value.code == code

import json
import math

import numpy as np
import pytest

from fidest import qcore


def random_hermitian(d, rng):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


class TestPureStateProjector:
    def test_basis_state(self):
        p = qcore.pure_state_projector([1.0, 0.0])
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-15)

    def test_uniform_superposition(self):
        s = np.array([1.0, 1.0]) / math.sqrt(2)
        p = qcore.pure_state_projector(s)
        assert np.allclose(p, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_random_is_rank_one_projector(self):
        for seed in range(5):
            s = qcore.haar_random_state(4, seed)
            p = qcore.pure_state_projector(s)
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert abs(np.trace(p) - 1.0) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            qcore.pure_state_projector([1.0, 1.0])


class TestTraceFidelity:
    def test_identical_states(self):
        p = qcore.pure_state_projector([1.0, 0.0])
        assert qcore.trace_fidelity(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        p = qcore.pure_state_projector([1.0, 0.0])
        t = qcore.pure_state_projector([0.0, 1.0])
        assert qcore.trace_fidelity(p, t) == pytest.approx(0.0, abs=1e-15)

    def test_half_overlap(self):
        zero = np.array([1.0, 0.0], dtype=complex)
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        expected = abs(np.vdot(zero, plus)) ** 2  # independent overlap route
        f = qcore.trace_fidelity(qcore.pure_state_projector(zero),
                                 qcore.pure_state_projector(plus))
        assert f == pytest.approx(expected, abs=1e-12)
        assert f == pytest.approx(0.5, abs=1e-12)

    def test_exact_symmetry_for_hermitian(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_hermitian(5, rng)
            b = random_hermitian(5, rng)
            assert qcore.trace_fidelity(a, b) == qcore.trace_fidelity(b, a)

    def test_pure_states_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = qcore.pure_state_projector(qcore.haar_random_state(3, rng))
            t = qcore.pure_state_projector(qcore.haar_random_state(3, rng))
            f = qcore.trace_fidelity(p, t)
            assert -1e-12 <= f <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            qcore.trace_fidelity(np.eye(2), np.eye(3))


class TestTensor:
    def test_scalars(self):
        assert np.allclose(qcore.tensor([[2.0]], [[3.0]]), [[6.0]])

    def test_identities(self):
        assert np.allclose(qcore.tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_pure_product_rank_one(self):
        p = qcore.pure_state_projector(qcore.haar_random_state(2, 0))
        t = qcore.pure_state_projector(qcore.haar_random_state(2, 1))
        assert np.linalg.matrix_rank(qcore.tensor(p, t), tol=1e-10) == 1

    def test_associativity_and_trace(self):
        rng = np.random.default_rng(11)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                   for _ in range(3))
        left = qcore.tensor(qcore.tensor(a, b), c)
        right = qcore.tensor(a, qcore.tensor(b, c))
        assert np.max(np.abs(left - right)) < 1e-15
        assert np.trace(qcore.tensor(a, b)) == pytest.approx(
            np.trace(a) * np.trace(b), abs=1e-12)


class TestPartialTrace:
    def test_product_state_recovery(self):
        pi = qcore.pure_state_projector(qcore.haar_random_state(2, 5))
        tau = qcore.pure_state_projector(qcore.haar_random_state(3, 6))
        rho = qcore.tensor(pi, tau)
        assert np.max(np.abs(qcore.partial_trace(rho, [2, 3], 0) - pi)) < 1e-12
        assert np.max(np.abs(qcore.partial_trace(rho, [2, 3], 1) - tau)) < 1e-12

    def test_maximally_entangled_reduces_to_mixed(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
        rho = np.outer(bell, bell.conj())
        red = qcore.partial_trace(rho, [2, 2], 0)
        assert np.max(np.abs(red - np.eye(2) / 2)) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        for keep, dims in [(0, [3, 4]), (1, [3, 4]), (1, [2, 3, 2])]:
            red = qcore.partial_trace(rho, dims, keep)
            assert np.trace(red) == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_dimensions(self):
        with pytest.raises(ValueError, match="multiply"):
            qcore.partial_trace(np.eye(4), [3, 2], 0)


class TestHaarSampling:
    def test_dim_one_state(self):
        s = qcore.haar_random_state(1, 9)
        assert abs(abs(s[0]) - 1.0) < 1e-12

    def test_state_determinism(self):
        a = qcore.haar_random_state(4, 1234)
        b = qcore.haar_random_state(4, 1234)
        assert np.array_equal(a, b)

    def test_mean_projector_concentrates(self):
        states = qcore.haar_random_states(2, 10 ** 4, 0)
        mean = np.einsum("si,sj->ij", states, states.conj()) / states.shape[0]
        assert np.max(np.abs(mean - np.eye(2) / 2)) < 0.02

    def test_unitary_dim_one(self):
        u = qcore.haar_random_unitary(1, 3)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        for seed in range(10):
            u = qcore.haar_random_unitary(3, seed)
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12

    def test_unitary_twirl_concentrates(self):
        pi = qcore.pure_state_projector([1.0, 0.0])
        rng = np.random.default_rng(8)
        acc = np.zeros((2, 2), dtype=complex)
        count = 10 ** 4
        for _ in range(count):
            u = qcore.haar_random_unitary(2, rng)
            acc += u @ pi @ u.conj().T
        assert np.max(np.abs(acc / count - np.eye(2) / 2)) < 0.02


class TestValidators:
    def test_density_operator_accepts_valid(self):
        rho = qcore.pure_state_projector(qcore.haar_random_state(3, 0))
        qcore.check_density_operator(rho)

    def test_density_operator_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            qcore.check_density_operator(2 * np.eye(2))

    def test_effect_rejects_oversized(self):
        with pytest.raises(ValueError, match="spectrum"):
            qcore.check_effect(2 * np.eye(2))

    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            qcore.check_outcome_distribution([0.5, 0.4])

    def test_distribution_stack_checked_row_by_row(self):
        good = np.array([[0.25, 0.75], [1.0, 0.0]])
        assert np.array_equal(qcore.check_outcome_distribution(good), good)
        with pytest.raises(ValueError, match="out of range"):
            qcore.check_outcome_distribution([[0.5, 0.5], [1.1, -0.1]])
        with pytest.raises(ValueError, match="sum to 0.9"):
            qcore.check_outcome_distribution([[0.5, 0.5], [0.5, 0.4]])
        with pytest.raises(ValueError, match="1-D"):
            qcore.check_outcome_distribution(np.ones((1, 1, 1)))


class TestMatrixJson:
    def test_round_trip_matrix(self):
        rng = np.random.default_rng(15)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back = qcore.matrix_from_json(qcore.matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_state_uses_single_column(self):
        s = qcore.haar_random_state(4, 2)
        obj = qcore.matrix_to_json(s)
        assert obj["cols"] == 1 and obj["rows"] == 4
        assert np.array_equal(qcore.state_from_json(obj), s)

    def test_rejects_nan(self):
        obj = {"rows": 1, "cols": 1, "entries": [[float("nan"), 0.0]]}
        with pytest.raises(ValueError, match="finite"):
            qcore.matrix_from_json(obj)

    def test_rejects_inf(self):
        obj = {"rows": 1, "cols": 1, "entries": [[0.0, float("inf")]]}
        with pytest.raises(ValueError, match="finite"):
            qcore.matrix_from_json(obj)

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ValueError, match="entries"):
            qcore.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    def test_file_round_trip(self, tmp_path):
        m = np.array([[1.0 + 2.0j, 0.0], [0.5, -1.0j]])
        path = tmp_path / "op.json"
        qcore.save_matrix(path, m)
        with open(path) as fh:
            assert set(json.load(fh)) == {"rows", "cols", "entries"}
        assert np.array_equal(qcore.load_matrix(path), m)

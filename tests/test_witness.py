import math

import numpy as np
import pytest

from fidest import qcore, symmetry, witness


def paulis_normalized():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return [m / math.sqrt(2) for m in (np.eye(2, dtype=complex), x, y, z)]


class TestConstructWitness:
    def test_matrix_units_give_swap(self):
        # independent assembly of sum_ij E_ji (x) E_ij
        d = 2
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(d):
            for j in range(d):
                e_ji = np.zeros((d, d), dtype=complex)
                e_ji[j, i] = 1.0
                e_ij = np.zeros((d, d), dtype=complex)
                e_ij[i, j] = 1.0
                expected += np.kron(e_ji, e_ij)
        w = witness.construct_witness(qcore.matrix_unit_basis(2))
        assert np.max(np.abs(w - expected)) < 1e-15
        assert np.max(np.abs(w - symmetry.swap_operator(2))) < 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_basis_independence(self, d):
        w1 = witness.construct_witness(qcore.matrix_unit_basis(d))
        w2 = witness.construct_witness(qcore.gell_mann_basis(d))
        assert np.max(np.abs(w1 - w2)) < 1e-12

    def test_pauli_basis(self):
        w = witness.construct_witness(paulis_normalized())
        assert np.max(np.abs(w - symmetry.swap_operator(2))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_projector_difference(self, d):
        p_sym, p_anti = symmetry.sym_antisym_projectors(d)
        w = witness.construct_witness(qcore.matrix_unit_basis(d))
        assert np.max(np.abs(w - (p_sym - p_anti))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_minimum_eigenvalue(self, d):
        w = witness.construct_witness(qcore.matrix_unit_basis(d))
        vals = np.linalg.eigvalsh(w)
        assert vals.min() == pytest.approx(-1.0, abs=1e-12)
        assert vals.max() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_haar_unitary_basis_gives_swap(self, d):
        # the columns of a unitary on d^2, reshaped to d x d, are a
        # trace-orthonormal basis with no structure of its own
        u = qcore.haar_random_unitary(d * d, d)
        basis = [u[:, s].reshape(d, d) for s in range(d * d)]
        w = witness.construct_witness(basis)
        assert np.max(np.abs(w - symmetry.swap_operator(d))) < 1e-12

    def test_rejects_non_orthonormal_basis(self):
        bad = qcore.matrix_unit_basis(2)
        bad[0] = bad[0] * 2.0
        with pytest.raises(ValueError, match="orthonormal"):
            witness.construct_witness(bad)

    def test_rejects_nan_basis(self):
        # NaN compares false with everything, so a "> tol" check lets it pass
        bad = qcore.matrix_unit_basis(2)
        bad[0] = bad[0] * math.nan
        with pytest.raises(ValueError, match="orthonormal"):
            witness.construct_witness(bad)

    def test_sampled_minimum_reaches_minus_one(self):
        # numeric minimization of Tr(rho W) over pure rho on H (x) H
        w = witness.construct_witness(qcore.matrix_unit_basis(2))
        states = qcore.haar_random_states(4, 10 ** 5, 0)
        vals = np.real(np.einsum("sa,ab,sb->s", states.conj(), w, states))
        assert float(vals.min()) <= -0.95


class TestEstimatorMap:
    def test_product_states_give_overlap(self):
        for d in (2, 3):
            w = witness.construct_witness(qcore.matrix_unit_basis(d))
            rng = np.random.default_rng(d)
            for _ in range(1000):
                phi = qcore.haar_random_state(d, rng)
                theta = qcore.haar_random_state(d, rng)
                rho = np.kron(qcore.pure_state_projector(phi),
                              qcore.pure_state_projector(theta))
                out = witness.estimator_map(rho, w)
                fid = qcore.trace_fidelity(qcore.pure_state_projector(phi),
                                           qcore.pure_state_projector(theta))
                assert abs(out.one_component - fid) < 1e-10
                assert out.one_component >= -1e-10

    def test_components_sum_to_one(self):
        w = witness.construct_witness(qcore.matrix_unit_basis(2))
        rho = qcore.pure_state_projector(qcore.haar_random_state(4, 1))
        out = witness.estimator_map(rho, w)
        assert out.one_component + out.zero_component == pytest.approx(1.0, abs=1e-12)

    def test_maximal_violation(self):
        w = witness.construct_witness(qcore.matrix_unit_basis(2))
        psi = witness.build_entangled_state(0.0, 1 / math.sqrt(2),
                                            1 / math.sqrt(2), math.pi, 0.0)
        out = witness.estimator_map(qcore.pure_state_projector(psi), w)
        assert abs(out.one_component - (-1.0)) < 1e-12

    def test_general_state_formula(self):
        w = witness.construct_witness(qcore.matrix_unit_basis(2))
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng.uniform(0.0, 1.0)
            angle = rng.uniform(0.0, math.pi / 2)
            alpha, beta = math.cos(angle), math.sin(angle)
            gamma, delta = rng.uniform(-math.pi, math.pi, size=2)
            psi = witness.build_entangled_state(p, alpha, beta, gamma, delta)
            out = witness.estimator_map(qcore.pure_state_projector(psi), w)
            predicted = p + 2 * (1 - p) * alpha * beta * math.cos(gamma - delta)
            assert abs(out.one_component - predicted) < 1e-10

    def test_dimension_mismatch(self):
        w = witness.construct_witness(qcore.matrix_unit_basis(2))
        with pytest.raises(ValueError, match="mismatch"):
            witness.estimator_map(np.eye(9) / 9, w)


class TestBuildEntangledState:
    def test_product_limit(self):
        psi = witness.build_entangled_state(1.0, 1.0, 0.0, 0.3, -0.7)
        e00 = np.zeros(4, dtype=complex)
        e00[0] = 1.0
        assert abs(abs(np.vdot(e00, psi)) - 1.0) < 1e-12

    def test_midpoint_value(self):
        w = witness.construct_witness(qcore.matrix_unit_basis(2))
        psi = witness.build_entangled_state(0.5, 1 / math.sqrt(2),
                                            1 / math.sqrt(2), 0.0, 0.0)
        out = witness.estimator_map(qcore.pure_state_projector(psi), w)
        assert out.one_component == pytest.approx(1.0, abs=1e-12)

    def test_frame_overlap_pattern(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.uniform(0.05, 0.95)
            gamma, delta = rng.uniform(-math.pi, math.pi, size=2)
            alpha = beta = 1 / math.sqrt(2)
            psi = witness.build_entangled_state(p, alpha, beta, gamma, delta)
            # recover the f frame from the state components
            f0 = psi[:2] / alpha
            f1 = psi[2:] / beta
            q = 1 - p
            assert abs(abs(f0[0]) ** 2 - p) < 1e-12
            assert abs(abs(f1[1]) ** 2 - p) < 1e-12
            assert abs(f1[0] - np.exp(1j * gamma) * math.sqrt(q)) < 1e-12
            assert abs(f0[1] - np.exp(1j * delta) * math.sqrt(q)) < 1e-12
            assert abs(np.vdot(f0, f1)) < 1e-12

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="alpha"):
            witness.build_entangled_state(0.5, 0.9, 0.9, 0.0, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            witness.build_entangled_state(0.5, -0.6, 0.8, 0.0, 0.0)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError, match="p must"):
            witness.build_entangled_state(1.5, 1.0, 0.0, 0.0, 0.0)

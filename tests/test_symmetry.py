import itertools
import math

import numpy as np
import pytest

from fidest import general, qcore, symmetry

SUPPORTED_PAIRS = [(d, n) for d in (2, 3) for n in (1, 2, 3, 4)]


class TestSymAntisymProjectors:
    def test_qubit_traces(self):
        p_sym, p_anti = symmetry.sym_antisym_projectors(2)
        assert np.trace(p_sym).real == pytest.approx(3.0, abs=1e-12)
        assert np.trace(p_anti).real == pytest.approx(1.0, abs=1e-12)

    def test_dim_one(self):
        p_sym, p_anti = symmetry.sym_antisym_projectors(1)
        assert np.allclose(p_sym, [[1.0]]) and np.allclose(p_anti, [[0.0]])

    @pytest.mark.parametrize("d", range(1, 7))
    def test_resolution_and_orthogonality(self, d):
        p_sym, p_anti = symmetry.sym_antisym_projectors(d)
        assert np.max(np.abs(p_sym + p_anti - np.eye(d * d))) < 1e-12
        assert np.max(np.abs(p_sym @ p_anti)) < 1e-12
        assert np.trace(p_sym).real == pytest.approx(d * (d + 1) / 2, abs=1e-12)
        assert np.trace(p_anti).real == pytest.approx(d * (d - 1) / 2, abs=1e-12)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_difference_is_swap(self, d):
        p_sym, p_anti = symmetry.sym_antisym_projectors(d)
        assert np.max(np.abs(p_sym - p_anti - symmetry.swap_operator(d))) < 1e-12

    def test_fixes_symmetric_vectors(self):
        # span built from e_i (x) e_i and (e_i (x) e_j + e_j (x) e_i)/sqrt(2)
        d = 3
        rng = np.random.default_rng(1)
        basis = []
        eye = np.eye(d)
        for i in range(d):
            basis.append(np.kron(eye[i], eye[i]))
        for i in range(d):
            for j in range(i + 1, d):
                basis.append((np.kron(eye[i], eye[j])
                              + np.kron(eye[j], eye[i])) / math.sqrt(2))
        p_sym, _ = symmetry.sym_antisym_projectors(d)
        for _ in range(10):
            c = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
            v = sum(ci * bi for ci, bi in zip(c, basis))
            v /= np.linalg.norm(v)
            assert np.max(np.abs(p_sym @ v - v)) < 1e-12

    def test_overlap_identity_random_pairs(self):
        # Tr((pi x tau) P_sym) = (1 + Tr pi tau)/2
        for d in (2, 3, 4):
            p_sym, _ = symmetry.sym_antisym_projectors(d)
            rng = np.random.default_rng(d)
            for _ in range(200):
                phi = qcore.haar_random_state(d, rng)
                theta = qcore.haar_random_state(d, rng)
                v = np.kron(phi, theta)
                lhs = float(np.real(v.conj() @ p_sym @ v))
                overlap = abs(np.vdot(phi, theta)) ** 2
                assert abs(lhs - (1.0 + overlap) / 2) < 1e-10


class TestSymmetricEmbedding:
    def test_single_copy_is_identity(self):
        emb = symmetry.symmetric_embedding(2, 1)
        assert emb.dim_plus == 2
        assert np.allclose(emb.basis, np.eye(2))

    def test_two_qubit_triplet_basis(self):
        emb = symmetry.symmetric_embedding(2, 2)
        assert emb.dim_plus == 3
        expected = np.zeros((4, 3))
        expected[0, 0] = 1.0                       # |00>
        expected[1, 1] = expected[2, 1] = 1 / math.sqrt(2)  # (|01>+|10>)/sqrt2
        expected[3, 2] = 1.0                       # |11>
        assert np.max(np.abs(emb.basis - expected)) < 1e-15

    def test_qutrit_pair_count(self):
        emb = symmetry.symmetric_embedding(3, 2)
        assert emb.dim_plus == math.comb(3 + 2 - 1, 3 - 1) == 6

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_orthonormal_and_permutation_invariant(self, d, n):
        emb = symmetry.symmetric_embedding(d, n)
        gram = emb.basis.conj().T @ emb.basis
        assert np.max(np.abs(gram - np.eye(emb.dim_plus))) < 1e-12
        for t in range(n - 1):
            # adjacent transposition of tensor factors t and t+1
            shaped = emb.basis.reshape((d,) * n + (emb.dim_plus,))
            swapped = np.swapaxes(shaped, t, t + 1).reshape(d ** n, emb.dim_plus)
            assert np.max(np.abs(swapped - emb.basis)) < 1e-12


class TestEmbedStatePower:
    def test_single_copy(self):
        emb = symmetry.symmetric_embedding(2, 1)
        s = qcore.haar_random_state(2, 0)
        assert np.max(np.abs(symmetry.embed_state_power(s, 1, emb) - s)) < 1e-15

    def test_basis_state_power(self):
        emb = symmetry.symmetric_embedding(2, 2)
        out = symmetry.embed_state_power([1.0, 0.0], 2, emb)
        assert np.max(np.abs(out - np.array([1.0, 0.0, 0.0]))) < 1e-15

    def test_plus_state_power(self):
        emb = symmetry.symmetric_embedding(2, 2)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        out = symmetry.embed_state_power(plus, 2, emb)
        expected = np.array([0.5, 1 / math.sqrt(2), 0.5])
        assert np.max(np.abs(out - expected)) < 1e-14

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_matches_kron_power_oracle(self, d, n):
        emb = symmetry.symmetric_embedding(d, n)
        for seed in range(3):
            s = qcore.haar_random_state(d, seed)
            direct = emb.basis.conj().T @ qcore.kron_power(s, n)
            closed = symmetry.embed_state_power(s, n, emb)
            assert np.max(np.abs(direct - closed)) < 1e-12
            assert np.linalg.norm(closed) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        emb = symmetry.symmetric_embedding(2, 2)
        with pytest.raises(ValueError, match="match"):
            symmetry.embed_state_power([1.0, 0.0, 0.0], 2, emb)


def dense_collective_generators(emb):
    """Oracle: sum over copies of the one-body matrix units as d^n x d^n
    Kronecker products, compressed to H+^n."""
    d, n = emb.d, emb.n
    eye = np.eye(d, dtype=complex)
    out = np.empty((d, d, emb.dim_plus, emb.dim_plus), dtype=complex)
    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[a, b] = 1.0
            total = np.zeros((d ** n, d ** n), dtype=complex)
            for t in range(n):
                factors = [eye] * n
                factors[t] = unit
                term = factors[0]
                for f in factors[1:]:
                    term = np.kron(term, f)
                total += term
            out[a, b] = emb.basis.conj().T @ total @ emb.basis
    return out


class TestCollectiveGenerators:
    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_matches_kronecker_sum_oracle(self, d, n):
        emb = symmetry.symmetric_embedding(d, n)
        got = symmetry.collective_generators(emb)
        assert np.max(np.abs(got - dense_collective_generators(emb))) < 1e-12


class TestIsotypicProjectors:
    def test_single_copy_matches_exchange_projectors(self):
        dec = symmetry.isotypic_projectors(2, 1)
        p_sym, p_anti = symmetry.sym_antisym_projectors(2)
        assert dec.dims == (3, 1)
        assert np.max(np.abs(dec.projectors[0] - p_sym)) < 1e-8
        assert np.max(np.abs(dec.projectors[1] - p_anti)) < 1e-8

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_completeness_dimension_count(self, d, n):
        dec = symmetry.isotypic_projectors(d, n)
        dim_plus = math.comb(n + d - 1, d - 1)
        assert sum(dec.dims) == dim_plus ** 2

    def test_two_copy_qubit_block_dims(self):
        dec = symmetry.isotypic_projectors(2, 2)
        assert dec.dims == (5, 3, 1)  # Clebsch-Gordan: 3 x 3 = 5 + 3 + 1

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_projector_algebra(self, d, n):
        dec = symmetry.isotypic_projectors(d, n)
        dim = dec.space_dim
        for p in dec.projectors:
            assert np.max(np.abs(p - p.conj().T)) < 1e-8
            assert np.max(np.abs(p @ p - p)) < 1e-8
        for i, j in itertools.combinations(range(n + 1), 2):
            assert np.max(np.abs(dec.projectors[i] @ dec.projectors[j])) < 1e-8
        assert np.max(np.abs(sum(dec.projectors) - np.eye(dim))) < 1e-8

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_commutes_with_collective_action(self, d, n):
        dec = symmetry.isotypic_projectors(d, n)
        emb = symmetry.symmetric_embedding(d, n)
        for seed in range(10):
            u = qcore.haar_random_unitary(d, seed)
            k = np.kron(symmetry.embed_unitary(u, emb),
                        symmetry.embed_unitary(u, emb))
            for p in dec.projectors:
                assert np.max(np.abs(k @ p - p @ k)) < 1e-7

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_block_eigenvalues_and_dims(self, d, n):
        # X = sum_ab g_ab (x) g_ba is (n - l)^2 - l on block l
        gens = symmetry.collective_generators(symmetry.symmetric_embedding(d, n))
        x = sum(np.kron(gens[a, b], gens[b, a])
                for a in range(d) for b in range(d))
        dec = symmetry.isotypic_projectors(d, n)
        for l, p in enumerate(dec.projectors):
            assert np.max(np.abs(x @ p - ((n - l) ** 2 - l) * p)) < 1e-10
            assert np.trace(p).real == pytest.approx(
                symmetry.weyl_block_dimension(d, n, l), abs=1e-10)
            assert dec.dims[l] == symmetry.weyl_block_dimension(d, n, l)

    def test_rejects_trivial_and_oversized(self):
        with pytest.raises(ValueError):
            symmetry.isotypic_projectors(1, 2)
        with pytest.raises(ValueError, match="unsupported"):
            symmetry.isotypic_projectors(4, 1)
        with pytest.raises(ValueError, match="unsupported"):
            symmetry.isotypic_projectors(2, 5)


class TestTwirl:
    def test_invariant_states_are_fixed(self):
        dec = symmetry.isotypic_projectors(2, 2)
        for p, dim in zip(dec.projectors, dec.dims):
            rho = p / dim
            assert np.max(np.abs(symmetry.twirl(rho, dec) - rho)) < 1e-10
        mixed = np.eye(dec.space_dim) / dec.space_dim
        assert np.max(np.abs(symmetry.twirl(mixed, dec) - mixed)) < 1e-10

    def test_matches_monte_carlo_average(self):
        dec = symmetry.isotypic_projectors(2, 1)
        rng = np.random.default_rng(0)
        rho = qcore.pure_state_projector(qcore.haar_random_state(4, rng))
        acc = np.zeros_like(rho)
        count = 10 ** 4
        for _ in range(count):
            u = qcore.haar_random_unitary(2, rng)
            k = np.kron(u, u)
            acc += k @ rho @ k.conj().T
        assert np.max(np.abs(acc / count - symmetry.twirl(rho, dec))) < 1e-2

    def test_trace_positivity_idempotence(self):
        dec = symmetry.isotypic_projectors(2, 2)
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = qcore.pure_state_projector(
                qcore.haar_random_state(dec.space_dim, rng))
            out = symmetry.twirl(rho, dec)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(out).min() > -1e-10
            again = symmetry.twirl(out, dec)
            assert np.max(np.abs(again - out)) < 1e-10


def _pair_weights(dec, emb, phi, theta):
    """Block weights v^dagger S_l v of v = phi^(x)n (x) theta^(x)n."""
    v = np.kron(symmetry.embed_state_power(phi, dec.n, emb),
                symmetry.embed_state_power(theta, dec.n, emb))
    return np.array([float(np.real(v.conj() @ p @ v)) for p in dec.projectors])


class TestBetaCoefficients:
    def test_equal_pair_has_no_antisymmetric_weight(self):
        dec = symmetry.isotypic_projectors(2, 1)
        emb = symmetry.symmetric_embedding(2, 1)
        phi = qcore.haar_random_state(2, 3)
        beta = _pair_weights(dec, emb, phi, phi)
        assert beta[1] == pytest.approx(0.0, abs=1e-12)

    def test_qubit_single_copy_formula(self):
        dec = symmetry.isotypic_projectors(2, 1)
        emb = symmetry.symmetric_embedding(2, 1)
        for gamma in (0.0, 0.4, 1.1, math.pi / 2):
            u2 = math.cos(gamma) ** 2
            phi, theta = general.canonical_pair(2, gamma)
            beta = _pair_weights(dec, emb, phi, theta)
            assert beta[0] == pytest.approx((1 + u2) / 2, abs=1e-12)
            assert beta[1] == pytest.approx((1 - u2) / 2, abs=1e-12)

    def test_orthogonal_qubit_pair_two_copies_brute_force(self):
        # brute-force oracle: contract the full 4-copy tensor product with
        # the projectors pushed back into the full space
        dec = symmetry.isotypic_projectors(2, 2)
        emb = symmetry.symmetric_embedding(2, 2)
        phi, theta = general.canonical_pair(2, math.pi / 2)
        big = np.kron(qcore.kron_power(phi, 2), qcore.kron_power(theta, 2))
        j = np.kron(emb.basis, emb.basis)
        brute = np.array([
            float(np.real((j.conj().T @ big).conj() @ p @ (j.conj().T @ big)))
            for p in dec.projectors
        ])
        beta = _pair_weights(dec, emb, phi, theta)
        assert np.max(np.abs(beta - brute)) < 1e-12
        assert beta.sum() == pytest.approx(1.0, abs=1e-10)
        assert beta.min() > -1e-10

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_depends_only_on_overlap(self, d, n):
        dec = symmetry.isotypic_projectors(d, n)
        emb = symmetry.symmetric_embedding(d, n)
        rng = np.random.default_rng(17)
        for gamma in (0.3, 1.0):
            phi, theta = general.canonical_pair(d, gamma)
            ref = _pair_weights(dec, emb, phi, theta)
            u = qcore.haar_random_unitary(d, rng)
            rotated = _pair_weights(dec, emb, u @ phi, u @ theta)
            assert np.max(np.abs(ref - rotated)) < 1e-9
            # same overlap with a relative phase gives the same weights
            phased = phi * math.cos(gamma) + 1j * math.sin(gamma) * np.eye(d)[1]
            phased /= np.linalg.norm(phased)
            alt = _pair_weights(dec, emb, phi, phased)
            assert np.max(np.abs(ref - alt)) < 1e-9

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_polynomial_in_squared_overlap(self, d, n):
        dec = symmetry.isotypic_projectors(d, n)
        emb = symmetry.symmetric_embedding(d, n)

        def beta_of_x(x):
            return general.beta_for_angle(dec, emb, math.acos(math.sqrt(x)))

        nodes = np.linspace(0.0, 1.0, 2 * n + 1)
        vander = np.vander(nodes, 2 * n + 1, increasing=True)
        coeffs = np.linalg.solve(vander, np.array([beta_of_x(x) for x in nodes]))
        for x in (0.11, 0.47, 0.83):
            powers = x ** np.arange(2 * n + 1)
            assert np.max(np.abs(powers @ coeffs - beta_of_x(x))) < 1e-8


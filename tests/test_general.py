import math

import numpy as np
import pytest

from fidest import general, qcore, symmetry

SUPPORTED_PAIRS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


def random_coefficients(m, n, rng):
    a = rng.uniform(size=(m + 1, n + 1))
    a /= a.sum(axis=0, keepdims=True)
    return general.CoefficientMatrix(m=m, n=n, alpha=a)


class TestTargetDistribution:
    def test_single_sample_equal_states(self):
        assert np.allclose(general.target_distribution(1, 0.0), [0.0, 1.0])

    def test_two_samples_diagonal_angle(self):
        assert np.allclose(general.target_distribution(2, math.pi / 4),
                           [0.25, 0.5, 0.25])

    def test_three_samples_third_angle(self):
        got = general.target_distribution(3, math.pi / 3)
        assert np.allclose(got, [27 / 64, 27 / 64, 9 / 64, 1 / 64])

    def test_sums_to_one(self):
        for gamma in np.linspace(0.0, math.pi / 2, 7):
            assert general.target_distribution(4, gamma).sum() == pytest.approx(1.0)


class TestAchievedDistribution:
    def test_single_copy_optimal_mapping(self):
        inst = general.make_instance(2, 1, 1, grid_points=17)
        coeffs = general.CoefficientMatrix(m=1, n=1,
                                           alpha=np.array([[0.0, 1.0],
                                                           [1.0, 0.0]]))
        for gamma in (0.0, 0.5, 1.2, math.pi / 2):
            f = general.achieved_distribution(inst, coeffs, gamma)
            assert f[1] == pytest.approx((1 + math.cos(gamma) ** 2) / 2, abs=1e-12)

    def test_constant_strategy_ignores_angle(self):
        inst = general.make_instance(2, 1, 2, grid_points=17)
        p0 = general.target_distribution(2, math.pi / 4)
        coeffs = general.CoefficientMatrix(
            m=2, n=1, alpha=np.tile(p0[:, None], (1, 2)))
        for gamma in (0.0, 0.8, math.pi / 2):
            assert np.max(np.abs(general.achieved_distribution(inst, coeffs, gamma)
                                 - p0)) < 1e-12

    def test_uniform_strategy(self):
        inst = general.make_instance(2, 2, 2, grid_points=17)
        coeffs = general.CoefficientMatrix(
            m=2, n=2, alpha=np.full((3, 3), 1 / 3))
        f = general.achieved_distribution(inst, coeffs, 0.7)
        assert np.max(np.abs(f - 1 / 3)) < 1e-12

    def test_shape_mismatch(self):
        inst = general.make_instance(2, 1, 1, grid_points=17)
        coeffs = general.CoefficientMatrix(m=2, n=1, alpha=np.array(
            [[0.2, 0.2], [0.3, 0.3], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="coefficients"):
            general.achieved_distribution(inst, coeffs, 0.3)


class TestDualRouteReduction:
    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_block_reduction_matches_full_contraction(self, d, n):
        # f_k from the block weights must equal the direct expectation of
        # F_k = sum_l alpha[k,l] S_l on the full 2n-fold tensor power
        inst = general.make_instance(d, n, 2, grid_points=9)
        rng = np.random.default_rng(d * 10 + n)
        coeffs = random_coefficients(2, n, rng)
        j = np.kron(inst.emb.basis, inst.emb.basis)
        effects = general.effect_operators(inst, coeffs)
        for gamma in (0.2, 0.9, 1.4):
            phi, theta = general.canonical_pair(d, gamma)
            big = np.kron(qcore.kron_power(phi, n), qcore.kron_power(theta, n))
            w = j.conj().T @ big
            direct = np.array([float(np.real(w.conj() @ fk @ w)) for fk in effects])
            reduced = general.achieved_distribution(inst, coeffs, gamma)
            assert np.max(np.abs(direct - reduced)) < 1e-9
            assert reduced.sum() == pytest.approx(1.0, abs=1e-10)
            assert reduced.min() > -1e-12


class TestObjective:
    def test_optimal_single_copy_value(self):
        inst = general.make_instance(2, 1, 1, grid_points=201)
        coeffs, value = general.solve_minimax(inst, refine_tol=1e-6)
        assert value == pytest.approx(2 / 3, abs=1e-9)

    def test_constant_strategy_at_zero_angle(self):
        inst = general.make_instance(2, 1, 1, grid_points=17)
        p0 = general.target_distribution(1, math.pi / 4)
        coeffs = general.CoefficientMatrix(m=1, n=1,
                                           alpha=np.tile(p0[:, None], (1, 2)))
        f = general.achieved_distribution(inst, coeffs, 0.0)
        assert np.sum(np.abs(f - general.target_distribution(1, 0.0))) == \
            pytest.approx(1.0, abs=1e-12)
        assert general.objective(inst, coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_positive_for_all_solved_instances(self):
        for (n, m) in [(1, 1), (2, 1), (1, 2)]:
            inst = general.make_instance(2, n, m, grid_points=65)
            _, value = general.solve_minimax(inst)
            assert value > 1e-3


class TestSolveMinimax:
    def test_single_copy_single_sample_recovers_optimum(self):
        inst = general.make_instance(2, 1, 1, grid_points=129)
        coeffs, value = general.solve_minimax(inst, refine_tol=1e-6)
        assert abs(value / 2 - 1 / 3) < 1e-3
        # the vote-1 effect is 2/3 of the symmetric block
        assert coeffs.alpha[1, 0] == pytest.approx(2 / 3, abs=5e-3)
        assert coeffs.alpha[1, 1] == pytest.approx(0.0, abs=5e-3)

    def test_deterministic(self):
        inst = general.make_instance(2, 1, 2, grid_points=65)
        a1, v1 = general.solve_minimax(inst)
        a2, v2 = general.solve_minimax(inst)
        assert v1 == v2
        assert np.array_equal(a1.alpha, a2.alpha)

    def test_value_nondecreasing_under_grid_refinement(self):
        # nested grids add constraints, so the optimum cannot drop
        coarse = general.make_instance(2, 1, 2, grid_points=33)
        fine = general.make_instance(2, 1, 2, grid_points=65)
        _, v_coarse = general.solve_minimax(coarse, refine=False)
        _, v_fine = general.solve_minimax(fine, refine=False)
        assert v_fine >= v_coarse - 1e-9

    def test_two_copies_embedding_bound(self):
        inst = general.make_instance(2, 2, 1, grid_points=129)
        _, value = general.solve_minimax(inst, refine_tol=1e-6)
        assert value / 2 <= 1 / 3 + 1e-6

    def test_embedded_single_copy_strategy(self):
        # measuring 2/3 P_sym on one copy from each side is a feasible
        # two-copy strategy and reproduces the single-copy worst case
        inst = general.make_instance(2, 2, 1, grid_points=129)
        emb = inst.emb
        p_sym, _ = symmetry.sym_antisym_projectors(2)
        d = 2
        g_full = np.zeros((16, 16), dtype=complex)
        for i0 in range(d):
            for i1 in range(d):
                for i2 in range(d):
                    for i3 in range(d):
                        for j0 in range(d):
                            for j2 in range(d):
                                row = ((i0 * d + i1) * d + i2) * d + i3
                                col = ((j0 * d + i1) * d + j2) * d + i3
                                g_full[row, col] += p_sym[i0 * d + i2, j0 * d + j2]
        j = np.kron(emb.basis, emb.basis)
        f1 = (2 / 3) * (j.conj().T @ g_full @ j)
        alpha_one = np.array([
            float(np.real(np.trace(f1 @ p))) / dim
            for p, dim in zip(inst.dec.projectors, inst.dec.dims)
        ])
        assert np.all(alpha_one > -1e-12) and np.all(alpha_one < 1 + 1e-12)
        coeffs = general.CoefficientMatrix(
            m=1, n=2, alpha=np.vstack([1.0 - alpha_one, alpha_one]))
        for gamma in (0.0, 0.6, 1.3):
            f = general.achieved_distribution(inst, coeffs, gamma)
            assert f[1] == pytest.approx((1 + math.cos(gamma) ** 2) / 3, abs=1e-10)
        embedded_value = general.objective(inst, coeffs)
        assert embedded_value == pytest.approx(2 / 3, abs=1e-10)
        _, solved_value = general.solve_minimax(inst, refine_tol=1e-6)
        assert solved_value <= embedded_value + 1e-9

    def test_two_samples_marginalization_bound(self):
        inst = general.make_instance(2, 1, 2, grid_points=129)
        coeffs, value = general.solve_minimax(inst, refine_tol=1e-6)
        assert value / 2 >= 1 / 3 - 1e-6
        # marginalizing to the first sample stays feasible and cannot beat
        # the single-sample optimum
        marg = general.first_sample_marginal(coeffs)
        m1 = general.make_instance(2, 1, 1, gamma_grid=inst.gamma_grid)
        m1_coeffs, m1_value = general.solve_minimax(m1, refine_tol=1e-6)
        assert general.objective(m1, marg) >= m1_value - 1e-9

    def test_error_profile_matches_objective(self):
        inst = general.make_instance(2, 1, 1, grid_points=65)
        coeffs, _ = general.solve_minimax(inst)
        profile = general.error_profile(inst, coeffs)
        assert profile.shape == inst.gamma_grid.shape
        assert general.objective(inst, coeffs) == pytest.approx(
            float(profile.max()), abs=1e-15)


class TestBatchedEvaluation:
    """The grid-wide evaluations agree with the per-angle definitions."""

    @pytest.mark.parametrize("d,n,m", [(2, 1, 1), (2, 2, 3), (2, 3, 4),
                                       (3, 1, 2), (3, 2, 8), (2, 4, 2)])
    def test_error_profile_matches_per_angle_sum(self, d, n, m):
        inst = general.make_instance(d, n, m, grid_points=33)
        rng = np.random.default_rng(100 * d + 10 * n + m)
        for _ in range(3):
            coeffs = random_coefficients(m, n, rng)
            per_angle = np.array([
                np.sum(np.abs(general.achieved_distribution(inst, coeffs, g)
                              - general.target_distribution(m, g)))
                for g in inst.gamma_grid])
            profile = general.error_profile(inst, coeffs)
            assert np.max(np.abs(profile - per_angle)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_batched_target_matches_rows(self, m):
        gammas = np.concatenate([np.linspace(0.0, math.pi / 2, 41), [0.123]])
        batched = general._target_distributions(m, gammas)
        assert batched.shape == (gammas.size, m + 1)
        for row, g in zip(batched, gammas):
            assert np.max(np.abs(row - general.target_distribution(m, g))) < 1e-15

    def test_batched_target_rejects_angle_outside_range(self):
        with pytest.raises(ValueError, match="outside"):
            general._target_distributions(2, np.array([0.0, 2.0]))

    @pytest.mark.parametrize("d,n,m,value", [
        (2, 1, 1, 0.6666666666666667),
        (2, 2, 2, 0.5471042754760884),
        (2, 3, 8, 0.9235885721264826),
        (3, 4, 4, 0.5479908323737882),
    ])
    def test_pinned_minimax_values(self, d, n, m, value):
        inst = general.make_instance(d, n, m)
        _, solved = general.solve_minimax(inst)
        assert solved == pytest.approx(value, abs=1e-9)


class TestBetaPolynomials:
    def test_single_copy_symmetric_block(self):
        inst = general.make_instance(2, 1, 1, grid_points=9)
        coeffs = general.beta_polynomial_fit(inst, 0)
        assert np.allclose(coeffs, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_holds_at_held_out_angles(self, d, n):
        inst = general.make_instance(d, n, 1, grid_points=9)
        poly = general.beta_polynomials(inst)  # raises above 1e-8 residual
        xs = np.linspace(0.05, 0.95, 10)
        for x in xs:
            direct = general.beta_for_angle(inst.dec, inst.emb,
                                            math.acos(math.sqrt(x)))
            fitted = np.vander([x], n + 1, increasing=True)[0] @ poly.T
            assert np.max(np.abs(direct - fitted)) < 1e-8

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_equal_pair_weights_are_boolean(self, d, n):
        inst = general.make_instance(d, n, 1, grid_points=9)
        poly = general.beta_polynomials(inst)
        at_one = poly.sum(axis=1)  # evaluate each block polynomial at x = 1
        assert at_one[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(at_one[1:])) < 1e-10

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_blocks_sum_to_one_identically(self, d, n):
        inst = general.make_instance(d, n, 1, grid_points=9)
        poly = general.beta_polynomials(inst)
        total = poly.sum(axis=0)
        assert total[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(total[1:])) < 1e-10

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_nonnegative_on_fine_sweep(self, d, n):
        dec = symmetry.isotypic_projectors(d, n)
        emb = symmetry.symmetric_embedding(d, n)
        worst = min(
            float(general.beta_for_angle(dec, emb, g).min())
            for g in np.linspace(0.0, math.pi / 2, 1000)
        )
        assert worst > -1e-10

    def test_rejects_bad_label(self):
        inst = general.make_instance(2, 1, 1, grid_points=9)
        with pytest.raises(ValueError, match="l ="):
            general.beta_polynomial_fit(inst, 5)


class TestCoefficientMatrix:
    def test_rejects_bad_column_sum(self):
        with pytest.raises(ValueError, match="column sums"):
            general.CoefficientMatrix(m=1, n=1,
                                      alpha=np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="entries"):
            general.CoefficientMatrix(m=1, n=1,
                                      alpha=np.array([[1.1, 0.5], [-0.1, 0.5]]))

    def test_marginal_requires_two_samples(self):
        coeffs = general.CoefficientMatrix(m=1, n=1, alpha=np.eye(2))
        with pytest.raises(ValueError, match="m >= 2"):
            general.first_sample_marginal(coeffs)


class TestInstanceValidation:
    def test_grid_must_cover_endpoints(self):
        with pytest.raises(ValueError, match="endpoints"):
            general.make_instance(2, 1, 1, gamma_grid=np.linspace(0.1, 1.0, 5))

    def test_decomposition_must_match(self):
        dec = symmetry.isotypic_projectors(2, 2)
        with pytest.raises(ValueError, match="decomposition"):
            general.make_instance(2, 1, 1, dec=dec)

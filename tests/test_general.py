import math
import types
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from fidest import general, qcore, symmetry

SUPPORTED_PAIRS = [(d, n) for d in (2, 3) for n in (1, 2, 3, 4)]


def random_coefficients(m, n, rng):
    a = rng.uniform(size=(m + 1, n + 1))
    a /= a.sum(axis=0, keepdims=True)
    return general.CoefficientMatrix(m=m, n=n, alpha=a)


def target(m, gamma):
    """Binomial target at one angle, through the batched evaluation."""
    return general._target_distributions(m, [gamma])[0]


def l1_errors(alpha, poly, m, gammas):
    """L1 errors at every angle of ``gammas``, through a fresh angle table."""
    return general._l1_errors(alpha, general._angle_table(poly, m, gammas))


def worst_case(inst, coeffs):
    return float(general.error_profile(inst, coeffs).max())


class TestTargetDistribution:
    def test_single_sample_equal_states(self):
        assert np.allclose(target(1, 0.0), [0.0, 1.0])

    def test_two_samples_diagonal_angle(self):
        assert np.allclose(target(2, math.pi / 4), [0.25, 0.5, 0.25])

    def test_three_samples_third_angle(self):
        got = target(3, math.pi / 3)
        assert np.allclose(got, [27 / 64, 27 / 64, 9 / 64, 1 / 64])

    def test_sums_to_one(self):
        for gamma in np.linspace(0.0, math.pi / 2, 7):
            assert target(4, gamma).sum() == pytest.approx(1.0)


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
        p0 = target(2, math.pi / 4)
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

    def test_rejects_nan_angle(self):
        inst = general.make_instance(2, 1, 1, grid_points=17)
        coeffs = general.CoefficientMatrix(m=1, n=1, alpha=np.eye(2))
        with pytest.raises(ValueError, match="out of range"):
            general.achieved_distribution(inst, coeffs, math.nan)


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
        p0 = target(1, math.pi / 4)
        coeffs = general.CoefficientMatrix(m=1, n=1,
                                           alpha=np.tile(p0[:, None], (1, 2)))
        f = general.achieved_distribution(inst, coeffs, 0.0)
        assert np.sum(np.abs(f - target(1, 0.0))) == \
            pytest.approx(1.0, abs=1e-12)
        assert worst_case(inst, coeffs) == pytest.approx(1.0, abs=1e-12)

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
        assert np.all(np.isin(coarse.gamma_grid, fine.gamma_grid))
        _, v_coarse = general._solve_on_grid(coarse.poly, 2, coarse.gamma_grid)
        _, v_fine = general._solve_on_grid(fine.poly, 2, fine.gamma_grid)
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
        embedded_value = worst_case(inst, coeffs)
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
        m1 = general.make_instance(2, 1, 1, grid_points=129)
        assert np.array_equal(m1.gamma_grid, inst.gamma_grid)
        m1_coeffs, m1_value = general.solve_minimax(m1, refine_tol=1e-6)
        assert worst_case(m1, marg) >= m1_value - 1e-9

    def test_error_profile_matches_objective(self):
        inst = general.make_instance(2, 1, 1, grid_points=65)
        coeffs, value = general.solve_minimax(inst)
        profile = general.error_profile(inst, coeffs)
        assert profile.shape == inst.gamma_grid.shape
        # the single-copy worst case sits at the grid endpoints
        assert float(profile.max()) == pytest.approx(value, abs=1e-12)


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
                              - target(m, g)))
                for g in inst.gamma_grid])
            profile = general.error_profile(inst, coeffs)
            assert np.max(np.abs(profile - per_angle)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_batched_target_matches_rows(self, m):
        gammas = np.concatenate([np.linspace(0.0, math.pi / 2, 41), [0.123]])
        batched = general._target_distributions(m, gammas)
        assert batched.shape == (gammas.size, m + 1)
        for row, g in zip(batched, gammas):
            c = math.cos(g) ** 2
            scalar = [math.comb(m, k) * c ** k * (1.0 - c) ** (m - k)
                      for k in range(m + 1)]
            assert np.max(np.abs(row - scalar)) < 1e-15

    def test_binomial_row_is_shared_and_read_only(self):
        row = general._binomial_row(6)
        assert general._binomial_row(6) is row
        assert row.tolist() == [1, 6, 15, 20, 15, 6, 1]
        with pytest.raises(ValueError):
            row[0] = 2.0

    @pytest.mark.parametrize("d,n,m,value", [
        (2, 1, 1, 0.6666666666666667),
        (2, 2, 2, 0.5471042754760884),
        (2, 3, 8, 0.9235885721264826),
        (3, 4, 4, 0.5479908323737882),
        # several cutting-plane rounds at the parent commit
        (2, 1, 8, 1.1773656690532166),
        (2, 2, 8, 1.0242226176717508),
        (3, 3, 8, 0.9235885721264838),
    ])
    def test_pinned_minimax_values(self, d, n, m, value):
        inst = general.make_instance(d, n, m)
        _, solved = general.solve_minimax(inst)
        assert solved == pytest.approx(value, abs=1e-9)


class TestCuttingPlanes:
    """The one-sided grid LP and the multi-cut refinement rounds."""

    @pytest.mark.parametrize("d,n,m", [(2, 1, 1), (2, 2, 4), (3, 2, 2),
                                       (2, 1, 8), (2, 3, 8), (2, 4, 8)])
    def test_grid_optimum_is_the_l1_worst_case(self, d, n, m):
        # the LP bounds 2 sum_k (f_k - p_k)^+, which is the L1 distance
        # only because f and p both sum to 1
        inst = general.make_instance(d, n, m)
        alpha, t = general._solve_on_grid(inst.poly, m, inst.gamma_grid)
        errors = l1_errors(alpha, inst.poly, m, inst.gamma_grid)
        assert t == pytest.approx(float(np.max(errors)), abs=1e-8)

    @pytest.mark.parametrize("d,n,m,tol", [(2, 1, 8, 1e-4), (2, 2, 4, 1e-4),
                                           (3, 3, 8, 1e-4), (2, 4, 8, 1e-4),
                                           (2, 2, 8, 1e-6)])
    def test_value_holds_on_dense_scan(self, d, n, m, tol):
        inst = general.make_instance(d, n, m)
        coeffs, value = general.solve_minimax(inst, refine_tol=tol)
        dense = general.make_instance(d, n, m, grid_points=20001)
        assert float(np.max(general.error_profile(dense, coeffs))) <= value + tol

    @pytest.mark.parametrize("seed", range(4))
    def test_every_peak_is_polished(self, seed):
        inst = general.make_instance(2, 3, 8)
        alpha = random_coefficients(8, 3, np.random.default_rng(seed)).alpha
        samples = 257
        scan = np.linspace(0.0, math.pi / 2, samples)
        values = l1_errors(alpha, inst.poly, 8, scan)
        interior = np.flatnonzero((values[1:-1] >= values[:-2])
                                  & (values[1:-1] > values[2:])) + 1
        threshold = float(np.min(values[interior])) - 1e-3
        above = interior[values[interior] > threshold]
        assert above.size >= 2
        angles, errors = general._violated_angles(
            alpha, inst.poly, 8, threshold,
            general._angle_table(inst.poly, 8, scan))
        assert angles.size >= above.size
        assert np.array_equal(
            errors, l1_errors(alpha, inst.poly, 8, angles))
        for i in above:
            near = np.abs(angles - scan[i]) <= scan[1]
            assert near.any() and errors[near].max() >= values[i]
        dense = np.linspace(0.0, math.pi / 2, 20001)
        assert errors.max() >= l1_errors(
            alpha, inst.poly, 8, dense).max() - 1e-9
        # every returned angle is as good as a fine scan of its bracket
        peaks = general._local_maxima(values) & (values > threshold)
        peaks[int(np.argmax(values))] = True
        idx = np.flatnonzero(peaks)
        assert idx.size == angles.size
        for i, error in zip(idx, errors):
            bracket = np.linspace(scan[max(i - 1, 0)],
                                  scan[min(i + 1, samples - 1)], 401)
            assert error >= l1_errors(
                alpha, inst.poly, 8, bracket).max() - 1e-13
        # and no angle within 1e-6 of a returned one scores higher
        for angle, error in zip(angles, errors):
            window = np.linspace(angle - 1e-6, angle + 1e-6, 401)
            assert error >= l1_errors(
                alpha, inst.poly, 8, window).max() - 1e-13

    @pytest.mark.parametrize("d,n,m", [(2, 1, 8), (3, 4, 8)])
    def test_solves_without_warnings(self, d, n, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            general.solve_minimax(general.make_instance(d, n, m))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        inst = general.make_instance(2, 1, 1, grid_points=9)
        with pytest.raises(ValueError, match="refine_tol"):
            general.solve_minimax(inst, refine_tol=tol)


def linprog_oracle(inst, grid):
    """The grid LP in linprog's form: one-sided rows as A_ub, the column
    sums as A_eq, bounds as a list; returns alpha and t."""
    m, n = inst.m, inst.n
    n_alpha = (m + 1) * (n + 1)
    n_var = n_alpha + (m + 1) * grid.size + 1
    beta = general._block_weights(inst.poly, grid)
    p = general._target_distributions(m, grid)
    rows, cols, vals, b_ub = [], [], [], []
    for g in range(grid.size):
        slacks = n_alpha + g * (m + 1) + np.arange(m + 1)
        for k in range(m + 1):  # sum_l alpha[k, l] beta_l - s[g, k] <= p_k
            row = len(b_ub)
            rows += [row] * (n + 2)
            cols += list(k * (n + 1) + np.arange(n + 1)) + [slacks[k]]
            vals += list(beta[g]) + [-1.0]
            b_ub.append(p[g, k])
        row = len(b_ub)  # 2 sum_k s[g, k] - t <= 0
        rows += [row] * (m + 2)
        cols += list(slacks) + [n_var - 1]
        vals += [2.0] * (m + 1) + [-1.0]
        b_ub.append(0.0)
    a_ub = coo_matrix((vals, (rows, cols)), shape=(len(b_ub), n_var))
    eq_rows = [l for l in range(n + 1) for k in range(m + 1)]
    eq_cols = [k * (n + 1) + l for l in range(n + 1) for k in range(m + 1)]
    a_eq = coo_matrix((np.ones(n_alpha), (eq_rows, eq_cols)),
                      shape=(n + 1, n_var))
    c = np.zeros(n_var)
    c[-1] = 1.0
    bounds = [(0.0, 1.0)] * n_alpha + [(0.0, None)] * (n_var - n_alpha)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(n + 1),
                  bounds=bounds, method="highs")
    assert res.status == 0
    return res.x[:n_alpha].reshape(m + 1, n + 1), res.fun


class TestGridLP:
    """_solve_on_grid hands HiGHS the model that linprog built for it."""

    @pytest.mark.parametrize("working_set", ["grid", "irregular"])
    @pytest.mark.parametrize("d,n,m", [(2, 1, 1), (2, 2, 4), (2, 4, 8),
                                       (3, 3, 8)])
    def test_matches_linprog(self, d, n, m, working_set):
        inst = general.make_instance(d, n, m)
        grid = inst.gamma_grid
        if working_set == "irregular":
            grid = np.union1d(grid[[0, 5, 17, 40, 63, 64, 100, 128]],
                              [0.0123, 0.4567, 0.9, 1.3579])
        alpha, t = general._solve_on_grid(inst.poly, m, grid)
        ref_alpha, ref_t = linprog_oracle(inst, grid)
        assert t == pytest.approx(ref_t, abs=1e-12)
        assert np.max(np.abs(alpha - ref_alpha)) <= 1e-12

    def test_failed_solve_raises(self, monkeypatch):
        failed = types.SimpleNamespace(status=1, message="Iteration limit reached",
                                       x=None, fun=None)
        monkeypatch.setattr(general, "milp", lambda *args, **kwargs: failed)
        inst = general.make_instance(2, 2, 4)
        with pytest.raises(RuntimeError, match="status 1"):
            general._solve_on_grid(inst.poly, 4, inst.gamma_grid)

    @pytest.mark.parametrize("corrupt", ["row", "nan"])
    def test_infeasible_answer_raises(self, monkeypatch, corrupt):
        milp = general.milp

        def broken(*args, **kwargs):
            res = milp(*args, **kwargs)
            # t below the worst angle's bound row, or no number at all
            res.x[-1] = res.x[-1] - 1e-6 if corrupt == "row" else math.nan
            return res

        monkeypatch.setattr(general, "milp", broken)
        inst = general.make_instance(2, 2, 4)
        with pytest.raises(RuntimeError, match="violates its constraints"):
            general._solve_on_grid(inst.poly, 4, inst.gamma_grid)


class TestLazyGrid:
    """Each LP sees only a working set of angles, yet the returned strategy
    answers for every angle of the instance grid."""

    @pytest.mark.parametrize("grid_points", [2, 3, 17, 129, 1025])
    @pytest.mark.parametrize("d,n,m", [(2, 1, 1), (2, 4, 8), (2, 2, 16)])
    def test_every_grid_angle_is_satisfied(self, d, n, m, grid_points):
        inst = general.make_instance(d, n, m, grid_points=grid_points)
        coeffs, value = general.solve_minimax(inst)
        assert float(np.max(general.error_profile(inst, coeffs))) <= value + 1e-12
        _, full_grid_optimum = general._solve_on_grid(inst.poly, m,
                                                      inst.gamma_grid)
        assert value >= full_grid_optimum - 1e-12

    # recorded with every grid angle in every LP
    @pytest.mark.parametrize("d,n,m,grid_points,value", [
        (2, 4, 8, 129, 0.7982772956253172),
        (2, 4, 8, 1025, 0.7982922365578883),
        (2, 2, 16, 1025, 1.2110708005577846),
    ])
    def test_matches_the_full_grid_solver(self, d, n, m, grid_points, value):
        inst = general.make_instance(d, n, m, grid_points=grid_points)
        _, solved = general.solve_minimax(inst)
        assert solved == pytest.approx(value, abs=1e-12)


class TestBetaPolynomials:
    def test_single_copy_symmetric_block(self):
        inst = general.make_instance(2, 1, 1, grid_points=9)
        coeffs = general.beta_polynomials(inst)[0]
        assert np.allclose(coeffs, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_holds_at_held_out_angles(self, d, n):
        inst = general.make_instance(d, n, 1, grid_points=9)
        poly = general.beta_polynomials(inst)
        xs = np.linspace(0.05, 0.95, 10)
        for x in xs:
            direct = general.beta_for_angle(inst.dec, inst.emb,
                                            math.acos(math.sqrt(x)))
            fitted = np.vander([x], n + 1, increasing=True)[0] @ poly.T
            assert np.max(np.abs(direct - fitted)) < 1e-12

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

    def test_fitted_once_per_instance(self):
        inst = general.make_instance(2, 2, 1, grid_points=9)
        assert general.beta_polynomials(inst) is inst.poly
        assert not inst.poly.flags.writeable
        again = general.make_instance(2, 2, 1, grid_points=9)
        assert np.array_equal(again.poly, inst.poly)

    @pytest.mark.parametrize("n", range(1, symmetry.MAX_COPIES + 1))
    def test_independent_of_local_dimension(self, n):
        # the canonical pair spans two levels whatever d is
        qubit = general.make_instance(2, n, 1, grid_points=9)
        qutrit = general.make_instance(3, n, 1, grid_points=9)
        assert np.array_equal(qubit.poly, qutrit.poly)


class TestCoefficientMatrix:
    def test_rejects_bad_column_sum(self):
        with pytest.raises(ValueError, match="column sums"):
            general.CoefficientMatrix(m=1, n=1,
                                      alpha=np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="entries"):
            general.CoefficientMatrix(m=1, n=1,
                                      alpha=np.array([[1.1, 0.5], [-0.1, 0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="entries"):
            general.CoefficientMatrix(m=1, n=1, alpha=np.full((2, 2), bad))
        with pytest.raises(ValueError, match="entries"):
            general.CoefficientMatrix(m=1, n=1,
                                      alpha=np.array([[bad, 0.5], [0.0, 0.5]]))

    def test_marginal_requires_two_samples(self):
        coeffs = general.CoefficientMatrix(m=1, n=1, alpha=np.eye(2))
        with pytest.raises(ValueError, match="m >= 2"):
            general.first_sample_marginal(coeffs)


class TestInstanceValidation:
    @pytest.mark.parametrize("d,n", [(2, 5), (4, 1), (1, 1)])
    def test_rejects_unsupported_range(self, d, n):
        with pytest.raises(ValueError, match="unsupported range"):
            general.make_instance(d, n, 1)

    @pytest.mark.parametrize("m", [0, 1030, 1100])
    def test_rejects_sample_count_out_of_range(self, m):
        # beyond m = 1029 some C(m, j) is too large for a float
        with pytest.raises(ValueError, match="1 <= m <= 1029"):
            general.make_instance(2, 1, m)

    def test_largest_sample_count_has_finite_targets(self):
        inst = general.make_instance(2, 1, 1029, grid_points=5)
        p = general._target_distributions(inst.m, inst.gamma_grid)
        assert np.all(np.isfinite(p))
        assert np.allclose(p.sum(axis=1), 1.0)

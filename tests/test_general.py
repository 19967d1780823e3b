import math
import statistics
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from fidest import general, qcore, symmetry

import oracle

SUPPORTED_PAIRS = [(d, n) for d in (2, 3) for n in (1, 2, 3, 4)]


def random_coefficients(m, n, rng):
    a = rng.uniform(size=(m + 1, n + 1))
    a /= a.sum(axis=0, keepdims=True)
    return general.CoefficientMatrix(alpha=a)


def target(m, gamma):
    """Binomial target at one angle, through the batched evaluation."""
    return general._angle_table(np.ones((1, 1)), m, [gamma]).target[0]


def l1_errors(alpha, poly, m, gammas):
    """L1 errors at every angle of ``gammas``, through a fresh angle table."""
    return general._l1_errors(alpha, general._angle_table(poly, m, gammas))


def assert_polished(alpha, poly, m, scan, values, threshold, angles, errors):
    """Every angle _violated_angles returned for the peaks of ``values`` over
    ``scan`` above ``threshold`` is as good as a fine scan of its bracket,
    and no angle within 1e-6 of it scores higher."""
    peaks = general._local_maxima(values) & (values > threshold)
    peaks[int(np.argmax(values))] = True
    idx = np.flatnonzero(peaks)
    assert idx.size == angles.size
    for i, error in zip(idx, errors):
        bracket = np.linspace(scan[max(i - 1, 0)],
                              scan[min(i + 1, scan.size - 1)], 401)
        assert error >= l1_errors(alpha, poly, m, bracket).max() - 1e-13
    for angle, error in zip(angles, errors):
        window = np.linspace(angle - 1e-6, angle + 1e-6, 401)
        assert error >= l1_errors(alpha, poly, m, window).max() - 1e-13


def achieved_distribution(inst, coeffs, gamma):
    """Outcome-count distribution alpha . beta(gamma), validated."""
    f = coeffs.alpha @ general._angle_table(inst.poly, 0, [gamma]).beta[0]
    return qcore.check_outcome_distribution(f)


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
        coeffs = general.CoefficientMatrix(alpha=np.array([[0.0, 1.0],
                                                           [1.0, 0.0]]))
        for gamma in (0.0, 0.5, 1.2, math.pi / 2):
            f = achieved_distribution(inst, coeffs, gamma)
            assert f[1] == pytest.approx((1 + math.cos(gamma) ** 2) / 2, abs=1e-12)

    def test_constant_strategy_ignores_angle(self):
        inst = general.make_instance(2, 1, 2, grid_points=17)
        p0 = target(2, math.pi / 4)
        coeffs = general.CoefficientMatrix(alpha=np.tile(p0[:, None], (1, 2)))
        for gamma in (0.0, 0.8, math.pi / 2):
            assert np.max(np.abs(achieved_distribution(inst, coeffs, gamma)
                                 - p0)) < 1e-12

    def test_uniform_strategy(self):
        inst = general.make_instance(2, 2, 2, grid_points=17)
        coeffs = general.CoefficientMatrix(alpha=np.full((3, 3), 1 / 3))
        f = achieved_distribution(inst, coeffs, 0.7)
        assert np.max(np.abs(f - 1 / 3)) < 1e-12

    def test_shape_mismatch(self):
        inst = general.make_instance(2, 1, 1, grid_points=17)
        coeffs = general.CoefficientMatrix(alpha=np.array(
            [[0.2, 0.2], [0.3, 0.3], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="coefficients"):
            general.error_profile(inst, coeffs)

    def test_rejects_nan_angle(self):
        inst = general.make_instance(2, 1, 1, grid_points=17)
        coeffs = general.CoefficientMatrix(alpha=np.eye(2))
        with pytest.raises(ValueError, match="out of range"):
            achieved_distribution(inst, coeffs, math.nan)


class TestDualRouteReduction:
    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_block_reduction_matches_full_contraction(self, d, n):
        # f_k from the block weights must equal the direct expectation of
        # F_k = sum_l alpha[k,l] S_l on the full 2n-fold tensor power
        inst = general.make_instance(d, n, 2, grid_points=9)
        rng = np.random.default_rng(d * 10 + n)
        coeffs = random_coefficients(2, n, rng)
        emb = oracle.symmetric_embedding(d, n)
        j = np.kron(emb.basis, emb.basis)
        effects = oracle.effect_operators(inst, coeffs)
        for gamma in (0.2, 0.9, 1.4):
            phi, theta = oracle.canonical_pair(d, gamma)
            big = np.kron(oracle.kron_power(phi, n), oracle.kron_power(theta, n))
            w = j.conj().T @ big
            direct = np.array([float(np.real(w.conj() @ fk @ w)) for fk in effects])
            reduced = achieved_distribution(inst, coeffs, gamma)
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
        coeffs = general.CoefficientMatrix(alpha=np.tile(p0[:, None], (1, 2)))
        f = achieved_distribution(inst, coeffs, 0.0)
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
        _, v_coarse = linprog_oracle(coarse, coarse.gamma_grid)
        _, v_fine = linprog_oracle(fine, fine.gamma_grid)
        assert v_fine >= v_coarse - 1e-9

    def test_two_copies_embedding_bound(self):
        inst = general.make_instance(2, 2, 1, grid_points=129)
        _, value = general.solve_minimax(inst, refine_tol=1e-6)
        assert value / 2 <= 1 / 3 + 1e-6

    def test_embedded_single_copy_strategy(self):
        # measuring 2/3 P_sym on one copy from each side is a feasible
        # two-copy strategy and reproduces the single-copy worst case
        inst = general.make_instance(2, 2, 1, grid_points=129)
        dec = oracle.isotypic_projectors(inst.d, 2)
        emb = oracle.symmetric_embedding(inst.d, 2)
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
            for p, dim in zip(dec.projectors, dec.dims)
        ])
        assert np.all(alpha_one > -1e-12) and np.all(alpha_one < 1 + 1e-12)
        coeffs = general.CoefficientMatrix(
            alpha=np.vstack([1.0 - alpha_one, alpha_one]))
        for gamma in (0.0, 0.6, 1.3):
            f = achieved_distribution(inst, coeffs, gamma)
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
        marg = oracle.first_sample_marginal(coeffs)
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
                np.sum(np.abs(achieved_distribution(inst, coeffs, g)
                              - target(m, g)))
                for g in inst.gamma_grid])
            profile = general.error_profile(inst, coeffs)
            assert np.max(np.abs(profile - per_angle)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_batched_target_matches_rows(self, m):
        gammas = np.concatenate([np.linspace(0.0, math.pi / 2, 41), [0.123]])
        batched = general._angle_table(np.ones((1, 1)), m, gammas).target
        assert batched.shape == (gammas.size, m + 1)
        for row, g in zip(batched, gammas):
            c = math.cos(g) ** 2
            scalar = [math.comb(m, k) * c ** k * (1.0 - c) ** (m - k)
                      for k in range(m + 1)]
            assert np.max(np.abs(row - scalar)) < 1e-15

    @pytest.mark.parametrize("n,m", [(1, 1), (4, 2), (2, 9), (4, 64)])
    def test_table_matches_the_vandermonde_form(self, n, m):
        gammas = np.concatenate([np.linspace(0.0, math.pi / 2, 41), [0.123]])
        poly = general.make_instance(2, n, m, grid_points=9).poly
        table = general._angle_table(poly, m, gammas)
        x = np.cos(gammas)[:, None] ** 2
        # the Bernstein-Vandermonde matrix, one row per angle
        vander = np.array([oracle.bernstein_basis(n, xi)
                           for xi in x[:, 0]]) @ poly.T
        assert np.max(np.abs(table.beta - vander)) < 1e-15
        k = np.arange(m + 1)
        binomial = general._binomial_row(m) * x ** k * (1.0 - x) ** (m - k)
        assert np.array_equal(table.target, binomial)

    def test_block_weights_are_shared_and_read_only(self):
        poly = general._exact_block_weights(3)
        assert general._exact_block_weights(3) is poly
        assert general.make_instance(3, 3, 2, grid_points=9).poly is poly
        with pytest.raises(ValueError):
            poly[0, 0] = 2.0

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

    # the 16 d = 2 instances of the minimax benchmark
    @pytest.mark.parametrize("n,m,value", [
        (1, 1, 0.6666666666666667),
        (1, 2, 0.7696900206385837),
        (1, 4, 1.0045820634395088),
        (1, 8, 1.177365669053218),
        (2, 1, 0.28571428571428586),
        (2, 2, 0.5471042754760935),
        (2, 4, 0.8734132582671338),
        (2, 8, 1.024222617671731),
        (3, 1, 0.14569584046800377),
        (3, 2, 0.38570757388147886),
        (3, 4, 0.6581845135744326),
        (3, 8, 0.9235885721264768),
        (4, 1, 0.10932096172643574),
        (4, 2, 0.21909060002728575),
        (4, 4, 0.5479908323737879),
        (4, 8, 0.7982772956253177),
    ])
    def test_benchmark_values(self, n, m, value):
        _, solved = general.solve_minimax(general.make_instance(2, n, m))
        assert solved == pytest.approx(value, abs=1e-12)
        # the block weights do not depend on d, nor does the solve
        _, solved_d3 = general.solve_minimax(general.make_instance(3, n, m))
        assert solved_d3 == solved


class TestCuttingPlanes:
    """The one-sided grid LP and the multi-cut refinement rounds."""

    @pytest.mark.parametrize("d,n,m", [(2, 1, 1), (2, 2, 4), (3, 2, 2),
                                       (2, 1, 8), (2, 3, 8), (2, 4, 8)])
    def test_grid_optimum_is_the_l1_worst_case(self, d, n, m):
        # the LP bounds 2 sum_k (f_k - p_k)^+, which is the L1 distance
        # only because f and p both sum to 1
        inst = general.make_instance(d, n, m)
        alpha, t = linprog_oracle(inst, inst.gamma_grid)
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
            alpha, inst.poly, threshold, scan,
            general._bernstein_basis(8, scan))
        assert angles.size >= above.size
        assert np.array_equal(
            errors, l1_errors(alpha, inst.poly, 8, angles))
        for i in above:
            near = np.abs(angles - scan[i]) <= scan[1]
            assert near.any() and errors[near].max() >= values[i]
        dense = np.linspace(0.0, math.pi / 2, 20001)
        assert errors.max() >= l1_errors(
            alpha, inst.poly, 8, dense).max() - 1e-9
        assert_polished(alpha, inst.poly, 8, scan, values, threshold,
                        angles, errors)

    @staticmethod
    def search(alpha, n, m, samples):
        """_violated_angles over all the peaks of a scan of ``samples``
        angles, checked by assert_polished."""
        poly = general._exact_block_weights(n)
        scan = np.linspace(0.0, math.pi / 2, samples)
        values = l1_errors(alpha, poly, m, scan)
        interior = general._local_maxima(values)[1:-1].nonzero()[0] + 1
        threshold = float(np.min(values[interior])) - 1e-3
        angles, errors = general._violated_angles(
            alpha, poly, threshold, scan,
            general._bernstein_basis(max(n, m), scan))
        assert_polished(alpha, poly, m, scan, values, threshold, angles, errors)

    @pytest.mark.parametrize("n,m", [(1, 64), (32, 32)])
    @pytest.mark.parametrize("seed", range(3))
    def test_polish_at_high_degree(self, n, m, seed):
        alpha = random_coefficients(m, n, np.random.default_rng(seed)).alpha
        self.search(alpha, n, m, general._SCAN_SAMPLES)

    def test_polish_bisects_where_newton_cannot(self, monkeypatch):
        # a sparse strategy whose error is flat to round-off around one
        # peak: Newton steps land outside the shrinking bracket there, so
        # the polish bisects, for more basis builds than Newton steps take
        builds = []
        basis = general._bernstein_basis

        def counting(*args):
            builds.append(args)
            return basis(*args)

        monkeypatch.setattr(general, "_bernstein_basis", counting)
        rng = np.random.default_rng(50)
        alpha = rng.dirichlet(np.full(9, 0.05), size=4).T
        self.search(alpha, 3, 8, 257)
        assert len(builds) >= 12  # one of them is the scan's

    @pytest.mark.parametrize("n,m", [(1, 1), (3, 8), (1, 64), (32, 32)])
    def test_boundary_maxima_are_exact(self, n, m):
        # all mass on outcome 0 errs by 2 (1 - (1 - x)^m), most at x = 1,
        # gamma = 0; all mass on outcome m by 2 (1 - x^m), most at pi / 2
        poly = general._exact_block_weights(n)
        scan = np.linspace(0.0, math.pi / 2, general._SCAN_SAMPLES)
        basis = general._bernstein_basis(max(n, m), scan)
        for outcome, edge in ((0, 0.0), (m, math.pi / 2)):
            alpha = np.zeros((m + 1, n + 1))
            alpha[outcome] = 1.0
            angles, errors = general._violated_angles(alpha, poly, 1.0,
                                                      scan, basis)
            assert edge in angles.tolist()
            assert errors[angles == edge] == pytest.approx([2.0], abs=1e-14)

    def test_polish_takes_few_basis_builds(self, monkeypatch):
        # Newton steps from the parabola vertex of the scan converge in one
        # or two steps on the solver's strategies, one basis build each;
        # the zoom it replaced took 8 builds per search
        builds, per_search = [], []
        basis, search = general._bernstein_basis, general._violated_angles

        def counting_basis(*args):
            builds.append(args)
            return basis(*args)

        def counting_search(*args):
            start = len(builds)
            found = search(*args)
            per_search.append(len(builds) - start)
            return found

        monkeypatch.setattr(general, "_bernstein_basis", counting_basis)
        monkeypatch.setattr(general, "_violated_angles", counting_search)
        for n, m in [(1, 8), (3, 8), (4, 4), (2, 64)]:
            general.solve_minimax(general.make_instance(2, n, m))
        assert per_search and max(per_search) <= 2

    def test_one_angle_table_per_search(self, monkeypatch):
        # the scan and the polish run on the error polynomials; only the
        # final candidates are scored on an angle table
        inst = general.make_instance(2, 3, 8)
        alpha = random_coefficients(8, 3, np.random.default_rng(5)).alpha
        scan = np.linspace(0.0, math.pi / 2, general._SCAN_SAMPLES)
        basis = general._bernstein_basis(8, scan)
        built = []
        angle_table = general._angle_table

        def counting(*args):
            built.append(args)
            return angle_table(*args)

        monkeypatch.setattr(general, "_angle_table", counting)
        angles, _ = general._violated_angles(alpha, inst.poly, 0.0,
                                             scan, basis)
        assert angles.size >= 1
        assert len(built) <= 1

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
    m, n = inst.m, inst.poly.shape[1] - 1
    n_alpha = (m + 1) * (n + 1)
    n_var = n_alpha + (m + 1) * grid.size + 1
    table = general._angle_table(inst.poly, m, grid)
    beta, p = table.beta, table.target
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


def ratio_test_oracle(entries, values):
    """The dense LP's pivot rule in its first, plain form."""
    cand = np.flatnonzero(entries > 1e-9 * np.max(np.abs(entries)))
    if cand.size == 0:
        return None
    size = entries[cand]
    value = np.maximum(values[cand], 0.0)
    ties = np.flatnonzero(value / size <= np.min((value + 1e-12) / size))
    return int(cand[ties[np.argmax(size[ties])]])


@st.composite
def ratio_test_inputs(draw):
    """Entries with exact ties, zeros and negative values, and values whose
    ratios tie exactly or within 1e-12, or are negative."""
    size = draw(st.integers(1, 60))
    pool = st.sampled_from([-1.5, -1e-12, 0.0, 1e-12, 1e-10, 0.25, 0.5, 2.0])
    entries = draw(st.lists(pool | st.floats(-4.0, 4.0),
                            min_size=size, max_size=size))
    ratios = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 3.0])
                           | st.floats(-2.0, 2.0),
                           min_size=size, max_size=size))
    jitter = draw(st.lists(st.sampled_from([0.0, 4e-13, -4e-13, 1e-12, 3e-12]),
                           min_size=size, max_size=size))
    entries = np.array(entries)
    return entries, np.array(ratios) * np.abs(entries) + np.array(jitter)


class TestRatioTest:
    """_ratio_test picks the pivot that the plain form of its rule picks."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(ratio_test_inputs(), st.booleans())
    def test_matches_the_oracle(self, inputs, negate):
        entries, values = inputs
        if negate:  # the dual simplex passes a negated row
            entries = -entries
        before = values.copy()
        assert general._ratio_test(entries, values) == ratio_test_oracle(
            entries, values)
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("entries,values,expected", [
        ([1.0, 2.0, 2.0], [1.0, 2.0, 2.0], 1),        # exact tie: larger, first
        ([1.0, 2.0], [1.0, 2.0 + 1.5e-12], 1),        # tie within 1e-12
        ([1.0, 2.0], [1.0, 2.0 + 4e-12], 0),          # no tie
        ([0.5, 1.0], [-3.0, 0.0], 1),                 # negative values count 0
        ([-1.0, 0.0, -2.0], [1.0, 1.0, 1.0], None),   # nothing positive
        ([0.0, 0.0], [0.0, 0.0], None),
        ([1e-12, 1.0], [0.0, 5.0], 1),                # below 1e-9 of the max
    ])
    def test_cases(self, entries, values, expected):
        entries, values = np.array(entries), np.array(values)
        assert general._ratio_test(entries, values) == expected
        assert ratio_test_oracle(entries, values) == expected


class TestDenseLP:
    """_CutLP reaches the optimum of the slack LP that HiGHS solves."""

    def check_optimum(self, n, m, angles):
        inst = general.make_instance(2, n, m)
        lp = general._CutLP(n + 1, m)
        alpha, t = lp.solve(general._angle_table(inst.poly, m, angles))
        ref_alpha, ref_t = linprog_oracle(inst, angles)
        # HiGHS meets its rows only to its tolerance: on working sets whose
        # errors reach 1e-12 its t can sit below the true worst case of its
        # own alpha, so t is held between the two
        ref_worst = np.max(l1_errors(ref_alpha, inst.poly, m, angles))
        assert ref_t - 1e-12 <= t <= ref_worst + 1e-12
        # alpha itself is not compared: the optimal face is degenerate
        assert alpha.min() >= -1e-12
        assert np.max(np.abs(alpha.sum(axis=0) - 1.0)) <= 1e-12
        assert np.max(l1_errors(alpha, inst.poly, m, angles)) <= t + 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 64),
           st.sets(st.integers(0, 128), min_size=1, max_size=24),
           st.lists(st.floats(0.0, math.pi / 2), max_size=8))
    def test_matches_linprog_optimum(self, n, m, on_grid, off_grid):
        grid = np.linspace(0.0, math.pi / 2, 129)
        self.check_optimum(n, m, np.union1d(grid[sorted(on_grid)], off_grid))

    def test_near_duplicate_angles(self):
        # a peak's neighbour 1e-6 away would otherwise end within _CUT_TOL
        # of t without a cut of its own
        self.check_optimum(1, 2, np.array([0.0, 1e-6, 1.0]))

    @pytest.mark.parametrize("n,m", [(1, 3), (2, 8), (4, 12)])
    def test_cleanup_returns_to_the_optimum_of_t(self, monkeypatch, n, m):
        # a cost noise this large moves the perturbed optimum off the
        # optimum of t, so only the primal simplex brings t back
        monkeypatch.setattr(general, "_COST_NOISE", 10.0)
        self.check_optimum(n, m, np.linspace(0.0, math.pi / 2, 17))

    @staticmethod
    def pivots(monkeypatch, instances):
        """Simplex pivots of solve_minimax on each instance."""
        lps = []
        init = general._CutLP.__init__

        def recording_init(self, *args):
            init(self, *args)
            lps.append(self)

        monkeypatch.setattr(general._CutLP, "__init__", recording_init)
        for inst in instances:
            general.solve_minimax(inst)
        return [lp.pivots for lp in lps]

    def test_pivots_over_the_benchmark_instances(self, monkeypatch):
        # cuts separated at alpha alone take 918 pivots, and 294 with an
        # LP per working set of grid angles
        instances = [general.make_instance(2, n, m)
                     for n in range(1, 5) for m in (1, 2, 4, 8)]
        assert sum(self.pivots(monkeypatch, instances)) <= 285

    def test_pivots_at_many_samples(self, monkeypatch):
        # cuts separated at alpha alone take 13502 pivots
        inst = general.make_instance(2, 3, 32)
        assert sum(self.pivots(monkeypatch, [inst])) <= 1000

    def test_pivots_at_64_samples(self, monkeypatch):
        # the count at one set of block weights is chance: moving them by
        # an ulp or two spreads it over 673-972, so the gate is on the
        # median over the exact weights and ten seeded ulp-perturbed
        # copies, 5 % above the 819 that power-basis weights took over this
        # family (2611 with an LP per working set of grid angles)
        inst = general.make_instance(2, 4, 64)
        rng = np.random.default_rng(0)
        family = [inst]
        for _ in range(10):
            steps = rng.choice([-2, -1, 1, 2], size=inst.poly.shape)
            poly = inst.poly + (inst.poly != 0) * steps * np.spacing(inst.poly)
            family.append(general.GeneralInstance(2, 64, inst.gamma_grid, poly))
        assert statistics.median(self.pivots(monkeypatch, family)) <= 859

    def test_cuts_per_step_are_capped(self, monkeypatch):
        # the error of the first strategies is flat up to round-off, so a
        # fine grid has thousands of violated local maxima
        counts = []
        add_cuts = general._CutLP._add_cuts

        def recording_add_cuts(self, beta, target, over):
            counts.append(over.shape[0])
            add_cuts(self, beta, target, over)

        monkeypatch.setattr(general._CutLP, "_add_cuts", recording_add_cuts)
        inst = general.make_instance(3, 4, 8, grid_points=65537)
        general.solve_minimax(inst)
        assert max(counts) == general._MAX_CUTS

    @pytest.mark.parametrize("n", range(1, 5))
    def test_solves_above_64_samples(self, n):
        inst = general.make_instance(2, n, 128)
        coeffs, value = general.solve_minimax(inst)
        assert float(np.max(general.error_profile(inst, coeffs))) <= value

    # the Bernstein-basis values of an earlier prototype; the power basis
    # failed (2, 24, 24) with an outcome probability of -3.2e-11
    @pytest.mark.parametrize("n,value", [(16, 0.45234559), (24, 0.43893508),
                                         (32, 0.43199557)])
    def test_solves_many_copies(self, n, value):
        inst = general.make_instance(2, n, n)
        coeffs, solved = general.solve_minimax(inst)
        assert solved == pytest.approx(value, abs=1e-6)
        assert float(np.max(general.error_profile(inst, coeffs))) <= solved

    def test_pivot_updates_the_tableau_in_place(self):
        # a tableau-sized temporary per pivot makes the solve speed depend
        # on the allocator; the update goes through a buffer kept per shape
        inst = general.make_instance(2, 4, 64)
        lp = general._CutLP(5, 64)
        lp.solve(general._angle_table(inst.poly, 64, inst.gamma_grid))

        def pivot():
            row = np.abs(lp.T[1, 1:])
            row[lp.basis - 1] = 0.0
            lp._pivot(0, 1 + int(row.argmax()))

        pivot()  # sizes the buffer for this tableau
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pivot()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < lp.T.nbytes

    def test_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(general, "_MAX_PIVOTS", 3)
        with pytest.raises(RuntimeError, match="within 3 pivots"):
            general.solve_minimax(general.make_instance(2, 2, 4))

    def test_singular_basis_raises(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(RuntimeError, match="singular basis"):
            general.solve_minimax(general.make_instance(2, 2, 4))


class TestLazyGrid:
    """The LP cuts only where the error over the grid peaks, yet the
    returned strategy answers for every angle of the instance grid."""

    @pytest.mark.parametrize("grid_points", [2, 3, 17, 129, 1025])
    @pytest.mark.parametrize("d,n,m", [(2, 1, 1), (2, 4, 8), (2, 2, 16)])
    def test_every_grid_angle_is_satisfied(self, d, n, m, grid_points):
        inst = general.make_instance(d, n, m, grid_points=grid_points)
        coeffs, value = general.solve_minimax(inst)
        assert float(np.max(general.error_profile(inst, coeffs))) <= value + 1e-12
        _, full_grid_optimum = linprog_oracle(inst, inst.gamma_grid)
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
        assert np.allclose(coeffs, [0.5, 1.0], atol=1e-12)

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_holds_at_held_out_angles(self, d, n):
        inst = general.make_instance(d, n, 1, grid_points=9)
        poly = general.beta_polynomials(inst)
        dec = oracle.isotypic_projectors(d, n)
        emb = oracle.symmetric_embedding(d, n)
        xs = np.linspace(0.05, 0.95, 10)
        for x in xs:
            direct = oracle.beta_for_angle(dec, emb, math.acos(math.sqrt(x)))
            fitted = oracle.bernstein_basis(n, x) @ poly.T
            assert np.max(np.abs(direct - fitted)) < 1e-12

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_equal_pair_weights_are_boolean(self, d, n):
        inst = general.make_instance(d, n, 1, grid_points=9)
        poly = general.beta_polynomials(inst)
        at_one = poly[:, -1]  # each block polynomial at x = 1
        assert at_one[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(at_one[1:])) < 1e-10

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_blocks_sum_to_one_identically(self, d, n):
        inst = general.make_instance(d, n, 1, grid_points=9)
        poly = general.beta_polynomials(inst)
        # every Bernstein coefficient of sum_l beta_l is 1
        assert np.max(np.abs(poly.sum(axis=0) - 1.0)) < 1e-10

    @pytest.mark.parametrize("n", range(1, general._MAX_COPIES + 1))
    def test_mean_total_spin(self, n):
        # beyond the oracle's n: column k is the block distribution of
        # |s, s> (x) |s, k - s>, s = n/2, and block l has total spin
        # J = n - l, so the mean of J(J + 1) is 2 s(s + 1) + 2 s (k - s)
        c = general.make_instance(2, n, 1, grid_points=9).poly
        assert c.min() >= 0.0
        assert np.max(np.abs(c.sum(axis=0) - 1.0)) <= 1e-12
        spin = np.arange(n, -1, -1) * np.arange(n + 1, 0, -1)
        mean = n + n * np.arange(n + 1)
        assert np.max(np.abs(spin @ c - mean)) <= 1e-12 * n ** 2

    @pytest.mark.parametrize("d,n", SUPPORTED_PAIRS)
    def test_nonnegative_on_fine_sweep(self, d, n):
        dec = oracle.isotypic_projectors(d, n)
        emb = oracle.symmetric_embedding(d, n)
        worst = min(
            float(oracle.beta_for_angle(dec, emb, g).min())
            for g in np.linspace(0.0, math.pi / 2, 1000)
        )
        assert worst > -1e-10

    def test_fitted_once_per_instance(self):
        inst = general.make_instance(2, 2, 1, grid_points=9)
        assert general.beta_polynomials(inst) is inst.poly
        assert not inst.poly.flags.writeable
        again = general.make_instance(2, 2, 1, grid_points=9)
        assert np.array_equal(again.poly, inst.poly)

    @pytest.mark.parametrize("n", range(1, oracle.MAX_COPIES + 1))
    def test_independent_of_local_dimension(self, n):
        # the canonical pair spans two levels whatever d is
        qubit = general.make_instance(2, n, 1, grid_points=9)
        qutrit = general.make_instance(3, n, 1, grid_points=9)
        assert np.array_equal(qubit.poly, qutrit.poly)


class TestErrorPolynomials:
    """Degree elevation and the error coefficients of the worst-angle search."""

    @pytest.mark.parametrize("b", range(11))
    def test_elevation_matches_exact_ratios(self, b):
        for a in range(b + 1):
            exact = [[float(Fraction(math.comb(a, j) * math.comb(b - a, i - j),
                                     math.comb(b, i)))
                      if 0 <= i - j <= b - a else 0.0
                      for i in range(b + 1)] for j in range(a + 1)]
            assert general._elevation(a, b).tolist() == exact

    @pytest.mark.parametrize("a", [0, 1, 4, 8, 32])
    def test_elevation_identity_and_column_sums(self, a):
        assert np.array_equal(general._elevation(a, a), np.eye(a + 1))
        for b in (a, a + 1, 2 * a + 3, 64):
            colsums = general._elevation(a, b).sum(axis=0)
            assert np.max(np.abs(colsums - 1.0)) < 1e-14

    def test_elevation_is_shared_and_read_only(self):
        e = general._elevation(3, 7)
        assert general._elevation(3, 7) is e
        with pytest.raises(ValueError):
            e[0, 0] = 2.0

    @pytest.mark.parametrize("n,m", [(1, 1), (4, 8), (32, 1), (1, 64), (32, 32)])
    def test_coefficients_reproduce_the_table_errors(self, n, m):
        poly = general._exact_block_weights(n)
        gammas = np.linspace(0.0, math.pi / 2, 257)
        assert gammas[0] == 0.0 and gammas[-1] == math.pi / 2
        rng = np.random.default_rng(10 * n + m)
        for _ in range(3):
            alpha = random_coefficients(m, n, rng).alpha
            coef = general._error_coefficients(alpha, poly)
            assert coef.shape == (max(n, m) + 1, m + 1)
            basis = general._bernstein_basis(max(n, m), gammas)
            errors = np.abs(coef.T @ basis).sum(axis=0)
            assert np.max(np.abs(errors - l1_errors(alpha, poly, m, gammas))) < 1e-13

    @pytest.mark.parametrize("deg", range(1, 11))
    def test_derivatives_match_exact_ones(self, deg):
        # the power form of each exact Bernstein polynomial, differentiated
        # term by term, against the Bernstein forms of e' and e'' at
        # rational points of [0, 1]
        def power_form(c):
            p = [Fraction(0)] * (deg + 1)
            for i, ci in enumerate(c):
                for j in range(deg - i + 1):
                    p[i + j] += (ci * math.comb(deg, i) * math.comb(deg - i, j)
                                 * (-1) ** j)
            return p

        def value(p, x):
            return sum(pk * x ** k for k, pk in enumerate(p))

        coef = np.random.default_rng(deg).uniform(-1.0, 1.0, size=(deg + 1, 3))
        derivs = general._derivative_maps(deg) @ coef
        assert derivs.shape == (3, deg + 1, 3)
        assert np.array_equal(derivs[0], coef)
        for col in range(3):
            p = power_form([Fraction(v) for v in coef[:, col]])
            dp = [k * pk for k, pk in enumerate(p)][1:]
            ddp = [k * pk for k, pk in enumerate(dp)][1:]
            for order, exact in ((1, dp), (2, ddp)):
                got = power_form([Fraction(v) for v in derivs[order, :, col]])
                for x in (Fraction(j, 7) for j in range(8)):
                    assert abs(float(value(got, x) - value(exact, x))) <= 1e-12

    @pytest.mark.parametrize("deg", [1, 2, 7, 8, 33, 128])
    def test_basis_matches_scalar_terms(self, deg):
        gammas = np.concatenate([np.linspace(0.0, math.pi / 2, 17), [0.123]])
        basis = general._bernstein_basis(deg, gammas)
        scalar = np.array([oracle.bernstein_basis(deg, math.cos(g) ** 2)
                           for g in gammas]).T
        assert np.max(np.abs(basis - scalar)) < 1e-14


class TestCoefficientMatrix:
    def test_rejects_bad_column_sum(self):
        with pytest.raises(ValueError, match="column sums"):
            general.CoefficientMatrix(alpha=np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="entries"):
            general.CoefficientMatrix(alpha=np.array([[1.1, 0.5], [-0.1, 0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="entries"):
            general.CoefficientMatrix(alpha=np.full((2, 2), bad))
        with pytest.raises(ValueError, match="entries"):
            general.CoefficientMatrix(alpha=np.array([[bad, 0.5], [0.0, 0.5]]))

    def test_keeps_its_own_copy(self):
        a = np.eye(2)
        coeffs = general.CoefficientMatrix(alpha=a)
        assert a.flags.writeable
        a[0, 0] = 0.25
        assert coeffs.alpha[0, 0] == 1.0
        with pytest.raises(ValueError):
            coeffs.alpha[0, 0] = 0.5

    def test_marginal_requires_two_samples(self):
        coeffs = general.CoefficientMatrix(alpha=np.eye(2))
        with pytest.raises(ValueError, match="m >= 2"):
            oracle.first_sample_marginal(coeffs)


class TestInstanceValidation:
    def test_instance_keeps_its_own_arrays(self):
        grid = np.linspace(0.0, math.pi / 2, 9)
        poly = general._exact_block_weights(2).copy()
        inst = general.GeneralInstance(2, 1, grid, poly)
        assert grid.flags.writeable and poly.flags.writeable
        grid[0], poly[0, 0] = 1.0, 2.0
        assert inst.gamma_grid[0] == 0.0
        assert np.array_equal(inst.poly, general._exact_block_weights(2))
        for array in (inst.gamma_grid, inst.poly):
            with pytest.raises(ValueError):
                array[0] = 0.5

    @pytest.mark.parametrize("d,n", [(2, 33), (4, 1), (1, 1)])
    def test_rejects_unsupported_range(self, d, n):
        with pytest.raises(ValueError, match="unsupported range"):
            general.make_instance(d, n, 1)

    @pytest.mark.parametrize("m", [0, 1030, 1100])
    def test_rejects_sample_count_out_of_range(self, m):
        # beyond m = 1029 some C(m, j) is too large for a float
        with pytest.raises(ValueError, match="1 <= m <= 1029"):
            general.make_instance(2, 1, m)

    @pytest.mark.parametrize("grid_points", [1, general._MAX_GRID_POINTS + 1])
    def test_rejects_grid_out_of_range(self, grid_points):
        with pytest.raises(ValueError,
                           match=f"2 <= grid_points <= {general._MAX_GRID_POINTS}"):
            general.make_instance(2, 1, 1, grid_points=grid_points)

    def test_largest_grid_is_accepted(self):
        inst = general.make_instance(2, 1, 1,
                                     grid_points=general._MAX_GRID_POINTS)
        assert inst.gamma_grid.size == general._MAX_GRID_POINTS

    def test_rejects_table_above_the_limit(self):
        # the largest grid with one sample more than the limit allows
        with pytest.raises(ValueError, match=r"grid_points \* \(m \+ 1\) <= "
                                             f"{general._MAX_TABLE_ENTRIES}"):
            general.make_instance(2, 1, 65, grid_points=general._MAX_GRID_POINTS)

    def test_largest_table_is_accepted(self):
        inst = general.make_instance(2, 1, 64,
                                     grid_points=general._MAX_GRID_POINTS)
        assert inst.gamma_grid.size * (inst.m + 1) == general._MAX_TABLE_ENTRIES

    def test_largest_sample_count_has_finite_targets(self):
        inst = general.make_instance(2, 1, 1029, grid_points=5)
        p = general._angle_table(np.ones((1, 1)), inst.m, inst.gamma_grid).target
        assert np.all(np.isfinite(p))
        assert np.allclose(p.sum(axis=1), 1.0)

    @pytest.mark.parametrize("poly,grid", [
        ([[1.5, 1.0], [-0.5, 0.0]], None),                # a negative entry
        ([[0.5, 1.0], [0.5 + 1e-9, 0.0]], None),          # a column sum 1 + 1e-9
        ([0.5, 0.5], None),                               # 1-D
        (None, [0.3]),                                    # one angle
        (None, [0.0, 0.7, 0.5]),                          # decreasing
        (None, [0.0, math.nan, 1.0]),                     # NaN angle
        (None, [0.0, 1.0, math.pi / 2 + 1e-9]),           # beyond pi/2
    ])
    def test_rejects_malformed_arrays(self, poly, grid):
        poly = general._exact_block_weights(1) if poly is None else np.array(poly)
        grid = np.linspace(0.0, 1.0, 5) if grid is None else np.array(grid)
        with pytest.raises(ValueError):
            general.GeneralInstance(2, 1, grid, poly)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(0, 4), st.integers(1, 5),
           st.integers(0, 2 ** 32 - 1), st.floats(0.0, math.pi / 2 - 0.01),
           st.floats(0.01, math.pi / 2), st.integers(2, 65))
    def test_solves_any_family_on_any_span(self, blocks, degree, m, seed, lo,
                                           width, points):
        # Dirichlet columns are distributions over the blocks, so poly is
        # column-stochastic
        rng = np.random.default_rng(seed)
        poly = rng.dirichlet(np.ones(blocks), size=degree + 1).T
        grid = np.linspace(lo, min(lo + width, math.pi / 2), points)
        inst = general.GeneralInstance(2, m, grid, poly)
        coeffs, value = general.solve_minimax(inst)
        assert coeffs.alpha.shape == (m + 1, blocks)
        assert float(np.max(general.error_profile(inst, coeffs))) <= value


def swap_test_weights(n):
    """Bernstein coefficients in x of the number j of passes of n
    independent swap tests, Binomial(n, (1 + x) / 2): row j, column k holds
    C(n, j) C(j, k) / (C(n, k) 2^(n-k)) for k <= j."""
    return np.array([[math.comb(n, j) * math.comb(j, k)
                      / (math.comb(n, k) * 2 ** (n - k)) if k <= j else 0.0
                      for k in range(n + 1)] for j in range(n + 1)])


class TestOtherFamilies:
    """Instances built directly from block weights and a grid: any
    column-stochastic family on any increasing grid inside [0, pi/2]."""

    FULL = np.linspace(0.0, math.pi / 2, 129)

    @pytest.mark.parametrize("n,m,per_outcome", [
        (1, 1, 0.3333), (2, 1, 0.2000), (4, 1, 0.1111), (4, 4, 0.3384)])
    def test_independent_swap_tests(self, n, m, per_outcome):
        # separate swap tests on n copy pairs (Buhrman, Cleve, Watrous &
        # de Wolf, PRL 87:167902, 2001) against the binomial target
        poly = swap_test_weights(n)
        gammas = np.array([0.0, 0.4, 1.1, math.pi / 2])
        passes = (1.0 + np.cos(gammas) ** 2) / 2
        direct = np.array([[math.comb(n, j) * p ** j * (1 - p) ** (n - j)
                            for j in range(n + 1)] for p in passes])
        table = general._angle_table(poly, m, gammas)
        assert np.max(np.abs(table.beta - direct)) < 1e-15
        coeffs, value = general.solve_minimax(
            general.GeneralInstance(2, m, self.FULL, poly))
        assert coeffs.alpha.shape == (m + 1, n + 1)
        assert value / 2 == pytest.approx(per_outcome, abs=1e-4)

    @pytest.mark.parametrize("n2", [1, 2, 3, 5])
    def test_one_copy_against_many(self, n2):
        # one copy of the first state and n2 of the second: the symmetric
        # block of C^2 (x) Sym^n2 has weight (1 + n2 x) / (n2 + 1)
        poly = np.array([[1 / (n2 + 1), 1.0], [n2 / (n2 + 1), 0.0]])
        _, value = general.solve_minimax(
            general.GeneralInstance(2, 1, self.FULL, poly))
        assert value / 2 == pytest.approx(1 / (n2 + 2), abs=1e-12)

    def test_overlap_promise_is_scanned_alone(self, monkeypatch):
        # a grid cut to x = cos^2 gamma >= 0.1: the scan and the polish stay
        # inside it, and the value falls from the 0.01953 per outcome of the
        # whole range at (8, 1)
        grid = np.linspace(0.0, math.acos(math.sqrt(0.1)), 129)
        evaluated = []
        basis = general._bernstein_basis

        def recording(deg, gammas):
            evaluated.append(np.array(gammas))
            return basis(deg, gammas)

        monkeypatch.setattr(general, "_bernstein_basis", recording)
        inst = general.GeneralInstance(2, 1, grid, general._exact_block_weights(8))
        coeffs, value = general.solve_minimax(inst)
        assert 2.7e-3 <= value / 2 <= 2.9e-3 and value / 2 < 0.01953
        angles = np.concatenate(evaluated)
        assert grid[0] <= angles.min() and angles.max() <= grid[-1]
        assert float(np.max(general.error_profile(inst, coeffs))) <= value

import math
import tracemalloc

import numpy as np
import pytest

from fidest import approx, qcore


class TestDeltaClosedForm:
    def test_optimal_point(self):
        t = approx.InvariantTest(sigma=2 / 3, alpha_coef=0.0)
        assert approx.delta_closed_form(t) == pytest.approx(1 / 3, abs=1e-15)

    def test_identity_test(self):
        t = approx.InvariantTest(sigma=1.0, alpha_coef=1.0)
        assert approx.delta_closed_form(t) == pytest.approx(1.0, abs=1e-15)

    def test_bare_symmetric_projector(self):
        t = approx.InvariantTest(sigma=1.0, alpha_coef=0.0)
        assert approx.delta_closed_form(t) == pytest.approx(0.5, abs=1e-15)
        assert approx.delta_numeric(t, 1001) == pytest.approx(0.5, abs=1e-6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="sigma"):
            approx.InvariantTest(sigma=1.2, alpha_coef=0.0)


class TestDeltaNumeric:
    def test_optimal_point(self):
        t = approx.InvariantTest(sigma=2 / 3, alpha_coef=0.0)
        assert approx.delta_numeric(t, 1000) == pytest.approx(1 / 3, abs=1e-6)

    def test_scalar_tests(self):
        for c in (0.2, 0.5, 0.9):
            t = approx.InvariantTest(sigma=c, alpha_coef=c)
            assert approx.delta_numeric(t, 1001) == pytest.approx(
                max(c, 1 - c), abs=1e-6)

    def test_zero_test(self):
        t = approx.InvariantTest(sigma=0.0, alpha_coef=0.0)
        assert approx.delta_numeric(t, 100) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_agrees_with_closed_form_on_grid(self, d):
        pts = np.linspace(0.0, 1.0, 21)
        for s in pts:
            for a in pts:
                t = approx.InvariantTest(sigma=float(s), alpha_coef=float(a), d=d)
                closed = approx.delta_closed_form(t)
                numeric = approx.delta_numeric(t, 1000, haar_pairs=5)
                assert abs(closed - numeric) < 1e-6

    def test_overlap_identity(self):
        # Tr((pi x tau) A) = alpha + (sigma - alpha)(1 + F)/2
        rng = np.random.default_rng(0)
        t = approx.InvariantTest(sigma=0.37, alpha_coef=0.12, d=3)
        a = t.to_operator()
        for _ in range(200):
            phi = qcore.haar_random_state(3, rng)
            theta = qcore.haar_random_state(3, rng)
            v = np.kron(phi, theta)
            achieved = float(np.real(v.conj() @ a @ v))
            f = abs(np.vdot(phi, theta)) ** 2
            expected = t.alpha_coef + (t.sigma - t.alpha_coef) * (1 + f) / 2
            assert abs(achieved - expected) < 1e-10

    def test_deviation_is_unitarily_invariant(self):
        t = approx.InvariantTest(sigma=2 / 3, alpha_coef=0.0)
        a = t.to_operator()
        rng = np.random.default_rng(5)
        phi = qcore.haar_random_state(2, rng)
        theta = qcore.haar_random_state(2, rng)

        def deviation(x, y):
            v = np.kron(x, y)
            return abs(float(np.real(v.conj() @ a @ v)) - abs(np.vdot(x, y)) ** 2)

        ref = deviation(phi, theta)
        for _ in range(100):
            u = qcore.haar_random_unitary(2, rng)
            assert abs(deviation(u @ phi, u @ theta) - ref) < 1e-10


class TestOptimizeInvariantTest:
    def test_exact_optimum(self):
        t, delta = approx.optimize_invariant_test()
        assert t.sigma == 2 / 3
        assert t.alpha_coef == 0.0
        assert delta == approx.delta_closed_form(t)

    def test_reaches_known_optimum(self):
        t, delta = approx.optimize_invariant_test()
        assert delta == pytest.approx(1 / 3, abs=1e-9)
        assert t.sigma == pytest.approx(2 / 3, abs=1e-6)
        assert t.alpha_coef == pytest.approx(0.0, abs=1e-6)

    def test_local_optimality(self):
        t, delta = approx.optimize_invariant_test()
        for ds in (-1e-3, 0.0, 1e-3):
            for da in (0.0, 1e-3):
                if ds == 0.0 and da == 0.0:
                    continue
                s = min(max(t.sigma + ds, 0.0), 1.0)
                a = min(max(t.alpha_coef + da, 0.0), 1.0)
                perturbed = approx.InvariantTest(sigma=s, alpha_coef=a)
                assert approx.delta_closed_form(perturbed) > delta

    def test_scalar_restriction_oracle(self):
        # restricted to multiples of the identity the best deviation is 1/2
        best = min(
            approx.delta_closed_form(approx.InvariantTest(sigma=c, alpha_coef=c))
            for c in np.linspace(0.0, 1.0, 100001)
        )
        assert best == pytest.approx(0.5, abs=1e-9)
        t = approx.InvariantTest(sigma=0.5, alpha_coef=0.5)
        assert approx.delta_closed_form(t) == pytest.approx(0.5, abs=1e-12)

    def test_global_optimality_sampling(self):
        _, delta = approx.optimize_invariant_test()
        rng = np.random.default_rng(21)
        samples = rng.uniform(size=(10 ** 4, 2))
        others = np.maximum(samples.sum(axis=1) / 2, 1.0 - samples[:, 0])
        assert np.all(delta <= others + 1e-6)


class TestPartialInfoCheck:
    def test_equal_and_orthogonal_values(self):
        report = approx.partial_info_check(10 ** 3, seed=0)
        assert report.all_agree
        assert report.max_identity_dev < 1e-10

    def test_known_values(self):
        from fidest import symmetry
        p_sym, _ = symmetry.sym_antisym_projectors(2)
        a = 2 / 3 * p_sym

        def val(phi, theta):
            v = np.kron(phi, theta)
            return float(np.real(v.conj() @ a @ v))

        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        assert val(e0, e0) == pytest.approx(2 / 3, abs=1e-12)
        assert val(e0, e1) == pytest.approx(1 / 3, abs=1e-12)
        assert val(e0, plus) == pytest.approx(0.5, abs=1e-12)  # threshold fixed point

    def test_memory_budget(self):
        # a (trials, d^2) complex temporary beyond the pairs and their image
        # under the test operator would push the peak past 40 MiB
        approx.partial_info_check(10, seed=0)
        tracemalloc.start()
        try:
            approx.partial_info_check(200_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2 ** 20

    def test_counts_are_consistent(self):
        report = approx.partial_info_check(500, seed=3)
        assert report.decided + report.undecided == report.trials
        assert report.agreements <= report.decided

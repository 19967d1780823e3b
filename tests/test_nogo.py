import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidest import nogo, qcore, symmetry
from fidest.cli import random_test_family


def random_pure_pair(d, rng):
    pi = qcore.pure_state_projector(qcore.haar_random_state(d, rng))
    tau = qcore.pure_state_projector(qcore.haar_random_state(d, rng))
    return pi, tau


def complex_matrices(rows, cols):
    """Complex rows x cols matrices with entries in the unit square."""
    return st.lists(st.floats(-1.0, 1.0), min_size=2 * rows * cols,
                    max_size=2 * rows * cols).map(
        lambda xs: (np.array(xs[::2]) + 1j * np.array(xs[1::2])).reshape(rows, cols))


def pure_projectors(d):
    return complex_matrices(d, 1).filter(
        lambda v: np.linalg.norm(v) > 1e-3).map(
        lambda v: qcore.pure_state_projector(v[:, 0] / np.linalg.norm(v)))


@st.composite
def vote_inputs(draw):
    """(rho, pi, tau, rule) with rho of any rank on C^d (x) C^d: rank 1 gives
    an entangled pure state in general, higher ranks a mixed one."""
    d = draw(st.sampled_from([2, 3]))
    rank = draw(st.integers(1, d * d))
    m = draw(complex_matrices(d * d, rank).filter(
        lambda m: np.linalg.norm(m) > 1e-3))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    rule = nogo.DecisionRule(*draw(st.lists(st.floats(0.0, 1.0),
                                            min_size=4, max_size=4)))
    return rho, draw(pure_projectors(d)), draw(pure_projectors(d)), rule


@st.composite
def effects(draw):
    """Random effects 0 <= T <= I on C^d (x) C^d, half of them dominating
    P_sym (every equal pair scores exactly 1)."""
    d = draw(st.sampled_from([2, 3, 4]))
    u, _ = np.linalg.qr(draw(complex_matrices(d * d, d * d)))
    spectrum = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d * d,
                                      max_size=d * d)))
    t = (u * spectrum) @ u.conj().T
    if draw(st.booleans()):
        p_sym, p_anti = symmetry.sym_antisym_projectors(d)
        t = p_sym + p_anti @ t @ p_anti
    return (t + t.conj().T) / 2


class TestDecisionRule:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="p10"):
            nogo.DecisionRule(1.0, 1.2, 0.0, 0.0)


class TestVoteProbability:
    def test_forced_rule_on_product_preparation(self):
        rng = np.random.default_rng(0)
        pi, tau = random_pure_pair(2, rng)
        fid = qcore.trace_fidelity(pi, tau)
        # preparing the crossed product makes both outcomes read the overlap
        got = nogo.vote_probability(np.kron(tau, pi), pi, tau, nogo.FORCED_RULE)
        assert got == pytest.approx(fid ** 2, abs=1e-12)
        # the aligned product scores 1 on pure inputs
        aligned = nogo.vote_probability(np.kron(pi, tau), pi, tau, nogo.FORCED_RULE)
        assert aligned == pytest.approx(1.0, abs=1e-12)

    def test_always_vote_one(self):
        rng = np.random.default_rng(1)
        pi, tau = random_pure_pair(2, rng)
        rho = qcore.pure_state_projector(qcore.haar_random_state(4, rng))
        rule = nogo.DecisionRule(1.0, 1.0, 1.0, 1.0)
        assert nogo.vote_probability(rho, pi, tau, rule) == pytest.approx(1.0, abs=1e-10)

    def test_never_vote_one(self):
        rng = np.random.default_rng(2)
        pi, tau = random_pure_pair(2, rng)
        rho = qcore.pure_state_projector(qcore.haar_random_state(4, rng))
        rule = nogo.DecisionRule(0.0, 0.0, 0.0, 0.0)
        assert nogo.vote_probability(rho, pi, tau, rule) == pytest.approx(0.0, abs=1e-10)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(vote_inputs())
    def test_grouped_form_identity_incl_entangled(self, inputs):
        rho, pi, tau, rule = inputs
        d = pi.shape[0]
        p11, p10, p01, p00 = rule.as_tuple()

        def expect(a, op):
            return float(np.real(np.trace(a @ op)))

        factors = rho.reshape(d, d, d, d)
        rho_first = np.einsum("ijkj->ik", factors)   # trace out the second
        rho_second = np.einsum("ijil->jl", factors)  # trace out the first
        grouped = ((p11 - p10 - p01 + p00) * expect(rho, np.kron(pi, tau))
                   + (p10 - p00) * expect(rho_first, pi)
                   + (p01 - p00) * expect(rho_second, tau)
                   + p00)
        got = nogo.vote_probability(rho, pi, tau, rule)
        assert abs(got - grouped) <= 1e-10

    def test_affine_in_each_coordinate(self):
        rng = np.random.default_rng(4)
        pi, tau = random_pure_pair(2, rng)
        rho = qcore.pure_state_projector(qcore.haar_random_state(4, rng))
        base = [0.5, 0.5, 0.5, 0.5]
        for coord in range(4):
            def at(x):
                vals = list(base)
                vals[coord] = x
                return nogo.vote_probability(rho, pi, tau, nogo.DecisionRule(*vals))
            slope_lo = (at(0.5) - at(0.1)) / 0.4
            slope_hi = (at(0.9) - at(0.5)) / 0.4
            assert slope_lo == pytest.approx(slope_hi, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            nogo.vote_probability(np.eye(4) / 4, np.eye(2) / 2, np.eye(3) / 3,
                                  nogo.FORCED_RULE)


class TestForcingCheck:
    def test_forced_rule_returns_none(self):
        assert nogo.forcing_check(nogo.FORCED_RULE, 100, 0) is None

    def test_near_forced_rule_returns_none(self):
        rule = nogo.DecisionRule(1.0 - 1e-12, 0.0, 0.0, 0.0)
        assert nogo.forcing_check(rule, 100, 0) is None

    @pytest.mark.parametrize("rule", [
        nogo.DecisionRule(1.0, 0.0, 0.0, 1.0),
        nogo.DecisionRule(1.0, 1.0, 0.0, 0.0),
        nogo.DecisionRule(0.7, 0.1, 0.2, 0.05),
    ])
    def test_finds_counterexample(self, rule):
        found = nogo.forcing_check(rule, 10 ** 4, 0)
        assert found is not None
        assert found.deviation > 1e-6
        recomputed = abs(nogo.vote_probability(found.rho, found.pi, found.tau, rule)
                         - qcore.trace_fidelity(found.pi, found.tau))
        assert recomputed == pytest.approx(found.deviation, abs=1e-12)

    def test_last_probe_needs_four_trials(self):
        # only the fourth probe, e1 (x) e0 prepared for (e0, e1), sees p00
        rule = nogo.DecisionRule(1.0, 0.0, 0.0, 0.5)
        with pytest.raises(RuntimeError, match="3 trials"):
            nogo.forcing_check(rule, 3, 0)
        found = nogo.forcing_check(rule, 4, 0)
        e0, e1 = np.eye(2)
        assert np.array_equal(found.rho, np.diag(np.kron(e1, e0)))
        assert np.array_equal(found.pi, np.diag(e0))
        assert np.array_equal(found.tau, np.diag(e1))
        assert found.deviation == 0.5

    def test_haar_search_after_probes(self):
        # every probe deviates by at most 1e-7 < 1e-6, so a Haar
        # preparation must find the counterexample
        rule = nogo.DecisionRule(1.0, 1e-7, 0.0, 0.0)
        found = nogo.forcing_check(rule, 50, 3)
        recomputed = abs(nogo.vote_probability(found.rho, found.pi, found.tau, rule)
                         - qcore.trace_fidelity(found.pi, found.tau))
        assert recomputed == pytest.approx(found.deviation, abs=1e-12)
        assert found.deviation == pytest.approx(0.4505, abs=1e-4)
        assert np.count_nonzero(np.abs(found.rho) > 1e-12) > 2  # not a probe

    def test_deterministic_given_seed(self):
        rule = nogo.DecisionRule(0.8, 0.05, 0.0, 0.1)
        a = nogo.forcing_check(rule, 500, 42)
        b = nogo.forcing_check(rule, 500, 42)
        assert np.array_equal(a.rho, b.rho)
        assert a.deviation == b.deviation


class TestTheoremOneCheck:
    def test_symmetric_projector(self):
        p_sym, _ = symmetry.sym_antisym_projectors(2)
        cert = nogo.theorem_one_check(p_sym)
        assert cert.kind == "orthogonal_pair_fails"
        assert cert.value == pytest.approx(0.5, abs=1e-12)
        assert cert.verify(p_sym)

    def test_identity(self):
        t = np.eye(4, dtype=complex)
        cert = nogo.theorem_one_check(t)
        assert cert.kind == "orthogonal_pair_fails"
        assert cert.value == pytest.approx(1.0, abs=1e-12)
        assert cert.verify(t)

    def test_zero(self):
        t = np.zeros((4, 4), dtype=complex)
        cert = nogo.theorem_one_check(t)
        assert cert.kind == "equal_pair_fails"
        assert cert.value == pytest.approx(0.0, abs=1e-12)
        assert cert.verify(t)

    def test_scaled_symmetric_projector_fails_equal_pairs(self):
        p_sym, _ = symmetry.sym_antisym_projectors(2)
        cert = nogo.theorem_one_check(2 / 3 * p_sym)
        assert cert.kind == "equal_pair_fails"
        assert cert.value == pytest.approx(2 / 3, abs=1e-6)
        assert cert.verify(2 / 3 * p_sym)

    @pytest.mark.parametrize("d", [2, 3])
    def test_constructed_families(self, d):
        for i, t in enumerate(random_test_family(20, d, seed=d)):
            cert = nogo.theorem_one_check(t, seed=i)
            assert cert.verify(t, tol=1e-9)
            if i % 2 == 0:
                assert cert.kind == "orthogonal_pair_fails"
                assert cert.value >= 0.5 - 1e-9
            else:
                assert cert.kind == "equal_pair_fails"
                assert cert.value < 1.0 - 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("eps", [1e-4, 1e-5, 2e-6, 5e-7, 1e-8])
    def test_kind_switches_at_tolerance(self, d, eps):
        p_sym, p_anti = symmetry.sym_antisym_projectors(d)
        t = (1 - eps) * p_sym + 0.3 * p_anti
        cert = nogo.theorem_one_check(t, seed=1)
        assert cert.verify(t)
        if eps > nogo.EQUAL_PAIR_TOL:
            assert cert.kind == "equal_pair_fails"
            assert cert.value == pytest.approx(1 - eps, abs=1e-12)
        else:
            assert cert.kind == "orthogonal_pair_fails"
            assert cert.value == pytest.approx((1 - eps + 0.3) / 2, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_local_dip_just_above_tolerance(self, d):
        eps = 2 * nogo.EQUAL_PAIR_TOL
        psi = qcore.haar_random_state(d, np.random.default_rng(d))
        v = np.kron(psi, psi)
        t = np.eye(d * d) - eps * np.outer(v, v.conj())
        cert = nogo.theorem_one_check(t, seed=d)
        assert cert.kind == "equal_pair_fails"
        assert cert.verify(t)
        assert 1 - eps <= cert.value < 1 - 1e-9

    def test_deficit_outside_symmetric_subspace(self):
        # ||(I - T) P_sym|| = 2e-6 exceeds the tolerance, but every equal pair
        # scores above 1 - 4e-12, so only the orthogonal pair can certify
        c = 2e-6
        e = np.eye(2)
        sym = (np.kron(e[0], e[1]) + np.kron(e[1], e[0])) / np.sqrt(2)
        anti = (np.kron(e[0], e[1]) - np.kron(e[1], e[0])) / np.sqrt(2)
        w = c * sym + np.sqrt(1 - c ** 2) * anti
        t = np.eye(4) - np.outer(w, w)
        p_sym, _ = symmetry.sym_antisym_projectors(2)
        assert np.linalg.norm((np.eye(4) - t) @ p_sym, 2) > nogo.EQUAL_PAIR_TOL
        cert = nogo.theorem_one_check(t)
        assert cert.kind == "orthogonal_pair_fails"
        assert cert.verify(t)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(effects(), st.integers(0, 2 ** 32 - 1))
    def test_random_effects_always_certified(self, t, seed):
        assert nogo.theorem_one_check(t, seed=seed).verify(t)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(effects())
    def test_equal_pair_gap_is_the_spectral_norm(self, t):
        d = int(np.sqrt(t.shape[0]))
        p_sym, _ = symmetry.sym_antisym_projectors(d)
        norm = np.linalg.norm(p_sym - p_sym @ t @ p_sym, 2)
        assert abs(nogo._equal_pair_gap(t, d) - norm) <= 1e-12
        kind = ("orthogonal_pair_fails" if norm <= nogo.EQUAL_PAIR_TOL
                else "equal_pair_fails")
        assert nogo.theorem_one_check(t).kind == kind

    def test_rejects_invalid_operator(self):
        with pytest.raises(ValueError, match="spectrum"):
            nogo.theorem_one_check(2.0 * np.eye(4))
        with pytest.raises(ValueError, match="Hermitian"):
            nogo.theorem_one_check(np.triu(np.ones((4, 4))))

    def test_certificate_json_shape(self):
        p_sym, _ = symmetry.sym_antisym_projectors(2)
        obj = nogo.certificate_to_json(nogo.theorem_one_check(p_sym))
        assert set(obj) == {"kind", "value", "bound_violated", "pi", "tau"}
        assert obj["pi"]["cols"] == 1

    def test_certificate_invariants(self):
        # equal-pair certificates return identical states; orthogonal-pair
        # certificates return an orthogonal pair with a positive score
        for i in range(10):
            t = random_test_family(1, 2, seed=100 + i)[0]
            cert = nogo.theorem_one_check(t, seed=i)
            if cert.kind == "equal_pair_fails":
                assert np.array_equal(cert.pi, cert.tau)
                assert cert.value < 1.0 - 1e-9
                assert cert.bound_violated == 1.0
            else:
                assert abs(np.vdot(cert.pi, cert.tau)) <= 1e-10
                assert cert.value > 1e-9
                assert cert.bound_violated == 0.0

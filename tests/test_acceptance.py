"""Acceptance suite: each test exercises one exit criterion at its stated
tolerance and prints one PASS/FAIL line (run with ``pytest -s`` to see the
lines as they appear)."""

import contextlib
import math
import time

import numpy as np

from fidest import approx, general, nogo, qcore, symmetry, witness
from fidest.cli import random_test_family

import oracle


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS - {desc}")


def test_01_optimal_universal_test():
    with criterion(1, "optimal universal test: delta_min = 1/3 at sigma = 2/3"):
        start = time.perf_counter()
        best, delta_min = approx.optimize_invariant_test()
        assert abs(delta_min - 1 / 3) <= 1e-9
        assert abs(best.sigma - 2 / 3) <= 1e-6
        assert abs(best.alpha_coef) <= 1e-6
        numeric = approx.delta_numeric(best, 1000)
        assert abs(numeric - 1 / 3) <= 1e-6
        assert time.perf_counter() - start < 1.0


def test_02_witness_negativity():
    with criterion(2, "estimator returns -1 on the maximally violating state"):
        psi = witness.build_entangled_state(0.0, 1 / math.sqrt(2),
                                            1 / math.sqrt(2), math.pi, 0.0)
        w = witness.construct_witness(qcore.matrix_unit_basis(2))
        out = witness.estimator_map(qcore.pure_state_projector(psi), w)
        assert abs(out.one_component - (-1.0)) <= 1e-12


def test_03_overlap_identity():
    with criterion(3, "Tr((pi x tau) P_sym) = (1 + Tr pi tau)/2 on Haar pairs"):
        for d in (2, 3, 4):
            p_sym, _ = symmetry.sym_antisym_projectors(d)
            phis = qcore.haar_random_states(d, 1000, 100 + d)
            thetas = qcore.haar_random_states(d, 1000, 200 + d)
            pairs = np.einsum("si,sj->sij", phis, thetas).reshape(1000, d * d)
            lhs = np.real(np.einsum("sa,ab,sb->s", pairs.conj(), p_sym, pairs))
            overlap = np.abs(np.einsum("si,si->s", phis.conj(), thetas)) ** 2
            assert float(np.max(np.abs(lhs - (1 + overlap) / 2))) <= 1e-10


def test_04_witness_structure():
    with criterion(4, "witness equals P_sym - P_anti for two operator bases"):
        for d in (2, 3):
            p_sym, p_anti = symmetry.sym_antisym_projectors(d)
            expected = p_sym - p_anti
            for basis in (qcore.matrix_unit_basis(d), oracle.gell_mann_basis(d)):
                w = witness.construct_witness(basis)
                assert float(np.max(np.abs(w - expected))) <= 1e-12


def test_05_theorem_one_suite():
    with criterion(5, "violation certificates for 100 + 100 constructed tests"):
        start = time.perf_counter()
        for d in (2, 3):
            # 50 tests per dimension that pass the equal-pair condition by
            # construction, interleaved with 50 generic tests that fail it
            family = random_test_family(100, d, seed=500 + d)
            for i, t in enumerate(family):
                cert = nogo.theorem_one_check(t, seed=1000 * d + i)
                assert cert.verify(t, tol=1e-9)
                if i % 2 == 0:
                    assert cert.kind == "orthogonal_pair_fails"
                    assert cert.value >= 0.5 - 1e-9
                else:
                    assert cert.kind == "equal_pair_fails"
        assert time.perf_counter() - start < 30.0


def test_06_decision_rule_forcing():
    with criterion(6, "every 0.1 deviation from the forced rule is refuted"):
        deviated = [
            nogo.DecisionRule(0.9, 0.0, 0.0, 0.0),
            nogo.DecisionRule(1.0, 0.1, 0.0, 0.0),
            nogo.DecisionRule(1.0, 0.0, 0.1, 0.0),
            nogo.DecisionRule(1.0, 0.0, 0.0, 0.1),
            nogo.DecisionRule(1.0, 0.1, 0.1, 0.0),
            nogo.DecisionRule(1.0, 0.1, 0.0, 0.1),
            nogo.DecisionRule(1.0, 0.0, 0.1, 0.1),
        ]
        for rule in deviated:
            found = nogo.forcing_check(rule, 10 ** 4, seed=0)
            assert found is not None
            assert found.deviation > 1e-3


def test_07_isotypic_decomposition():
    with criterion(7, "isotypic projector suite over the supported range"):
        start = time.perf_counter()
        for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
            dec = oracle.isotypic_projectors(d, n)
            emb = oracle.symmetric_embedding(d, n)
            dim = dec.space_dim
            for p in dec.projectors:
                assert float(np.max(np.abs(p @ p - p))) <= 1e-7
                assert float(np.max(np.abs(p - p.conj().T))) <= 1e-7
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    assert float(np.max(np.abs(
                        dec.projectors[i] @ dec.projectors[j]))) <= 1e-7
            assert float(np.max(np.abs(sum(dec.projectors) - np.eye(dim)))) <= 1e-7
            for s in range(100):
                u = qcore.haar_random_unitary(d, 7000 + 100 * n + 10 * d + s)
                e = oracle.embed_unitary(u, emb)
                k = np.kron(e, e)
                for p in dec.projectors:
                    assert float(np.max(np.abs(k @ p - p @ k))) <= 1e-7
        assert oracle.isotypic_projectors(2, 2).dims == (5, 3, 1)
        assert time.perf_counter() - start < 120.0


def test_08_twirl_equivalence():
    with criterion(8, "projection twirl matches Monte-Carlo Haar averaging"):
        rng = np.random.default_rng(808)
        samples = 10 ** 4
        for n in (1, 2):
            dec = oracle.isotypic_projectors(2, n)
            emb = oracle.symmetric_embedding(2, n)
            dim = emb.dim_plus ** 2
            rhos = np.stack([
                qcore.pure_state_projector(qcore.haar_random_states(dim, 1, rng)[0])
                for _ in range(10)
            ])
            acc = np.zeros_like(rhos)
            for _ in range(samples):
                u = qcore.haar_random_unitary(2, rng)
                e = oracle.embed_unitary(u, emb) if n > 1 else u
                k = np.kron(e, e)
                acc += np.einsum("ab,sbc,dc->sad", k, rhos, k.conj())
            acc /= samples
            for i in range(10):
                expected = oracle.twirl(rhos[i], dec)
                assert float(np.max(np.abs(acc[i] - expected))) <= 2e-2


def test_09_appendix_solver_consistency():
    with criterion(9, "minimax solver: (1,1) optimum 1/3, copy/sample bounds"):
        start = time.perf_counter()
        inst11 = general.make_instance(2, 1, 1, grid_points=129)
        _, v11 = general.solve_minimax(inst11, refine_tol=1e-6)
        assert abs(v11 / 2 - 1 / 3) <= 1e-3
        assert time.perf_counter() - start < 60.0

        start = time.perf_counter()
        inst21 = general.make_instance(2, 2, 1, grid_points=129)
        _, v21 = general.solve_minimax(inst21, refine_tol=1e-6)
        assert v21 / 2 <= 1 / 3 + 1e-6
        assert time.perf_counter() - start < 60.0

        start = time.perf_counter()
        inst12 = general.make_instance(2, 1, 2, grid_points=129)
        _, v12 = general.solve_minimax(inst12, refine_tol=1e-6)
        assert v12 / 2 >= 1 / 3 - 1e-6
        assert time.perf_counter() - start < 60.0
        print(f"  reported optima: (n=2,m=1) L1 = {v21:.6f}, "
              f"(n=1,m=2) L1 = {v12:.6f}")


def test_10_beta_polynomiality():
    with criterion(10, "block weights interpolate exactly at held-out angles"):
        for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
            inst = general.make_instance(d, n, 1, grid_points=9)
            poly = general.beta_polynomials(inst)
            xs = np.linspace(0.03, 0.97, 10)
            for x in xs:
                direct = oracle.beta_for_angle(oracle.isotypic_projectors(d, n),
                                               oracle.symmetric_embedding(d, n),
                                               math.acos(math.sqrt(x)))
                fitted = oracle.bernstein_basis(n, x) @ poly.T
                assert float(np.max(np.abs(direct - fitted))) <= 1e-8


def test_11_partial_information():
    with criterion(11, "halfway threshold of the optimal test is decisive"):
        report = approx.partial_info_check(10 ** 4, seed=11, d=2)
        assert report.decided > 0
        assert report.agreements == report.decided
        assert report.max_identity_dev <= 1e-10

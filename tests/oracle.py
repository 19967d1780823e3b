"""Reference implementation of the block weights on the d^n operator space.

The package computes every block weight from a closed form in
x = cos^2 gamma: its Bernstein coefficients, the squared Clebsch-Gordan
coefficients (general._exact_block_weights), for 1 <= n <= 32. The tests
check that closed form against this construction, which reaches n <= 4
only (MAX_COPIES): an orthonormal occupation-number basis of the symmetric
power H+^n inside H^(x)n, the isotypic projectors of the collective unitary
action on H+^n (x) H+^n, the twirling channel onto the invariant operators,
and the block weights and effects of a strategy built from those
projectors. Every object here has dimension d^n or more.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from fidest import general, qcore
from fidest.symmetry import weyl_block_dimension

# Range supported by the isotypic-block construction (desk scale).
MAX_COPIES = 4
MAX_LOCAL_DIM = 3


def check_supported(d: int, n: int) -> None:
    """Raise ValueError unless 2 <= d <= MAX_LOCAL_DIM and
    1 <= n <= MAX_COPIES."""
    if not (2 <= d <= MAX_LOCAL_DIM and 1 <= n <= MAX_COPIES):
        raise ValueError(
            f"unsupported range: require 2 <= d <= {MAX_LOCAL_DIM} "
            f"and 1 <= n <= {MAX_COPIES}, got d={d}, n={n}")


def bernstein_basis(n: int, x: float) -> np.ndarray:
    """C(n, k) x^k (1 - x)^(n-k) for k = 0..n, one scalar term at a time;
    block weights at x are this row times the transposed Bernstein
    coefficients."""
    return np.array([math.comb(n, k) * x ** k * (1.0 - x) ** (n - k)
                     for k in range(n + 1)])


def kron_power(a, n: int) -> np.ndarray:
    """n-fold Kronecker power of an operator or vector."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.asarray(a, dtype=complex)
    for _ in range(n - 1):
        out = np.kron(out, a)
    return out


def gell_mann_basis(d: int) -> list[np.ndarray]:
    """Hermitian trace-orthonormal operator basis (identity plus generalized
    Gell-Mann matrices, each normalized to unit Hilbert-Schmidt norm)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    out = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for upper, lower in ((1.0, 1.0), (-1.0j, 1.0j)):  # symmetric, antisymmetric
        for k in range(1, d):
            for j in range(k):
                m = np.zeros((d, d), dtype=complex)
                m[j, k], m[k, j] = upper, lower
                out.append(m / math.sqrt(2))
    for ell in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(ell), np.arange(ell)] = 1.0
        m[ell, ell] = -float(ell)
        out.append(m / math.sqrt(ell * (ell + 1)))
    return out


@dataclass(frozen=True)
class SymmetricEmbedding:
    """Orthonormal occupation-number basis of the symmetric power H+^n.

    ``basis`` has shape (d^n, dim_plus) with columns the basis vectors;
    ``occupations`` lists, per column, how many copies sit in each of the
    d single-system basis states.
    """
    d: int
    n: int
    dim_plus: int
    occupations: tuple[tuple[int, ...], ...]
    basis: np.ndarray

    def __post_init__(self):
        self.basis.setflags(write=False)


@lru_cache(maxsize=None)
def symmetric_embedding(d: int, n: int) -> SymmetricEmbedding:
    """Build the symmetric-subspace basis for n copies of a d-level system.

    Basis columns are ordered by the nondecreasing index word of each
    occupation pattern (all-zeros word first).
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    words = list(itertools.combinations_with_replacement(range(d), n))
    dim_plus = len(words)
    basis = np.zeros((d ** n, dim_plus), dtype=complex)
    occupations = []
    for col, word in enumerate(words):
        occupations.append(tuple(map(word.count, range(d))))
        perms = set(itertools.permutations(word))
        amp = 1.0 / math.sqrt(len(perms))
        for p in perms:
            basis[np.ravel_multi_index(p, (d,) * n), col] = amp
    return SymmetricEmbedding(d=d, n=n, dim_plus=dim_plus,
                              occupations=tuple(occupations), basis=basis)


def embed_state_power(s, emb: SymmetricEmbedding) -> np.ndarray:
    """Coordinates of |s>^(x)n in the occupation-number basis of H+^n,
    n = emb.n."""
    v = qcore.check_state(s)
    if v.size != emb.d:
        raise ValueError(
            f"state dimension {v.size} does not match embedding dimension {emb.d}")
    out = np.empty(emb.dim_plus, dtype=complex)
    for col, occ in enumerate(emb.occupations):
        mult = math.factorial(emb.n)
        for k in occ:
            mult //= math.factorial(k)
        out[col] = math.sqrt(mult) * np.prod(v ** np.array(occ))
    return out


def embed_unitary(u, emb: SymmetricEmbedding) -> np.ndarray:
    """Restriction of U^(x)n to the symmetric power, in the embedding basis."""
    a = qcore.as_operator(u)
    if a.shape[0] != emb.d:
        raise ValueError("unitary dimension does not match embedding")
    b = emb.basis
    return b.conj().T @ kron_power(a, emb.n) @ b


def collective_generators(emb: SymmetricEmbedding) -> np.ndarray:
    """One-body matrix units summed over the n copies, compressed to H+^n.

    Returns g with shape (d, d, dim_plus, dim_plus); g[a, b] is the
    collective transfer operator moving one copy from level b to level a:
    g[a, b]|occ> = sqrt(occ_b (occ_a + 1 - delta_ab)) |occ - e_b + e_a>.
    """
    d = emb.d
    column = {occ: col for col, occ in enumerate(emb.occupations)}
    out = np.zeros((d, d, emb.dim_plus, emb.dim_plus), dtype=complex)
    for col, occ in enumerate(emb.occupations):
        for a_idx, b_idx in itertools.product(range(d), repeat=2):
            if occ[b_idx] == 0:
                continue
            moved = list(occ)
            moved[b_idx] -= 1
            moved[a_idx] += 1
            out[a_idx, b_idx, column[tuple(moved)], col] = math.sqrt(
                occ[b_idx] * (occ[a_idx] + 1 - (a_idx == b_idx)))
    return out


@dataclass(frozen=True)
class IsotypicDecomposition:
    """Orthogonal projectors S_0..S_n onto the irreducible blocks of the
    collective unitary action on H+^n (x) H+^n, ordered by block label l."""
    d: int
    n: int
    projectors: tuple[np.ndarray, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        for p in self.projectors:
            p.setflags(write=False)

    @property
    def space_dim(self) -> int:
        return self.projectors[0].shape[0]


@lru_cache(maxsize=None)
def isotypic_projectors(d: int, n: int) -> IsotypicDecomposition:
    """The n+1 isotypic projectors on H+^n (x) H+^n, ordered by label l.

    X = sum_ab g_ab (x) g_ba is (C - C_1 - C_2) / 2 for the quadratic gl(d)
    Casimirs C of the product and C_1 = C_2 of the factors, so it acts on
    block l, highest weight (2n - l, l), as the integer (n - l)^2 - l. These
    values are distinct, so S_l is the Lagrange polynomial in X that is 1 on
    block l and 0 on every other block.
    """
    check_supported(d, n)
    gens = collective_generators(symmetric_embedding(d, n))
    x = sum(np.kron(gens[a_idx, b_idx], gens[b_idx, a_idx])
            for a_idx in range(d) for b_idx in range(d))
    eye = np.eye(x.shape[0], dtype=complex)
    values = [(n - l) ** 2 - l for l in range(n + 1)]
    projectors = []
    for value in values:
        p = eye
        for other in values:
            if other != value:
                p = p @ (x - other * eye) / (value - other)
        projectors.append(p)
    dims = tuple(weyl_block_dimension(d, n, l) for l in range(n + 1))
    return IsotypicDecomposition(d=d, n=n, projectors=tuple(projectors),
                                 dims=dims)


def twirl(rho, dec: IsotypicDecomposition) -> np.ndarray:
    """Average over the collective unitary action: the invariant operator
    sum_l Tr(rho S_l) S_l / Tr(S_l)."""
    a = qcore.as_operator(rho)
    if a.shape[0] != dec.space_dim:
        raise ValueError(f"operator dimension {a.shape[0]} != {dec.space_dim}")
    return sum(np.einsum("ij,ji->", a, p) / block_dim * p
               for p, block_dim in zip(dec.projectors, dec.dims))


def canonical_pair(d: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic state pair with squared overlap cos^2(gamma)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    e0, e1 = np.eye(d, dtype=complex)[:2]
    return e0, math.cos(gamma) * e0 + math.sin(gamma) * e1


def beta_for_angle(dec: IsotypicDecomposition,
                   emb: SymmetricEmbedding, gamma: float) -> np.ndarray:
    """Block weights of the canonical n-copy pair at angle gamma."""
    pi, tau = canonical_pair(dec.d, gamma)
    v = np.kron(embed_state_power(pi, emb), embed_state_power(tau, emb))
    return np.array([float(np.real(v.conj() @ p @ v)) for p in dec.projectors])


def effect_operators(inst: general.GeneralInstance,
                     coeffs: general.CoefficientMatrix) -> list[np.ndarray]:
    """The measurement effects F_k = sum_l alpha[k, l] S_l."""
    n = inst.poly.shape[1] - 1
    dec = isotypic_projectors(inst.d, n)
    return [sum(coeffs.alpha[k, l] * dec.projectors[l]
                for l in range(n + 1))
            for k in range(inst.m + 1)]


def first_sample_marginal(
        coeffs: general.CoefficientMatrix) -> general.CoefficientMatrix:
    """Strategy induced on the first sample alone: within outcome count k,
    the first sample reads 1 with probability k/m."""
    m = coeffs.alpha.shape[0] - 1
    if m < 2:
        raise ValueError("marginalization needs m >= 2")
    weights = np.arange(m + 1) / m
    one_row = weights @ coeffs.alpha
    return general.CoefficientMatrix(alpha=np.vstack([1.0 - one_row, one_row]))

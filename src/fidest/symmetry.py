"""Exchange symmetry machinery.

Covers the symmetric/antisymmetric projectors on H (x) H, an orthonormal
occupation-number basis of the symmetric power H+^n inside H^(x)n, the
isotypic projectors of the collective unitary action on H+^n (x) H+^n,
and the twirling channel that projects onto invariant operators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import qcore

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


def swap_operator(d: int) -> np.ndarray:
    """The operator exchanging the two tensor factors of H (x) H."""
    if d < 1:
        raise ValueError("d must be >= 1")
    # SWAP[(i, j), (k, l)] = delta_il delta_jk: the identity with k, l swapped
    eye = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    return eye.transpose(0, 1, 3, 2).reshape(d * d, d * d)


def sym_antisym_projectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (P_sym, P_anti) onto the symmetric and antisymmetric
    subspaces of H (x) H; P_sym = (I + SWAP)/2."""
    s = swap_operator(d)
    eye = np.eye(d * d, dtype=complex)
    return (eye + s) / 2, (eye - s) / 2


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
    return b.conj().T @ qcore.kron_power(a, emb.n) @ b


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


def weyl_block_dimension(d: int, n: int, l: int) -> int:
    """Dimension of the irreducible block with highest weight
    (2n - l, l, 0, ..., 0) for the d-level unitary group."""
    if not 0 <= l <= n:
        raise ValueError("l must lie in 0..n")
    lam = [2 * n - l, l] + [0] * (d - 2)
    dim = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert dim.denominator == 1
    return int(dim)


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

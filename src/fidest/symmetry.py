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

_CLUSTER_GAP = 1e-6
_MAX_ATTEMPTS = 3


def swap_operator(d: int) -> np.ndarray:
    """The operator exchanging the two tensor factors of H (x) H."""
    if d < 1:
        raise ValueError("d must be >= 1")
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


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


def _occupation_of(word: tuple[int, ...], d: int) -> tuple[int, ...]:
    occ = [0] * d
    for x in word:
        occ[x] += 1
    return tuple(occ)


@lru_cache(maxsize=None)
def symmetric_embedding(d: int, n: int) -> SymmetricEmbedding:
    """Build the symmetric-subspace basis for n copies of a d-level system.

    Basis columns are ordered by the nondecreasing index word of each
    occupation pattern (all-zeros word first), which keeps file I/O
    deterministic.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    words = list(itertools.combinations_with_replacement(range(d), n))
    dim_plus = math.comb(n + d - 1, d - 1)
    assert len(words) == dim_plus
    basis = np.zeros((d ** n, dim_plus), dtype=complex)
    occupations = []
    for col, word in enumerate(words):
        occupations.append(_occupation_of(word, d))
        perms = set(itertools.permutations(word))
        amp = 1.0 / math.sqrt(len(perms))
        for p in perms:
            idx = 0
            for x in p:
                idx = idx * d + x
            basis[idx, col] = amp
    return SymmetricEmbedding(d=d, n=n, dim_plus=dim_plus,
                              occupations=tuple(occupations), basis=basis)


def embed_state_power(s, n: int, emb: SymmetricEmbedding) -> np.ndarray:
    """Coordinates of |s>^(x)n in the occupation-number basis of H+^n."""
    v = qcore.check_state(s)
    if v.size != emb.d or n != emb.n:
        raise ValueError(
            f"state/copies ({v.size}, {n}) do not match embedding "
            f"({emb.d}, {emb.n})")
    out = np.empty(emb.dim_plus, dtype=complex)
    for col, occ in enumerate(emb.occupations):
        mult = math.factorial(n)
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
    collective transfer operator moving one copy from level b to level a.
    """
    d, n = emb.d, emb.n
    b = emb.basis
    out = np.empty((d, d, emb.dim_plus, emb.dim_plus), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for a_idx in range(d):
        for b_idx in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[a_idx, b_idx] = 1.0
            total = np.zeros((d ** n, d ** n), dtype=complex)
            for t in range(n):
                factors = [eye] * n
                factors[t] = unit
                term = factors[0]
                for f in factors[1:]:
                    term = np.kron(term, f)
                total += term
            out[a_idx, b_idx] = b.conj().T @ total @ b
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


def _cluster_sorted(values: np.ndarray, gap: float) -> list[np.ndarray]:
    """Split sorted eigenvalues into clusters at gaps larger than ``gap``."""
    splits = np.nonzero(np.diff(values) > gap)[0] + 1
    return np.split(np.arange(values.size), splits)


def _build_isotypic(d: int, n: int) -> IsotypicDecomposition:
    emb = symmetric_embedding(d, n)
    dim = emb.dim_plus
    exchange = swap_operator(dim)
    gens = collective_generators(emb)
    casimir = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a_idx in range(d):
        for b_idx in range(d):
            casimir += np.kron(gens[a_idx, b_idx], gens[b_idx, a_idx])
    casimir = (casimir + casimir.conj().T) / 2

    # Block labels follow the highest-weight ordering (2n-l, l, 0, ...):
    # match clusters to l by dimension (Weyl dimension formula) with the
    # d=3, n=2 dimension tie broken by exchange parity (-1)^l.
    expected = {}
    for l in range(n + 1):
        key = (weyl_block_dimension(d, n, l), (-1) ** l)
        if key in expected:
            raise RuntimeError(f"ambiguous block labels for d={d}, n={n}")
        expected[key] = l

    last_error = "no attempt made"
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(90210 + attempt)
        c = rng.uniform(0.5, 1.5, size=2)
        generic = c[0] * math.sqrt(2) * exchange + c[1] * math.sqrt(3) * casimir
        vals, vecs = qcore.hermitian_eigensystem(generic)
        clusters = _cluster_sorted(vals, _CLUSTER_GAP)
        if len(clusters) != n + 1:
            last_error = f"found {len(clusters)} eigenvalue clusters, expected {n + 1}"
            continue
        projectors: list = [None] * (n + 1)
        dims = [0] * (n + 1)
        ok = True
        for idx in clusters:
            v = vecs[:, idx]
            p = v @ v.conj().T
            p = (p + p.conj().T) / 2
            block_dim = len(idx)
            parity_val = float(np.real(np.einsum("ij,ji->", exchange, p))) / block_dim
            parity = int(round(parity_val))
            if abs(parity_val - parity) > 1e-6 or parity not in (-1, 1):
                ok = False
                last_error = f"mixed exchange parity {parity_val!r} in a cluster"
                break
            l = expected.get((block_dim, parity))
            if l is None or projectors[l] is not None:
                ok = False
                last_error = f"cluster (dim={block_dim}, parity={parity}) has no unique label"
                break
            projectors[l] = p
            dims[l] = block_dim
        if not ok:
            continue
        total = sum(projectors)
        if float(np.max(np.abs(total - np.eye(dim * dim)))) > 1e-8:
            last_error = "projectors do not sum to the identity"
            continue
        return IsotypicDecomposition(d=d, n=n, projectors=tuple(projectors),
                                     dims=tuple(dims))
    raise RuntimeError(
        f"isotypic block construction failed for d={d}, n={n}: {last_error}")


@lru_cache(maxsize=None)
def isotypic_projectors(d: int, n: int) -> IsotypicDecomposition:
    """The n+1 isotypic projectors on H+^n (x) H+^n, ordered by label l."""
    if d < 2:
        raise ValueError("d must be >= 2 (the d=1 decomposition is trivial)")
    if n < 1:
        raise ValueError("n must be >= 1")
    if d > MAX_LOCAL_DIM or n > MAX_COPIES:
        raise ValueError(
            f"unsupported range: require d <= {MAX_LOCAL_DIM} and n <= {MAX_COPIES}, "
            f"got d={d}, n={n}")
    return _build_isotypic(d, n)


def twirl(rho, dec: IsotypicDecomposition) -> np.ndarray:
    """Average over the collective unitary action: the invariant operator
    sum_l Tr(rho S_l) S_l / Tr(S_l)."""
    a = qcore.as_operator(rho)
    dim = dec.space_dim
    if a.shape[0] != dim:
        raise ValueError(f"operator dimension {a.shape[0]} != {dim}")
    out = np.zeros_like(a)
    for p, block_dim in zip(dec.projectors, dec.dims):
        weight = np.einsum("ij,ji->", a, p) / block_dim
        out += weight * p
    return out


def beta_coefficients(rho, dec: IsotypicDecomposition) -> np.ndarray:
    """Block weights beta_l = Tr(rho S_l) of a state on H+^n (x) H+^n."""
    a = qcore.as_operator(rho)
    if a.shape[0] != dec.space_dim:
        raise ValueError(f"operator dimension {a.shape[0]} != {dec.space_dim}")
    return np.array([float(np.real(np.einsum("ij,ji->", a, p)))
                     for p in dec.projectors])


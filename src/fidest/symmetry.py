"""Exchange symmetry on H (x) H and the block dimensions of the doubled
symmetric power.

Covers the swap operator, the symmetric/antisymmetric projectors built from
it, and the Weyl dimension of each irreducible block of the collective
unitary action on H+^n (x) H+^n, which the general report lists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np


def swap_operator(d: int) -> np.ndarray:
    """The operator exchanging the two tensor factors of H (x) H."""
    if d < 1:
        raise ValueError("d must be >= 1")
    # SWAP[(i, j), (k, l)] = delta_il delta_jk: the identity with k, l swapped
    eye = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    return eye.transpose(0, 1, 3, 2).reshape(d * d, d * d)


@lru_cache(maxsize=None)
def sym_antisym_projectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (P_sym, P_anti) onto the symmetric and antisymmetric
    subspaces of H (x) H; P_sym = (I + SWAP)/2. Cached per d and read-only."""
    s = swap_operator(d)
    eye = np.eye(d * d, dtype=complex)
    projectors = (eye + s) / 2, (eye - s) / 2
    for p in projectors:
        p.setflags(write=False)
    return projectors


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

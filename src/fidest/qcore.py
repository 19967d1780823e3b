"""Dense complex linear algebra and quantum-state primitives.

Conventions used throughout the package: pure states are 1-D complex
vectors, operators are square 2-D complex arrays, everything is dense
float64. Random sampling is always parameterized by an explicit seed;
there is no global RNG state.
"""

from __future__ import annotations

import json
import math

import numpy as np

ATOL_HERMITIAN = 1e-10
ATOL_NORM = 1e-12
ATOL_EIGENVALUE = 1e-10
ATOL_DIST_SUM = 1e-10
ATOL_DIST_ENTRY = 1e-12


def as_state(v) -> np.ndarray:
    """Coerce to a 1-D complex vector."""
    a = np.asarray(v, dtype=complex)
    if a.ndim == 2 and 1 in a.shape:
        a = a.ravel()
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"expected a state vector, got shape {np.shape(v)}")
    return a


def as_operator(m) -> np.ndarray:
    """Coerce to a square 2-D complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square operator, got shape {np.shape(m)}")
    return a


def is_hermitian(m) -> bool:
    a = as_operator(m)
    return float(np.max(np.abs(a - a.conj().T))) <= ATOL_HERMITIAN


def check_state(v, tol: float = ATOL_NORM) -> np.ndarray:
    """Validate unit norm; raises ValueError on non-normalized input,
    including a non-finite norm."""
    a = as_state(v)
    norm = float(np.linalg.norm(a))
    if not (math.isfinite(norm) and abs(norm - 1.0) <= tol):
        raise ValueError(f"state is not normalized: ||v|| = {norm!r}")
    return a


def check_effect(t) -> np.ndarray:
    """Validate a test operator: Hermitian with spectrum inside [0, 1]."""
    a = as_operator(t)
    if not is_hermitian(a):
        raise ValueError("test operator is not Hermitian")
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if (float(w.min()) < -ATOL_EIGENVALUE
            or float(w.max()) > 1.0 + ATOL_EIGENVALUE):
        raise ValueError(
            f"test operator spectrum [{w.min()!r}, {w.max()!r}] not inside [0, 1]")
    return a


def check_outcome_distribution(p) -> np.ndarray:
    """Validate a probability vector (entries in [0,1], summing to 1), or a
    2-D stack of them, one per row; NaN entries are out of range."""
    a = np.asarray(p, dtype=float)
    if a.ndim not in (1, 2) or a.size == 0:
        raise ValueError("expected a 1-D probability vector or a 2-D stack")
    if not (a.min() >= -ATOL_DIST_ENTRY and a.max() <= 1.0 + ATOL_DIST_ENTRY):
        raise ValueError(f"probabilities out of range: {a!r}")
    sums = np.atleast_1d(a.sum(axis=-1))
    s = float(sums[np.argmax(np.abs(sums - 1.0))])
    if abs(s - 1.0) > ATOL_DIST_SUM:
        raise ValueError(f"probabilities sum to {s!r}, expected 1")
    return a


def pure_state_projector(s) -> np.ndarray:
    """Rank-1 projector |s><s| of a normalized state."""
    v = check_state(s)
    return np.outer(v, v.conj())


def trace_fidelity(p, t) -> float:
    """Tr(p t); equals the squared overlap for rank-1 projectors.

    Averaged over both trace orders so the result is bit-identical under
    argument swap.
    """
    a = as_operator(p)
    b = as_operator(t)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    x = np.einsum("ij,ji->", a, b)
    y = np.einsum("ij,ji->", b, a)
    return float(((x + y) / 2).real)


def kron_power(a, n: int) -> np.ndarray:
    """n-fold Kronecker power of an operator or vector."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.asarray(a, dtype=complex)
    for _ in range(n - 1):
        out = np.kron(out, a)
    return out


def haar_random_state(dim: int, seed) -> np.ndarray:
    """Uniformly random unit vector; deterministic per seed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_random_states(dim: int, count: int, seed) -> np.ndarray:
    """Batch of uniformly random unit vectors, shape (count, dim)."""
    if dim < 1 or count < 1:
        raise ValueError("dim and count must be >= 1")
    rng = np.random.default_rng(seed)
    v = np.empty((count, dim), dtype=complex)
    v.real = rng.normal(size=(count, dim))
    v.imag = rng.normal(size=(count, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def haar_random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a Gaussian matrix with phase fix."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def matrix_unit_basis(d: int) -> list[np.ndarray]:
    """The d^2 matrix units E_ij, orthonormal under the trace inner product,
    in row-major order of (i, j)."""
    return list(np.eye(d * d, dtype=complex).reshape(d * d, d, d))


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


def matrix_to_json(m) -> dict:
    """Serialize an operator or state to the shared JSON wire format.

    1-D input is stored as a single column (cols = 1).
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a vector or matrix, got shape {np.shape(m)}")
    entries = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    """Parse the JSON wire format: JSON integers rows, cols >= 1 and a list
    of rows * cols [re, im] pairs of finite JSON numbers. Anything else
    raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    missing = [key for key in ("rows", "cols", "entries") if key not in obj]
    if missing:
        raise ValueError(f"malformed matrix JSON: missing {missing}")
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    for key, value in (("rows", rows), ("cols", cols)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"matrix {key} = {value!r} is not a positive integer")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError(
            f"entries must be a list of rows * cols = {rows * cols} pairs")
    flat = np.empty(rows * cols, dtype=complex)
    for idx, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, (int, float))
                        and not isinstance(x, bool) for x in pair)):
            raise ValueError(f"entry {idx} is not a [re, im] pair of numbers")
        try:
            z = complex(float(pair[0]), float(pair[1]))
        except OverflowError:  # an integer beyond the float range
            z = complex(math.inf)
        if not np.isfinite(z):
            raise ValueError(f"entry {idx} is not finite")
        flat[idx] = z
    return flat.reshape(rows, cols)


def save_matrix(path, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(m), fh)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))

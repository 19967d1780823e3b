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

ATOL_HERMITIAN = 1e-12
ATOL_NORM = 1e-12
ATOL_TRACE = 1e-12
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


def is_hermitian(m, tol: float = ATOL_HERMITIAN) -> bool:
    a = as_operator(m)
    return float(np.max(np.abs(a - a.conj().T))) <= tol


def check_state(v, tol: float = ATOL_NORM) -> np.ndarray:
    """Validate unit norm; raises ValueError on non-normalized input."""
    a = as_state(v)
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state is not normalized: ||v|| = {norm!r}")
    return a


def check_density_operator(rho, tol_herm: float = ATOL_HERMITIAN,
                           tol_eig: float = ATOL_EIGENVALUE,
                           tol_trace: float = ATOL_TRACE) -> np.ndarray:
    """Validate Hermiticity, positivity and unit trace of a density operator."""
    a = as_operator(rho)
    if not is_hermitian(a, tol_herm):
        raise ValueError("density operator is not Hermitian")
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > tol_trace:
        raise ValueError(f"density operator has trace {tr!r}, expected 1")
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if float(w.min()) < -tol_eig:
        raise ValueError(f"density operator has negative eigenvalue {w.min()!r}")
    return a


def check_effect(t, tol: float = ATOL_EIGENVALUE) -> np.ndarray:
    """Validate a test operator: Hermitian with spectrum inside [0, 1]."""
    a = as_operator(t)
    if not is_hermitian(a, 1e-10):
        raise ValueError("test operator is not Hermitian")
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if float(w.min()) < -tol or float(w.max()) > 1.0 + tol:
        raise ValueError(
            f"test operator spectrum [{w.min()!r}, {w.max()!r}] not inside [0, 1]")
    return a


def check_outcome_distribution(p, tol_sum: float = ATOL_DIST_SUM,
                               tol_entry: float = ATOL_DIST_ENTRY) -> np.ndarray:
    """Validate a probability vector (entries in [0,1], summing to 1), or a
    2-D stack of them, one per row."""
    a = np.asarray(p, dtype=float)
    if a.ndim not in (1, 2) or a.size == 0:
        raise ValueError("expected a 1-D probability vector or a 2-D stack")
    if float(a.min()) < -tol_entry or float(a.max()) > 1.0 + tol_entry:
        raise ValueError(f"probabilities out of range: {a!r}")
    sums = np.atleast_1d(a.sum(axis=-1))
    s = float(sums[np.argmax(np.abs(sums - 1.0))])
    if abs(s - 1.0) > tol_sum:
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


def tensor(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_power(a, n: int) -> np.ndarray:
    """n-fold Kronecker power of an operator or vector."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.asarray(a, dtype=complex)
    for _ in range(n - 1):
        out = np.kron(out, a)
    return out


def partial_trace(m, subsystem_dims, keep: int) -> np.ndarray:
    """Trace out all tensor factors except ``keep`` (0-based).

    ``subsystem_dims`` lists the factor dimensions whose product must equal
    the matrix dimension.
    """
    a = as_operator(m)
    dims = [int(x) for x in subsystem_dims]
    if any(x < 1 for x in dims):
        raise ValueError("subsystem dimensions must be positive")
    if math.prod(dims) != a.shape[0]:
        raise ValueError(
            f"subsystem dimensions {dims} do not multiply to {a.shape[0]}")
    k = len(dims)
    if not 0 <= keep < k:
        raise ValueError(f"keep index {keep} out of range for {k} factors")
    t = a.reshape(dims + dims)
    letters = "abcdefghijkl"
    row = list(letters[:k])
    col = list(letters[:k])
    col[keep] = letters[k]
    spec = "".join(row) + "".join(col) + "->" + row[keep] + col[keep]
    return np.einsum(spec, t)


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
    v = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def haar_random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a Gaussian matrix with phase fix."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def hermitian_eigensystem(m, tol: float = 1e-10):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian operator."""
    a = as_operator(m)
    if not is_hermitian(a, tol):
        raise ValueError("operator is not Hermitian")
    return np.linalg.eigh((a + a.conj().T) / 2)


def matrix_unit_basis(d: int) -> list[np.ndarray]:
    """The d^2 matrix units E_ij, orthonormal under the trace inner product."""
    out = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            out.append(e)
    return out


def gell_mann_basis(d: int) -> list[np.ndarray]:
    """Hermitian trace-orthonormal operator basis (identity plus generalized
    Gell-Mann matrices, each normalized to unit Hilbert-Schmidt norm)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    out = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            out.append(m / math.sqrt(2))
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
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
    """Parse the JSON wire format; rejects NaN/Inf entries."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if len(entries) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries, got {len(entries)}")
    flat = np.empty(rows * cols, dtype=complex)
    for idx, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"entry {idx} is not a [re, im] pair")
        re, im = float(pair[0]), float(pair[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"entry {idx} is not finite")
        flat[idx] = complex(re, im)
    return flat.reshape(rows, cols)


def state_from_json(obj) -> np.ndarray:
    """Parse a state (single-column matrix JSON) into a 1-D vector."""
    a = matrix_from_json(obj)
    if a.shape[1] != 1:
        raise ValueError(f"state JSON must have cols = 1, got {a.shape[1]}")
    return a.ravel()


def save_matrix(path, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(m), fh)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))

"""Linear extension of the two-state fidelity estimator and its witness.

The map sending a product state pi (x) tau to the pair
(Tr(pi tau), 1 - Tr(pi tau)) extends uniquely to a trace-preserving linear
map on operators of H (x) H. The extension stays positive on separable
states but turns negative on suitable entangled ones; the operator W whose
expectation produces the first component is an entanglement witness.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import qcore


class EstimatorOutput(NamedTuple):
    """Components of the linearly extended estimator; they sum to 1 but the
    first may be negative on entangled inputs."""
    one_component: float
    zero_component: float


def construct_witness(basis) -> np.ndarray:
    """Witness W = sum_s X_s^dagger (x) X_s for a trace-orthonormal operator
    basis X_1..X_{d^2}; independent of the basis chosen."""
    mats = [qcore.as_operator(x) for x in basis]
    d = mats[0].shape[0]
    if len(mats) != d * d or any(m.shape != (d, d) for m in mats):
        raise ValueError(f"expected {d * d} operators of shape ({d}, {d})")
    stack = np.array(mats)
    flat = stack.reshape(d * d, d * d)  # row s is X_s, flattened
    gram = flat.conj() @ flat.T  # gram[s, t] = Tr(X_s^dagger X_t)
    if not float(np.max(np.abs(gram - np.eye(d * d)))) <= 1e-10:
        raise ValueError("operator basis is not orthonormal under the trace inner product")
    # W[(i, k), (j, l)] = sum_s conj(X_s[j, i]) X_s[k, l], contracted over s
    w = np.tensordot(stack.conj(), stack, axes=(0, 0))  # axes (j, i, k, l)
    return w.transpose(1, 2, 0, 3).reshape(d * d, d * d)


def estimator_map(rho, w) -> EstimatorOutput:
    """Apply the extended estimator to a state on H (x) H.

    one_component = Tr(rho W); on product states pi (x) tau this equals
    Tr(pi tau).
    """
    a = qcore.as_operator(rho)
    ww = qcore.as_operator(w)
    if a.shape != ww.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {ww.shape}")
    one = float(np.real(np.einsum("ij,ji->", a, ww)))
    return EstimatorOutput(one_component=one, zero_component=1.0 - one)


def build_entangled_state(p: float, alpha: float, beta: float,
                          gamma: float, delta: float) -> np.ndarray:
    """Two-qubit state alpha|e0 f0> + beta|e1 f1> with a prescribed overlap
    pattern between the frames {e} and {f}.

    The frames satisfy |<e0|f0>|^2 = |<e1|f1>|^2 = p,
    <e0|f1> = exp(i gamma) sqrt(1-p) and <e1|f0> = exp(i delta) sqrt(1-p);
    the remaining phase is fixed by orthonormality of {f0, f1}.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be nonnegative")
    if abs(alpha * alpha + beta * beta - 1.0) > 1e-9:
        raise ValueError(
            f"alpha^2 + beta^2 = {alpha * alpha + beta * beta!r}, expected 1")
    q = 1.0 - p
    sp, sq = math.sqrt(p), math.sqrt(q)
    e0, e1 = np.eye(2, dtype=complex)
    f0 = sp * e0 + np.exp(1j * delta) * sq * e1
    # <f0|f1> = 0 forces the e1 amplitude of f1 up to the stated overlaps.
    f1 = np.exp(1j * gamma) * sq * e0 - np.exp(1j * (gamma + delta)) * sp * e1
    psi = alpha * np.kron(e0, f0) + beta * np.kron(e1, f1)
    return qcore.check_state(psi, tol=1e-9)

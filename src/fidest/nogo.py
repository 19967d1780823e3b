"""Impossibility of exact symmetric fidelity sampling.

Two constructive tools: the decision-rule expansion for the four-outcome
product measurement (pi, 1-pi) (x) (tau, 1-tau), whose polynomial structure
forces the trivial rule, and a certificate generator showing that no test
operator reproduces the equality predicate on state pairs (value 1 on equal
pairs, 0 on orthogonal pairs). Both are exact constructions with no random
draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import qcore, symmetry

FORCED_RULE_TOL = 1e-9
EQUAL_PAIR_TOL = 1e-6
_SEARCH_DEVIATION = 1e-6


@dataclass(frozen=True)
class DecisionRule:
    """Vote-for-1 probabilities per outcome of the product measurement."""
    p11: float
    p10: float
    p01: float
    p00: float

    def __post_init__(self):
        for name in ("p11", "p10", "p01", "p00"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v!r} outside [0, 1]")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p11, self.p10, self.p01, self.p00)


FORCED_RULE = DecisionRule(1.0, 0.0, 0.0, 0.0)


class ForcingCounterexample(NamedTuple):
    rho: np.ndarray
    pi: np.ndarray
    tau: np.ndarray
    deviation: float


@dataclass(frozen=True)
class ViolationCertificate:
    """Witness pair showing a test operator misses one of the two equality
    requirements; ``value`` is the achieved Tr((pi (x) tau) T)."""
    kind: str  # "equal_pair_fails" or "orthogonal_pair_fails"
    pi: np.ndarray
    tau: np.ndarray
    value: float
    bound_violated: float

    def verify(self, t, tol: float = 1e-9) -> bool:
        """Recompute the claimed value and the pair relation from scratch."""
        a = qcore.as_operator(t)
        v = np.outer(self.pi, self.tau).ravel()
        value = float(np.real(v.conj() @ a @ v))
        if abs(value - self.value) > tol:
            return False
        overlap = abs(np.vdot(self.pi, self.tau))
        if self.kind == "equal_pair_fails":
            return (float(np.max(np.abs(self.pi - self.tau))) == 0.0
                    and value < 1.0 - 1e-9)
        if self.kind == "orthogonal_pair_fails":
            return overlap <= 1e-10 and value > 1e-9
        return False


def vote_probability(rho, pi, tau, rule: DecisionRule) -> float:
    """Probability of voting 1: the four-term expansion over the product
    measurement outcomes."""
    r = qcore.as_operator(rho)
    p = qcore.as_operator(pi)
    t = qcore.as_operator(tau)
    d = p.shape[0]
    if t.shape[0] != d or r.shape[0] != d * d:
        raise ValueError(
            f"dimension mismatch: rho {r.shape[0]}, pi {d}, tau {t.shape[0]}")
    eye = np.eye(d, dtype=complex)
    p11, p10, p01, p00 = rule.as_tuple()

    def expect(op):
        return float(np.real(np.einsum("ij,ji->", r, op)))

    return (p11 * expect(_kron(p, t))
            + p10 * expect(_kron(p, eye - t))
            + p01 * expect(_kron(eye - p, t))
            + p00 * expect(_kron(eye - p, eye - t)))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2-D arrays, bit for bit, without its generic
    reshaping overhead (about 5x faster on 2x2 operators)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _probe_pairs(d: int):
    """Deterministic (sigma1, sigma2, pi, tau) probes. The first four read
    one coordinate of the decision rule each; the fifth reads their mean."""
    e0, e1 = np.eye(d, dtype=complex)[:2]
    plus = (e0 + e1) / math.sqrt(2)
    return [
        (e0, e0, e0, e0),  # equal pair: vote probability is p11
        (e0, e0, e0, e1),  # orthogonal pair activating p10
        (e1, e1, e0, e1),  # orthogonal pair activating p01
        (e1, e0, e0, e1),  # orthogonal pair activating p00
        (e0, e0, plus, plus),  # equal pair: every outcome has weight 1/4
    ]


def forcing_check(rule: DecisionRule, trials: int, seed,
                  d: int = 2) -> Optional[ForcingCounterexample]:
    """The first probe input on which the rule misses the overlap
    distribution by more than ``_SEARCH_DEVIATION``, or None when the rule
    already is (1, 0, 0, 0); that return says nothing about exact sampling
    being achievable (it is not, as ``theorem_one_check`` certifies).

    Probe i < 4 deviates by exactly |p_i - forced_i|, so a rule that passes
    all four lies within ``_SEARCH_DEVIATION`` of the forced rule in every
    coordinate. The fifth then deviates by 1 - mean(p) >= 3/4 - 3e-6, so
    every other rule gets a counterexample without a random draw.
    ``trials`` and ``seed`` are accepted and ignored.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    forced = np.array(FORCED_RULE.as_tuple())
    if float(np.max(np.abs(np.array(rule.as_tuple()) - forced))) <= FORCED_RULE_TOL:
        return None
    for s1, s2, pv, tv in _probe_pairs(d):
        rho = _kron(qcore.pure_state_projector(s1),
                    qcore.pure_state_projector(s2))
        pi = qcore.pure_state_projector(pv)
        tau = qcore.pure_state_projector(tv)
        dev = abs(vote_probability(rho, pi, tau, rule)
                  - qcore.trace_fidelity(pi, tau))
        if dev > _SEARCH_DEVIATION:
            return ForcingCounterexample(rho=rho, pi=pi, tau=tau, deviation=dev)


def _equal_pair_gap(a: np.ndarray, d: int) -> tuple[float, np.ndarray]:
    """Top eigenpair (g, psi) of C = P_sym (I - T) P_sym, symmetrised as
    check_effect does. C >= 0, so g = ||C||."""
    p_sym, _ = symmetry.sym_antisym_projectors(d)
    c = p_sym - p_sym @ a @ p_sym
    w, v = np.linalg.eigh((c + c.conj().T) / 2)
    return float(w[-1]), v[:, -1]


def theorem_one_check(t, seed=0) -> ViolationCertificate:
    """Produce a violation certificate for any test operator on H (x) H.

    Since 0 <= I - T and the product vectors |phi phi> span the symmetric
    subspace, every equal pair scores 1 exactly when the symmetric
    compression C = P_sym (I - T) P_sym vanishes. Let (g, psi) be its top
    eigenpair. If g <= EQUAL_PAIR_TOL, the orthogonal pair (e0, e1) scores
    at least 1/2 - g/2 - sqrt(g). Otherwise write psi as a symmetric d x d
    matrix Psi, so that <phi phi|psi> = x^T Psi x with x = conj(phi). Over
    unit x, |x^T Psi x| peaks at the top singular value s >= 1/sqrt(d) of
    Psi, at a Takagi vector (Horn & Johnson, Matrix Analysis, section 4.4).
    With x = p + iq, Re(x^T Psi x) is the quadratic form of
    [[Re Psi, -Im Psi], [-Im Psi, -Re Psi]] on [p; q], so its top
    eigenvector gives that x even when s is degenerate. As C >= g |psi><psi|,
    the equal pair on phi scores at most 1 - g s^2 <= 1 - g/d. No random
    draw is made; ``seed`` is accepted and ignored.
    """
    a = qcore.check_effect(t)
    dim = a.shape[0]
    d = math.isqrt(dim)
    if d * d != dim:
        raise ValueError(f"test operator dimension {dim} is not a perfect square")
    if d < 2:
        raise ValueError("need d >= 2 so that orthogonal state pairs exist")

    g, psi = _equal_pair_gap(a, d)
    if g <= EQUAL_PAIR_TOL:
        pi, tau = np.eye(d, dtype=complex)[:2]
        kind, bound = "orthogonal_pair_fails", 0.0
    else:
        m = psi.reshape(d, d)
        _, x = np.linalg.eigh(np.block([[m.real, -m.imag], [-m.imag, -m.real]]))
        pi = tau = x[:d, -1] - 1j * x[d:, -1]
        kind, bound = "equal_pair_fails", 1.0
    v = np.outer(pi, tau).ravel()
    value = float(np.real(v.conj() @ a @ v))
    return ViolationCertificate(kind=kind, pi=pi, tau=tau, value=value,
                                bound_violated=bound)


def certificate_to_json(cert: ViolationCertificate) -> dict:
    return {
        "kind": cert.kind,
        "value": cert.value,
        "bound_violated": cert.bound_violated,
        "pi": qcore.matrix_to_json(cert.pi),
        "tau": qcore.matrix_to_json(cert.tau),
    }

"""Impossibility of exact symmetric fidelity sampling.

Two constructive tools: the decision-rule expansion for the four-outcome
product measurement (pi, 1-pi) (x) (tau, 1-tau), whose polynomial structure
forces the trivial rule, and a certificate generator showing that no test
operator reproduces the equality predicate on state pairs (value 1 on equal
pairs, 0 on orthogonal pairs).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import qcore, symmetry

FORCED_RULE_TOL = 1e-9
EQUAL_PAIR_TOL = 1e-6
_SEARCH_DEVIATION = 1e-6
_HAAR_CANDIDATES = 200


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
        v = np.kron(self.pi, self.tau)
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

    return (p11 * expect(np.kron(p, t))
            + p10 * expect(np.kron(p, eye - t))
            + p01 * expect(np.kron(eye - p, t))
            + p00 * expect(np.kron(eye - p, eye - t)))


def _probe_pairs(d: int):
    """Deterministic (sigma1, sigma2, pi, tau) probes that expose each
    single-coordinate deviation of the decision rule."""
    e0, e1 = np.eye(d, dtype=complex)[:2]
    return [
        (e0, e0, e0, e0),  # equal pair: vote probability is p11
        (e0, e0, e0, e1),  # orthogonal pair activating p10
        (e1, e1, e0, e1),  # orthogonal pair activating p01
        (e1, e0, e0, e1),  # orthogonal pair activating p00
    ]


def forcing_check(rule: DecisionRule, trials: int, seed,
                  d: int = 2) -> Optional[ForcingCounterexample]:
    """Search for a product input on which the rule fails to sample the
    overlap distribution.

    Returns None only when the rule already is (1, 0, 0, 0); that return says
    nothing about exact sampling being achievable (it is not, as
    ``theorem_one_check`` certifies for arbitrary preparations).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    forced = np.array(FORCED_RULE.as_tuple())
    if float(np.max(np.abs(np.array(rule.as_tuple()) - forced))) <= FORCED_RULE_TOL:
        return None

    rng = np.random.default_rng(seed)

    def attempt(s1, s2, pv, tv):
        rho = np.kron(qcore.pure_state_projector(s1),
                      qcore.pure_state_projector(s2))
        pi = qcore.pure_state_projector(pv)
        tau = qcore.pure_state_projector(tv)
        dev = abs(vote_probability(rho, pi, tau, rule)
                  - qcore.trace_fidelity(pi, tau))
        if dev > _SEARCH_DEVIATION:
            return ForcingCounterexample(rho=rho, pi=pi, tau=tau, deviation=dev)
        return None

    probes = _probe_pairs(d)

    def haar_inputs():
        for trial in itertools.count(len(probes) + 1):
            s1, s2, pv = (qcore.haar_random_state(d, rng) for _ in range(3))
            # Cover the equal-pair case explicitly on alternating trials.
            tv = pv if trial % 2 == 0 else qcore.haar_random_state(d, rng)
            yield s1, s2, pv, tv

    for inputs in itertools.islice(itertools.chain(probes, haar_inputs()),
                                   trials):
        found = attempt(*inputs)
        if found is not None:
            return found
    raise RuntimeError(
        f"no counterexample above deviation {_SEARCH_DEVIATION} in {trials} trials; "
        "tolerance too tight for this rule")


def _equal_pair_gap(a: np.ndarray, d: int) -> float:
    """g = ||P_sym (I - T) P_sym||: the largest |eigenvalue| of the
    compression, symmetrised as check_effect does; no SVD needed."""
    p_sym, _ = symmetry.sym_antisym_projectors(d)
    c = p_sym - p_sym @ a @ p_sym
    return float(np.max(np.abs(np.linalg.eigvalsh((c + c.conj().T) / 2))))


def theorem_one_check(t, seed=0) -> ViolationCertificate:
    """Produce a violation certificate for any test operator on H (x) H.

    Since 0 <= I - T and the product vectors |phi phi> span the symmetric
    subspace, every equal pair scores 1 exactly when the symmetric
    compression g = ||P_sym (I - T) P_sym|| vanishes. If g <= EQUAL_PAIR_TOL,
    the orthogonal pair (e0, e1) scores at least 1/2 - g/2 - sqrt(g).
    Otherwise the Haar average of <phi phi|T|phi phi> is at most
    1 - g / dim(H+), and the certificate is the equal pair on the
    lowest-scoring Haar candidate.
    """
    a = qcore.check_effect(t)
    dim = a.shape[0]
    d = math.isqrt(dim)
    if d * d != dim:
        raise ValueError(f"test operator dimension {dim} is not a perfect square")
    if d < 2:
        raise ValueError("need d >= 2 so that orthogonal state pairs exist")

    if _equal_pair_gap(a, d) <= EQUAL_PAIR_TOL:
        e0, e1 = np.eye(d, dtype=complex)[:2]
        v = np.kron(e0, e1)
        value = float(np.real(v.conj() @ a @ v))
        return ViolationCertificate(kind="orthogonal_pair_fails", pi=e0,
                                    tau=e1, value=value, bound_violated=0.0)

    candidates = qcore.haar_random_states(d, _HAAR_CANDIDATES, seed)
    kron_batch = np.einsum("si,sj->sij", candidates, candidates).reshape(-1, dim)
    # Re<v|T v> as a real dot product of the float views
    vals = np.einsum("sk,sk->s", kron_batch.view(float),
                     (kron_batch @ a.T).view(float))
    phi = candidates[int(np.argmin(vals))]
    v = np.kron(phi, phi)
    value = float(np.real(v.conj() @ a @ v))
    return ViolationCertificate(kind="equal_pair_fails", pi=phi, tau=phi,
                                value=value, bound_violated=1.0)


def certificate_to_json(cert: ViolationCertificate) -> dict:
    return {
        "kind": cert.kind,
        "value": cert.value,
        "bound_violated": cert.bound_violated,
        "pi": qcore.matrix_to_json(cert.pi),
        "tau": qcore.matrix_to_json(cert.tau),
    }

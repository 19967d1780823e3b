"""Optimal universal approximation of the fidelity sampler.

Invariant tests on H (x) H are parameterized by their coefficients on the
symmetric and antisymmetric projectors. The worst-case deviation of such a
test from the overlap has the closed form max{(sigma+alpha)/2, 1-sigma},
minimized at sigma = 2/3, alpha = 0 with value 1/3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore, symmetry


@dataclass(frozen=True)
class InvariantTest:
    """Test A = sigma * P_sym + alpha_coef * P_anti; coefficients in [0, 1]
    make A a valid effect."""
    sigma: float
    alpha_coef: float
    d: int = 2

    def __post_init__(self):
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma = {self.sigma!r} outside [0, 1]")
        if not 0.0 <= self.alpha_coef <= 1.0:
            raise ValueError(f"alpha_coef = {self.alpha_coef!r} outside [0, 1]")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    def to_operator(self) -> np.ndarray:
        p_sym, p_anti = symmetry.sym_antisym_projectors(self.d)
        return self.sigma * p_sym + self.alpha_coef * p_anti


def delta_closed_form(t: InvariantTest) -> float:
    """Worst-case deviation max{(sigma+alpha)/2, 1-sigma}; d-independent."""
    return max((t.sigma + t.alpha_coef) / 2, 1.0 - t.sigma)


def delta_numeric(t: InvariantTest, grid_points: int, seed=0,
                  haar_pairs: int = 100) -> float:
    """Maximize |alpha + (sigma-alpha)(1+x)/2 - x| over a grid in the squared
    overlap x, plus Haar-random state pairs as a safety net."""
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    x = np.linspace(0.0, 1.0, grid_points)
    overlap_term = t.alpha_coef + (t.sigma - t.alpha_coef) * (1.0 + x) / 2
    best = float(np.max(np.abs(overlap_term - x)))

    a = t.to_operator()
    rng = np.random.default_rng(seed)
    for _ in range(haar_pairs):
        phi = qcore.haar_random_state(t.d, rng)
        theta = qcore.haar_random_state(t.d, rng)
        v = np.kron(phi, theta)
        achieved = float(np.real(v.conj() @ a @ v))
        target = abs(np.vdot(phi, theta)) ** 2
        best = max(best, abs(achieved - target))
    return best


def optimize_invariant_test() -> tuple[InvariantTest, float]:
    """The optimal invariant test (2/3) P_sym and its deviation 1/3.

    The bound max{(sigma+alpha)/2, 1-sigma} grows with alpha, so alpha = 0;
    then sigma/2 = 1 - sigma balances the two terms, so sigma = 2/3."""
    test = InvariantTest(sigma=2 / 3, alpha_coef=0.0)
    return test, delta_closed_form(test)


@dataclass(frozen=True)
class PartialInfoReport:
    """Sign-agreement statistics of the halfway threshold for the optimal
    test; ``max_identity_dev`` bounds |Tr((pi x tau) A) - (1 + Tr pi tau)/3|."""
    trials: int
    decided: int
    agreements: int
    undecided: int
    max_identity_dev: float

    @property
    def all_agree(self) -> bool:
        return self.agreements == self.decided


def partial_info_check(trials: int, seed, d: int = 2) -> PartialInfoReport:
    """Check that the optimal test answers 'is the overlap above 1/2?'
    correctly on Haar-random pairs whenever the overlap is more than 1e-9
    off the threshold."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_sym, _ = symmetry.sym_antisym_projectors(d)
    a = (2.0 / 3.0) * p_sym
    rng = np.random.default_rng(seed)
    phis = qcore.haar_random_states(d, trials, rng)
    thetas = qcore.haar_random_states(d, trials, rng)
    pairs = np.einsum("si,sj->sij", phis, thetas).reshape(trials, d * d)
    # Re<v|A v> as a real dot product of the float views: no conjugate copy
    achieved = np.einsum("sk,sk->s", pairs.view(float),
                         (pairs @ a.T).view(float))
    overlaps = np.abs(np.einsum("si,si->s", phis.conj(), thetas)) ** 2
    identity_dev = float(np.max(np.abs(achieved - (1.0 + overlaps) / 3.0)))
    decided_mask = np.abs(overlaps - 0.5) > 1e-9
    agree = np.sign(achieved - 0.5) == np.sign(overlaps - 0.5)
    decided = int(np.count_nonzero(decided_mask))
    agreements = int(np.count_nonzero(agree & decided_mask))
    return PartialInfoReport(trials=trials, decided=decided,
                             agreements=agreements,
                             undecided=trials - decided,
                             max_identity_dev=identity_dev)

"""Worst-case optimal sampling strategies for n copies and m samples.

An invariant strategy is a coefficient matrix alpha[k, l] assigning each
outcome count k the weight of isotypic block l; the induced outcome
distribution at state-pair angle gamma is f_k = sum_l alpha[k, l] beta_l(gamma),
to be compared in L1 against the binomial target with success probability
cos^2(gamma). The minimax coefficients are found by linear programming over a
gamma grid with cutting-plane refinement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.optimize import milp
from scipy.sparse import csc_array

from . import qcore, symmetry

_MAX_ROUNDS = 80  # cutting-plane rounds before solve_minimax gives up
_START_ANGLES = 9  # evenly spaced grid angles in the LP's first working set
_MAX_SAMPLES = 1029  # largest m whose binomial coefficients are finite floats
_ZOOM_POINTS = 17  # evenly spaced samples per bracket in each polish step
_SCAN_SAMPLES = 2049  # evenly spaced angles of the worst-angle scan


@functools.lru_cache(maxsize=None)
def _binomial_row(m: int) -> np.ndarray:
    """C(m, 0), ..., C(m, m) as a read-only float array."""
    row = np.array([math.comb(m, j) for j in range(m + 1)], dtype=float)
    row.setflags(write=False)
    return row


def _target_distributions(m: int, gammas: np.ndarray) -> np.ndarray:
    """Binomial distribution of m samples with success probability
    cos^2(gamma) at every angle of ``gammas``, one row each: shape (G, m+1);
    index k counts the 1-outcomes."""
    c = (np.cos(np.asarray(gammas, dtype=float)) ** 2)[:, None]
    k = np.arange(m + 1)
    return _binomial_row(m) * c ** k * (1.0 - c) ** (m - k)


def canonical_pair(d: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic state pair with squared overlap cos^2(gamma)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    e0, e1 = np.eye(d, dtype=complex)[:2]
    return e0, math.cos(gamma) * e0 + math.sin(gamma) * e1


def beta_for_angle(dec: symmetry.IsotypicDecomposition,
                   emb: symmetry.SymmetricEmbedding, gamma: float) -> np.ndarray:
    """Block weights of the canonical n-copy pair at angle gamma."""
    pi, tau = canonical_pair(dec.d, gamma)
    v = np.kron(symmetry.embed_state_power(pi, emb),
                symmetry.embed_state_power(tau, emb))
    return np.array([float(np.real(v.conj() @ p @ v)) for p in dec.projectors])


@dataclass(frozen=True)
class CoefficientMatrix:
    """Strategy coefficients alpha with shape (m+1, n+1); every block column
    is a probability distribution over the outcome counts."""
    m: int
    n: int
    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if a.shape != (self.m + 1, self.n + 1):
            raise ValueError(
                f"alpha shape {a.shape} != {(self.m + 1, self.n + 1)}")
        if not (a.min() >= -1e-12 and a.max() <= 1.0 + 1e-12):
            raise ValueError("alpha entries outside [0, 1]")
        colsums = a.sum(axis=0)
        if float(np.max(np.abs(colsums - 1.0))) > 1e-10:
            raise ValueError(f"column sums {colsums!r} != 1")
        object.__setattr__(self, "alpha", a)
        a.setflags(write=False)


@dataclass(frozen=True)
class GeneralInstance:
    """Problem instance: d-level systems, n copies per state, m samples,
    the angle grid used for optimization, and the block-weight polynomials
    (see beta_polynomials)."""
    d: int
    n: int
    m: int
    gamma_grid: np.ndarray
    poly: np.ndarray

    def __post_init__(self):
        self.gamma_grid.setflags(write=False)
        self.poly.setflags(write=False)

    @property
    def dec(self) -> symmetry.IsotypicDecomposition:
        """Isotypic projectors for (d, n); the minimax solver never needs
        them."""
        return symmetry.isotypic_projectors(self.d, self.n)

    @property
    def emb(self) -> symmetry.SymmetricEmbedding:
        return symmetry.symmetric_embedding(self.d, self.n)


def make_instance(d: int, n: int, m: int,
                  grid_points: int = 129) -> GeneralInstance:
    """Instance whose optimization grid is grid_points equally spaced angles
    on [0, pi/2]."""
    symmetry.check_supported(d, n)
    if not 1 <= m <= _MAX_SAMPLES:
        raise ValueError(f"m = {m} is out of range: require 1 <= m <= {_MAX_SAMPLES}")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    return GeneralInstance(d=d, n=n, m=m,
                           gamma_grid=np.linspace(0.0, math.pi / 2, grid_points),
                           poly=_exact_block_weights(n))


def _exact_block_weights(n: int) -> np.ndarray:
    """Power-basis coefficients in x = cos^2 gamma of every block weight.

    The canonical pair spans two levels, so block l is total spin J = n - l
    of two spin-n/2 factors, and with |pi>^n = |n/2, n/2>,
    beta_l(x) = sum_{k<=J} C(n, k) x^k (1 - x)^(n-k) c_k with c_k the squared
    Clebsch-Gordan coefficient <n/2, n/2; n/2, k - n/2 | J, k>^2 (one term of
    Racah's formula). The sums run over exact fractions, each rounded once.
    """
    f = math.factorial
    coeffs = np.empty((n + 1, n + 1))
    for l in range(n + 1):
        j = n - l
        row = [Fraction(0)] * (n + 1)
        for k in range(j + 1):
            cg2 = Fraction((2 * j + 1) * f(n) * f(n - k) * f(j + k),
                           f(n + j + 1) * f(l) * f(k) * f(j - k))
            weight = math.comb(n, k) * cg2
            # x^k (1 - x)^(n-k) = sum_i C(n-k, i) (-1)^i x^(k+i)
            for i in range(n - k + 1):
                row[k + i] += (-1) ** i * math.comb(n - k, i) * weight
        coeffs[l] = [float(c) for c in row]
    return coeffs


def beta_polynomials(inst: GeneralInstance) -> np.ndarray:
    """Coefficients (ascending powers of x = cos^2 gamma) of every block
    weight, one row per block; computed exactly by make_instance."""
    return inst.poly


def _block_weights(poly: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Block weights at every angle of ``gammas`` from the polynomials of
    beta_polynomials: shape (G, n+1)."""
    x = np.cos(np.asarray(gammas, dtype=float)) ** 2
    return np.vander(x, poly.shape[1], increasing=True) @ poly.T


class _AngleTable(NamedTuple):
    """Angles with their block weights (G, n+1) and binomial targets (G, m+1)."""
    gammas: np.ndarray
    beta: np.ndarray
    target: np.ndarray


def _angle_table(poly: np.ndarray, m: int, gammas: np.ndarray) -> _AngleTable:
    return _AngleTable(gammas, _block_weights(poly, gammas),
                       _target_distributions(m, gammas))


def _l1_errors(alpha: np.ndarray, table: _AngleTable,
               check: bool = False) -> np.ndarray:
    """L1 distance between alpha . beta(gamma) and the binomial target at
    every angle of ``table``; with ``check``, every achieved distribution
    is validated by qcore.check_outcome_distribution."""
    f = table.beta @ alpha.T
    if check:
        qcore.check_outcome_distribution(f)
    return np.abs(f - table.target).sum(axis=1)


def achieved_distribution(inst: GeneralInstance, coeffs: CoefficientMatrix,
                          gamma: float) -> np.ndarray:
    """Outcome-count distribution f = alpha . beta(gamma)."""
    _check_shape(inst, coeffs)
    f = coeffs.alpha @ _block_weights(inst.poly, np.array([gamma]))[0]
    return qcore.check_outcome_distribution(f)


def _check_shape(inst: GeneralInstance, coeffs: CoefficientMatrix) -> None:
    if (coeffs.m, coeffs.n) != (inst.m, inst.n):
        raise ValueError(
            f"coefficients are for (m={coeffs.m}, n={coeffs.n}), "
            f"instance has (m={inst.m}, n={inst.n})")


def error_profile(inst: GeneralInstance, coeffs: CoefficientMatrix) -> np.ndarray:
    """L1 distance to the binomial target at every grid angle."""
    _check_shape(inst, coeffs)
    table = _angle_table(beta_polynomials(inst), inst.m, inst.gamma_grid)
    return _l1_errors(coeffs.alpha, table, check=True)


def effect_operators(inst: GeneralInstance, coeffs: CoefficientMatrix) -> list[np.ndarray]:
    """The measurement effects F_k = sum_l alpha[k, l] S_l."""
    return [sum(coeffs.alpha[k, l] * inst.dec.projectors[l]
                for l in range(inst.n + 1))
            for k in range(inst.m + 1)]


def first_sample_marginal(coeffs: CoefficientMatrix) -> CoefficientMatrix:
    """Strategy induced on the first sample alone: within outcome count k,
    the first sample reads 1 with probability k/m."""
    if coeffs.m < 2:
        raise ValueError("marginalization needs m >= 2")
    weights = np.arange(coeffs.m + 1) / coeffs.m
    one_row = weights @ coeffs.alpha
    return CoefficientMatrix(m=1, n=coeffs.n,
                             alpha=np.vstack([1.0 - one_row, one_row]))


def _solve_on_grid(poly: np.ndarray, m: int,
                   grid: np.ndarray) -> tuple[np.ndarray, float]:
    """LP over the given angle grid for m samples and the block weights
    ``poly`` of beta_polynomials; returns raw coefficients and optimum.

    Variables are alpha[k, l] (flattened), one slack s[g, k] >= 0 per angle
    and outcome, and the worst-case bound t. Every column of alpha and the
    block weights sum to 1, so f and p both sum to 1 and
    ||f - p||_1 = 2 sum_k (f_k - p_k)^+: one-sided slacks suffice. Every
    angle owns m+2 consecutive rows: f_k - p_k <= s[g, k] for each k, then
    2 sum_k s[g, k] <= t. The column sums sum_k alpha[k, l] = 1 are the last
    n+1 rows. HiGHS gets the model through milp without integer variables;
    its answer must meet every bound and row to 1e-9.
    """
    n_out, n_blk, n_grid = m + 1, poly.shape[0], grid.size
    n_alpha = n_out * n_blk
    n_var = n_alpha + n_out * n_grid + 1
    t_idx = n_var - 1
    rows_per_angle = n_out + 1
    n_ub = n_grid * rows_per_angle

    beta_grid = _block_weights(poly, grid)          # (G, n+1)
    p_grid = _target_distributions(m, grid)         # (G, m+1)

    # open index grids over (angle g, outcome k, block l)
    g, k, l = np.ix_(np.arange(n_grid), np.arange(n_out), np.arange(n_blk))
    out_row = g * rows_per_angle + k                   # (G, m+1, 1)
    slack = (n_alpha + g * n_out + k)[:, :, 0]         # (G, m+1)
    bound_row = g[:, :, 0] * rows_per_angle + n_out    # (G, 1)
    entries = [  # (rows, cols, vals), broadcast against each other
        (out_row, k * n_blk + l, beta_grid[g, l]),
        (out_row[:, :, 0], slack, -1.0),
        (bound_row, slack, 2.0),
        (bound_row[:, 0], t_idx, -1.0),
        (n_ub + l[0], k[0] * n_blk + l[0], 1.0),      # column sums
    ]
    parts = [np.broadcast_arrays(*e) for e in entries]
    rows, cols, vals = (np.concatenate([part[i].ravel() for part in parts])
                        for i in range(3))
    a = csc_array((vals, (rows, cols)), shape=(n_ub + n_blk, n_var))
    b_ub = np.concatenate([p_grid, np.zeros((n_grid, 1))], axis=1).ravel()
    # lower and upper bounds of the variables, then of the rows
    lo = np.concatenate([np.zeros(n_var), np.full(n_ub, -np.inf), np.ones(n_blk)])
    hi = np.concatenate([np.ones(n_alpha), np.full(n_var - n_alpha, np.inf),
                         b_ub, np.ones(n_blk)])
    c = np.zeros(n_var)
    c[t_idx] = 1.0
    res = milp(c, bounds=(lo[:n_var], hi[:n_var]),
               constraints=(a, lo[n_var:], hi[n_var:]))
    if res.status != 0:
        raise RuntimeError(f"LP solve failed (status {res.status}): {res.message}")
    z = np.concatenate([res.x, a @ res.x])
    residual = max(np.max(lo - z), np.max(z - hi))
    if not residual <= 1e-9:
        raise RuntimeError(f"LP solution violates its constraints by {residual:.3g}")
    return res.x[:n_alpha].reshape(n_out, n_blk), float(res.fun)


def _sanitize(alpha: np.ndarray) -> np.ndarray:
    a = np.clip(alpha, 0.0, 1.0)
    return a / a.sum(axis=0, keepdims=True)


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Mask of the samples at least as large as their left neighbour and
    larger than their right one (the last of a plateau)."""
    padded = np.concatenate([[-math.inf], values, [-math.inf]])
    return (values >= padded[:-2]) & (values > padded[2:])


def _violated_angles(alpha: np.ndarray, poly: np.ndarray, m: int,
                     threshold: float,
                     scan: _AngleTable) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-angle local maximizers of the L1 error: every local maximum
    of the dense sorted ``scan`` above ``threshold``, and the global one,
    polished together by zooming into their brackets. Each zoom step samples
    every bracket at _ZOOM_POINTS evenly spaced angles in one evaluation and
    keeps the two neighbours of the best one, until every bracket is narrower
    than 1e-12. Returns the angles and their errors."""
    def err(gammas):
        return _l1_errors(alpha, _angle_table(poly, m, gammas))

    gammas = scan.gammas
    values = _l1_errors(alpha, scan)
    peak = _local_maxima(values) & (values > threshold)
    peak[int(np.argmax(values))] = True
    idx = np.flatnonzero(peak)
    lo = gammas[np.maximum(idx - 1, 0)]
    hi = gammas[np.minimum(idx + 1, gammas.size - 1)]
    a, b = lo, hi
    steps = np.linspace(0.0, 1.0, _ZOOM_POINTS)
    cols = np.arange(idx.size)
    while np.max(b - a) > 1e-12:
        points = a[:, None] + (b - a)[:, None] * steps
        best = np.argmax(err(points.ravel()).reshape(points.shape), axis=1)
        a = points[cols, np.maximum(best - 1, 0)]
        b = points[cols, np.minimum(best + 1, _ZOOM_POINTS - 1)]
    candidates = np.stack([lo, (a + b) / 2, hi, gammas[idx]])
    scores = err(candidates.ravel()).reshape(candidates.shape)
    best = np.argmax(scores, axis=0)
    return candidates[best, cols], scores[best, cols]


def solve_minimax(inst: GeneralInstance,
                  refine_tol: float = 1e-4) -> tuple[CoefficientMatrix, float]:
    """Minimize the worst-case L1 distance over strategies by LP, with
    cutting-plane refinement until the continuous worst case exceeds the
    grid optimum by less than ``refine_tol``.

    Every angle of ``inst.gamma_grid`` constrains the strategy, but each LP
    sees only a working set: it starts with a few evenly spaced grid angles
    and grows by every grid local maximum of the error that the last
    solution violates, until none is left (the exchange method for
    semi-infinite LPs). Only then are off-grid angles searched; those that
    exceed the optimum by ``refine_tol`` join the working set and the
    refined grid. The returned value is the worst case of the sanitized
    strategy over the refined grid: ``inst.gamma_grid`` plus the added
    angles."""
    if not (math.isfinite(refine_tol) and refine_tol > 0):
        raise ValueError(f"refine_tol = {refine_tol!r} is not a positive number")
    poly = beta_polynomials(inst)
    grid = inst.gamma_grid
    on_grid = _angle_table(poly, inst.m, grid)
    scan = _angle_table(poly, inst.m,
                        np.linspace(0.0, math.pi / 2, _SCAN_SAMPLES))
    active = np.zeros(grid.size, dtype=bool)
    active[np.round(np.linspace(0, grid.size - 1,
                                min(_START_ANGLES, grid.size))).astype(int)] = True
    added = np.empty(0)  # off-grid angles from the continuous refinement
    for _ in range(_MAX_ROUNDS):
        while True:  # each pass adds a grid angle, so at most grid.size passes
            alpha, t = _solve_on_grid(
                poly, inst.m, np.union1d(grid[active], added))
            grid_errors = _l1_errors(alpha, on_grid)
            level = max(t, float(np.max(grid_errors[active]))) + 1e-12
            new = _local_maxima(grid_errors) & (grid_errors > level) & ~active
            if not new.any():
                break
            active |= new
        angles, errors = _violated_angles(alpha, poly, inst.m, t + refine_tol,
                                          scan)
        if np.max(errors) <= t + refine_tol:
            break
        added = np.unique(np.concatenate([added, angles[errors > t + refine_tol]]))
    else:
        raise RuntimeError(
            f"grid refinement did not converge within {_MAX_ROUNDS} rounds "
            f"(tolerance {refine_tol})")
    coeffs = CoefficientMatrix(m=inst.m, n=inst.n, alpha=_sanitize(alpha))
    profile = _l1_errors(
        coeffs.alpha, _angle_table(poly, inst.m, np.union1d(grid, added)),
        check=True)
    return coeffs, float(np.max(profile))

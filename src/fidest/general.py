"""Worst-case optimal sampling strategies for n copies and m samples.

An invariant strategy is a coefficient matrix alpha[k, l] assigning each
outcome count k the weight of isotypic block l; the induced outcome
distribution at state-pair angle gamma is f_k = sum_l alpha[k, l] beta_l(gamma),
to be compared in L1 against the binomial target with success probability
cos^2(gamma). The minimax coefficients are found by linear programming over a
gamma grid with cutting-plane refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from . import qcore, symmetry

_HELD_OUT_ANGLES = 10
_POLY_FIT_TOL = 1e-8


def target_distribution(m: int, gamma: float) -> np.ndarray:
    """Binomial distribution of m samples with success probability
    cos^2(gamma); index k counts the 1-outcomes."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not -1e-12 <= gamma <= math.pi / 2 + 1e-12:
        raise ValueError(f"gamma = {gamma!r} outside [0, pi/2]")
    c = math.cos(gamma) ** 2
    s = 1.0 - c
    return np.array([math.comb(m, k) * c ** k * s ** (m - k)
                     for k in range(m + 1)])


def _target_distributions(m: int, gammas: np.ndarray) -> np.ndarray:
    """target_distribution at every angle of ``gammas``, one row each:
    shape (G, m+1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    g = np.asarray(gammas, dtype=float)
    outside = g[(g < -1e-12) | (g > math.pi / 2 + 1e-12)]
    if outside.size:
        raise ValueError(f"angles {outside!r} outside [0, pi/2]")
    c = (np.cos(g) ** 2)[:, None]
    k = np.arange(m + 1)
    comb = np.array([math.comb(m, j) for j in range(m + 1)], dtype=float)
    return comb * c ** k * (1.0 - c) ** (m - k)


def canonical_pair(d: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic state pair with squared overlap cos^2(gamma)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    pi = np.zeros(d, dtype=complex)
    pi[0] = 1.0
    tau = np.zeros(d, dtype=complex)
    tau[0] = math.cos(gamma)
    tau[1] = math.sin(gamma)
    return pi, tau


def beta_for_angle(dec: symmetry.IsotypicDecomposition,
                   emb: symmetry.SymmetricEmbedding, gamma: float) -> np.ndarray:
    """Block weights of the canonical n-copy pair at angle gamma."""
    pi, tau = canonical_pair(dec.d, gamma)
    v = np.kron(symmetry.embed_state_power(pi, dec.n, emb),
                symmetry.embed_state_power(tau, dec.n, emb))
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
        if float(a.min()) < -1e-12 or float(a.max()) > 1.0 + 1e-12:
            raise ValueError("alpha entries outside [0, 1]")
        colsums = a.sum(axis=0)
        if float(np.max(np.abs(colsums - 1.0))) > 1e-10:
            raise ValueError(f"column sums {colsums!r} != 1")
        object.__setattr__(self, "alpha", a)
        a.setflags(write=False)


@dataclass(frozen=True)
class GeneralInstance:
    """Problem instance: d-level systems, n copies per state, m samples,
    isotypic data, and the angle grid used for optimization."""
    d: int
    n: int
    m: int
    dec: symmetry.IsotypicDecomposition
    emb: symmetry.SymmetricEmbedding
    gamma_grid: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma_grid, dtype=float)
        if g.ndim != 1 or g.size < 2:
            raise ValueError("gamma_grid must hold at least two angles")
        if np.any(np.diff(g) <= 0):
            raise ValueError("gamma_grid must be strictly increasing")
        if abs(g[0]) > 1e-12 or abs(g[-1] - math.pi / 2) > 1e-12:
            raise ValueError("gamma_grid must include the endpoints 0 and pi/2")
        object.__setattr__(self, "gamma_grid", g)
        g.setflags(write=False)


def make_instance(d: int, n: int, m: int, grid_points: int = 129,
                  gamma_grid=None,
                  dec: symmetry.IsotypicDecomposition | None = None) -> GeneralInstance:
    if m < 1:
        raise ValueError("m must be >= 1")
    if dec is None:
        dec = symmetry.isotypic_projectors(d, n)
    elif (dec.d, dec.n) != (d, n):
        raise ValueError(f"decomposition is for (d={dec.d}, n={dec.n})")
    emb = symmetry.symmetric_embedding(d, n)
    if gamma_grid is None:
        if grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        gamma_grid = np.linspace(0.0, math.pi / 2, grid_points)
    return GeneralInstance(d=d, n=n, m=m, dec=dec, emb=emb,
                           gamma_grid=np.asarray(gamma_grid, dtype=float))


def beta_polynomials(inst: GeneralInstance) -> np.ndarray:
    """Coefficients (ascending powers of x = cos^2 gamma) of every block
    weight, fitted through n+1 angles and validated on held-out angles."""
    n = inst.n
    nodes_x = np.linspace(0.0, 1.0, n + 1)
    vander = np.vander(nodes_x, n + 1, increasing=True)
    samples = np.array([beta_for_angle(inst.dec, inst.emb, math.acos(math.sqrt(x)))
                        for x in nodes_x])
    coeffs = np.linalg.solve(vander, samples).T  # rows indexed by l
    held_x = (np.arange(_HELD_OUT_ANGLES) + 0.5) / _HELD_OUT_ANGLES
    held_vander = np.vander(held_x, n + 1, increasing=True)
    predicted = held_vander @ coeffs.T
    actual = np.array([beta_for_angle(inst.dec, inst.emb, math.acos(math.sqrt(x)))
                       for x in held_x])
    residual = float(np.max(np.abs(predicted - actual)))
    if residual > _POLY_FIT_TOL:
        raise RuntimeError(
            f"block weights are not degree-{n} polynomials in cos^2(gamma) "
            f"(residual {residual!r}); isotypic construction is suspect")
    return coeffs


def _block_weights(poly: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Block weights at every angle of ``gammas`` from the polynomials of
    beta_polynomials: shape (G, n+1)."""
    x = np.cos(np.asarray(gammas, dtype=float)) ** 2
    return np.vander(x, poly.shape[1], increasing=True) @ poly.T


def _l1_errors(alpha: np.ndarray, poly: np.ndarray, m: int,
               gammas: np.ndarray, check: bool = False) -> np.ndarray:
    """L1 distance between alpha . beta(gamma) and the binomial target at
    every angle of ``gammas``; with ``check``, every achieved distribution
    is validated by qcore.check_outcome_distribution."""
    f = _block_weights(poly, gammas) @ alpha.T
    if check:
        qcore.check_outcome_distribution(f)
    return np.abs(f - _target_distributions(m, gammas)).sum(axis=1)


def beta_polynomial_fit(inst: GeneralInstance, l: int) -> np.ndarray:
    """Polynomial coefficients of block l in x = cos^2(gamma)."""
    if not 0 <= l <= inst.n:
        raise ValueError(f"l = {l} outside 0..{inst.n}")
    return beta_polynomials(inst)[l]


def achieved_distribution(inst: GeneralInstance, coeffs: CoefficientMatrix,
                          gamma: float) -> np.ndarray:
    """Outcome-count distribution f = alpha . beta(gamma)."""
    _check_shape(inst, coeffs)
    f = coeffs.alpha @ beta_for_angle(inst.dec, inst.emb, gamma)
    return qcore.check_outcome_distribution(f)


def _check_shape(inst: GeneralInstance, coeffs: CoefficientMatrix) -> None:
    if (coeffs.m, coeffs.n) != (inst.m, inst.n):
        raise ValueError(
            f"coefficients are for (m={coeffs.m}, n={coeffs.n}), "
            f"instance has (m={inst.m}, n={inst.n})")


def error_profile(inst: GeneralInstance, coeffs: CoefficientMatrix) -> np.ndarray:
    """L1 distance to the binomial target at every grid angle."""
    _check_shape(inst, coeffs)
    return _l1_errors(coeffs.alpha, beta_polynomials(inst), inst.m,
                      inst.gamma_grid, check=True)


def objective(inst: GeneralInstance, coeffs: CoefficientMatrix) -> float:
    """Worst-case L1 distance over the grid."""
    return float(np.max(error_profile(inst, coeffs)))


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


def _solve_on_grid(inst: GeneralInstance, grid: np.ndarray,
                   poly: np.ndarray) -> tuple[np.ndarray, float]:
    """LP over the given angle grid; returns raw coefficients and optimum.

    Variables are alpha[k, l] (flattened), one slack s[g, k] >= |f_k - p_k|
    per angle and outcome, and the worst-case bound t >= sum_k s[g, k].
    Every angle owns 2(m+1)+1 consecutive rows: +(f_k - p_k) <= s[g, k] and
    -(f_k - p_k) <= s[g, k] for each k, then sum_k s[g, k] <= t.
    """
    m, n = inst.m, inst.n
    n_out, n_blk, n_grid = m + 1, n + 1, grid.size
    n_alpha = n_out * n_blk
    n_var = n_alpha + n_out * n_grid + 1
    t_idx = n_var - 1
    rows_per_angle = 2 * n_out + 1

    beta_grid = _block_weights(poly, grid)          # (G, n+1)
    p_grid = _target_distributions(m, grid)         # (G, m+1)

    # open index grids over (angle g, outcome k, sign 1 - 2s, block l)
    g, k, s, l = np.ix_(np.arange(n_grid), np.arange(n_out), np.arange(2),
                        np.arange(n_blk))
    pm_row = g * rows_per_angle + 2 * k + s
    bound_row = g[:, :, 0, 0] * rows_per_angle + 2 * n_out  # (G, 1)
    slack = n_alpha + g * n_out + k
    entries = [  # (rows, cols, vals), broadcast against each other
        (pm_row, k * n_blk + l, (1 - 2 * s) * beta_grid[g, l]),
        (pm_row, slack, -1.0),
        (bound_row, slack[:, :, 0, 0], 1.0),
        (bound_row[:, 0], t_idx, -1.0),
    ]
    parts = [np.broadcast_arrays(*e) for e in entries]
    rows, cols, vals = (np.concatenate([part[i].ravel() for part in parts])
                        for i in range(3))
    b_ub = np.concatenate([(p_grid[:, :, None] * [1.0, -1.0]).reshape(n_grid, -1),
                           np.zeros((n_grid, 1))], axis=1).ravel()

    from scipy.sparse import coo_matrix
    a_ub = coo_matrix((vals, (rows, cols)),
                      shape=(n_grid * rows_per_angle, n_var))

    # sum_k alpha[k, l] = 1 for every block l
    eq_cols = (np.arange(n_out)[None, :] * n_blk + np.arange(n_blk)[:, None]).ravel()
    a_eq = coo_matrix((np.ones(n_alpha), (np.repeat(np.arange(n_blk), n_out), eq_cols)),
                      shape=(n_blk, n_var))
    b_eq = np.ones(n_blk)

    c = np.zeros(n_var)
    c[t_idx] = 1.0
    bounds = ([(0.0, 1.0)] * n_alpha + [(0.0, None)] * (n_var - n_alpha))
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP solve failed (status {res.status}): {res.message}")
    alpha = res.x[:n_alpha].reshape(m + 1, n + 1)
    return alpha, float(res.fun)


def _sanitize(alpha: np.ndarray) -> np.ndarray:
    a = np.clip(alpha, 0.0, 1.0)
    return a / a.sum(axis=0, keepdims=True)


def _continuous_worst_angle(inst: GeneralInstance, alpha: np.ndarray,
                            poly: np.ndarray,
                            samples: int = 2049) -> tuple[float, float]:
    """Locate the continuous-angle maximizer of the L1 error by dense
    sampling followed by golden-section polish."""
    def err(gamma):
        return float(_l1_errors(alpha, poly, inst.m, np.array([gamma]))[0])

    gammas = np.linspace(0.0, math.pi / 2, samples)
    values = _l1_errors(alpha, poly, inst.m, gammas)
    best = int(np.argmax(values))
    lo = gammas[max(best - 1, 0)]
    hi = gammas[min(best + 1, samples - 1)]
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = err(x1), err(x2)
    while b - a > 1e-12:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = err(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = err(x2)
    mid = (a + b) / 2
    candidates = [(err(g), g) for g in (lo, mid, hi, gammas[best])]
    val, gam = max(candidates)
    return gam, val


def solve_minimax(inst: GeneralInstance, refine_tol: float = 1e-4,
                  max_rounds: int = 80,
                  refine: bool = True) -> tuple[CoefficientMatrix, float]:
    """Minimize the worst-case L1 distance over strategies by LP on the angle
    grid, with cutting-plane refinement until the continuous worst case
    exceeds the grid optimum by less than ``refine_tol``. The returned value
    is the worst case of the sanitized strategy over the refined grid."""
    poly = beta_polynomials(inst)
    grid = np.asarray(inst.gamma_grid, dtype=float)
    alpha = None
    t = math.inf
    rounds = max_rounds if refine else 1
    converged = not refine
    for _ in range(rounds):
        alpha, t = _solve_on_grid(inst, grid, poly)
        if not refine:
            break
        gamma_star, worst = _continuous_worst_angle(inst, alpha, poly)
        if worst <= t + refine_tol:
            converged = True
            break
        grid = np.unique(np.concatenate([grid, [gamma_star]]))
    if not converged:
        raise RuntimeError(
            f"grid refinement did not converge within {max_rounds} rounds "
            f"(tolerance {refine_tol})")
    coeffs = CoefficientMatrix(m=inst.m, n=inst.n, alpha=_sanitize(alpha))
    profile = _l1_errors(coeffs.alpha, poly, inst.m, grid, check=True)
    return coeffs, float(np.max(profile))

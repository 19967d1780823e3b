"""Worst-case optimal sampling strategies for n copies and m samples.

An invariant strategy is a coefficient matrix alpha[k, l] assigning each
outcome count k the weight of isotypic block l; the induced outcome
distribution at state-pair angle gamma is f_k = sum_l alpha[k, l] beta_l(gamma),
to be compared in L1 against the binomial target with success probability
cos^2(gamma). The minimax coefficients are found by linear programming over a
gamma grid with cutting-plane refinement, for every m by one dense dual
simplex of this module (_CutLP), whose cuts are separated at a stability
centre (in-out separation); no SciPy is imported.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qcore

# accepted d: the range on which the tests check the closed-form block
# weights against the d^n operator construction; d only labels the report
_MAX_LOCAL_DIM = 3
_MAX_COPIES = 32  # accepted n (measured): a cold CLI run takes 0.5 s at m = 32
_MAX_ROUNDS = 80  # cutting-plane rounds before solve_minimax gives up
_CUT_TOL = 1e-10  # an angle erring by more than t + this is violated
_MAX_CUTS = 32  # cuts added per separation step, the most violated first (measured)
_MAX_PIVOTS = 100_000  # simplex pivots over one solve before it gives up
_COST_NOISE = 1e-7  # scale of the cost perturbation of _CutLP
_MAX_SAMPLES = 1029  # largest m whose binomial coefficients are finite floats
_MAX_GRID_POINTS = 65537  # a cold CLI run at the limit: 0.6 s at m = 8, 1.7 s at m = 64
# largest grid_points * (m + 1), the size of the (grid, m+1) arrays of every
# separation step and of the error profile
_MAX_TABLE_ENTRIES = 65537 * 65
_BLOCK_ENTRIES = 1 << 16  # entries of one block of _l1_errors (measured)
_SCAN_SAMPLES = 2049  # evenly spaced angles of the worst-angle scan


@functools.lru_cache(maxsize=None)
def _binomial_row(m: int) -> np.ndarray:
    """C(m, 0), ..., C(m, m) as a read-only float array."""
    row = np.array([math.comb(m, j) for j in range(m + 1)], dtype=float)
    row.setflags(write=False)
    return row


@functools.lru_cache(maxsize=None)
def _elevation(a: int, b: int) -> np.ndarray:
    """(a+1, b+1) degree elevation of Bernstein coefficients (a row vector of
    degree a times it is the same polynomial at degree b >= a):
    [j, i] = C(a, j) C(b-a, i-j) / C(b, i), each one integer ratio rounded
    once (Farouki & Rajan, CAGD 4:191, 1987). Every column sums to 1; the
    array is shared and read-only."""
    ca, cd, cb = ([math.comb(k, j) for j in range(k + 1)] for k in (a, b - a, b))
    e = np.array([[ca[j] * cd[i - j] / cb[i] if 0 <= i - j <= b - a else 0.0
                   for i in range(b + 1)] for j in range(a + 1)])
    e.setflags(write=False)
    return e


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only float array of its own: a read-only copy, unless
    it already is one (as the shared _exact_block_weights are), so a
    caller's array stays writeable and writing to it changes no instance."""
    a = np.asarray(a, dtype=float)
    if a.flags.writeable or a.base is not None:
        a = a.copy()
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CoefficientMatrix:
    """Strategy coefficients alpha with shape (m+1, n+1); every block column
    is a probability distribution over the outcome counts."""
    m: int
    n: int
    alpha: np.ndarray

    def __post_init__(self):
        a = _frozen(self.alpha)
        if a.shape != (self.m + 1, self.n + 1):
            raise ValueError(
                f"alpha shape {a.shape} != {(self.m + 1, self.n + 1)}")
        if not (a.min() >= -1e-12 and a.max() <= 1.0 + 1e-12):
            raise ValueError("alpha entries outside [0, 1]")
        colsums = a.sum(axis=0)
        if float(np.max(np.abs(colsums - 1.0))) > 1e-10:
            raise ValueError(f"column sums {colsums!r} != 1")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class GeneralInstance:
    """Problem instance: d-level systems, n copies per state, m samples,
    the angle grid used for optimization, and the (n+1, n+1) Bernstein
    coefficients of the block weights (see beta_polynomials)."""
    d: int
    n: int
    m: int
    gamma_grid: np.ndarray
    poly: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma_grid", _frozen(self.gamma_grid))
        object.__setattr__(self, "poly", _frozen(self.poly))


def make_instance(d: int, n: int, m: int,
                  grid_points: int = 129) -> GeneralInstance:
    """Instance whose optimization grid is grid_points equally spaced angles
    on [0, pi/2]; the solver and error_profile hold (grid_points, m+1)
    arrays, so their size is bounded as well."""
    if not (2 <= d <= _MAX_LOCAL_DIM and 1 <= n <= _MAX_COPIES):
        raise ValueError(
            f"unsupported range: require 2 <= d <= {_MAX_LOCAL_DIM} "
            f"and 1 <= n <= {_MAX_COPIES}, got d={d}, n={n}")
    if not 1 <= m <= _MAX_SAMPLES:
        raise ValueError(f"m = {m} is out of range: require 1 <= m <= {_MAX_SAMPLES}")
    if not 2 <= grid_points <= _MAX_GRID_POINTS:
        raise ValueError(f"grid_points = {grid_points} is out of range: "
                         f"require 2 <= grid_points <= {_MAX_GRID_POINTS}")
    if grid_points * (m + 1) > _MAX_TABLE_ENTRIES:
        raise ValueError(f"grid_points * (m + 1) = {grid_points * (m + 1)} is out "
                         f"of range: require grid_points * (m + 1) <= "
                         f"{_MAX_TABLE_ENTRIES}")
    return GeneralInstance(d=d, n=n, m=m,
                           gamma_grid=np.linspace(0.0, math.pi / 2, grid_points),
                           poly=_exact_block_weights(n))


@functools.lru_cache(maxsize=None)
def _exact_block_weights(n: int) -> np.ndarray:
    """Bernstein coefficients c[l, k] of every block weight in x = cos^2 gamma,
    beta_l(x) = sum_k C(n, k) x^k (1 - x)^(n-k) c[l, k].

    The canonical pair spans two levels, so block l is total spin J = n - l
    of two spin-n/2 factors, and with |pi>^n = |n/2, n/2>, c[l, k] is the
    squared Clebsch-Gordan coefficient <n/2, n/2; n/2, k - n/2 | J, k>^2
    (one term of Racah's formula, an integer ratio rounded once), 0 for
    k > J. Every column sums to 1; the array is shared and read-only.
    """
    f = math.factorial
    coeffs = np.zeros((n + 1, n + 1))
    for l in range(n + 1):
        j = n - l
        for k in range(j + 1):
            coeffs[l, k] = ((2 * j + 1) * f(n) * f(n - k) * f(j + k)
                            / (f(n + j + 1) * f(l) * f(k) * f(j - k)))
    coeffs.setflags(write=False)
    return coeffs


def beta_polynomials(inst: GeneralInstance) -> np.ndarray:
    """Bernstein coefficients (degree n in x = cos^2 gamma) of every block
    weight, one row per block; computed exactly by make_instance."""
    return inst.poly


class _AngleTable(NamedTuple):
    """Angles with their block weights (G, n+1) and binomial targets (G, m+1)."""
    gammas: np.ndarray
    beta: np.ndarray
    target: np.ndarray


def _angle_table(poly: np.ndarray, m: int, gammas: np.ndarray) -> _AngleTable:
    """Block weights (Bernstein coefficients ``poly``) and binomial targets
    of m samples at every angle of ``gammas``, both in the Bernstein basis
    C(deg, k) x^k (1 - x)^(deg-k) from one table of the powers of
    x = cos^2 gamma and of 1 - x; every term is non-negative."""
    gammas = np.asarray(gammas, dtype=float)
    x = np.cos(gammas) ** 2
    n = poly.shape[1] - 1
    xk, yk = np.stack([x, 1.0 - x])[:, :, None] ** np.arange(max(n, m) + 1)

    def bernstein(deg: int) -> np.ndarray:
        return _binomial_row(deg) * xk[:, :deg + 1] * yk[:, deg::-1]

    return _AngleTable(gammas, bernstein(n) @ poly.T, bernstein(m))


def _l1_errors(alpha: np.ndarray, table: _AngleTable,
               check: bool = False) -> np.ndarray:
    """L1 distance between alpha . beta(gamma) and the binomial target at
    every angle of ``table``; with ``check``, every achieved distribution
    is validated by qcore.check_outcome_distribution. Evaluated in blocks
    of about _BLOCK_ENTRIES entries, which stay in cache on large tables."""
    errors = np.empty(table.gammas.size)
    rows = max(1, _BLOCK_ENTRIES // alpha.shape[0])
    for i in range(0, errors.size, rows):
        f = table.beta[i:i + rows] @ alpha.T
        if check:
            qcore.check_outcome_distribution(f)
        f -= table.target[i:i + rows]
        np.abs(f, out=f)
        f.sum(axis=1, out=errors[i:i + rows])
    return errors


def achieved_distribution(inst: GeneralInstance, coeffs: CoefficientMatrix,
                          gamma: float) -> np.ndarray:
    """Outcome-count distribution f = alpha . beta(gamma)."""
    _check_shape(inst, coeffs)
    f = coeffs.alpha @ _angle_table(inst.poly, 0, np.array([gamma])).beta[0]
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


def _ratio_test(entries: np.ndarray, values: np.ndarray) -> int | None:
    """Index of the pivot among the entries above 1e-9 of the largest
    magnitude: the least values[j] / entries[j] (negative values count as
    0), ties within 1e-12 going to the largest entry; None if no entry
    qualifies."""
    cand = (entries > 1e-9 * np.abs(entries).max()).nonzero()[0]
    if not cand.size:
        return None
    size = entries[cand]
    value = values[cand]
    np.maximum(value, 0.0, out=value)
    ties = (value / size <= ((value + 1e-12) / size).min()).nonzero()[0]
    return int(cand[ties[size[ties].argmax()]])


class _CutLP:
    """The minimax LP over column-stochastic alpha (m+1, n+1) and t >= 0,
    minimizing t subject to every angle of a table, with cuts added where the
    error is worst, solved by a dense dual simplex that keeps its basis
    between calls.

    Since f and p both sum to 1, ||f - p||_1 = 2 max_S sum_{k in S} (f_k - p_k),
    attained at S = {k : f_k > p_k}. An angle gamma whose error exceeds t
    can add the cut 2 sum_{k in S} sum_l beta_l(gamma) alpha[k, l] - t
    <= 2 sum_{k in S} p_k(gamma). Each separation step cuts at the local
    maxima of the error over the sorted angles that err by more than
    t + _CUT_TOL, and at their neighbours that do, at most _MAX_CUTS of them,
    the most violated first; a near-duplicate angle beside a peak is thus
    cut with it. solve repeats until no angle errs by more than t + _CUT_TOL:
    the optimum of the LP with one slack per angle and outcome,
    f_k - p_k <= s_k and 2 sum_k s_k <= t, over the same angles.

    S comes from in-out separation (Wentges smoothing): ``centre`` starts at
    the uniform alpha 1/(m+1) and moves halfway to the current alpha in
    every separation step that adds cuts, and S is read from f at the moved
    centre, unless that S no longer cuts off the current alpha, in which
    case S is taken at alpha. Cuts at alpha alone, which jumps around in the
    early steps, go slack and are dropped again; the centre's are deeper, so a
    solve takes about a third of the pivots, and only the order of the cuts
    changes, not the optimum.

    The rows are the n+1 column sums, then the cuts; the variables are
    alpha (flattened row-major), t, then one slack per cut, and variable j
    is column 1 + j of two augmented arrays: ``orig`` holds the original
    rows [b | A], and the tableau ``T`` holds the reduced costs of ``costs``
    in row 0 and [B^-1 b | B^-1 A] for the basis B below it, so a pivot is
    one rank-1 update of T, made in place through ``buffer``. ``basis``
    holds the basic column of each row. A new cut enters with its slack
    basic, which keeps the basis dual feasible, so each solve resumes from
    the last basis.

    Only t costs anything, so every ratio test would tie among the alpha
    columns and the pivots would wander through ill-conditioned bases. The
    dual simplex therefore runs on costs with a fixed noise in
    [_COST_NOISE, 2 _COST_NOISE) on every nonbasic alpha column (the
    fractional parts of multiples of the golden ratio), and a primal simplex
    then returns from that optimum to the optimum of t alone.
    """

    def __init__(self, n_blk: int, m: int):
        self.shape = (m + 1, n_blk)
        n_alpha = (m + 1) * n_blk
        self.n_var = n_alpha + 1  # alpha and t
        idx = np.arange(n_alpha)
        self.orig = np.zeros((n_blk, 1 + self.n_var))
        self.orig[:, 0] = 1.0
        self.orig[idx % n_blk, 1 + idx] = 1.0
        # alpha[0, l] = 1 and t = 0: optimal before any cut
        self.basis = np.arange(1, 1 + n_blk)
        self.T = np.vstack([np.zeros(1 + self.n_var), self.orig])
        self.buffer = np.empty_like(self.T)  # of the rank-1 update of _pivot
        golden = (1.0 + math.sqrt(5.0)) / 2
        self.noise = _COST_NOISE * (1.0 + np.arange(1, 1 + n_alpha) * golden % 1.0)
        self.centre = np.full(self.shape, 1.0 / (m + 1))  # in-out stability centre
        self.pivots = 0
        self.fresh = True  # the tableau is exact, or rebuilt since a pivot
        self._set_costs(perturbed=False)

    def solve(self, table: _AngleTable) -> tuple[np.ndarray, float]:
        """Optimal alpha and t subject to every angle of ``table``; the
        answer comes from a basis refactored from the original rows."""
        self._set_costs(perturbed=True)
        alpha, t = self._cut(table)
        self._set_costs(perturbed=False)
        if self._cleanup():
            # cuts for the moved alpha; dual simplex pivots keep the basis
            # optimal for t alone
            alpha, t = self._cut(table)
        colsums = alpha.sum(axis=0)
        residual = max(-float(alpha.min()), float(np.max(np.abs(colsums - 1.0))))
        if not residual <= 1e-9:
            raise RuntimeError(
                f"LP solution violates its constraints by {residual:.3g}")
        return alpha, t

    def _cut(self, table: _AngleTable) -> tuple[np.ndarray, float]:
        """Dual simplex pivots and new cuts until no angle of ``table`` errs
        by more than t + _CUT_TOL at a refactored basis."""
        added = False
        while True:
            if not self._optimise() and added:
                # the tableau holds the new cuts as met: it has drifted
                if self.fresh:
                    raise RuntimeError(
                        "dual simplex cannot enforce a violated cut")
                self._refactor()
                added = False
                continue
            self._drop_slack_cuts()
            alpha, t = self._point()
            new = _cut_angles(_l1_errors(alpha, table), t + _CUT_TOL)
            added = new.size > 0
            if added:
                beta, target = table.beta[new], table.target[new]
                gap = beta @ alpha.T - target
                # S at the separation point between alpha and the centre,
                # where it still cuts off alpha; at alpha itself elsewhere
                self.centre = (self.centre + alpha) / 2
                over = beta @ self.centre.T > target
                deep = 2 * np.where(over, gap, 0.0).sum(axis=1) > t + _CUT_TOL
                over[~deep] = gap[~deep] > 0
                self._add_cuts(beta, target, over)
            elif self.fresh:
                return alpha, t
            else:
                self._refactor()

    def _set_costs(self, perturbed: bool) -> None:
        """Cost 1 on t and, when ``perturbed``, the noise on every nonbasic
        alpha column, so a basis optimal before stays optimal."""
        self.costs = np.zeros(1 + self.n_var)
        if perturbed:
            self.costs[1:-1] = self.noise
            self.costs[self.basis[self.basis < self.n_var]] = 0.0
        self.costs[-1] = 1.0
        self._reduce_costs()

    def _reduce_costs(self) -> None:
        c = np.zeros(self.T.shape[1])
        c[:1 + self.n_var] = self.costs
        self.T[0] = c - c[self.basis] @ self.T[1:]

    def _point(self) -> tuple[np.ndarray, float]:
        x = np.zeros(1 + self.n_var)
        structural = self.basis <= self.n_var
        x[self.basis[structural]] = self.T[1:, 0][structural]
        return x[1:-1].reshape(self.shape), float(x[-1])

    def _add_cuts(self, beta: np.ndarray, target: np.ndarray,
                  over: np.ndarray) -> None:
        count = over.shape[0]
        height, width = self.T.shape
        cuts = np.zeros((count, width + count))  # [b | A] of the new rows
        cuts[:, 0] = 2.0 * np.where(over, target, 0.0).sum(axis=1)
        cuts[:, 1:self.n_var] = (
            2.0 * over[:, :, None] * beta[:, None, :]).reshape(count, -1)
        cuts[:, self.n_var] = -1.0
        cuts[:, width:] = np.eye(count)
        tab = np.zeros((height + count, width + count))
        tab[:height, :width] = self.T
        # the new rows in terms of the nonbasic columns
        tab[height:] = cuts - cuts[:, self.basis] @ tab[1:height]
        self.T = tab
        self.basis = np.concatenate([self.basis, width + np.arange(count)])
        orig = np.zeros((height - 1 + count, width + count))
        orig[:height - 1, :width] = self.orig
        orig[height - 1:] = cuts
        self.orig = orig

    def _optimise(self) -> bool:
        """Dual simplex pivots until the basis is primal feasible; returns
        whether it pivoted. The most infeasible row leaves."""
        pivoted = False
        while True:
            r = int(self.T[1:, 0].argmin())
            row = self.T[1 + r]
            if row[0] >= -1e-12:
                return pivoted
            q = _ratio_test(-row[1:], self.T[0, 1:])
            if q is None:
                if self.fresh:
                    raise RuntimeError(
                        "dual simplex found no pivot: singular basis")
                self._refactor()
                continue
            self._pivot(r, 1 + q)
            pivoted = True

    def _cleanup(self) -> bool:
        """Primal simplex pivots from a primal feasible basis until no
        reduced cost is negative; returns whether it pivoted. The most
        negative reduced cost enters."""
        pivoted = False
        while True:
            q = 1 + int(self.T[0, 1:].argmin())
            if self.T[0, q] >= -1e-12:
                if pivoted:
                    self._refactor()
                return pivoted
            r = _ratio_test(self.T[1:, q], self.T[1:, 0])
            if r is None:
                raise RuntimeError("primal simplex found no pivot: singular basis")
            self._pivot(r, q)
            pivoted = True

    def _pivot(self, r: int, q: int) -> None:
        """Column q enters the basis in row r (row 1 + r of T)."""
        if self.pivots >= _MAX_PIVOTS:
            raise RuntimeError(
                f"simplex did not converge within {_MAX_PIVOTS} pivots")
        tab = self.T
        if self.buffer.shape != tab.shape:
            self.buffer = np.empty_like(tab)
        prow = tab[1 + r] / tab[1 + r, q]
        col = tab[:, q].copy()
        col[1 + r] = 0.0
        # in place: a fresh tableau-sized temporary per pivot makes the
        # speed depend on the allocator (glibc's mmap threshold)
        np.multiply(col[:, None], prow, out=self.buffer)
        tab -= self.buffer
        tab[1 + r] = prow
        self.basis[r] = q
        self.pivots += 1
        self.fresh = False

    def _drop_slack_cuts(self) -> None:
        """Deletes every cut whose slack is basic above 1e-9, with its
        tableau row, original row and slack column."""
        slack = (self.basis > self.n_var) & (self.T[1:, 0] > 1e-9)
        if not slack.any():
            return
        columns = np.ones(self.T.shape[1], dtype=bool)
        columns[self.basis[slack]] = False
        cols = columns.nonzero()[0]
        # cut i is original row n+1+i and has slack column 1+n_var+i
        rows = columns[1 + self.n_var - self.shape[1]:].nonzero()[0]
        tab_rows = np.concatenate(([True], ~slack)).nonzero()[0]
        self.T = self.T[tab_rows[:, None], cols]
        self.orig = self.orig[rows[:, None], cols]
        self.basis = (np.cumsum(columns) - 1)[self.basis[~slack]]

    def _refactor(self) -> None:
        """Rebuilds the tableau from the original rows for the current
        basis."""
        try:
            self.T[1:] = np.linalg.solve(self.orig[:, self.basis], self.orig)
        except np.linalg.LinAlgError:
            raise RuntimeError("dual simplex reached a singular basis") from None
        self._reduce_costs()
        self.fresh = True


def _sanitize(alpha: np.ndarray) -> np.ndarray:
    a = np.clip(alpha, 0.0, 1.0)
    return a / a.sum(axis=0, keepdims=True)


def _union(*arrays: np.ndarray) -> np.ndarray:
    """Sorted distinct values of the arrays: np.union1d without the
    numpy.ma import it triggers, about 30 ms of a cold run."""
    x = np.sort(np.concatenate(arrays))
    return x[np.concatenate([[True], x[1:] != x[:-1]])]


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Mask of the samples at least as large as their left neighbour and
    larger than their right one (the last of a plateau)."""
    padded = np.concatenate([[-math.inf], values, [-math.inf]])
    return (values >= padded[:-2]) & (values > padded[2:])


def _cut_angles(errors: np.ndarray, level: float) -> np.ndarray:
    """Indices of the sorted angles that get a cut: the local maxima of
    ``errors`` above ``level`` and their neighbours above it, the _MAX_CUTS
    largest at most, in decreasing order of error."""
    peak = _local_maxima(errors) & (errors > level)
    near = peak.copy()
    near[1:] |= peak[:-1]
    near[:-1] |= peak[1:]
    idx = np.flatnonzero(near & (errors > level))
    return idx[np.argsort(-errors[idx], kind="stable")[:_MAX_CUTS]]


def _bernstein_basis(deg: int, gammas: np.ndarray) -> np.ndarray:
    """(deg+1, G) Bernstein basis C(deg, i) x^i (1 - x)^(deg-i), deg >= 1, at
    x = cos^2 gamma for every angle of ``gammas``. The powers of x and 1 - x
    come from one table whose filled rows are multiplied by its last one,
    which doubles it in one contiguous product per step."""
    x = np.cos(gammas) ** 2
    powers = np.empty((deg + 1, 2, x.size))
    powers[0] = 1.0
    powers[1] = x, 1.0 - x
    k = 1
    while k < deg:
        step = min(k, deg - k)
        np.multiply(powers[1:step + 1], powers[k], out=powers[k + 1:k + step + 1])
        k += step
    basis = _binomial_row(deg)[:, None] * powers[:, 0]
    basis *= powers[::-1, 1]
    return basis


def _error_coefficients(alpha: np.ndarray, poly: np.ndarray, m: int) -> np.ndarray:
    """(D+1, m+1) Bernstein coefficients at degree D = max(n, m) of the errors
    e_k = f_k - p_k of alpha, one column per k: f_k has the degree-n
    coefficients (alpha @ poly)[k] and p_k the k-th degree-m unit vector,
    both elevated to degree D."""
    n = poly.shape[1] - 1
    deg = max(n, m)
    return (alpha @ poly @ _elevation(n, deg) - _elevation(m, deg)).T


@functools.lru_cache(maxsize=None)
def _derivative_maps(deg: int) -> np.ndarray:
    """(3, deg+1, deg+1) maps of the Bernstein coefficients of a polynomial of
    degree deg in x to those of itself and of its first and second
    derivatives, all at degree deg: the derivatives have the coefficients
    deg diff(c) and deg (deg-1) diff^2(c) at degrees deg-1 and deg-2
    (Farouki & Rajan), elevated back. Shared and read-only."""
    eye = np.eye(deg + 1)
    maps = np.zeros((3, deg + 1, deg + 1))
    maps[0] = eye
    maps[1] = deg * (_elevation(deg - 1, deg).T @ np.diff(eye, axis=0))
    if deg > 1:
        maps[2] = deg * (deg - 1) * (_elevation(deg - 2, deg).T
                                     @ np.diff(eye, 2, axis=0))
    maps.setflags(write=False)
    return maps


def _violated_angles(alpha: np.ndarray, poly: np.ndarray, m: int,
                     threshold: float, gammas: np.ndarray,
                     basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-angle local maximizers of the L1 error: every local maximum
    of the dense sorted scan ``gammas`` (with its _bernstein_basis ``basis`` of
    degree D = max(n, m)) above ``threshold``, and the global one, polished
    together by a safeguarded Newton iteration in gamma on
    E(gamma) = sum_k |e_k(x)|, x = cos^2 gamma (after rtsafe, Numerical
    Recipes 9.4).

    Each peak keeps a bracket, first its two scan neighbours, and the best
    angle evaluated in it, whose error is at least those of both ends, so a
    local maximum stays inside. Each step evaluates e, e' and e'' at every
    unfinished peak with one basis build and one product with the
    _derivative_maps of the e_k, takes the signs of the e_k there, and forms
    E_gamma = -E_x sin 2gamma and
    E_gammagamma = E_xx sin^2 2gamma - 2 E_x cos 2gamma. The worse of the new
    and the best angle becomes a bracket end, and the sign of E_gamma at the
    best angle drops its falling side. The next angle is the Newton step
    from the best angle if E_gammagamma < 0 (or E_gamma = 0) and it lands
    inside the bracket, and the bracket's midpoint otherwise, which handles
    kinks, flat tops and boundary maxima. Each peak starts at the vertex of
    the parabola through its three scan values, clipped into the bracket
    (the scan angle itself is evaluated next if that vertex is worse), and
    is done when its last Newton step is at most 1e-7 (quadratic
    convergence leaves an error of order 1e-14) or its bracket is narrower
    than 1e-12. Only the final candidates (both neighbours, the polished
    angle and the scan angle) are scored on an _angle_table, so the returned
    errors are those of _l1_errors. Returns the angles and their errors."""
    coef = _error_coefficients(alpha, poly, m)
    values = np.abs(coef.T @ basis).sum(axis=0)
    peak = _local_maxima(values) & (values > threshold)
    peak[int(np.argmax(values))] = True
    idx = np.flatnonzero(peak)
    left, right = np.maximum(idx - 1, 0), np.minimum(idx + 1, gammas.size - 1)
    lo, hi = gammas[left], gammas[right]
    # vertex of the parabola through the three scan values (none at an end)
    du, dv = gammas[idx] - lo, gammas[idx] - hi
    fu, fv = values[idx] - values[right], values[idx] - values[left]
    den = du * fu - dv * fv
    shift = np.divide(du * du * fu - dv * dv * fv, 2.0 * den,
                      out=np.zeros(idx.size), where=den > 0)
    g = np.clip(gammas[idx] - shift, lo, hi)  # the next angle of each peak
    a, b = lo.copy(), hi.copy()
    # the best angle so far and its error, and there E_gamma and
    # E_gammagamma, NaN until evaluated (the scan gives only the error)
    c, c_err = gammas[idx], values[idx]
    slope, curve = np.full((2, idx.size), math.nan)
    deg = coef.shape[0] - 1
    derivs = (_derivative_maps(deg) @ coef).transpose(0, 2, 1)
    live = np.arange(idx.size)
    # bisection halves the widest bracket to 1e-12 in this many steps; the
    # first step and the one at a blind scan angle come on top
    halvings = math.log2(max(float(np.max(b - a)), 1e-12) / 1e-12)
    for _ in range(math.ceil(halvings) + 2):
        at, cl = g[live], c[live]
        e = derivs @ _bernstein_basis(deg, at)
        err, ex, exx = (np.sign(e[0]) * e).sum(axis=1)
        sin2, cos2 = np.sin(2.0 * at), np.cos(2.0 * at)
        # the worse of the new and the best angle becomes a bracket end, so
        # the best one keeps an error at least those of both ends
        better = (err >= c_err[live]) | (at == cl)
        far, near = np.where(better, cl, at), np.where(better, at, cl)
        al = np.where(far < near, far, a[live])
        bl = np.where(far > near, far, b[live])
        c_err[live] = np.where(better, err, c_err[live])
        sl = np.where(better, -ex * sin2, slope[live])
        cu = np.where(better, exx * sin2 * sin2 - 2.0 * ex * cos2, curve[live])
        # and the sign of E_gamma there keeps the rising side
        al = np.where(sl > 0, near, al)
        bl = np.where(sl < 0, near, bl)
        newton = np.divide(-sl, cu, out=np.zeros(live.size), where=cu < 0)
        nxt = near + newton
        take = (((cu < 0) | (sl == 0))
                & ((nxt == near) | ((al < nxt) & (nxt < bl))))
        # a blind best angle is evaluated next
        nxt = np.where(take, nxt, np.where(np.isnan(sl), near, (al + bl) / 2))
        a[live], b[live], c[live], g[live] = al, bl, near, nxt
        slope[live], curve[live] = sl, cu
        done = (take & (np.abs(newton) <= 1e-7)) | (bl - al < 1e-12)
        live = live[~done]
        if not live.size:
            break
    candidates = np.stack([lo, g, hi, gammas[idx]])
    table = _angle_table(poly, m, candidates.ravel())
    scores = _l1_errors(alpha, table).reshape(candidates.shape)
    best = np.argmax(scores, axis=0)
    cols = np.arange(idx.size)
    return candidates[best, cols], scores[best, cols]


def solve_minimax(inst: GeneralInstance,
                  refine_tol: float = 1e-4) -> tuple[CoefficientMatrix, float]:
    """Minimize the worst-case L1 distance over strategies by LP, with
    cutting-plane refinement until the continuous worst case exceeds the
    grid optimum by less than ``refine_tol``.

    One _CutLP lives for the whole solve. Each refinement round solves it,
    from its last basis, over the refined grid: ``inst.gamma_grid`` plus the
    off-grid angles added so far; the LP cuts only where the error over that
    grid peaks (the exchange method for semi-infinite LPs). The off-grid
    local maximizers of the error that exceed the optimum by ``refine_tol``
    then join the refined grid. _violated_angles finds them on the error
    polynomials: it scans them at the _SCAN_SAMPLES scan angles, whose basis
    is built once per solve, and polishes every peak by safeguarded Newton
    steps on their derivatives. The returned value is the worst case of the
    sanitized strategy over the refined grid."""
    if not (math.isfinite(refine_tol) and refine_tol > 0):
        raise ValueError(f"refine_tol = {refine_tol!r} is not a positive number")
    poly, m = beta_polynomials(inst), inst.m
    scan = np.linspace(0.0, math.pi / 2, _SCAN_SAMPLES)
    scan_basis = _bernstein_basis(max(inst.n, m), scan)
    table = _angle_table(poly, m, inst.gamma_grid)
    lp = _CutLP(poly.shape[0], m)
    for _ in range(_MAX_ROUNDS):
        alpha, t = lp.solve(table)
        angles, errors = _violated_angles(alpha, poly, m, t + refine_tol,
                                          scan, scan_basis)
        if np.max(errors) <= t + refine_tol:
            break
        table = _angle_table(poly, m, _union(table.gammas,
                                             angles[errors > t + refine_tol]))
    else:
        raise RuntimeError(
            f"grid refinement did not converge within {_MAX_ROUNDS} rounds "
            f"(tolerance {refine_tol})")
    coeffs = CoefficientMatrix(m=m, n=inst.n, alpha=_sanitize(alpha))
    return coeffs, float(np.max(_l1_errors(coeffs.alpha, table, check=True)))

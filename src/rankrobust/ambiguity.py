"""Ambiguity indices on priors over a finite state set and robust minimization.

An ambiguity index is a grounded convex penalty c on the simplex of priors.
Every index values utility profiles through one method, ``robust_solve(U)``:
for each row u of the (rows, n_states) array U it returns the robust value
min_q { q . u + c(q) } and an attaining prior.  A maxmin set (the indicator
penalty of a finite prior set's hull) and a tabulated penalty are one
object, listed priors q_j with costs c_j (zero for maxmin), valued by one
scan of min_j { q_j . u + c_j }; the relative-entropy penalty has the
multiplier closed form and the relative Gini penalty a water-filling
quadratic program.  Each row is solved on its own, so a row's value and
minimizer do not depend on the size or layout of the batch it arrives in:
a one-row call gives every batch row bit for bit.

The dual side reconstructs the minimal penalty from certainty values alone:
c*(q) = sup_u { I(u) - q . u } with I the robust value, taken over a box
[low, high]^n of utility profiles.  ``c_min_exact`` solves this concave
maximization and returns a certified bracket (lower bound attained at a box
point, upper bound from a mixture of listed priors or the Frank-Wolfe gap,
solver status and iterations).

The module needs numpy alone.  For listed priors the ``cmin`` LP and
``MaxminSet.penalty``'s hull membership test are one L1 problem over
mixtures of the priors, solved by ``_l1_simplex``, a dense revised simplex.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distribution import PROB_SUM_TOL, exact_row_sums, exact_sum, sums_off_one
from .errors import ConfigError, DomainError, ShapeError, SolverError, SpecStringError, UnknownPriorError

HULL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Prior:
    """A probability vector over the (ordered) state set."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if w.ndim != 1 or w.size == 0:
            raise ShapeError("a prior must be a non-empty 1-D weight vector")
        refused = _refused_prior_row(w[None, :])
        if refused is not None:
            raise DomainError(refused[1])
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n: int) -> "Prior":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n: int, index: int) -> "Prior":
        w = np.zeros(n)
        w[index] = 1.0
        return cls(w)

    @property
    def n_states(self) -> int:
        return self.weights.size

    def __repr__(self):
        return f"Prior({_weights_text(self.weights)})"


def _refused_prior_row(rows: np.ndarray) -> tuple[int, str] | None:
    """The first row of the 2-D array that is no prior, and why: a row with
    a negative or NaN weight comes first, then the first row whose correctly
    rounded sum is off 1 by more than PROB_SUM_TOL.  None when every row is
    a prior."""
    negative = ~(rows >= 0.0).all(axis=1)  # NaN-safe
    if negative.any():
        w = int(np.argmax(negative))
        return w, f"prior weights must be >= 0, got min {rows[w].min()}"
    off = sums_off_one(rows, PROB_SUM_TOL)
    if off.any():
        w = int(np.argmax(off))
        return w, f"prior weights must sum to 1 within {PROB_SUM_TOL}, got {exact_sum(rows[w].tolist())!r}"
    return None


def _weights_text(a: np.ndarray) -> str:
    """The 1-d float array as "[w1, w2, ...]", each value ``format(w, ".6g")``;
    past 1,000 values only the first and last three, around "...".  Python's
    float formatting writes it, so numpy's print options cannot change a
    report or a message."""
    shown = a if a.size <= 1000 else np.concatenate((a[:3], a[-3:]))
    texts = [format(x, ".6g") for x in shown.tolist()]
    if a.size > 1000:
        texts.insert(3, "...")
    return "[" + ", ".join(texts) + "]"


PRODUCT_BLOCK = 1 << 17  # floats in one temporary product block of _prior_dots


def _utility_rows(U, n: int) -> np.ndarray:
    """U as a C-contiguous (rows, n) float array; ShapeError for another
    shape, DomainError unless every utility is finite."""
    U = np.ascontiguousarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] != n:
        raise ShapeError(f"utility rows must have shape (rows, {n}), got {U.shape}")
    if not np.isfinite(U).all():
        raise DomainError("per-state utilities must be finite")
    return U


def _prior_dots(U: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """q . u for every prior q, a row of the (priors, states) matrix, and
    every row u of U, as a (rows, priors) array.  A (rows, priors, states)
    matrix lists each row's own priors.

    Each dot is numpy's pairwise sum, along a contiguous axis, of the
    products over all states in state order, so it depends on q and u
    alone: not on the other priors, the other rows or U's layout (a BLAS
    product picks its summation order by shape).  Priors go in blocks of at
    most PRODUCT_BLOCK products.
    """
    step = max(1, PRODUCT_BLOCK // max(1, U.size))
    dots = []
    for lo in range(0, matrix.shape[-2], step):
        products = np.multiply(U[:, None, :], matrix[..., lo : lo + step, :], order="C")  # (rows, block, states)
        dots.append(products.sum(axis=-1))
    return np.concatenate(dots, axis=1)


SIMPLEX_PIVOTS_PER_COLUMN = 4  # pivot cap of _l1_simplex, per column of its standard form


def _l1_simplex(matrix: np.ndarray, costs: np.ndarray, q: np.ndarray, r: float):
    """min over lam in the simplex of lam . costs + r ||P^T lam - q||_1, for
    the (k, n) matrix P of listed priors, by a dense revised simplex.

    Standard form: columns lam (k), s+ and s- (n each), rows
    P^T lam - s+ + s- = q and 1^T lam = 1.  The start is the best listed
    prior, argmin_j c_j + r ||p_j - q||_1, with s+_i basic where
    p_j,i >= q_i and s-_i elsewhere.  Degenerate vertices are common
    (duplicate priors, q at a vertex), so both the entering and the leaving
    variable follow Bland's rule: the least index.  The basis inverse is
    kept by rank-one updates, refactorized when B x_B - b drifts, so a
    pivot costs O(n^2 + kn).  At most SIMPLEX_PIVOTS_PER_COLUMN * (k + 2n)
    pivots run.

    Returns (lam, y, pivots, stop): the last basis's lam (clipped at 0),
    the duals y of the n state rows (|y| <= r at an optimum), the pivot
    count and why it stopped: "optimal" once the reduced costs certify
    optimality, "iteration_limit" at the cap, or "no_pivot_element" when
    rounding left the entering column no positive entry.
    """
    k, n = matrix.shape
    columns = np.zeros((k + 2 * n, n + 1))  # column j of the standard form is row j
    columns[:k, :n], columns[:k, n] = matrix, 1.0
    columns[k : k + n, :n], columns[k + n :, :n] = -np.eye(n), np.eye(n)
    b, cost = np.append(q, 1.0), np.concatenate([costs, np.full(2 * n, r)])
    misfit = matrix - q
    start = int(np.argmin(costs + r * np.abs(misfit).sum(axis=1)))
    basis = np.concatenate([[start], np.where(misfit[start] >= 0.0, k, k + n) + np.arange(n)])
    inverse = np.linalg.inv(columns[basis].T)
    dual_tol = 1e-12 * (1.0 + r + float(np.max(costs)))
    pivots, cap = 0, SIMPLEX_PIVOTS_PER_COLUMN * (k + 2 * n)
    while True:
        x, point = inverse @ b, np.zeros(k + 2 * n)
        point[basis] = x
        if np.max(np.abs(point @ columns - b)) > 1e-12:
            inverse = np.linalg.inv(columns[basis].T)
            x = inverse @ b
        x[x <= 1e-12] = 0.0  # degenerate rows tie exactly in the ratio test
        y = cost[basis] @ inverse
        entering = np.flatnonzero(cost - columns @ y < -dual_tol)
        if entering.size == 0:
            stop = "optimal"
            break
        if pivots == cap:
            stop = "iteration_limit"
            break
        column = inverse @ columns[entering[0]]
        rows = np.flatnonzero(column > 1e-9)
        if rows.size == 0:  # the LP is bounded, so only rounding can do this
            stop = "no_pivot_element"
            break
        ratios = x[rows] / column[rows]
        ties = rows[ratios == ratios.min()]
        leave = ties[np.argmin(basis[ties])]
        pivot_row = inverse[leave] / column[leave]
        touched = np.flatnonzero(column)  # slack columns keep the basis sparse
        inverse[touched] -= np.outer(column[touched], pivot_row)
        inverse[leave] = pivot_row
        basis[leave] = entering[0]
        pivots += 1
    lam = np.zeros(k)
    lam[basis[basis < k]] = x[basis < k]
    return lam, y[:n], pivots, stop


def _as_weights(q, n: int) -> np.ndarray:
    w = q.weights if isinstance(q, Prior) else Prior(np.asarray(q, dtype=float)).weights
    if w.size != n:
        raise ShapeError(f"prior has {w.size} states, index expects {n}")
    return w


class AmbiguityIndex:
    """Base class: a grounded convex penalty on priors over n_states states."""

    kind = "abstract"

    @property
    def n_states(self) -> int:
        raise NotImplementedError

    def penalty(self, q) -> float:
        """Penalty of the prior q; non-negative, possibly +inf."""
        raise NotImplementedError

    def robust_solve(self, U) -> tuple[np.ndarray, np.ndarray]:
        """min_q { q . u + c(q) } for every row u of the (rows, n_states)
        array U: the (rows,) values and the (rows, n_states) weights of an
        attaining prior per row.  Raises ShapeError unless U has n_states
        columns and DomainError unless every entry is finite."""
        raise NotImplementedError

    def zero_penalty_prior(self) -> Prior:
        """Some prior with penalty zero (exists by groundedness)."""
        raise NotImplementedError

    def recentered(self, n: int) -> "AmbiguityIndex":
        """The same kind of index on n states; an index on n states already is
        returned as is.  Raises ShapeError when the index cannot be carried to
        another state count (a tabulated grid cannot)."""
        if n != self.n_states:
            raise ShapeError(f"cannot adapt {self.describe()} to {n} states")
        return self

    def describe(self) -> str:
        raise NotImplementedError


class _ListedPriors(AmbiguityIndex):
    """min_j { q_j . u + c_j } over listed priors q_j with costs c_j >= 0.

    The priors are the rows of a matrix and ``costs`` the vector of the c_j,
    the least of them 0.  robust_solve scans the rows (first index wins ties,
    making results schedule-independent).
    """

    def __init__(self, priors):
        rows = [p.weights if isinstance(p, Prior) else np.asarray(p, dtype=float) for p in priors]
        if not rows:
            raise DomainError(f"{self.kind} penalty needs at least one prior")
        if any(row.ndim != 1 or row.size == 0 for row in rows):
            raise ShapeError("a prior must be a non-empty 1-D weight vector")
        self._n = rows[0].size
        if any(row.size != self._n for row in rows):
            raise ShapeError(f"all priors of a {self.kind} penalty must have the same length")
        self._matrix = np.vstack(rows)
        refused = _refused_prior_row(self._matrix)  # all rows at once, as Prior checks one
        if refused is not None:
            raise DomainError(refused[1])

    @property
    def priors(self) -> tuple[Prior, ...]:
        return tuple(Prior(row) for row in self._matrix)

    @property
    def n_states(self) -> int:
        return self._n

    def robust_solve(self, U) -> tuple[np.ndarray, np.ndarray]:
        vals = _prior_dots(_utility_rows(U, self.n_states), self._matrix)
        vals += self.costs
        return vals.min(axis=1), self._matrix[vals.argmin(axis=1)]

    def zero_penalty_prior(self) -> Prior:
        return Prior(self._matrix[int(np.argmin(self.costs))])


class MaxminSet(_ListedPriors):
    """Indicator penalty of the convex hull of finitely many priors.

    For a linear objective the minimum over the hull is attained at a listed
    point, so the scan of the listed priors values it; its costs are -0.0,
    which leave every dot as it is (x + -0.0 is x, -0.0 included).
    Membership (``penalty``) is decided by the simplex that minimizes the
    L1 distance ||P^T lam - q||_1 over mixtures lam of the listed priors;
    a test stopped at the pivot cap before either verdict is certified
    raises SolverError.
    """

    kind = "maxmin"

    def __init__(self, priors):
        super().__init__(priors)
        self._simplex, self.costs = False, np.full(len(self._matrix), -0.0)

    @classmethod
    def vertices(cls, n: int) -> "MaxminSet":
        """The whole simplex on n states, as the hull of its n point masses.

        Values, minimizers (one-hot rows) and penalties (0 for every prior)
        need no prior matrix: the n x n identity is built only for
        ``priors`` and the ``cmin`` simplex, on first use.
        """
        if n < 1:
            raise ShapeError("a prior must be a non-empty 1-D weight vector")
        out = cls.__new__(cls)
        out._n, out._simplex, out.costs = n, True, np.full(n, -0.0)
        return out

    @functools.cached_property
    def _matrix(self) -> np.ndarray:
        """The listed priors as rows.  ``__init__`` sets it; only a
        ``vertices(n)`` set builds it here, as the n x n identity."""
        return np.eye(self._n)

    def penalty(self, q) -> float:
        w = _as_weights(q, self.n_states)
        if self._simplex:  # the hull is the whole simplex
            return 0.0
        # Cheap exact-vertex test first.  The simplex then minimizes
        # ||P^T lam - q||_1 over mixtures lam: q is in the hull when the mixture
        # reproduces q and sums to 1 within HULL_TOL, and outside only when
        # the reduced costs certify that no mixture comes closer.
        if np.min(np.max(np.abs(self._matrix - w), axis=1)) <= HULL_TOL:
            return 0.0
        mix, _, pivots, stop = _l1_simplex(self._matrix, np.zeros(len(self._matrix)), w, 1.0)
        if np.max(np.abs(self._matrix.T @ mix - w)) <= HULL_TOL and abs(mix.sum() - 1.0) <= HULL_TOL:
            return 0.0
        if stop == "optimal":
            return math.inf
        raise SolverError(f"maxmin hull-membership test: simplex stopped after {pivots} pivots")

    def robust_solve(self, U) -> tuple[np.ndarray, np.ndarray]:
        if not self._simplex:
            return super().robust_solve(U)
        U = _utility_rows(U, self.n_states)
        best = U.argmin(axis=1)
        minimizers = np.zeros(U.shape)
        minimizers[np.arange(len(best)), best] = 1.0
        return U.min(axis=1), minimizers

    def zero_penalty_prior(self) -> Prior:
        return Prior.point_mass(self._n, 0) if self._simplex else super().zero_penalty_prior()

    def recentered(self, n: int) -> "MaxminSet":
        """On another state count, the whole simplex (its n vertices)."""
        return self if n == self.n_states else MaxminSet.vertices(n)

    def describe(self) -> str:
        return f"maxmin over {self._n if self._simplex else len(self._matrix)} priors"


class _ReferencePenalty(AmbiguityIndex):
    """A penalty of finite scale theta > 0 around a full-support reference prior p'."""

    def __init__(self, theta: float, reference: Prior):
        if not 0.0 < theta < math.inf:
            raise DomainError(f"{self.kind} penalty needs a finite theta > 0, got {theta}")
        reference = reference if isinstance(reference, Prior) else Prior(np.asarray(reference, dtype=float))
        if np.any(reference.weights <= 0.0):
            raise DomainError(f"{self.kind} reference prior must have strictly positive weights")
        self.theta = float(theta)
        self.reference = reference

    @property
    def n_states(self) -> int:
        return self.reference.n_states

    def zero_penalty_prior(self) -> Prior:
        return self.reference

    def recentered(self, n: int) -> "_ReferencePenalty":
        """On another state count, the same theta around the uniform prior."""
        return self if n == self.n_states else type(self)(self.theta, Prior.uniform(n))

    def describe(self) -> str:
        return f"{self.kind}(theta={self.theta:g}) around {self.reference!r}"


class Entropic(_ReferencePenalty):
    """Relative-entropy penalty theta * sum_w q_w log(q_w / p'_w).

    The reference prior must have full support.  The robust value has the
    multiplier closed form -theta * log E'[exp(-u/theta)] with minimizer
    proportional to p'_w exp(-u_w/theta).
    """

    kind = "entropic"

    def penalty(self, q) -> float:
        w = _as_weights(q, self.n_states)
        # q log(q / p'), with 0 log 0 = 0.
        logs = np.log(w / self.reference.weights, out=np.zeros_like(w), where=w > 0)
        return self.theta * float(np.sum(w * logs))

    def robust_solve(self, U) -> tuple[np.ndarray, np.ndarray]:
        logits = np.log(self.reference.weights) - _utility_rows(U, self.n_states) / self.theta
        # Row by row, log-sum-exp rounded as scipy.special.logsumexp rounds
        # it: the maxima leave the shifted sum and come back as the log of
        # their count.
        top = logits.max(axis=1, keepdims=True)
        is_top = logits == top
        count = is_top.sum(axis=1, keepdims=True, dtype=float)
        shifted = np.exp(np.where(is_top, -np.inf, logits) - top).sum(axis=1, keepdims=True)
        lse = np.log1p(shifted / count) + np.log(count) + top
        q = np.exp(logits - lse)
        return -self.theta * lse[:, 0], q / exact_row_sums(q)[:, None]


class Gini(_ReferencePenalty):
    """Relative Gini penalty theta * E'[(dq/dp' - 1)^2] (expectation under p').

    robust_solve solves the convex quadratic over the simplex by water-filling:
    q_w = p'_w * max(0, 1 + (mu - u_w) / (2 theta)).  The multiplier mu is
    exact: with u sorted, the active states are the k cheapest, where k is
    the number of prefixes whose gap sum_{i<=k} p'_i (u_k - u_i) is below
    2 theta, and mu then solves the mass constraint in closed form.
    """

    kind = "gini"

    def penalty(self, q) -> float:
        w = _as_weights(q, self.n_states)
        p = self.reference.weights
        return self.theta * float(np.sum((w - p) ** 2 / p))

    def _minimizers(self, U: np.ndarray) -> np.ndarray:
        """Exact KKT minimizers for the rows of U; each row is solved on its own."""
        p = self.reference.weights
        two_theta = 2.0 * self.theta
        order = np.argsort(U, axis=-1, kind="stable")
        u = np.take_along_axis(U, order, axis=-1)
        ps = p[order]
        mass = np.cumsum(ps, axis=-1)
        # gap_k = sum_{i<=k} p_i (u_k - u_i), accumulated from non-negative steps.
        gap = np.zeros_like(u)
        gap[..., 1:] = np.cumsum(mass[..., :-1] * np.diff(u, axis=-1), axis=-1)
        last = np.sum(gap < two_theta, axis=-1, keepdims=True) - 1
        active_mass = np.take_along_axis(mass, last, axis=-1)
        active_sum = np.take_along_axis(np.cumsum(ps * u, axis=-1), last, axis=-1)
        mu = (two_theta * (1.0 - active_mass) + active_sum) / active_mass
        q = p * np.maximum(0.0, 1.0 + (mu - U) / two_theta)
        return q / q.sum(axis=-1, keepdims=True)

    def robust_solve(self, U) -> tuple[np.ndarray, np.ndarray]:
        U = _utility_rows(U, self.n_states)
        q = self._minimizers(U)
        p = self.reference.weights
        return np.sum(q * U, axis=-1) + self.theta * np.sum((q - p) ** 2 / p, axis=-1), q


class Tabulated(_ListedPriors):
    """Explicit (prior, penalty) grid, re-grounded at construction.

    Lookups require an exact grid match; anything else is an error rather
    than a silent nearest-neighbour guess.
    """

    kind = "tabulated"

    def __init__(self, entries):
        entries = list(entries)
        super().__init__([prior for prior, _ in entries])
        costs = np.array([float(value) for _, value in entries])
        bad = ~(np.isfinite(costs) & (costs >= 0.0))
        if bad.any():
            raise DomainError(f"tabulated penalty values must be finite and >= 0, got {costs[bad][0]}")
        self.costs = costs - costs.min()  # re-ground: minimum penalty must be zero

    def penalty(self, q) -> float:
        w = _as_weights(q, self.n_states)
        gaps = np.max(np.abs(self._matrix - w), axis=1)
        idx = int(np.argmin(gaps))
        if gaps[idx] > 1e-12:
            raise UnknownPriorError(
                f"prior {_weights_text(w)} is not on the tabulated grid "
                f"(closest gap {gaps[idx]:g})"
            )
        return float(self.costs[idx])

    def describe(self) -> str:
        return f"tabulated on {len(self._matrix)} priors"


# ---------------------------------------------------------------------------
# Dual side: the minimal-penalty bracket
# ---------------------------------------------------------------------------

class CMinBracket(NamedTuple):
    """lower <= c*(q) <= upper on a box, with how the solver got there."""

    lower: float
    upper: float
    status: str
    iterations: int


CMIN_RTOL = 1e-9
NEWTON_MAX_ITER = 50


def _fenchel_gap(amb: AmbiguityIndex, q_row: np.ndarray, u: np.ndarray) -> tuple[float, np.ndarray]:
    """I(u) - q . u at one box point and the minimizer q*(u), from one robust
    solve, for q the single row of q_row.  q . u is the dot the listed-prior
    scan takes for q as a listed prior."""
    row = u[None, :]
    values, minimizers = amb.robust_solve(row)
    return float(values[0] - _prior_dots(row, q_row)[0, 0]), minimizers[0]


def _rounding_slack(n: int, value: float, radius: float) -> float:
    """Outward allowance for the rounding of an n-term Fenchel gap of size
    value at a point of a box of this radius."""
    return 4 * n * float(np.finfo(float).eps) * (1.0 + abs(value) + radius)


def _c_min_lp(amb, w, low, high) -> CMinBracket:
    """Listed priors: c*(q) = min over lam in the simplex of
    lam . c + r ||P^T lam - q||_1 with r the box's half width (P^T lam - q
    sums to 0), solved by ``_l1_simplex``; its duals y give the box point
    u = (low + high) / 2 - y of the lower bound."""
    matrix, costs = amb._matrix, amb.costs
    k, n = matrix.shape
    lam, y, pivots, status = _l1_simplex(matrix, costs, w, 0.5 * (high - low))
    best = max(_fenchel_gap(amb, w[None, :], np.clip(0.5 * (low + high) - y, low, high))[0], 0.0)
    # Any lam on the simplex bounds the sup: I(u) <= sum_j lam_j (p_j . u + c_j),
    # so c*(q) <= lam . c + max over the box of (P^T lam - q) . u, taken per state.
    lam /= lam.sum()
    g = matrix.T @ lam - w
    upper = math.fsum(np.concatenate([lam * costs, np.maximum(low * g, high * g)]))
    # Outward allowance for the rounding of P^T lam, lam . c and lam's normalisation.
    upper += 4 * (k + n) * float(np.finfo(float).eps) * (1.0 + max(abs(low), abs(high)) + float(costs.max()))
    if upper - best <= CMIN_RTOL * (1.0 + abs(best)):
        status = "converged"
    elif status == "optimal":
        status = "lp_bracket_open"
    lower = max(best - _rounding_slack(n, best, max(abs(low), abs(high))), 0.0)
    return CMinBracket(lower, upper, status, pivots)


def _hessian(amb, q_star: np.ndarray) -> np.ndarray:
    """Hessian of the robust value at a point whose minimizer is q_star."""
    if isinstance(amb, Entropic):
        return -(np.diag(q_star) - np.outer(q_star, q_star)) / amb.theta
    active = np.where(q_star > 0.0, amb.reference.weights, 0.0)
    return -(np.diag(active) - np.outer(active, active) / active.sum()) / (2.0 * amb.theta)


def _c_min_smooth(amb, w, low, high) -> CMinBracket:
    """Entropic and Gini: projected Newton from the box centre until the
    Frank-Wolfe bracket f(u) + max_x g . (x - u) closes."""

    def at(u):
        """(u, f, g, q*, Frank-Wolfe gap) at the box point u."""
        f, q_star = _fenchel_gap(amb, q_row, u)
        g = q_star - w
        # By concavity f(x) <= f(u) + g . (x - u); each term is >= 0 on the box.
        return u, f, g, q_star, float(np.sum(np.maximum(g * (low - u), g * (high - u))))

    n, q_row = w.size, w[None, :]
    eps, radius = float(np.finfo(float).eps), max(abs(low), abs(high))
    u, f, g, q_star, frank_wolfe = at(np.full(n, 0.5 * (low + high)))
    best, iterations, stop = max(f, 0.0), 0, "iteration_limit"

    def search(direction, closed):
        """The first step direction / 2^k that raises f, or that shrinks the
        Frank-Wolfe gap without losing f: near the optimum f is flat to its
        rounding while the gap, a slope times the box width, is not, so until
        the bracket is closed the step may lose that much.  Once it is closed,
        only the full step is tried and no loss is allowed: Newton's last
        steps are cheap and pull the lower bound up to lattice points that sit
        on the optimum, such as box corners, and steps that raise (f, -gap)
        cannot cycle between two points an ulp apart."""
        slack = 0.0 if closed else _rounding_slack(n, f, radius)
        for k in range(1 if closed else 60):
            trial = at(np.clip(u + 0.5**k * direction, low, high))
            if trial[1] > f or (trial[1] >= f - slack and trial[4] < frank_wolfe):
                return trial
        return None

    for _ in range(NEWTON_MAX_ITER):
        closed = frank_wolfe <= CMIN_RTOL * (1.0 + abs(best))
        if frank_wolfe == 0.0:
            break
        # Bertsekas' projected Newton: coordinates on or near a bound their
        # slope points out of go to that bound; Newton moves the others.
        near = min(1e-3 * (high - low), float(np.max(np.abs(np.clip(u + g, low, high) - u))))
        to_low, to_high = (u <= low + near) & (g < 0.0), (u >= high - near) & (g > 0.0)
        free = ~(to_low | to_high)
        step = np.where(to_low, low - u, np.where(to_high, high - u, 0.0))
        hessian = _hessian(amb, q_star)
        curvature = -np.diag(hessian)
        flat = free & (curvature <= n * eps * curvature.max())
        curved = free & ~flat
        # The Hessian is singular along the all-ones vector: least squares.
        step[curved] = np.linalg.lstsq(hessian[np.ix_(curved, curved)], -g[curved], rcond=None)[0]
        if not g[curved] @ step[curved] > 0.0:
            step[curved] = g[curved]
        # f is linear along a state without curvature (a Gini state outside the
        # minimizer's support), and nearly so along one whose curvature is
        # below lstsq's cutoff of n ulps of the largest: it heads for the box
        # face its slope points to, as in a Frank-Wolfe step, and the line
        # search cuts the way short.
        step[flat] = np.where(g[flat] < 0.0, low - u[flat], np.where(g[flat] > 0.0, high - u[flat], 0.0))
        iterations += 1
        # Clipping can turn the Newton step away from ascent on a badly scaled
        # box; the Frank-Wolfe step towards the box vertex g points to cannot.
        trial = search(step, closed) or search(np.where(g > 0.0, high, np.where(g < 0.0, low, u)) - u, closed)
        if trial is None:
            stop = "line_search_failed"
            break
        u, f, g, q_star, frank_wolfe = trial
        best = max(best, f)
    # best >= f, so best + gap is at least as far out as f + gap; both bounds
    # move outward by the rounding of f, g and the gap's n terms.
    allowance = _rounding_slack(n, best, radius)
    upper = best + frank_wolfe + allowance
    status = "converged" if upper - best <= CMIN_RTOL * (1.0 + abs(best)) else stop
    return CMinBracket(max(best - allowance, 0.0), upper, status, iterations)


def c_min_exact(amb: AmbiguityIndex, q, low: float, high: float) -> CMinBracket:
    """Bracket the minimal penalty c*(q) = sup_u { I(u) - q . u } over the box
    [low, high]^n, where I is the robust value of amb.

    The lower bound is I(u) - q . u at a box point u (a Fenchel point),
    lowered by an allowance for its rounding (4 n eps (1 + |gap| + box
    radius)), so it does not exceed the penalty it bounds.  It is never
    below 0: amb is grounded, so every constant profile a * 1 in the box
    gives exactly I(a * 1) - q . (a * 1) = a - a = 0, and the allowance
    stops there.

    ``MaxminSet`` and ``Tabulated`` solve min over lam in the simplex of
    lam . c + r ||P^T lam - q||_1, r = (high - low) / 2, by ``_l1_simplex``:
    the lower bound is read at u = (low + high) / 2 - y for the duals y of
    its state rows, and the upper bound is the same objective at its lam,
    so the bracket is valid wherever the simplex stopped.  ``iterations``
    counts its pivots.  ``Entropic`` and ``Gini`` run projected Newton from
    the box centre (Hessians -(diag q* - q* q*^T)/theta, and
    -(diag p_A - p_A p_A^T/sum p_A)/(2 theta) on the minimizer's support A)
    until the Frank-Wolfe upper bound is within CMIN_RTOL * (1 + |lower|) of
    the lower one.  Both upper bounds carry an outward allowance for rounding.
    ``status`` is "converged", or says why the bracket stayed open
    ("lp_bracket_open", "iteration_limit" at the simplex's pivot cap or
    Newton's, "no_pivot_element", "line_search_failed").
    """
    w = _as_weights(q, amb.n_states)
    low, high = float(low), float(high)
    if not (math.isfinite(low) and math.isfinite(high) and low <= high):
        raise DomainError(f"cmin box needs finite low <= high, got [{low}, {high}]")
    if isinstance(amb, _ListedPriors):
        return _c_min_lp(amb, w, low, high)
    if isinstance(amb, (Entropic, Gini)):
        return _c_min_smooth(amb, w, low, high)
    raise ConfigError(f"no exact cmin solver for {amb.describe()}")


def simplex_grid(n: int, resolution: int) -> np.ndarray:
    """All probability vectors with weights k/resolution, as an (m, n) array
    whose rows ascend lexicographically."""
    if n < 1 or resolution < 1:
        raise DomainError("simplex grid needs n >= 1 and resolution >= 1")
    # Column by column: a row with ``left`` units still to place branches
    # into left + 1 rows that put 0, 1, ..., left units in the next column;
    # the last column takes what is left.
    counts, left = np.empty((1, 0), dtype=int), np.array([resolution])
    for _ in range(n - 1):
        branches = left + 1
        parent = np.repeat(np.arange(len(left)), branches)
        placed = np.arange(len(parent)) - np.repeat(np.cumsum(branches) - branches, branches)
        counts, left = np.column_stack((counts[parent], placed)), left[parent] - placed
    return np.column_stack((counts, left)) / resolution


# ---------------------------------------------------------------------------
# Spec-string parsing (grammar consumed by the CLI)
# ---------------------------------------------------------------------------

def parse_prior(spec: str, state_ids) -> Prior:
    """Parse `w1=p1,w2=p2,...`, `uniform`, or a bare comma list of weights.

    Named weights are aligned to ``state_ids``; omitted states get weight
    zero, and a state named twice is refused.
    """
    ids = [str(s) for s in state_ids]
    text = spec.strip()
    if text.lower() == "uniform":
        return Prior.uniform(len(ids))
    try:
        if "=" in text:
            weights, named = dict.fromkeys(ids, 0.0), set()
            for part in text.split(","):
                name, _, val = part.partition("=")
                name = name.strip()
                if name not in weights:  # a ValueError: the message below names the spec
                    raise ValueError(f"prior names unknown state {name!r}")
                if name in named:
                    raise ValueError(f"prior names state {name!r} twice")
                named.add(name)
                weights[name] = float(val)
            return Prior(np.array([weights[s] for s in ids]))
        vals = [float(x) for x in text.split(",")]
        if len(vals) != len(ids):
            raise ValueError(f"prior lists {len(vals)} weights for {len(ids)} states")
        return Prior(np.array(vals))
    except ValueError as exc:  # DomainError and ShapeError among them
        raise SpecStringError(f"bad prior spec {spec!r}: {exc}") from exc


def _load_penalty_table(path: str, state_ids) -> Tabulated:
    """The table at path: a header naming every state and ``penalty`` (a
    name given twice reads its last column), then one row per prior, blank
    lines skipped; messages name the row's line in the file."""
    names = [str(s) for s in state_ids] + ["penalty"]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        where = {name: i for i, name in enumerate(header)}
        missing = [c for c in names if c not in where]
        if missing:
            raise SpecStringError(f"penalty table {path} lacks columns {missing}")
        columns, cells, lines = [where[c] for c in names], [], []
        for row in filter(None, reader):
            line = reader.line_num
            lines.append(line)
            if len(row) != len(header):
                raise SpecStringError(f"penalty table {path} line {line}: expected {len(header)} fields, got {len(row)}")
            try:
                cells.append([float(row[i]) for i in columns])
            except ValueError as exc:
                raise SpecStringError(f"penalty table {path} line {line}: {exc}") from exc
    table = np.array(cells).reshape(-1, len(names))
    refused = _refused_prior_row(table[:, :-1])
    if refused is not None:
        raise SpecStringError(f"penalty table {path} line {lines[refused[0]]}: {refused[1]}")
    return Tabulated(zip(table[:, :-1], table[:, -1]))


def parse_penalty(spec: str, state_ids) -> AmbiguityIndex:
    """Parse `maxmin:[prior;prior;...] | entropic:theta@prior | gini:theta@prior
    | table:file.csv` (plus the `maxmin:vertices` convenience)."""
    text = spec.strip()
    head, _, rest = text.partition(":")
    head = head.lower()
    n = len(state_ids)
    try:
        if head == "maxmin":
            if rest.strip().lower() == "vertices":
                return MaxminSet.vertices(n)
            body = rest.strip()
            if body.startswith("[") and body.endswith("]"):
                body = body[1:-1]
            priors = [parse_prior(p, state_ids) for p in body.split(";") if p.strip()]
            return MaxminSet(priors)
        if head == "entropic":
            theta, _, prior = rest.partition("@")
            return Entropic(float(theta), parse_prior(prior, state_ids))
        if head == "gini":
            theta, _, prior = rest.partition("@")
            return Gini(float(theta), parse_prior(prior, state_ids))
        if head == "table":
            return _load_penalty_table(rest.strip(), state_ids)
    except (ValueError, DomainError, ShapeError, OSError) as exc:
        if isinstance(exc, SpecStringError):
            raise
        raise SpecStringError(f"bad penalty spec {spec!r}: {exc}") from exc
    raise SpecStringError(f"unknown penalty kind in spec {spec!r}")

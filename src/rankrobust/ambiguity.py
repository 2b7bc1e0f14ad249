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
point, upper bound from a mixture of listed priors or from priors on the
entropic or Gini KKT path, solver status and iterations).

The module needs numpy alone.  For listed priors the ``cmin`` LP and
``MaxminSet.penalty``'s hull membership test are one L1 problem over
mixtures of the priors, solved by ``_l1_simplex``, a dense revised simplex.

``parse_penalty``, ``parse_prior`` and ``spec_state_ids`` (the states of a
command with no scenario) split specs by one rule, ``_split_penalty``'s and
``_prior_parts``'s; a refused penalty always names its spec.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distribution import PROB_SUM_TOL, exact_row_sums, exact_sum, read_csv_table, sums_off_one
from .errors import ConfigError, DomainError, ShapeError, SolverError, SpecStringError, UnknownPriorError
from .spec import float_list

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

    def robust_solve(self, U) -> tuple[np.ndarray, np.ndarray]:
        """The kind's ``_solve``, refused if it overflowed: an entry of a
        value or a minimizer that is not finite."""
        with np.errstate(all="ignore"):
            values, q = self._solve(_utility_rows(U, self.n_states))
        if not (np.isfinite(values).all() and np.isfinite(q).all()):
            raise DomainError(f"{self.kind} penalty with theta={self.theta!r}: robust value is not finite")
        return values, q


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

    def _solve(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        logits = np.log(self.reference.weights) - U / self.theta
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
    2 theta, and mu then solves the mass constraint in closed form.  Rows
    are read by row index from one stable sort.  When 2 theta is below the
    rounding of mu, every weight of a row can clip to 0; such a row's
    minimizer is p' on its least utilities.  A theta whose solve overflows
    (such as 1e308) raises DomainError.
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
        order = np.argsort(U, axis=1, kind="stable")
        rows = np.arange(len(U))
        u, ps = U[rows[:, None], order], p[order]
        mass = np.cumsum(ps, axis=1)
        # gap_k = sum_{i<=k} p_i (u_k - u_i), accumulated from non-negative
        # steps; gap_1 = 0 is below 2 theta, so the last active state's
        # index is the count of the later gaps below it.
        last = (np.cumsum(mass[:, :-1] * (u[:, 1:] - u[:, :-1]), axis=1) < two_theta).sum(axis=1)
        active_mass = mass[rows, last]
        mu = (two_theta * (1.0 - active_mass) + np.cumsum(ps * u, axis=1)[rows, last]) / active_mass
        q = p * np.maximum(0.0, 1.0 + (mu[:, None] - U) / two_theta)
        total = q.sum(axis=-1, keepdims=True)
        if not total.all():
            # 2 theta below the rounding of mu can clip every weight of a
            # row: its minimizer is then p' on its least utilities.
            q = np.where(total > 0.0, q, p * (U == U.min(axis=1, keepdims=True)))
            total = q.sum(axis=-1, keepdims=True)
        return q / total

    def _solve(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q, p = self._minimizers(U), self.reference.weights
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


def _rounding_slack(n: int, value, radius: float):
    """Outward allowance for the rounding of an n-term Fenchel gap of size
    value (a float or an array of them) at a point of a box of this radius."""
    return 4 * n * float(np.finfo(float).eps) * (1.0 + abs(value) + radius)


def _c_min_lp(amb, w, low, high) -> CMinBracket:
    """Listed priors: c*(q) = min over lam in the simplex of
    lam . c + r ||P^T lam - q||_1 with r the box's half width (P^T lam - q
    sums to 0), solved by ``_l1_simplex``; its duals y give the box point
    u = (low + high) / 2 - y of the lower bound."""
    matrix, costs = amb._matrix, amb.costs
    k, n = matrix.shape
    lam, y, pivots, status = _l1_simplex(matrix, costs, w, 0.5 * (high - low))
    u = np.clip(0.5 * (low + high) - y, low, high)[None, :]
    # q . u is the dot the listed-prior scan takes for q as a listed prior.
    best = max(float(amb.robust_solve(u)[0][0] - _prior_dots(u, w[None, :])[0, 0]), 0.0)
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


def _ordered(x: float) -> int:
    """An integer that orders as the double x does (-0.0 and 0.0 share 0), so
    adjacent doubles are adjacent integers; ``_unordered`` inverts it."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -bits - (1 << 63)


def _unordered(key: int) -> float:
    return float(np.int64(key if key >= 0 else -key - (1 << 63)).view(np.float64))


def _c_min_smooth(amb, w, low, high) -> CMinBracket:
    """Entropic and Gini on the KKT path.  At x = (lam - u) / theta the robust
    minimizer is p' d(x), lam setting its mass to 1, for the density
    d(x) = exp(x) (entropic) or max(1 + x / 2, 0) (Gini).  So the box
    maximizer lies on x(lam) = clip(d^-1(q / p'), (lam - high) / theta,
    (lam - low) / theta), whose mass p' . d(x) grows with lam from at most 1
    at lam = low to at least 1 at lam = high.  lam is bisected to two
    adjacent doubles, and the bracket is read there by weak duality, in
    v = d(x) - 1 so that no theta-sized terms cancel.  Below:
    I(u) >= lam - theta p' . phi(v), phi(v) = v (entropic) or v (2 + v)
    (Gini).  Above: c*(q) <= c(r) + the box's max of (r - q) . u for every
    prior r, taken for r = p' (1 + v) with v the mix of the two ends' v
    whose mass is 1, for r = p' and for r = q.
    """
    theta, n, radius = amb.theta, w.size, max(abs(low), abs(high))
    p = amb.reference.weights / math.fsum(amb.reference.weights)
    entropic = isinstance(amb, Entropic)

    def excess(x):
        return np.expm1(x) if entropic else np.maximum(0.5 * x, -1.0)

    with np.errstate(all="ignore"):
        # theta d^-1(q / p'): -inf for an entropic state with q_i = 0, which sits at high.
        interior = theta * (np.log(w / p) if entropic else 2.0 * (w - p) / p)
        lo, hi, iterations = _ordered(low), _ordered(high), 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lam = _unordered(mid)
            if p @ excess(np.clip(interior, lam - high, lam - low) / theta) < 0.0:
                lo = mid
            else:
                hi = mid
            iterations += 1
        lam = np.array([[_unordered(lo)], [_unordered(hi)]])
        y = np.clip(interior, lam - high, lam - low)  # lam - u at both ends, finite
        v, u = excess(y / theta), np.clip(lam - y, low, high)
        amb.robust_solve(u)  # refuses a theta whose solve overflows, as every command does
        phi = v if entropic else v * (2.0 + v)
        best = max(float(np.max(lam[:, 0] - u @ w - theta * (phi @ p))), 0.0)
        mass = v @ p
        # The ends' masses p' . v straddle 0; mixing their v to mass 0 leaves
        # each state inside the box at v = q_i / p'_i - 1, so at r_i = q_i.
        mix = min(max(-mass[0] / (mass[1] - mass[0]), 0.0), 1.0) if mass[1] > mass[0] else 0.0
        v = np.stack([v[0] + mix * (v[1] - v[0]), np.zeros(n), excess(interior / theta)])
        mass = (v @ p)[:, None]
        r = p * (1.0 + v) / (1.0 + mass)
        if entropic:  # log(r / p') = log1p(v) - log1p(mass)
            penalty = np.sum(np.where(r > 0.0, r * np.log1p(v), 0.0), axis=1) - np.log1p(mass[:, 0])
        else:
            penalty = np.sum(p * ((v - mass) / (1.0 + mass)) ** 2, axis=1)
        bounds = theta * penalty + np.sum(np.maximum(low * (r - w), high * (r - w)), axis=1)
    # A row that overflowed (nan) bounds nothing.
    upper = float(np.fmin.reduce(bounds + _rounding_slack(n, bounds, radius)))
    lower = max(best - _rounding_slack(n, best, radius), 0.0)
    if not lower <= upper:
        raise SolverError(f"{amb.kind} penalty with theta={theta!r}: cmin lower bound {lower!r} "
                          f"exceeds its upper bound {upper!r}")
    status = "converged" if upper - best <= CMIN_RTOL * (1.0 + abs(best)) else "bracket_open"
    return CMinBracket(lower, upper, status, iterations)


def c_min_exact(amb: AmbiguityIndex, q, low: float, high: float) -> CMinBracket:
    """Bracket the minimal penalty c*(q) = sup_u { I(u) - q . u } over the box
    [low, high]^n, where I is the robust value of amb.

    The lower bound is I(u) - q . u at a box point u (a Fenchel point), or
    for ``Entropic`` and ``Gini`` a weak-duality bound below it, lowered by an
    allowance for its rounding (4 n eps (1 + |gap| + box radius)), so it
    does not exceed the penalty it bounds.  It is never
    below 0: amb is grounded, so every constant profile a * 1 in the box
    gives exactly I(a * 1) - q . (a * 1) = a - a = 0, and the allowance
    stops there.

    ``MaxminSet`` and ``Tabulated`` solve min over lam in the simplex of
    lam . c + r ||P^T lam - q||_1, r = (high - low) / 2, by ``_l1_simplex``:
    the lower bound is read at u = (low + high) / 2 - y for the duals y of
    its state rows, and the upper bound is the same objective at its lam,
    so the bracket is valid wherever the simplex stopped.  ``iterations``
    counts its pivots.  ``Entropic`` and ``Gini`` bisect the multiplier of
    the KKT path u(lam) (``_c_min_smooth``) to two adjacent doubles, at most
    64 steps, which ``iterations`` counts; both bounds are then read there by
    weak duality, the lower one at a box point the index's ``robust_solve``
    also values (so a theta whose solve overflows is refused), the upper one
    as c(r) + max over the box of (r - q) . u for priors r.  Both upper
    bounds carry an outward allowance for rounding.  ``status`` is
    "converged" once upper - lower is within CMIN_RTOL * (1 + |lower|), or
    says why the bracket stayed open ("lp_bracket_open", "iteration_limit" at
    the simplex's pivot cap, "no_pivot_element", "bracket_open" on the path).
    A lower bound above the upper one raises SolverError.
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

def _prior_parts(text: str) -> list[tuple[str, str]]:
    """The (state name, weight text) pairs of a named prior spec."""
    return [(name.strip(), val) for name, _, val in (part.partition("=") for part in text.split(","))]


def parse_prior(spec: str, state_ids) -> Prior:
    """Parse `w1=p1,w2=p2,...`, `uniform`, or a bare comma list of weights.

    Named weights are aligned to ``state_ids``; omitted states get weight
    zero, and a state named twice is refused.
    """
    text = spec.strip()
    if text.lower() == "uniform":
        return Prior.uniform(len(state_ids))
    try:
        if "=" in text:
            ids = list(map(str, state_ids))
            weights, named = dict.fromkeys(ids, 0.0), set()
            for name, val in _prior_parts(text):
                if name not in weights:  # a ValueError: the message below names the spec
                    raise ValueError(f"prior names unknown state {name!r}")
                if name in named:
                    raise ValueError(f"prior names state {name!r} twice")
                named.add(name)
                weights[name] = float(val)
            return Prior(np.array([weights[s] for s in ids]))
        vals = float_list(text)
        if len(vals) != len(state_ids):
            raise ValueError(f"prior lists {len(vals)} weights for {len(state_ids)} states")
        return Prior(np.array(vals))
    except ValueError as exc:  # DomainError and ShapeError among them
        raise SpecStringError(f"bad prior spec {spec!r}: {exc}") from exc


def _load_penalty_table(path: str, state_ids) -> Tabulated:
    """The table at path: a header naming every state and ``penalty`` (a
    name given twice reads its last column), then one row per prior, blank
    lines skipped; messages name the row's line in the file."""
    names = [str(s) for s in state_ids] + ["penalty"]
    prefix = f"penalty table {path} "
    def pick(header):
        where = {name: i for i, name in enumerate(header)}
        missing = [c for c in names if c not in where]
        if missing:
            raise SpecStringError(f"{prefix}lacks columns {missing}")
        return [where[c] for c in names]

    _, _, lines, cells = read_csv_table(path, pick, SpecStringError, prefix)
    priors = cells[:-1].T
    refused = _refused_prior_row(priors)
    if refused is not None:
        raise SpecStringError(f"{prefix}line {lines[refused[0]]}: {refused[1]}")
    return Tabulated(zip(priors, cells[-1]))


def _split_penalty(spec: str) -> tuple[str, str, list[str]]:
    """A penalty spec's kind, its argument (maxmin body, theta or table path)
    and its prior specs."""
    head, _, rest = spec.strip().partition(":")
    head = head.lower()
    if head == "maxmin":
        body = rest.strip()
        inner = body[1:-1] if body.startswith("[") and body.endswith("]") else body
        return head, body, [p for p in inner.split(";") if p.strip()]
    if head in ("entropic", "gini"):
        theta, _, prior = rest.partition("@")
        return head, theta, [prior]
    return head, rest.strip(), []


def spec_state_ids(penalty: str, prior: str | None = None) -> list[str]:
    """The state set of a command that reads no scenario: the names the
    penalty spec's named priors give, in order of first appearance and split
    as ``parse_prior`` splits them (``_prior_parts``); failing those, the names a named
    ``prior`` gives, or w0 ... w(n-1) for a bare ``prior`` of n weights."""
    for specs in (_split_penalty(penalty)[2], [prior or ""]):
        names = dict.fromkeys(name for p in specs if "=" in p for name, _ in _prior_parts(p))
        if names:
            return list(names)
    text = (prior or "").strip()
    if prior is not None and text.lower() != "uniform":
        return [f"w{i}" for i in range(len(text.split(",")))]
    read = f"penalty spec {penalty!r}" + ("" if prior is None else f" or prior spec {prior!r}")
    raise SpecStringError(f"cannot fix the state set: no named priors (w1=p1,...) in {read}")


def parse_penalty(spec: str, state_ids) -> AmbiguityIndex:
    """Parse `maxmin:[prior;prior;...] | entropic:theta@prior | gini:theta@prior
    | table:file.csv` (plus the `maxmin:vertices` convenience).  Every
    refusal is a SpecStringError ``bad penalty spec '<spec>': <reason>``."""
    head, arg, priors = _split_penalty(spec)
    try:
        if head == "maxmin":
            if arg.lower() == "vertices":
                return MaxminSet.vertices(len(state_ids))
            return MaxminSet([parse_prior(p, state_ids) for p in priors])
        if head in ("entropic", "gini"):
            kind = Entropic if head == "entropic" else Gini
            return kind(float(arg), parse_prior(priors[0], state_ids))
        if head == "table":
            return _load_penalty_table(arg, state_ids)
    except (ValueError, DomainError, ShapeError, OSError) as exc:
        raise SpecStringError(f"bad penalty spec {spec!r}: {exc}") from exc
    raise SpecStringError(f"unknown penalty kind in spec {spec!r}")

"""Finite discrete distributions, two-stage payoff variables, and dominance checks.

A :class:`DiscreteDistribution` is the law of a one-stage payoff: a sorted,
strictly increasing support with probabilities summing to one.  A
:class:`TwoStageVariable` is a payoff matrix over (state of the world,
outcome) together with per-state outcome probabilities; its per-state rows
are one-stage lotteries.  Both are immutable after construction and all
operations here are pure.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

#: Support points closer than this are merged at construction.
MERGE_TOL = 1e-12

#: Probabilities must sum to one within this tolerance.
PROB_SUM_TOL = 1e-12

_EPS = float(np.finfo(float).eps)

#: Blocks of at most this many entries (a portfolio's weight rows, a small
#: panel) are summed row by row; larger ones take the bounded numpy check.
SMALL_BLOCK = 64

#: Recognized dominance orders.
ORDERS = ("fsd", "ssd", "phissd")

#: Dominance comparisons treat cdf (or integrated-cdf) gaps within this as equal.
DOMINANCE_TOL = 1e-12


class DiscreteDistribution:
    """Finite-support probability law of a monetary payoff.

    Points without mass are dropped first, so none leads a group; the rest
    are sorted and merged by ``merge_rows``: a point within MERGE_TOL of its
    group's first point joins the group, and the group's mass is the
    correctly rounded sum of its members' (independent of their order).
    The stored ``values`` are strictly increasing, ``probs`` sum to one
    within 1e-12, and ``cumulative`` holds their ``running_sums``, the last
    exactly 1.
    """

    __slots__ = ("values", "probs", "cumulative")

    def __init__(self, values, probs):
        v = np.asarray(values, dtype=float)
        p = np.asarray(probs, dtype=float)
        if v.ndim != 1 or p.ndim != 1 or v.shape != p.shape or v.size == 0:
            raise ShapeError("values and probs must be equal-length non-empty 1-D sequences")
        if not np.all(np.isfinite(v)):
            raise DomainError("support values must be finite")
        if not np.all(p >= 0.0):  # NaN-safe
            raise DomainError(f"probabilities must be >= 0, got min {p.min()}")
        keep = p > 0.0
        if not keep.any():
            raise DomainError("distribution has no support point with positive mass")
        v, p = v[keep], p[keep]
        order = np.argsort(v, kind="stable")
        (v,), (p,) = merge_rows(v[None, order], p[None, order])
        total = exact_sum(p.tolist())
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            raise DomainError(f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {total!r}")
        cum = running_sums(p)
        cum[-1] = 1.0
        v.setflags(write=False)
        p.setflags(write=False)
        cum.setflags(write=False)
        self.values = v
        self.probs = p
        self.cumulative = cum

    def cdf_many(self, ts) -> np.ndarray:
        """P(payoff <= t) at each t; right-continuous, 0 below the support."""
        idx = np.searchsorted(self.values, np.asarray(ts, dtype=float), side="right")
        cum0 = np.concatenate(([0.0], self.cumulative))
        return cum0[idx]

    def survival(self, i: int) -> float:
        """P(payoff > values[i]), correctly rounded."""
        return math.fsum(self.probs[i + 1 :])

    def pushforward(self, fn) -> "DiscreteDistribution":
        """Law of fn(payoff) for strictly increasing fn (order is preserved)."""
        return DiscreteDistribution(np.asarray(fn(self.values), dtype=float), self.probs)

    def __repr__(self):
        pairs = ", ".join(f"{v:g}: {q:g}" for v, q in zip(self.values, self.probs))
        return f"DiscreteDistribution({{{pairs}}})"


def exact_sum(values) -> float:
    """The correctly rounded sum of a sequence of floats, as ``math.fsum``
    gives it, and where fsum raises, what exact arithmetic gives: +-inf for a
    sum beyond the float range and nan for inf - inf."""
    try:
        return math.fsum(values)
    except OverflowError:  # finite partial sums overflowed
        special = [x for x in values if not math.isfinite(x)]
        if special:
            return sum(special)
        from fractions import Fraction  # imported here: it loads decimal, which start-up need not pay for

        total = sum(map(Fraction, values))
        try:
            return float(total)
        except OverflowError:
            return math.inf if total > 0 else -math.inf
    except ValueError:  # inf - inf
        return math.nan


def exact_row_sums(rows: np.ndarray) -> np.ndarray:
    """``exact_sum`` of each row of a 2-d array: ``math.fsum`` over the rows
    of one flat list, and ``exact_sum`` row by row where fsum raises.

    Rows of at most two entries need no fsum: one IEEE addition is correctly
    rounded, overflows to the infinity exact arithmetic gives and turns
    inf - inf into nan, and ``+ 0.0`` makes a sum of negative zeros fsum's
    0.0."""
    if rows.shape[1] <= 2:
        with np.errstate(over="ignore", invalid="ignore"):
            return (rows[:, 0] + rows[:, 1] if rows.shape[1] == 2 else rows.sum(axis=1)) + 0.0
    flat = iter(rows.ravel().tolist())
    try:
        return np.fromiter(map(math.fsum, zip(*[flat] * rows.shape[1])), float, len(rows))
    except (ValueError, OverflowError):  # inf - inf, a sum past the float range, or rows of width 0
        return np.array([exact_sum(row) for row in rows.tolist()], dtype=float)


def running_sums(x: np.ndarray) -> np.ndarray:
    """Neumaier running sums along the last axis of the non-negative x: the
    naive ``cumsum`` s plus the running sum of its steps' rounding errors,
    each exact (Fast2Sum of the larger and the smaller of the sum before
    the step and the new term)."""
    s = np.add.accumulate(x, axis=-1)
    before, term = s[..., :-1], x[..., 1:]
    s[..., 1:] += np.add.accumulate((np.maximum(before, term) - s[..., 1:]) + np.minimum(before, term), axis=-1)
    return s


def merge_rows(values: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The support merge of every row of the (rows, width) values, each row
    with some mass, its points with mass sorted and ahead of its zero-mass
    points (which may follow in any order), so that no point without mass
    leads a group: a point within MERGE_TOL of its group's first point
    joins the group, a group's mass is the correctly rounded sum of its
    members' masses (>= 0), and groups without mass are dropped.  Returns
    the groups' first values and masses, left-aligned; each row is padded
    with zero masses at its last group's value.  A block whose points with
    mass are all more than MERGE_TOL apart is returned as it is, which one
    reduction decides.

    A group's members are one run of the flat block, summed in a fixed
    number of passes over it: a group with at most two members with mass
    takes their one IEEE addition (adding zeros is exact); one with k >= 3
    equal masses m takes k * m, one correctly rounded product; and only one
    with three or more unequal masses takes an ``exact_sum`` call.  A sum
    past the float range is the inf ``exact_sum`` gives."""
    gap = values[:, 1:] - values[:, :-1] > MERGE_TOL
    if (gap | (masses[:, 1:] <= 0.0)).all():
        return values, masses
    rows, width = values.shape
    first = np.ones(values.shape, dtype=bool)
    first[:, 1:] = gap
    # A point within MERGE_TOL above the one before it still starts a group
    # if it lies more than MERGE_TOL above its group's first point.
    for j in (np.flatnonzero(((values[:, 1:] > values[:, :-1]) & ~first[:, 1:]).any(axis=0)) + 1).tolist():
        lead = np.where(first[:, :j], np.arange(j), 0).max(axis=1)
        first[:, j] = values[:, j] - values[np.arange(rows), lead] > MERGE_TOL
    start = np.flatnonzero(first)
    masses = masses.ravel()
    positive = masses > 0.0
    with np.errstate(over="ignore"):
        mass = np.add.reduceat(masses, start)
        members = np.add.reduceat(positive, start, dtype=np.intp)  # members with mass
        many = np.flatnonzero(members > 2)
        if many.size:
            top = np.maximum.reduceat(masses, start)[many]
            equal = top == np.minimum.reduceat(np.where(positive, masses, np.inf), start)[many]
            mass[many] = members[many] * top
            end = np.append(start[1:], masses.size)
            for g in many[~equal].tolist():
                mass[g] = exact_sum(masses[start[g]:end[g]].tolist())
    keep = mass > 0.0
    start, mass = start[keep], mass[keep]
    row = start // width
    count = np.bincount(row, minlength=rows)
    slot = np.arange(row.size) - (np.cumsum(count) - count)[row]
    merged, merged_mass = np.empty((rows, count.max())), np.zeros((rows, count.max()))
    merged[row, slot] = values.ravel()[start]
    merged_mass[row, slot] = mass
    pad = np.arange(merged.shape[1]) >= count[:, None]
    return np.where(pad, merged[np.arange(rows), count - 1][:, None], merged), merged_mass


def sums_off_one(rows: np.ndarray, tol: float) -> np.ndarray:
    """For each row of a 2-D array, whether ``not abs(exact_sum(row) - 1) <= tol``.

    The row sum s that numpy computes (a product with a vector of ones) is
    off the exact sum S of the row's m entries by at most gamma_m * sum|x|,
    in whatever order the additions run (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 4.2), and the correctly rounded total is off S by
    at most u * sum|x|.  The radius r = (2m + 4) eps sum|x| bounds both, with
    room for the rounding of sum|x| and of the test, so s settles every row
    whose |s - 1| is more than r away from tol.  ``exact_sum`` decides the
    rest: rows within r of the tolerance edge, and rows with a NaN, an
    infinite entry or an overflowing sum, whose s or r is not finite.  It
    also decides every row of a block of at most SMALL_BLOCK entries, where
    the bounded check's dozen numpy calls cost more than summing each row.
    """
    if rows.size <= SMALL_BLOCK:
        return np.array([not abs(exact_sum(row) - 1.0) <= tol for row in rows.tolist()], dtype=bool)
    ones = np.ones(rows.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # such rows go to exact_sum
        dist = np.abs(rows @ ones - 1.0)
        radius = np.abs(rows) @ ones * ((2 * rows.shape[1] + 4) * _EPS)
    off = dist > tol
    sure = np.abs(dist - tol) > radius
    if not sure.all():
        for w in np.flatnonzero(~sure):
            off[w] = not abs(exact_sum(rows[w].tolist()) - 1.0) <= tol
    return off


def check_outcome_probs(state_ids, probs: np.ndarray) -> None:
    """Raise DomainError, naming the state, unless every row of the
    (state x outcome) matrix is non-negative and sums to one.

    A negative entry is reported first, then the first row whose correctly
    rounded sum is not within PROB_SUM_TOL of 1.  Each row is decided from
    numpy's row sum s and a rounding radius r (``sums_off_one``): it passes
    when |s - 1| + r <= tol and fails when |s - 1| - r > tol.  ``math.fsum``
    runs only on the rows in between, on rows with a NaN, an infinite entry
    or an overflowing sum, on the row whose total the message prints, and
    on every row of a matrix of at most SMALL_BLOCK entries.
    """
    negative = probs < 0.0
    if negative.any():
        w, s = np.argwhere(negative)[0]
        raise DomainError(
            f"outcome probability {float(probs[w, s])!r} in state {state_ids[w]!r} (outcome {int(s)}) is negative"
        )
    off = sums_off_one(probs, PROB_SUM_TOL)
    if off.any():
        w = int(np.argmax(off))
        total = exact_sum(probs[w].tolist())
        raise DomainError(f"outcome probabilities in state {state_ids[w]!r} sum to {total!r}, not 1")


def read_csv_table(path: str, pick, error: type[Exception], prefix: str):
    """Read the UTF-8 CSV file at path once: the header, the non-blank rows
    after it, the physical line each row ends on, and the cells: row j is
    column ``pick(header)[j]`` (pick may raise a header error), converted by
    ``float`` in one pass.  The first row with other than ``len(header)``
    fields, or with a picked cell that is no number (in pick order), raises
    ``error(f"{prefix}line {line}: ...")``, and so does the first line the
    csv module refuses (a cell longer than ``csv.field_size_limit()``)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh.readlines())
    try:
        header = next(reader, [])
        picked = pick(header)
        rows, lines = [], []
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    except csv.Error as exc:
        raise error(f"{prefix}line {reader.line_num}: {exc}") from exc
    try:
        if set(map(len, rows)) - {len(header)}:
            raise ValueError
        columns = list(zip(*rows)) or [()] * len(header)
        cells = np.array([list(map(float, columns[i])) for i in picked])
    except ValueError:
        for row, line in zip(rows, lines):
            if len(row) != len(header):
                raise error(f"{prefix}line {line}: expected {len(header)} fields, got {len(row)}")
            try:
                for i in picked:
                    float(row[i])
            except ValueError as exc:
                raise error(f"{prefix}line {line}: {exc}") from exc
        raise
    return header, rows, lines, cells


class TwoStageVariable:
    """Bounded payoff over (state of the world w, outcome s).

    ``outcome_probs[w, s]`` is the probability of outcome ``s`` in state
    ``w`` (every row sums to one); ``payoffs[w, s]`` is the monetary payoff.
    All states share the same outcome index set, so point-wise arithmetic
    across variables on the same space is well defined.
    """

    __slots__ = ("state_ids", "outcome_probs", "payoffs")

    def __init__(self, state_ids, outcome_probs, payoffs):
        ids = tuple(map(str, state_ids))
        probs = np.array(outcome_probs, dtype=float)
        pay = np.array(payoffs, dtype=float)
        if len(ids) == 0:
            raise ShapeError("at least one state is required")
        if len(set(ids)) != len(ids):
            raise ShapeError("state ids must be unique")
        if probs.ndim != 2 or pay.ndim != 2:
            raise ShapeError("outcome_probs and payoffs must be 2-D (state x outcome)")
        if probs.shape != pay.shape or probs.shape[0] != len(ids):
            raise ShapeError(
                f"inconsistent shapes: {len(ids)} states, probs {probs.shape}, payoffs {pay.shape}"
            )
        if not np.all(np.isfinite(pay)):
            w, s = np.argwhere(~np.isfinite(pay))[0]
            raise DomainError(f"payoff {float(pay[w, s])!r} in state {ids[w]!r} (outcome {int(s)}) is not finite")
        check_outcome_probs(ids, probs)
        probs.setflags(write=False)
        pay.setflags(write=False)
        self.state_ids = ids
        self.outcome_probs = probs
        self.payoffs = pay

    @property
    def n_states(self) -> int:
        return len(self.state_ids)

    @property
    def n_outcomes(self) -> int:
        return self.payoffs.shape[1]

    def marginal(self, state) -> DiscreteDistribution:
        """One-stage law of the payoff in the given state (duplicates merged)."""
        try:
            w = self.state_ids.index(str(state))
        except ValueError:
            raise KeyError(f"unknown state {state!r}; known states: {self.state_ids}") from None
        return DiscreteDistribution(self.payoffs[w], self.outcome_probs[w])

    def with_payoffs(self, payoffs) -> "TwoStageVariable":
        """Same space, new payoff matrix."""
        return TwoStageVariable(self.state_ids, self.outcome_probs, payoffs)

    def __repr__(self):
        return (
            f"TwoStageVariable(n_states={self.n_states}, n_outcomes={self.n_outcomes})"
        )


def ids_mismatch(a, b) -> str:
    """How two state-id sequences differ, in one short line: their counts
    and the first position where they differ, with the ids there."""
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    at = [repr(ids[k]) if k < len(ids) else "none" for ids in (a, b)]
    return f"{len(a)} against {len(b)} states, first differing at position {k} ({at[0]} vs {at[1]})"


def same_space(v: TwoStageVariable, u: TwoStageVariable, check_probs: bool = True) -> None:
    """Raise ShapeError unless v and u live on the same state/outcome space."""
    if v.state_ids != u.state_ids:
        raise ShapeError(f"state ids differ: {v.state_ids} vs {u.state_ids}")
    if v.payoffs.shape != u.payoffs.shape:
        raise ShapeError(f"outcome counts differ: {v.payoffs.shape} vs {u.payoffs.shape}")
    if check_probs and not np.allclose(
        v.outcome_probs, u.outcome_probs, atol=1e-12, rtol=0.0
    ):
        raise ShapeError("outcome probabilities differ; variables live on different spaces")


def comonotonic(v: TwoStageVariable, u: TwoStageVariable) -> bool:
    """True iff payoffs of v and u move weakly in tandem in every state.

    The defining product inequality uses weak comparison with exact zeros
    allowed: ties on either side never break comonotonicity.
    """
    same_space(v, u, check_probs=False)
    for w in range(v.n_states):
        a = v.payoffs[w]
        b = u.payoffs[w]
        da = a[None, :] - a[:, None]
        db = b[None, :] - b[:, None]
        if np.any(((da > 0.0) & (db < 0.0)) | ((da < 0.0) & (db > 0.0))):
            return False
    return True


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of a stochastic-dominance comparison.

    ``witness_t`` is a point where the first distribution's claim to
    dominate fails; it is present exactly when the pair is incomparable.
    """

    relation: str  # dominates | dominated | incomparable | equal
    order: str  # fsd | ssd | phissd
    witness_t: float | None = None

    def __post_init__(self):
        if self.relation not in ("dominates", "dominated", "incomparable", "equal"):
            raise DomainError(f"unknown relation {self.relation!r}")
        if self.order not in ORDERS:
            raise DomainError(f"unknown order {self.order!r}")
        if (self.witness_t is not None) != (self.relation == "incomparable"):
            raise DomainError("witness_t must be present iff relation is incomparable")

    def to_dict(self) -> dict:
        return {"relation": self.relation, "order": self.order, "witness_t": self.witness_t}


def _comparison_grid(d1: DiscreteDistribution, d2: DiscreteDistribution) -> np.ndarray:
    """Merged support points plus interval midpoints.

    Step cdfs are constant between support points and their integrals are
    piecewise linear, so this grid decides both FSD and SSD exactly.
    """
    pts = np.union1d(d1.values, d2.values)
    if pts.size > 1:
        mids = 0.5 * (pts[:-1] + pts[1:])
        pts = np.union1d(pts, mids)
    return pts


def _integrated_cdf(d: DiscreteDistribution, grid: np.ndarray) -> np.ndarray:
    """Exact integral of the cdf from -inf up to each grid point."""
    f = d.cdf_many(grid)
    out = np.zeros_like(grid)
    # F is constant on [grid[k], grid[k+1]) because the grid refines the support.
    out[1:] = np.cumsum(f[:-1] * np.diff(grid))
    return out


def dominance(d1: DiscreteDistribution, d2: DiscreteDistribution, order: str, phi=None) -> DominanceReport:
    """Compare two one-stage laws by stochastic dominance.

    FSD compares cdfs point-wise, SSD compares exactly integrated cdfs, and
    phi-SSD applies SSD to the push-forward laws under the strictly
    increasing utility ``phi`` (required for that order).  Gaps within
    DOMINANCE_TOL count as equal.
    """
    order = str(order).lower()
    if order not in ORDERS:
        raise DomainError(f"order must be one of {ORDERS}, got {order!r}")
    if order == "phissd":
        if phi is None:
            raise DomainError("phissd comparison requires a utility function")
        d1 = d1.pushforward(phi)
        d2 = d2.pushforward(phi)
    grid = _comparison_grid(d1, d2)
    if order == "fsd":
        g1 = d1.cdf_many(grid)
        g2 = d2.cdf_many(grid)
    else:
        g1 = _integrated_cdf(d1, grid)
        g2 = _integrated_cdf(d2, grid)
    diff = g1 - g2
    if np.all(np.abs(diff) <= DOMINANCE_TOL):
        return DominanceReport("equal", order)
    if np.all(diff <= DOMINANCE_TOL):
        return DominanceReport("dominates", order)
    if np.all(diff >= -DOMINANCE_TOL):
        return DominanceReport("dominated", order)
    witness = float(grid[np.argmax(diff > DOMINANCE_TOL)])
    return DominanceReport("incomparable", order, witness_t=witness)

"""Former row kernels, kept verbatim as byte-for-byte oracles.

``group_merge_rows`` is ``rankrobust.distribution.merge_rows`` as it was
when it summed every group of two or more tied points with mass by its own
``exact_sum`` call.

``scan_inner_rdu`` is the scan form of ``inner_rdu`` before it checked the
domain once and skipped the segmented sums on blocks without ties, with its
segmented Neumaier sums ``_run_sums`` and ``_twosum_errors``: the
byte-for-byte oracle of ``rankrobust.evaluator.inner_rdu`` on blocks
without near ties.  It merges ties by the adjacent-gap rule, so on points
distinct but within MERGE_TOL it may differ from the group-leader merge
the package runs.

``gini_minimizers`` is ``rankrobust.ambiguity.Gini._minimizers`` as it was
before it read the sorted rows and prefix sums by row index and took the
gaps' steps as slices: three ``take_along_axis`` calls and ``np.diff``.
Call it with the ``Gini`` instance as ``self``."""

import math

import numpy as np

from rankrobust.distribution import MERGE_TOL, exact_sum
from rankrobust.errors import DomainError


def _twosum_errors(prev: np.ndarray, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rounding errors of the steps s = prev + x on non-negative arrays (the
    Neumaier correction terms)."""
    return np.where(prev >= x, (prev - s) + x, (x - s) + prev)


def _run_sums(x: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Neumaier running sums of the 1-d x over runs that end where ``ends`` is
    set (``ends[-1]`` must be).  One pass per depth inside the longest run,
    each adding the next element of every run at once; none without runs."""
    s, comp = x.copy(), np.zeros_like(x)
    starts = np.concatenate(([True], ends[:-1]))
    k = np.flatnonzero(starts & ~ends) + 1  # the second element of every run
    while k.size:
        prev, xk = s[k - 1], x[k]
        s[k] = sk = prev + xk
        comp[k] = comp[k - 1] + _twosum_errors(prev, xk, sk)
        k = k[~ends[k]] + 1
    return s + comp


def _row_fsum(terms: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of the 2-d ``terms``."""
    return np.fromiter(map(math.fsum, terms.tolist()), float, len(terms))


def scan_inner_rdu(v, phi, psi) -> np.ndarray:
    inside = phi.domain.contains_mask(v.payoffs, tol=1e-12 * (1.0 + float(np.max(np.abs(v.payoffs)))))
    if not np.all(inside):
        w, s = np.argwhere(~inside)[0]
        raise DomainError(
            f"payoff {float(v.payoffs[w, s])!r} at (state {v.state_ids[w]!r}, outcome {int(s)}) "
            f"is outside the utility domain {phi.domain}"
        )
    order = np.argsort(np.where(v.outcome_probs > 0.0, v.payoffs, np.inf), axis=1, kind="stable")
    rows = np.arange(order.shape[0])[:, None]
    x, p = v.payoffs[rows, order], v.outcome_probs[rows, order]
    u = phi(x)
    # Scan column j holds outcome n-1-j, so ranks are added top down.  A flag
    # ends a run of tied payoffs (utilities) there, rounding the run's mass;
    # outcome 0 ends every row, and its tail, the whole mass, is not needed.
    new_point = np.ones(x.shape, dtype=bool)
    new_point[:, :-1] = (x[:, 1:] - x[:, :-1] > MERGE_TOL)[:, ::-1]
    new_atom = new_point.copy()
    du = u[:, 1:] - u[:, :-1]
    new_atom[:, :-1] &= (du > MERGE_TOL)[:, ::-1]
    ends = new_point.ravel()
    mass = np.where(ends, _run_sums(p[:, ::-1].ravel(), ends), 0.0)
    # Unless a utility tie joins payoff runs, each utility run is one payoff
    # run and rounding its mass again changes nothing.
    if not np.array_equal(new_atom, new_point):
        ends = new_atom.ravel()
        mass = np.where(ends, _run_sums(mass, ends), 0.0)
    mass = mass.reshape(x.shape)
    s = np.cumsum(mass, axis=1)
    prev = np.zeros_like(s)
    prev[:, 1:] = s[:, :-1]
    tails = (s + np.cumsum(_twosum_errors(prev, mass, s), axis=1))[:, -2::-1]
    terms = du * np.where(tails > 0.0, psi(tails), 0.0)
    return _row_fsum(np.concatenate((u[:, :1], terms), axis=1))


def group_merge_rows(values: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The support merge of every row of the (rows, width) values, each row
    with some mass, its points with mass sorted and ahead of its zero-mass
    points (which may follow in any order), so that no point without mass
    leads a group: a point within MERGE_TOL of its group's first point
    joins the group, a group's mass is the ``exact_sum`` of its members'
    masses (>= 0), and groups without mass are dropped.  Returns the
    groups' first values and masses, left-aligned; each row is padded with
    zero masses at its last group's value.  A block whose points with mass
    are all more than MERGE_TOL apart is returned as it is, which one
    reduction decides."""
    if ((values[:, 1:] - values[:, :-1] > MERGE_TOL) | (masses[:, 1:] <= 0.0)).all():
        return values, masses
    rows, width = values.shape
    first = np.ones(values.shape, dtype=bool)
    first[:, 1:] = values[:, 1:] - values[:, :-1] > MERGE_TOL
    # A point within MERGE_TOL above the one before it still starts a group
    # if it lies more than MERGE_TOL above its group's first point.
    for j in (np.flatnonzero(((values[:, 1:] > values[:, :-1]) & ~first[:, 1:]).any(axis=0)) + 1).tolist():
        lead = np.where(first[:, :j], np.arange(j), 0).max(axis=1)
        first[:, j] = values[:, j] - values[np.arange(rows), lead] > MERGE_TOL
    group = (np.cumsum(first, axis=1) - 1 + width * np.arange(rows)[:, None]).ravel()
    value = np.empty(rows * width)
    value[group[first.ravel()]] = values[first]
    masses = masses.ravel()
    # Sums in index order, exact while a group has one member with mass; a
    # group's members are one run of the flat block.
    mass = np.bincount(group, masses, rows * width)
    multi = np.bincount(group[masses > 0.0], minlength=rows * width) > 1
    if multi.any():
        members = masses[multi[group]].tolist()
        ends = np.cumsum(np.bincount(group, minlength=rows * width)[multi]).tolist()
        mass[multi] = [exact_sum(members[lo:hi]) for lo, hi in zip([0, *ends], ends)]
    keep = mass.reshape(rows, width) > 0.0
    count = keep.sum(axis=1)
    r, c = np.nonzero(keep)
    slot = (np.cumsum(keep, axis=1) - 1)[r, c]
    merged, merged_mass = np.empty((rows, count.max())), np.zeros((rows, count.max()))
    merged[r, slot] = value.reshape(rows, width)[r, c]
    merged_mass[r, slot] = mass.reshape(rows, width)[r, c]
    pad = np.arange(merged.shape[1]) >= count[:, None]
    return np.where(pad, merged[np.arange(rows), count - 1][:, None], merged), merged_mass


def gini_minimizers(self, U: np.ndarray) -> np.ndarray:
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

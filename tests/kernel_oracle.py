"""The scan form of ``inner_rdu`` before it checked the domain once and
skipped the segmented sums on blocks without ties: the byte-for-byte oracle
of the kernel in ``rankrobust.evaluator`` (kept verbatim)."""

import math

import numpy as np

from rankrobust.distribution import MERGE_TOL
from rankrobust.errors import DomainError
from rankrobust.evaluator import _run_sums, _twosum_errors


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

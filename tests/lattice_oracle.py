"""The lattice sweep that lower-bounds a minimal penalty: the test oracle of
``rankrobust.ambiguity.c_min_exact``.

c*(q) = sup_u { I(u) - q . u } is approximated from below by the best gap
over a finite lattice of utility profiles, with I the robust value.
"""

import math
from dataclasses import dataclass

import numpy as np

from rankrobust import DomainError, Prior, ShapeError
from rankrobust.ambiguity import _prior_dots


@dataclass(frozen=True)
class UtilityGrid:
    """A per-axis lattice low:step:high for brute-force duality search."""

    low: float
    high: float
    step: float

    def axis(self) -> np.ndarray:
        if not (self.step > 0 and self.high >= self.low):
            raise DomainError(f"degenerate utility grid {self}")
        n = int(math.floor((self.high - self.low) / self.step + 1e-9)) + 1
        return self.low + self.step * np.arange(n)


def c_min_bruteforce(eval_ce, q, grid: UtilityGrid, chunk: int = 262_144) -> float:
    """Lower-bound the minimal penalty at q from certainty values alone.

    Maximizes eval_ce(v) - q . v over the lattice of utility-unit
    pure-ambiguity vectors, grid.axis() on every state.  ``eval_ce`` must
    accept an (m, n_states) array of candidate vectors and return their m
    certainty values (utility units); ``lambda U: index.robust_solve(U)[0]``
    conforms.  The lattice is never held whole: each chunk of at most
    ``chunk`` points is built from its flat indices, state-major, and handed
    over as the transposed view of an (n_states, m) array.

    In exact arithmetic every lattice point gives eval_ce(v) - q . v <= c(q)
    (Fenchel), so the sweep never exceeds the true penalty, and a lattice
    containing another never gives a smaller bound.  In floating point each
    point's gap carries the rounding of eval_ce(v) and of q . v, so the
    result may exceed c(q) by a few ulps of the largest |v| and of c(q).
    q . v is the dot MaxminSet and Tabulated take for q as a listed prior,
    so at a prior listed in a MaxminSet no gap is positive: the bound is at
    most 0, and exactly 0 once a lattice point has that prior as its
    minimizer.
    """
    w = q.weights if isinstance(q, Prior) else Prior(np.asarray(q, dtype=float)).weights
    axis = grid.axis()
    n = w.size
    size = axis.size**n
    best = -math.inf
    for start in range(0, size, chunk):
        flat = np.arange(start, min(start + chunk, size))
        block = np.empty((n, flat.size))
        for j in range(n - 1, -1, -1):
            flat, digit = np.divmod(flat, axis.size)
            np.take(axis, digit, out=block[j])
        ce = np.asarray(eval_ce(block.T), dtype=float)
        if ce.shape != (block.shape[1],):
            raise ShapeError(
                f"eval_ce must map an (m, {n}) array to m values, got shape {ce.shape}"
            )
        gap = ce - _prior_dots(block.T, w[None, :])[:, 0]
        best = max(best, float(gap.max()))
    return best

"""The lattice sweep that lower-bounds a minimal penalty: the test oracle of
``rankrobust.ambiguity.c_min_exact``.

c*(q) = sup_u { I(u) - q . u } is approximated from below by the best gap
over a finite lattice of utility profiles, with I the robust value.
``exact_gap`` is one such gap I(u) - q . u for an entropic or Gini index,
computed without floating point.
"""

import decimal
import math
from fractions import Fraction
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


def exact_gap(index, q, u) -> float:
    """I(u) - q . u for an ``Entropic`` or ``Gini`` index, rounded once to a
    float, with the reference prior normalised exactly to sum 1.

    Gini is the water-fill in exact rationals: with u sorted, the active
    states are the shortest prefix whose multiplier mu, solved from the mass
    constraint, leaves the next state's weight p' (1 + (mu - u) / (2 theta))
    at or below 0.  Entropic is (m - q . u) - theta log sum_i p'_i
    exp(-(u_i - m) / theta), m = min u, with m - q . u exact and the rest
    at 60 significant digits; every term is at most 1 and the least is 1,
    so the sum neither underflows to 0 nor cancels.
    """
    p = [Fraction(float(x)) for x in index.reference.weights]
    total = sum(p)
    p = [x / total for x in p]
    q = [Fraction(float(x)) for x in q]
    u = [Fraction(float(x)) for x in u]
    theta = Fraction(index.theta)
    dot = sum(a * b for a, b in zip(q, u))
    if index.kind == "gini":
        order = sorted(range(len(u)), key=u.__getitem__)
        mass = weighted = Fraction(0)
        for k, i in enumerate(order):
            mass += p[i]
            weighted += p[i] * u[i]
            mu = (2 * theta * (1 - mass) + weighted) / mass
            if k + 1 == len(order) or 1 + (mu - u[order[k + 1]]) / (2 * theta) <= 0:
                break
        weights = [pi * max(Fraction(0), 1 + (mu - ui) / (2 * theta)) for pi, ui in zip(p, u)]
        value = sum(w * ui for w, ui in zip(weights, u)) + theta * sum((w - pi) ** 2 / pi for w, pi in zip(weights, p))
        return float(value - dot)
    m = min(u)

    def dec(x: Fraction) -> decimal.Decimal:
        return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)

    with decimal.localcontext(decimal.Context(prec=60, Emin=-decimal.MAX_EMAX, Emax=decimal.MAX_EMAX)):
        log_sum = sum(dec(pi) * dec((m - ui) / theta).exp() for pi, ui in zip(p, u)).ln()
        return float(dec(m - dot) - dec(theta) * log_sum)

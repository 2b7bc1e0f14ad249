"""Distortion risk measures from their quantile definitions.

The package reaches VaR, expected shortfall and weighted VaR only through
``choquet``: VaR_lam(v) = -choquet(d, var_step(lam)), ES_lam(v) =
-choquet(d, es_tail(lam)) and weighted VaR = choquet(d, psi).  These
oracles compute the same quantities from the loss quantile function
instead, with cumulative probabilities summed by ``math.fsum`` from the
law's masses; they share no code with the survival form.
"""

import math

import numpy as np

#: Cumulative levels within this of a quantile level count as reaching it.
LEVEL_SLACK = 1e-12


def loss_law(d):
    """The law of the loss -v: its increasing support and masses, as lists."""
    return [-x for x in reversed(d.values.tolist())], list(reversed(d.probs.tolist()))


def cumulative(masses):
    """F at each support point: the correctly rounded sum of the masses up to
    it, and 1 at the last point (the masses sum to 1 only within 1e-12)."""
    return [math.fsum(masses[: i + 1]) for i in range(len(masses) - 1)] + [1.0]


def quantile(values, masses, lam):
    """The left-continuous inverse of the cdf, inf{t : F(t) >= lam}, of the
    law with the increasing support ``values``."""
    for x, level in zip(values, cumulative(masses)):
        if level >= lam - LEVEL_SLACK:
            return x
    return values[-1]


def value_at_risk(d, lam):
    """The smallest capital t with P(-v <= t) >= 1 - lam."""
    return quantile(*loss_law(d), 1.0 - lam)


def expected_shortfall(d, lam):
    """(1/lam) int_0^lam VaR_g dg.  VaR_g is the loss x_i for 1 - g in
    (F_{i-1}, F_i], so the integral is the exact sum of x_i times the length
    of (F_{i-1}, F_i] within (1 - lam, 1]."""
    losses, masses = loss_law(d)
    levels = [0.0, *cumulative(masses)]
    terms = []
    for i, x in enumerate(losses):
        seg = levels[i + 1] - max(levels[i], 1.0 - lam)
        if seg > 0.0:
            terms.append(x * seg)
    return math.fsum(terms) / lam


def weighted_var(d, psi):
    """int_0^1 VaR_g d psi(1 - g), the Stieltjes sum over the loss segments:
    the loss x_i weighted by psi(F_{i-1}) - psi(F_i).  For continuous psi
    this is the distorted expectation of the payoff (a step psi jumps where
    the VaR curve does, and the integral has no agreed value)."""
    losses, masses = loss_law(d)
    weights = psi(np.array([0.0, *cumulative(masses)]))
    return math.fsum(x * (weights[i] - weights[i + 1]) for i, x in enumerate(losses))

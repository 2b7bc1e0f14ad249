"""Shared test helpers: random generators and independent numeric oracles.

Oracles here deliberately re-derive quantities from their defining
integrals or by exhaustive scanning; they never reuse the closed forms of
the code under test.
"""

import numpy as np
import pytest

from rankrobust import DiscreteDistribution, Prior, TwoStageVariable, add_variables, mean_risk_components


def random_distribution(rng, max_points=8, lo=-10.0, hi=10.0):
    n = int(rng.integers(1, max_points + 1))
    values = np.sort(rng.uniform(lo, hi, size=n))
    # Keep support points separated so merging is not in play.
    values += np.arange(n) * 1e-6
    probs = rng.random(n) + 0.05
    probs /= probs.sum()
    return DiscreteDistribution(values, probs)


def random_variable(rng, max_states=4, max_outcomes=6, lo=-5.0, hi=5.0, uniform_probs=False):
    n_w = int(rng.integers(1, max_states + 1))
    n_s = int(rng.integers(2, max_outcomes + 1))
    if uniform_probs:
        probs = np.full((n_w, n_s), 1.0 / n_s)
    else:
        raw = rng.random((n_w, n_s)) + 0.05
        probs = raw / raw.sum(axis=1, keepdims=True)
    payoffs = rng.uniform(lo, hi, size=(n_w, n_s))
    return TwoStageVariable([f"w{i}" for i in range(n_w)], probs, payoffs)


def translated(v, m, phi):
    """v with the constant m added to every payoff on the utility scale."""
    return add_variables(v, v.with_payoffs(np.full_like(v.payoffs, float(m))), phi)


def riemann_choquet(d, psi, n_steps=400_000):
    """Distorted expectation straight from the defining split integral.

    Midpoint rule over the (finite) region where the integrands are
    non-zero; the integrands are piecewise constant, so the error is at
    most (number of jumps) * step * oscillation.
    """
    lo = min(0.0, float(d.values[0])) - 1e-9
    hi = max(0.0, float(d.values[-1])) + 1e-9
    ts = np.linspace(lo, hi, n_steps + 1)
    mids = 0.5 * (ts[:-1] + ts[1:])
    step = (hi - lo) / n_steps
    surv = 1.0 - d.cdf_many(mids)
    weighted = psi(surv)
    integrand = np.where(mids < 0.0, weighted - 1.0, weighted)
    return float(np.sum(integrand) * step)


def riemann_tolerance(d, n_steps=400_000):
    span = max(0.0, float(d.values[-1])) - min(0.0, float(d.values[0]))
    return (d.values.size + 2) * span / n_steps + 1e-9


def quantile_oracle(d, lam):
    """inf{t in support : F(t) >= lam} by linear scan."""
    for v, level in zip(d.values, d.cdf_many(d.values)):
        if level >= lam - 1e-12:
            return float(v)
    return float(d.values[-1])


def var_oracle(d, lam, n=20_001):
    """VaR by scanning candidate capital levels on a fine grid."""
    losses = -d.values[::-1]
    probs = d.probs[::-1]
    cum = np.cumsum(probs)
    grid = np.union1d(losses, np.linspace(losses[0] - 1.0, losses[-1] + 1.0, n))
    idx = np.searchsorted(losses, grid, side="right")
    cum0 = np.concatenate(([0.0], cum))
    reached = cum0[idx] >= 1.0 - lam - 1e-12
    return float(grid[np.argmax(reached)])


def simplex_scan_min(objective, n, resolution):
    """Minimize a vectorized objective over the k/resolution simplex lattice."""
    from rankrobust import simplex_grid

    grid = simplex_grid(n, resolution)
    vals = objective(grid)
    return float(np.min(vals))


def solve_one(index, u):
    """The robust value and minimizing prior of the profile u, from a one-row robust_solve."""
    values, minimizers = index.robust_solve(np.asarray(u, dtype=float)[None, :])
    return float(values[0]), Prior(minimizers[0])


def mean_risk_objective(panel, w, p_mean, pref):
    """E_P[v] - rho(v) for the portfolio with weights w."""
    mean, rho = mean_risk_components(panel, w, p_mean, pref)
    return mean - rho


def values_of(index):
    """lattice_oracle.c_min_bruteforce's eval_ce for index: the robust values of a row block."""
    return lambda U: index.robust_solve(U)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)

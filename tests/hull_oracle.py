"""HiGHS oracles of the listed-prior LPs that ``ambiguity._l1_simplex`` solves.

``lp_hull_penalty`` is the feasibility check the maxmin penalty ran before
it fitted the mixture by nonnegative least squares: the exact-vertex
shortcut, then a HiGHS LP for lam >= 0 with P^T lam = q and sum lam = 1,
and q inside the hull when the mixture found reproduces q within HULL_TOL.

``highs_c_min_lp`` is the ``cmin`` bracket of a maxmin or tabulated
penalty as one HiGHS LP computed it: max t - q . u s.t. t <= p_j . u + c_j
over the box, the lower bound read at HiGHS's u and the upper bound from
its duals.
"""

import math

import numpy as np
from scipy.optimize import linprog

from rankrobust.ambiguity import CMIN_RTOL, HULL_TOL, CMinBracket, _prior_dots, _rounding_slack
from rankrobust.errors import SolverError


def _require_optimal(res, what: str) -> None:
    """Raise SolverError unless HiGHS reports an optimal solution."""
    if res.status != 0:
        raise SolverError(f"{what}: HiGHS stopped with status {res.status} ({res.message})")


def lp_hull_penalty(matrix: np.ndarray, w: np.ndarray) -> float:
    """0.0 when w lies in the hull of the rows of ``matrix``, else inf."""
    if np.min(np.max(np.abs(matrix - w), axis=1)) <= HULL_TOL:
        return 0.0
    k = matrix.shape[0]
    a_eq = np.vstack([matrix.T, np.ones((1, k))])
    b_eq = np.concatenate([w, [1.0]])
    res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=[(0.0, None)] * k, method="highs")
    if res.status == 2:  # infeasible: q lies outside the hull
        return math.inf
    _require_optimal(res, "maxmin hull-membership LP")
    mix = np.clip(res.x, 0.0, None)
    return 0.0 if np.max(np.abs(matrix.T @ mix - w)) <= HULL_TOL else math.inf


def highs_c_min_lp(amb, w, low, high) -> CMinBracket:
    """Listed priors: max t - q . u  s.t.  t <= p_j . u + c_j, u in the box."""
    matrix, costs = amb._matrix, amb.costs
    k, n = matrix.shape
    res = linprog(
        np.append(w, -1.0),
        A_ub=np.hstack([-matrix, np.ones((k, 1))]),
        b_ub=costs,
        bounds=[(low, high)] * n + [(None, None)],
        method="highs",
    )
    _require_optimal(res, "cmin LP")
    u = np.clip(res.x[:n], low, high)[None, :]
    best = max(float(amb.robust_solve(u)[0][0] - _prior_dots(u, w[None, :])[0, 0]), 0.0)
    # Any lam on the simplex bounds the sup: I(u) <= sum_j lam_j (p_j . u + c_j),
    # so c*(q) <= lam . c + max over the box of (P^T lam - q) . u, taken per state.
    lam = np.clip(-res.ineqlin.marginals, 0.0, None)
    lam /= lam.sum()
    g = matrix.T @ lam - w
    upper = math.fsum(np.concatenate([lam * costs, np.maximum(low * g, high * g)]))
    # Outward allowance for the rounding of P^T lam, lam . c and lam's normalisation.
    upper += 4 * (k + n) * float(np.finfo(float).eps) * (1.0 + max(abs(low), abs(high)) + float(costs.max()))
    status = "converged" if upper - best <= CMIN_RTOL * (1.0 + abs(best)) else "lp_bracket_open"
    lower = max(best - _rounding_slack(n, best, max(abs(low), abs(high))), 0.0)
    return CMinBracket(lower, upper, status, int(res.nit))

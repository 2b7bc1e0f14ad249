"""The hull-membership LP: the test oracle of ``MaxminSet.penalty``'s NNLS test.

``lp_hull_penalty`` is the feasibility check the maxmin penalty ran before
it fitted the mixture by nonnegative least squares: the exact-vertex
shortcut, then a HiGHS LP for lam >= 0 with P^T lam = q and sum lam = 1,
and q inside the hull when the mixture found reproduces q within HULL_TOL.
"""

import math

import numpy as np
from scipy.optimize import linprog

from rankrobust.ambiguity import HULL_TOL, _require_optimal


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

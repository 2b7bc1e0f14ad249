"""Mean-risk portfolio selection over finite scenario panels.

The performance criterion is E_P[portfolio return] - rho(portfolio return),
where rho is the negative of the robust rank-dependent value under a linear
utility (a robustified weighted-VaR risk measure).  The optimizer is a
deterministic coarse simplex grid followed by pairwise coordinate polish
with step halving; every evaluation is recorded so runs are auditable and
reproducible.  Candidates are scored in blocks (the whole grid, then each
polish round) by one inner-layer call and one robust-value call per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .ambiguity import Prior
from .distribution import TwoStageVariable, check_outcome_probs
from .errors import BudgetError, ConfigError, DomainError, ShapeError
from .evaluator import Preference, _PayoffRows, inner_rdu
from .utility import is_affine

WEIGHT_SUM_TOL = 1e-12


class ScenarioPanel:
    """Per-(state, outcome, asset) returns with shared outcome probabilities."""

    __slots__ = ("assets", "state_ids", "outcome_probs", "returns")

    def __init__(self, assets, state_ids, outcome_probs, returns):
        self.assets = tuple(str(a) for a in assets)
        ids = tuple(str(s) for s in state_ids)
        probs = np.array(outcome_probs, dtype=float)
        rets = np.array(returns, dtype=float)
        if rets.ndim != 3:
            raise ShapeError("returns must be a (state, outcome, asset) array")
        if rets.shape[2] != len(self.assets):
            raise ShapeError(f"{len(self.assets)} assets but returns have {rets.shape[2]} columns")
        if probs.shape != rets.shape[:2]:
            raise ShapeError(f"outcome_probs shape {probs.shape} does not match returns {rets.shape[:2]}")
        if not ids:
            raise ShapeError("at least one state is required")
        if len(ids) != probs.shape[0]:
            raise ShapeError(f"{len(ids)} state ids for {probs.shape[0]} states of returns")
        if len(set(ids)) != len(ids):
            raise ShapeError("state ids must be unique")
        if not np.all(np.isfinite(rets)):
            raise DomainError("returns must be finite")
        check_outcome_probs(ids, probs)
        probs.setflags(write=False)
        rets.setflags(write=False)
        self.state_ids = ids
        self.outcome_probs = probs
        self.returns = rets

    @property
    def n_assets(self) -> int:
        return len(self.assets)


@dataclass(frozen=True)
class Weights:
    """Per-asset allocation; sums to one, optionally long-only."""

    values: np.ndarray
    long_only: bool = True

    def __post_init__(self):
        w = np.asarray(self.values, dtype=float).copy()
        if w.ndim != 1 or w.size == 0:
            raise ShapeError("weights must be a non-empty 1-D vector")
        _check_weight_rows(w[None, :], self.long_only)
        w.setflags(write=False)
        object.__setattr__(self, "values", w)

    def __iter__(self):
        return iter(self.values)


def _check_weight_rows(W: np.ndarray, long_only: bool = True) -> None:
    """The Weights rules, applied to every row of a (K, assets) block; the
    first failing row raises, its sum checked before its signs."""
    totals = list(map(math.fsum, W.tolist()))
    bad_sum = np.abs(np.array(totals) - 1.0) > WEIGHT_SUM_TOL
    bad = bad_sum | ((W < 0.0).any(axis=1) if long_only else False)
    if bad.any():
        row = int(np.argmax(bad))
        if bad_sum[row]:
            raise DomainError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {totals[row]!r}")
        raise DomainError("long-only weights must be >= 0")


def _block_payoffs(panel: ScenarioPanel, W: np.ndarray) -> np.ndarray:
    """(K, state, outcome) payoffs of the K portfolios in W, summed asset by
    asset so that a row's payoffs do not depend on the block it is in."""
    if W.shape[1] != panel.n_assets:
        raise ShapeError(f"{W.shape[1]} weights for {panel.n_assets} assets")
    payoffs = panel.returns[:, :, 0] * W[:, 0, None, None]
    for a in range(1, panel.n_assets):
        payoffs += panel.returns[:, :, a] * W[:, a, None, None]
    return payoffs


def portfolio_variable(panel: ScenarioPanel, w: Weights) -> TwoStageVariable:
    """Linear aggregation: payoff(state, outcome) = sum_assets weight * return."""
    weights = np.asarray(w.values if isinstance(w, Weights) else w, dtype=float)
    payoffs = _block_payoffs(panel, weights.reshape(1, -1))[0]
    return TwoStageVariable(panel.state_ids, panel.outcome_probs, payoffs)


def _score_block(panel: ScenarioPanel, W, p_mean: Prior, pref: Preference) -> tuple[np.ndarray, np.ndarray]:
    """Mean terms and risk terms of the K portfolios in the (K, assets) block W.

    All K * states rows go through one ``inner_rdu`` call and the (K, states)
    profile through one ``robust_values`` call.  Every step is elementwise or
    a reduction within a row, so row k equals the 1-row block W[k:k+1] bit
    for bit.  The risk term is rho = -(robust value), normalized to the
    linear-utility scale.
    """
    if not is_affine(pref.phi):
        raise ConfigError(
            "the mean-risk criterion needs an affine utility; "
            f"got {pref.phi.describe()}"
        )
    if panel.state_ids != pref.state_ids:
        raise ShapeError(
            f"panel states {panel.state_ids} do not match preference states {pref.state_ids}"
        )
    if p_mean.n_states != len(panel.state_ids):
        raise ShapeError(f"mean prior covers {p_mean.n_states} states, panel has {len(panel.state_ids)}")
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] == 0:
        raise ShapeError(f"a weight block must be a non-empty (K, assets) array, got shape {W.shape}")
    _check_weight_rows(W)
    payoffs = _block_payoffs(panel, W)
    k, n, m = payoffs.shape
    rows = _PayoffRows(panel.state_ids * k, np.tile(panel.outcome_probs, (k, 1)), payoffs.reshape(k * n, m))
    values = pref.ambiguity.robust_values(inner_rdu(rows, pref.phi, pref.psi).reshape(k, n))
    intercept = pref.phi(0.0)
    slope = pref.phi(1.0) - intercept
    means = np.sum(np.sum(payoffs * panel.outcome_probs, axis=-1) * p_mean.weights, axis=-1)
    return means, -(values - intercept) / slope


def mean_risk_objective(panel: ScenarioPanel, w: Weights, p_mean: Prior, pref: Preference) -> float:
    """E_P[v] - rho(v) for the portfolio with weights w."""
    mean, rho = mean_risk_components(panel, w, p_mean, pref)
    return mean - rho


def mean_risk_components(panel: ScenarioPanel, w: Weights, p_mean: Prior, pref: Preference) -> tuple[float, float]:
    """The (mean term, risk term) pair, reported separately so degenerate
    configurations (e.g. a risk-neutral rho that doubles the mean) stay visible."""
    weights = np.asarray(w.values if isinstance(w, Weights) else w, dtype=float)
    means, risks = _score_block(panel, weights.reshape(1, -1), p_mean, pref)
    return float(means[0]), float(risks[0])


def _coarse_grid(n_assets: int, resolution: int) -> np.ndarray:
    """All long-only weight vectors with entries k/resolution."""
    rows = []
    for combo in combinations_with_replacement(range(n_assets), resolution):
        counts = np.bincount(combo, minlength=n_assets)
        rows.append(counts / resolution)
    return np.unique(np.asarray(rows, dtype=float), axis=0)


@dataclass(frozen=True)
class OptimizeResult:
    weights: Weights
    objective: float
    trace: tuple

    def to_dict(self) -> dict:
        return {
            "weights": [float(x) for x in self.weights.values],
            "objective": self.objective,
            "evaluations": len(self.trace),
            "trace": [{"weights": [float(x) for x in w], "objective": o} for w, o in self.trace],
        }


def optimize(
    panel: ScenarioPanel,
    p_mean: Prior,
    pref: Preference,
    budget: int = 2000,
    long_only: bool = True,
    coarse_resolution: int = 10,
    step_tol: float = 1e-6,
) -> OptimizeResult:
    """Deterministic grid-then-polish search of the mean-risk objective.

    The coarse stage scans the simplex lattice at the given resolution; the
    polish stage repeatedly shifts mass between asset pairs, halving the
    step until it falls below ``step_tol`` or the evaluation budget runs
    out.  Ties are broken toward the lexicographically smallest weight
    vector, so results are schedule-independent.
    """
    if panel.n_assets < 1:
        raise ShapeError("panel has no assets")
    if not long_only:
        raise ConfigError("only long-only optimization is supported")
    if panel.n_assets == 1:
        w = Weights(np.array([1.0]))
        obj = mean_risk_objective(panel, w, p_mean, pref)
        return OptimizeResult(w, obj, ((tuple(w.values), obj),))

    grid = _coarse_grid(panel.n_assets, coarse_resolution)
    if budget < grid.shape[0]:
        raise BudgetError(
            f"budget {budget} is below the coarse grid size {grid.shape[0]}"
        )
    trace: list[tuple[tuple, float]] = []

    def score(block: np.ndarray) -> list[float]:
        means, risks = _score_block(panel, block, p_mean, pref)
        objs = (means - risks).tolist()
        trace.extend(zip(map(tuple, block.tolist()), objs))
        return objs

    # The grid is lexicographically sorted and only strict improvements move
    # the incumbent, so ties resolve to the smallest weight vector.
    best_w = None
    best_obj = -math.inf
    for row, obj in zip(grid, score(grid)):
        if obj > best_obj:
            best_obj = obj
            best_w = row.copy()

    step = 1.0 / coarse_resolution
    n = panel.n_assets
    while step >= step_tol and len(trace) < budget:
        improved = False
        candidates = []
        for i in range(n):
            for j in range(n):
                if i == j or best_w[j] < step - 1e-15:
                    continue
                cand = best_w.copy()
                cand[i] += step
                cand[j] -= step
                if cand[j] < 0:
                    cand[j] = 0.0
                cand /= cand.sum()
                candidates.append(cand)
        # One block per round, cut to the budget; accepting in order keeps
        # the one-at-a-time search's trace and tie-breaking.
        candidates = candidates[: budget - len(trace)]
        objs = score(np.array(candidates)) if candidates else []
        for cand, obj in zip(candidates, objs):
            if obj > best_obj + 1e-12:
                best_obj = obj
                best_w = cand
                improved = True
        if not improved:
            step /= 2.0
    weights = Weights(best_w)
    return OptimizeResult(weights, best_obj, tuple(trace))

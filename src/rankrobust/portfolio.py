"""Mean-risk portfolio selection over finite scenario panels.

The performance criterion is E_P[portfolio return] - rho(portfolio return),
where rho is the negative of the robust rank-dependent value under a linear
utility (a robustified weighted-VaR risk measure).  The optimizer is a
deterministic coarse simplex grid followed by pairwise coordinate polish
with step halving; every evaluation is recorded so runs are auditable and
reproducible.  Candidates are scored in blocks by one inner-layer call and
one robust-value call per block: the whole grid, then speculative polish
blocks.  A polish block holds the next round from the current best
weights, then the rounds at half, a quarter, ... of its step from the same
weights, as many as fit in a waste credit: the rows recorded so far less
the rows discarded so far (stopping at the step tolerance, cut to the
remaining budget).  The rounds are replayed in order and the first that
improves ends the block, the later rounds' rows being discarded, neither
traced nor counted as evaluations.  So discarded rows never outnumber
recorded ones, and a search scores at most twice the rows it records.
A round is built from the incumbent's weights as plain floats, one row per
(receiver, donor) pair, and renormalized as one (rows, assets) block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import Prior, simplex_grid
from .distribution import PROB_SUM_TOL, check_outcome_probs, exact_sum, sums_off_one
from .errors import BudgetError, ConfigError, DomainError, ShapeError
from .evaluator import Preference, _PayoffRows, inner_rdu
from .utility import is_affine

#: The coarse grid's simplex lattice resolution, and the polish step below
#: which the search stops.
COARSE_RESOLUTION = 10
STEP_TOL = 1e-6


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
            w, s, a = np.argwhere(~np.isfinite(rets))[0]
            raise DomainError(
                f"return {float(rets[w, s, a])!r} of asset {self.assets[a]!r} in state {ids[w]!r} "
                f"(outcome {int(s)}) is not finite"
            )
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
    """Per-asset long-only allocation: non-negative weights summing to one."""

    values: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.values, dtype=float).copy()
        if w.ndim != 1 or w.size == 0:
            raise ShapeError("weights must be a non-empty 1-D vector")
        _check_weight_rows(w[None, :])
        w.setflags(write=False)
        object.__setattr__(self, "values", w)

    def __iter__(self):
        return iter(self.values)


def _check_weight_rows(W: np.ndarray) -> None:
    """The Weights rules, applied to every row of a (K, assets) block; the
    first failing row raises, its sum checked before its signs."""
    bad_sum = sums_off_one(W, PROB_SUM_TOL)  # NaN fails this and the sign test
    bad = bad_sum | ~(W >= 0.0).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        if bad_sum[row]:
            raise DomainError(f"weights must sum to 1 within {PROB_SUM_TOL}, got {exact_sum(W[row].tolist())!r}")
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


def _utility_scale(panel: ScenarioPanel, p_mean: Prior, pref: Preference) -> tuple[float, float]:
    """phi(0) and phi(1) - phi(0) of the preference's utility, which must be
    affine, once the preference and the mean prior are checked against the
    panel's states: the constants that put risk terms on the linear scale."""
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
    intercept = pref.phi(0.0)
    return intercept, pref.phi(1.0) - intercept


def _score_block(
    panel: ScenarioPanel, W, p_mean: Prior, pref: Preference, scale: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Mean terms and risk terms of the K portfolios in the (K, assets) block W,
    ``scale`` being ``_utility_scale(panel, p_mean, pref)``.

    All K * states rows go through one ``inner_rdu`` call and the (K, states)
    profile through one ``robust_solve`` call.  Every step is elementwise or
    a reduction within a row, so row k equals the 1-row block W[k:k+1] bit
    for bit.  The risk term is rho = -(robust value), normalized to the
    linear-utility scale.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] == 0:
        raise ShapeError(f"a weight block must be a non-empty (K, assets) array, got shape {W.shape}")
    _check_weight_rows(W)
    payoffs = _block_payoffs(panel, W)
    k, n, m = payoffs.shape
    rows = _PayoffRows(panel.state_ids * k, np.tile(panel.outcome_probs, (k, 1)), payoffs.reshape(k * n, m))
    values = pref.ambiguity.robust_solve(inner_rdu(rows, pref.phi, pref.psi).reshape(k, n))[0]
    intercept, slope = scale
    means = np.sum(np.sum(payoffs * panel.outcome_probs, axis=-1) * p_mean.weights, axis=-1)
    return means, -(values - intercept) / slope


def mean_risk_components(panel: ScenarioPanel, w: Weights, p_mean: Prior, pref: Preference) -> tuple[float, float]:
    """The (mean term, risk term) pair, reported separately so degenerate
    configurations (e.g. a risk-neutral rho that doubles the mean) stay visible."""
    weights = np.asarray(w.values if isinstance(w, Weights) else w, dtype=float)
    means, risks = _score_block(panel, weights.reshape(1, -1), p_mean, pref, _utility_scale(panel, p_mean, pref))
    return float(means[0]), float(risks[0])


@dataclass(frozen=True)
class OptimizeResult:
    """The best weights found, their objective and its two terms (scored in
    the block that found them), and the (weights, objective) pairs of the
    search in order; rows a speculative block discarded are not among them."""

    weights: Weights
    objective: float
    mean_term: float
    risk_term: float
    trace: tuple


def _donors(w: list[float], step: float) -> list[int]:
    """The assets that hold at least ``step`` (to 1e-15), in order."""
    floor = step - 1e-15
    return [j for j, x in enumerate(w) if x >= floor]


def _pair_moves(w: np.ndarray, step: float) -> np.ndarray:
    """One polish round as a (rows, assets) block: shift ``step`` from asset
    j to asset i for every ordered pair whose donor j holds at least
    ``step``, each row renormalized."""
    base = w.tolist()
    donors = _donors(base, step)
    rows = []
    for i in range(len(base)):
        for j in donors:
            if i == j:
                continue
            cand = base.copy()
            cand[i] += step
            cand[j] -= step
            if cand[j] < 0.0:
                cand[j] = 0.0
            rows.append(cand)
    block = np.array(rows, dtype=float).reshape(len(rows), len(base))
    return block / block.sum(axis=1, keepdims=True)


def optimize(
    panel: ScenarioPanel,
    p_mean: Prior,
    pref: Preference,
    budget: int = 2000,
) -> OptimizeResult:
    """Deterministic grid-then-polish search of the mean-risk objective.

    The coarse stage scans the simplex lattice at COARSE_RESOLUTION; the
    polish stage repeatedly shifts mass between asset pairs, halving the
    step until it falls below STEP_TOL or the evaluation budget runs
    out.  Ties are broken toward the lexicographically smallest weight
    vector, so results are schedule-independent.
    """
    if panel.n_assets < 1:
        raise ShapeError("panel has no assets")
    # The grid has C(n + r - 1, n - 1) rows: check before building it.
    size = math.comb(panel.n_assets + COARSE_RESOLUTION - 1, panel.n_assets - 1)
    if budget < size:
        raise BudgetError(f"budget {budget} is below the coarse grid size {size}")
    grid = simplex_grid(panel.n_assets, COARSE_RESOLUTION)
    scale = _utility_scale(panel, p_mean, pref)
    trace: list[tuple[tuple, float]] = []

    def score(block: np.ndarray) -> tuple[list[float], list[float], list[float]]:
        means, risks = _score_block(panel, block, p_mean, pref, scale)
        return means.tolist(), risks.tolist(), (means - risks).tolist()

    # The grid is lexicographically sorted and only strict improvements move
    # the incumbent, so ties resolve to the smallest weight vector.
    best_obj = -math.inf
    means, risks, objs = score(grid)
    trace.extend(zip(map(tuple, grid.tolist()), objs))
    for k, obj in enumerate(objs):
        if obj > best_obj:
            best_obj, best = obj, k
    best_w, best_mean, best_risk = grid[best].copy(), means[best], risks[best]

    step = 1.0 / COARSE_RESOLUTION
    discarded = 0
    while step >= STEP_TOL and len(trace) < budget:
        # Speculate that the rounds after the next one all fail, so each
        # starts from the same incumbent at half the previous step.  They
        # join while their rows fit in the credit, recorded rows less
        # discarded ones; the block is cut to the budget and scored at once.
        rounds = []
        room, credit = budget - len(trace), len(trace) - discarded
        while step >= STEP_TOL and room > 0:
            # Each donor gives to every other asset: the round's rows are
            # counted before it is built, so a round the credit refuses is not.
            rows = min(len(_donors(best_w.tolist(), step)) * (best_w.size - 1), room)
            credit -= rows if rounds else 0
            if credit < 0:
                break
            rounds.append((step, _pair_moves(best_w, step)[:rows]))
            room -= rows
            step /= 2.0
        block = np.concatenate([cands for _, cands in rounds])
        means, risks, objs = score(block) if block.size else ([], [], [])
        # Replay the rounds in order with the one-at-a-time rule; the first
        # round that improves ends the block, and the later rounds' rows
        # are dropped unrecorded.
        used = 0
        for round_step, candidates in rounds:
            improved = False
            for k in range(used, used + len(candidates)):
                if objs[k] > best_obj + 1e-12:
                    best_obj, best_w = objs[k], block[k]
                    best_mean, best_risk = means[k], risks[k]
                    improved = True
            used += len(candidates)
            if improved:
                step = round_step
                break
        discarded += len(objs) - used
        trace.extend(zip(map(tuple, block[:used].tolist()), objs[:used]))
    return OptimizeResult(Weights(best_w), best_obj, best_mean, best_risk, tuple(trace))

"""The full evaluation engine: per-state distorted utility, robust outer
minimization, certainty equivalents, preference comparisons, and the
ambiguity-aversion and model-reduction report machinery.

A :class:`Preference` is the triple (utility phi, distortion psi, ambiguity
index c).  Evaluating a two-stage variable computes, for every state, the
distorted expectation of the utility of the state's lottery, then minimizes
the prior-weighted average plus the ambiguity penalty.  With a single state
this is exactly rank-dependent utility; with the identity distortion it is
a variational (penalized expected-utility) evaluation; with an indicator
penalty it is worst-case over a prior set.

The battery checks these identities on seeded draws of a fixed shape
(1 to MAX_STATES states, 2 to MAX_OUTCOMES outcomes, payoffs uniform on
PAYOFF_RANGE); a ``BatterySpec`` sets only its case count and seed.  Cases
are drawn straight into padded (rows, outcomes) blocks, with no per-case
object, and every section runs as array operations over the blocks, its
errors grouped per case.  ``battery_reports`` builds the reduction report
and the ambiguity-aversion check from one draw pass over its case lists,
one shared sort and merge of its main and single-state rows, and one
``robust_solve`` per state count for both.
``ambiguity_aversion_check`` is a short pass of its own, which also takes
the ``table:`` penalties on 2 or more states that the reduction report
refuses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ambiguity import AmbiguityIndex, MaxminSet, Prior, _prior_dots, simplex_grid
from .distortion import Distortion, choquet_rows, identity as identity_distortion
from .distribution import TwoStageVariable, exact_row_sums, ids_mismatch, merge_rows
from .errors import ConfigError, DomainError, ShapeError
from .utility import UtilityFn, add_variables, identity_utility

INDIFFERENCE_TOL = 1e-9

#: Default seed for behavioral batteries; recorded in every battery report.
DEFAULT_BATTERY_SEED = 1729

#: The sections of the reduction report, in the order they run.
REDUCTION_SECTIONS = ("expectation_reduction", "affine_equivariance", "maxmin_reduction", "single_state_rdu")


@dataclass(frozen=True)
class Preference:
    """The (phi, psi, c) triple together with the ordered state labels."""

    phi: UtilityFn
    psi: Distortion
    ambiguity: AmbiguityIndex
    state_ids: tuple[str, ...]

    def __post_init__(self):
        ids = tuple(map(str, self.state_ids))
        object.__setattr__(self, "state_ids", ids)
        if self.ambiguity.n_states != len(ids):
            raise ShapeError(
                f"ambiguity index covers {self.ambiguity.n_states} states, "
                f"preference lists {len(ids)}"
            )

    def describe(self) -> dict:
        return {
            "utility": self.phi.describe(),
            "distortion": self.psi.describe(),
            "penalty": self.ambiguity.describe(),
            "state_ids": list(self.state_ids),
        }


@dataclass(frozen=True)
class Evaluation:
    """Result of evaluating one variable under one preference.

    ``value_utils`` is the robust value in utility units;
    ``certainty_equivalent`` is its monetary inverse, or None when the
    value falls outside the utility image (never extrapolated).
    """

    value_utils: float
    per_state_utils: np.ndarray
    minimizer: Prior
    certainty_equivalent: float | None

    def to_dict(self) -> dict:
        return {
            "value_utils": self.value_utils,
            "per_state_utils": self.per_state_utils.tolist(),
            "minimizer": self.minimizer.weights.tolist(),
            "certainty_equivalent": self.certainty_equivalent,
        }


class _PayoffRows(NamedTuple):
    """The (state x outcome) rows of a block, as ``inner_rdu`` reads them."""

    state_ids: tuple[str, ...]
    outcome_probs: np.ndarray
    payoffs: np.ndarray


def inner_rdu(v: TwoStageVariable, phi: UtilityFn, psi: Distortion) -> np.ndarray:
    """Per-state distorted expectation of utility, all states in one pass:
    each state's value is ``choquet(v.marginal(s).pushforward(phi), psi)``,
    bit for bit; ``_inner_values`` under psi alone."""
    return _inner_values(v, phi, ((psi, None),))[0]


def _inner_values(v: TwoStageVariable, phi: UtilityFn, passes) -> list[np.ndarray]:
    """For each (psi, stop) of ``passes``, the values under psi of v's rows
    before ``stop`` (all for None), from one sort and merge of the block.

    Each row is sorted by payoff, zero-mass outcomes last, so no point
    without mass leads a group; ``merge_rows`` merges the payoffs, phi maps
    the merged points and ``merge_rows`` merges the utilities.  Then
    ``choquet_rows`` returns u_1 + sum_i (u_{i+1} - u_i) * psi(S_i), a term
    whose tail is 0 being 0, even where its utility difference overflowed.
    Only ``v.payoffs``, ``v.outcome_probs`` and ``v.state_ids`` are read,
    and each state's value depends on its own row alone.  Each pass in turn
    is refused as a pass of its own would be: a payoff outside phi's domain
    (on the whole line by ``isfinite`` alone) with the offending (state,
    outcome), then a state whose value is not finite, naming the outcome
    whose utility overflowed, if one did.
    """
    inside = phi.domain.slack_mask(v.payoffs)
    order = np.argsort(np.where(v.outcome_probs > 0.0, v.payoffs, np.inf), axis=1, kind="stable")
    rows = np.arange(order.shape[0])[:, None]
    with np.errstate(all="ignore"):  # a refused row is named below
        x, mass = merge_rows(v.payoffs[rows, order], v.outcome_probs[rows, order])
        # _fwd skips phi's domain check: the loop below makes it.
        u, mass = merge_rows(np.asarray(phi._fwd(x), dtype=float), mass)
        out = [choquet_rows(u[:stop], mass[:stop], psi) for psi, stop in passes]
    for values, (_, stop) in zip(out, passes):
        if not inside[:stop].all():
            w, s = np.argwhere(~inside[:stop])[0]
            raise DomainError(
                f"payoff {float(v.payoffs[w, s])!r} at (state {v.state_ids[w]!r}, outcome {int(s)}) "
                f"is outside the utility domain {phi.domain}"
            )
        if not np.isfinite(values).all():
            w = int(np.argmax(~np.isfinite(values)))
            x = v.payoffs[w, order[w]]
            with np.errstate(over="ignore", invalid="ignore"):
                bad = np.flatnonzero(~np.isfinite(phi._fwd(x)))
            if bad.size:
                raise DomainError(
                    f"utility {phi.describe()} of payoff {float(x[bad[0]])!r} at (state {v.state_ids[w]!r}, "
                    f"outcome {int(order[w, bad[0]])}) is not finite"
                )
            raise DomainError(f"the distorted expected utility of state {v.state_ids[w]!r} is not finite")
    return out


def _certainty_equivalent(phi: UtilityFn, value: float) -> float | None:
    # Roundoff may push the value a hair past a closed image end; genuine
    # overflow past an open end is reported as None, never extrapolated.
    tol = 1e-9 * (1.0 + abs(value))
    if not phi.image.contains(value, tol=tol):
        return None
    return phi.inverse(phi.image.clamp(value))


def evaluate(v: TwoStageVariable, pref: Preference) -> Evaluation:
    """Robust rank-dependent value of a two-stage variable."""
    utils = _profile(v, pref)
    values, minimizers = pref.ambiguity.robust_solve(utils[None, :])
    value = float(values[0])
    return Evaluation(
        value_utils=value,
        per_state_utils=utils,
        minimizer=Prior(minimizers[0]),
        certainty_equivalent=_certainty_equivalent(pref.phi, value),
    )


def evaluate_batch(variables, pref: Preference) -> list[Evaluation]:
    """``evaluate`` of each variable, bit for bit, from one ``inner_rdu``
    pass per variable and one ``robust_solve`` call on all their profiles.
    A refusal is the one the variables' own evaluations, in order, would
    raise first: an earlier profile that ``robust_solve`` refuses alone
    comes before a later variable's error."""
    utils = []
    try:
        for v in variables:
            utils.append(_profile(v, pref))
        values, minimizers = pref.ambiguity.robust_solve(np.array(utils))
    except ValueError:
        for u in utils:
            pref.ambiguity.robust_solve(u[None, :])
        raise
    return [Evaluation(value_utils=value, per_state_utils=u, minimizer=Prior(q),
                       certainty_equivalent=_certainty_equivalent(pref.phi, value))
            for value, u, q in zip(values.tolist(), utils, minimizers)]


def _profile(v: TwoStageVariable, pref: Preference) -> np.ndarray:
    """v's per-state inner values under pref, whose states v must share."""
    if v.state_ids != pref.state_ids:
        raise ShapeError(f"variable states do not match preference states: "
                         f"{ids_mismatch(v.state_ids, pref.state_ids)}")
    return inner_rdu(v, pref.phi, pref.psi)


def relation(a: float, b: float) -> str:
    """'>', '<' or '~' for two values; values within INDIFFERENCE_TOL are indifferent."""
    if a > b + INDIFFERENCE_TOL:
        return ">"
    if b > a + INDIFFERENCE_TOL:
        return "<"
    return "~"


# ---------------------------------------------------------------------------
# Ellsberg-style two-urn demonstration
# ---------------------------------------------------------------------------

def ellsberg_variables() -> dict[str, TwoStageVariable]:
    """The two-urn-pair bets on a shared uniform draw U in {1..25}.

    Urns A and B split 25 red and 25 black balls (25 balls each), so the
    red counts satisfy r_A + r_B = 25 with r_A unknown in {0..25}.  Urns C
    and D split 30 red and 20 black the same way, so r_C is unknown in
    {5..25}.  A state of the world fixes the pair (r_A, r_C); the bet on an
    urn pays 100 when U is at most that urn's red count.  All three bets
    are non-increasing in the draw, hence pairwise comonotonic.
    """
    ids = _ellsberg_state_ids()
    probs = np.full((len(ids), 25), 1.0 / 25.0)
    red_a = np.repeat(np.arange(0, 26), 21)[:, None]
    red_c = np.tile(np.arange(5, 26), 26)[:, None]
    return {
        name: TwoStageVariable(ids, probs, np.where(np.arange(1, 26) <= red, 100.0, 0.0))
        for name, red in (("urn_a", red_a), ("urn_b", 25 - red_a), ("urn_c", red_c))
    }


def _ellsberg_state_ids() -> list[str]:
    """The states (r_A, r_C), r_A-major: the row order of every bet."""
    return [f"rA{r_a}_rC{r_c}" for r_a in range(0, 26) for r_c in range(5, 26)]


def ellsberg_preference() -> Preference:
    """Worst case over all ball compositions, linear utility, no distortion."""
    ids = _ellsberg_state_ids()
    return Preference(identity_utility(), identity_distortion(), MaxminSet.vertices(len(ids)), ids)


def ellsberg_demo() -> dict:
    """Evaluate the four bets and check the diversification-driven reversal.

    The bet on urn C beats the bet on urn A in isolation (worst-case means
    20 vs 0), yet adding the complementary urn-B bet reverses the ranking:
    A+B pays 100 on average in every state, while C+B still bottoms out at
    20.
    """
    bets = ellsberg_variables()
    pref = ellsberg_preference()
    u_plus_r = add_variables(bets["urn_a"], bets["urn_b"], pref.phi)
    v_plus_r = add_variables(bets["urn_c"], bets["urn_b"], pref.phi)
    values = {
        "U(urn_a)": evaluate(bets["urn_a"], pref).value_utils,
        "U(urn_c)": evaluate(bets["urn_c"], pref).value_utils,
        "U(urn_a + urn_b)": evaluate(u_plus_r, pref).value_utils,
        "U(urn_c + urn_b)": evaluate(v_plus_r, pref).value_utils,
    }
    expected = {
        "U(urn_a)": 0.0,
        "U(urn_c)": 20.0,
        "U(urn_a + urn_b)": 100.0,
        "U(urn_c + urn_b)": 20.0,
    }
    isolated = relation(values["U(urn_c)"], values["U(urn_a)"])
    combined = relation(values["U(urn_a + urn_b)"], values["U(urn_c + urn_b)"])
    reversal = isolated == combined == ">"
    return {
        "values": values,
        "expected": expected,
        "isolated_preference": f"urn_c {isolated} urn_a",
        "combined_preference": f"urn_a+urn_b {combined} urn_c+urn_b",
        "reversal": reversal,
        "passed": values == expected and reversal,
    }


# ---------------------------------------------------------------------------
# Behavioral batteries
# ---------------------------------------------------------------------------

#: The battery's draw: each case has 1 to MAX_STATES states (unless a caller
#: fixes the count) and 2 to MAX_OUTCOMES outcomes, payoffs uniform on
#: PAYOFF_RANGE.
MAX_STATES = 6
MAX_OUTCOMES = 8
PAYOFF_RANGE = (-5.0, 5.0)


@dataclass(frozen=True)
class BatterySpec:
    """Seeded pseudo-random collection of two-stage variables.

    Props over all variables can only be spot-checked; the battery is the
    documented, reproducible sample.
    """

    n_cases: int = 200
    seed: int = DEFAULT_BATTERY_SEED

    def __post_init__(self):
        if self.n_cases < 1:
            raise ConfigError(f"a battery needs at least 1 case, got n_cases={self.n_cases}")
        if self.seed < 0:
            raise ConfigError(f"a battery seed must be a non-negative integer, got seed={self.seed}")


class _Cases(NamedTuple):
    """Battery cases in one block MAX_OUTCOMES wide, as ``inner_rdu`` reads
    it: the (state x outcome) rows of each case in turn, ``states[c]`` rows
    with ``outcomes[c]`` outcomes for case c.  Each row is padded with
    zero-mass outcomes that repeat its largest payoff: pads rank last,
    carry no tail mass and add exact zeros, so ``inner_rdu`` values a
    padded row exactly as the case alone.
    """

    outcome_probs: np.ndarray
    payoffs: np.ndarray
    states: np.ndarray
    outcomes: np.ndarray

    @property
    def starts(self) -> np.ndarray:
        """The first row of each case."""
        return np.cumsum(self.states) - self.states

    @property
    def state_ids(self) -> tuple[str, ...]:
        """Each case names its states w0, w1, ...; only messages read them."""
        return tuple(f"w{i}" for n in self.states.tolist() for i in range(n))


def _draw_cases(n_cases: int, *lists: tuple[int, int | None, bool], listed=None) -> tuple:
    """n_cases battery cases for each (seed, n_states, unambiguous) of
    ``lists``, all drawn in one pass, each list into a block MAX_OUTCOMES
    wide.

    Each list's generator, seeded with its seed, draws case by case the
    state count (unless ``n_states`` fixes it), the outcome count and then,
    in one ``random`` call, 2 * states * outcomes doubles: the raw outcome
    weights and the payoff draws, each row-major.  With ``listed``, a
    generator, each case of the first list then draws (c)'s prior count k,
    one to four, and its k raw priors in one ``random`` call.  One
    ``_weight_rows`` call divides every row's weights plus 0.05, the
    priors' too, by their sum; each payoff draw u becomes lo + (hi - lo) *
    u on PAYOFF_RANGE, as ``Generator.uniform`` maps the same doubles; an
    unambiguous case repeats its first row.  Returns the lists' blocks,
    then, with ``listed``, the priors in a (cases, 4, max states) array: a
    case's priors fill its first states, and a case with fewer than four
    repeats its first, which leaves every minimum as it is.
    """
    states, outcomes, draws, unambiguous, priors = [], [], [], [], []
    for seed, n_states, unamb in lists:
        rng = np.random.default_rng(seed)
        for _ in range(n_cases):
            n_w = n_states if n_states is not None else int(rng.integers(1, MAX_STATES + 1))
            n_s = int(rng.integers(2, MAX_OUTCOMES + 1))
            draws.append(rng.random(2 * n_w * n_s))
            states.append(n_w)
            outcomes.append(n_s)
        unambiguous += [unamb] * n_cases
    counts = np.zeros(n_cases, dtype=int)
    if listed is not None:
        for c, n in enumerate(states[:n_cases]):
            counts[c] = listed.integers(1, 5)
            priors.append(listed.random(counts[c] * n))
    states, outcomes, draws = np.array(states), np.array(outcomes), np.concatenate(draws)
    widths = np.repeat(outcomes, states)
    weights = np.repeat(np.arange(2 * len(states)) % 2 == 0, np.repeat(states * outcomes, 2))
    probs = _weight_rows(np.concatenate([draws[weights], *priors]),
                         np.concatenate((widths, np.repeat(states[:n_cases], counts))), MAX_OUTCOMES)
    real = np.arange(MAX_OUTCOMES) < widths[:, None]
    block = np.empty(real.shape)
    lo, hi = PAYOFF_RANGE
    block[real] = lo + (hi - lo) * draws[~weights]
    starts = np.cumsum(states) - states
    first = np.where(np.repeat(unambiguous, states), np.repeat(starts, states), np.arange(len(widths)))
    block = block[first]
    block = np.where(real, block, np.max(np.where(real, block, -np.inf), axis=1, keepdims=True))
    cut = starts[n_cases::n_cases]
    blocks = [*map(_Cases, np.split(probs[first], cut), np.split(block, cut), np.split(states, len(lists)),
                   np.split(outcomes, len(lists)))]
    if listed is None:
        return tuple(blocks)
    slots = np.arange(4)
    pick = (np.cumsum(counts) - counts)[:, None] + np.where(slots < counts[:, None], slots, 0)
    return (*blocks, probs[len(widths) :, : states[:n_cases].max()][pick])


def _weight_rows(draws: np.ndarray, widths: np.ndarray, width: int) -> np.ndarray:
    """Rows of weights in a zero-padded (rows, width) block: row r takes
    the next widths[r] raw ``draws``, each plus 0.05, divided by their sum.
    The rows are grouped by width and summed with one ``.sum(axis=1)`` per
    width over that group's (rows, width) block: the reduction each case's
    own (rows, width) block ran, so every bit matches."""
    raw = np.zeros((len(widths), width))
    raw[np.arange(raw.shape[1]) < widths[:, None]] = draws + 0.05
    order = np.argsort(widths, kind="stable")
    grouped, sums = raw[order], np.empty(len(raw))
    lo = 0
    for width, n in enumerate(np.bincount(widths).tolist()):
        if n:
            sums[order[lo : lo + n]] = grouped[lo : lo + n, :width].sum(axis=1)
            lo += n
    return raw / sums[:, None]


def _stack(*blocks: _Cases) -> _Cases:
    """The cases of the blocks in turn, in one block."""
    return _Cases(*map(np.concatenate, zip(*blocks)))


def _moved(cases: _Cases, scale: np.ndarray, shift: np.ndarray) -> _Cases:
    """The cases with case c's payoffs x mapped to scale[c] * x + shift[c],
    scale > 0; the map is monotone, so pads still repeat each row's maximum."""
    payoffs = np.repeat(scale, cases.states)[:, None] * cases.payoffs + np.repeat(shift, cases.states)[:, None]
    return cases._replace(payoffs=payoffs)


def _by_state_count(utils: np.ndarray, states: np.ndarray):
    """For each state count n among the cases: n, the indices of the cases
    with n states and their profiles, their runs of ``utils`` (one value per
    state) as a (cases, n) array."""
    starts = np.cumsum(states) - states
    for n in np.unique(states).tolist():
        idx = np.flatnonzero(states == n)
        yield n, idx, utils[starts[idx, None] + np.arange(n)]


def _case_values(local, utils: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Robust value of each case's profile under ``local(n)``, the penalty
    recentred to its state count n: one ``robust_solve`` call per state count."""
    values = np.empty(len(states))
    for n, idx, profiles in _by_state_count(utils, states):
        values[idx] = local(n).robust_solve(profiles)[0]
    return values


# ---------------------------------------------------------------------------
# Comparative and absolute ambiguity aversion
# ---------------------------------------------------------------------------

def _fit_affine_map(phi_a: UtilityFn, phi_b: UtilityFn):
    """Least-squares (a, b) with phi_b ~= a*phi_a + b on a shared 64-point grid."""
    lo = max(phi_a.domain.lo, phi_b.domain.lo)
    hi = min(phi_a.domain.hi, phi_b.domain.hi)
    lo = lo if math.isfinite(lo) else -3.0
    hi = hi if math.isfinite(hi) else 3.0
    if not lo < hi:
        raise DomainError("utility domains do not overlap")
    pad = 1e-9 * (1.0 + abs(lo) + abs(hi))
    grid = np.linspace(lo + pad, hi - pad, 64)
    fa = phi_a(grid)
    fb = phi_b(grid)
    design = np.stack([fa, np.ones_like(fa)], axis=1)
    (a, b), *_ = np.linalg.lstsq(design, fb, rcond=None)
    residual = float(np.max(np.abs(design @ np.array([a, b]) - fb)))
    return float(a), float(b), residual, grid


def _penalty_grid(n: int) -> np.ndarray:
    resolution = {1: 1, 2: 40, 3: 16}.get(n, 6)
    return simplex_grid(n, resolution)


def is_more_ambiguity_averse(
    pref_a: Preference,
    pref_b: Preference,
    battery: BatterySpec | None = None,
) -> dict:
    """Check whether pref_a is more ambiguity averse than pref_b.

    Structural side: the utilities must agree up to a positive affine map,
    the distortions must agree on a grid, and pref_b's penalty (rescaled to
    the common utility scale) must dominate pref_a's on a simplex grid.
    Behavioral side: on the seeded battery, drawn on the preferences' state
    count, whenever the a-agent weakly prefers an ambiguous variable to a
    sure amount, the b-agent must too.
    """
    if len(pref_a.state_ids) != len(pref_b.state_ids):
        raise ShapeError("preferences must share the state set")
    battery = battery or BatterySpec()

    a, b, residual, _ = _fit_affine_map(pref_a.phi, pref_b.phi)
    phi_ok = residual <= 1e-8 and a > 0

    psi_grid = np.linspace(0.0, 1.0, 201)
    psi_gap = float(np.max(np.abs(pref_a.psi(psi_grid) - pref_b.psi(psi_grid))))
    psi_ok = psi_gap <= 1e-9

    n = len(pref_a.state_ids)
    grid = _penalty_grid(n)
    penalty_violations = []
    skipped = 0
    for q in grid:
        try:
            pa = pref_a.ambiguity.penalty(q)
            pb = pref_b.ambiguity.penalty(q) / a
        except LookupError:
            skipped += 1
            continue
        if pb < pa - 1e-9:
            penalty_violations.append({"prior": [float(x) for x in q], "a": pa, "b": pb})
    penalty_ok = not penalty_violations

    structural = bool(phi_ok and psi_ok and penalty_ok)

    (cases,) = _draw_cases(battery.n_cases, (battery.seed, n, False))
    values_a, values_b = (
        _case_values(p.ambiguity.recentered, inner_rdu(cases, p.phi, p.psi), cases.states).tolist()
        for p in (pref_a, pref_b)
    )
    lows = np.minimum.reduceat(cases.payoffs.min(axis=1), cases.starts).tolist()
    highs = np.maximum.reduceat(cases.payoffs.max(axis=1), cases.starts).tolist()
    behavioral_violations = []
    for idx, (lo, hi, val_a, val_b) in enumerate(zip(lows, highs, values_a, values_b)):
        unsettled = math.isnan(val_a) or math.isnan(val_b)  # a NaN value fails every comparison
        for m in np.linspace(lo, hi, 5):
            if unsettled or (val_a >= pref_a.phi(float(m)) - 1e-12 and val_b < pref_b.phi(float(m)) - 1e-9):
                behavioral_violations.append({"case": idx, "m": float(m), "value_a": val_a, "value_b": val_b})
    return {
        "structural": {
            "phi_affine_equivalent": bool(phi_ok),
            "phi_map": {"a": a, "b": b, "residual": residual},
            "psi_equal": bool(psi_ok),
            "psi_max_gap": psi_gap,
            "penalty_dominates": bool(penalty_ok),
            "penalty_violations": penalty_violations,
            "penalty_points_skipped": skipped,
        },
        "behavioral": {
            "cases": len(cases.states),
            "violations": behavioral_violations,
            "seed": battery.seed,
        },
        "more_ambiguity_averse": structural,
        "consistent": bool(not (structural and behavioral_violations)),
    }


def ambiguity_aversion_check(pref: Preference, battery: BatterySpec | None = None) -> dict:
    """Robust value never exceeds the ambiguity-neutral value at a zero-penalty
    prior: one ``inner_rdu`` call, then one ``robust_solve`` per state count.
    A penalty that cannot be recentred (a table) is checked on cases of its
    own state count."""
    battery = battery or BatterySpec()
    local = functools.cache(pref.ambiguity.recentered)  # each recentred penalty built once
    n_states = None
    try:
        local(pref.ambiguity.n_states + 1)
    except ShapeError:
        n_states = pref.ambiguity.n_states
    (cases,) = _draw_cases(battery.n_cases, (battery.seed, n_states, False))
    utils = inner_rdu(cases, pref.phi, pref.psi)
    return _aversion_section(battery.seed, local, _by_state_count(utils, cases.states),
                             _case_values(local, utils, cases.states))


def battery_reports(pref: Preference, battery: BatterySpec | None = None) -> tuple[dict, dict]:
    """The reduction report and the ambiguity-aversion check, from one pass.

    The reduction report verifies the special-case reductions of the
    evaluation engine: (a) identity distortion: the inner integral is the
    plain expected utility; (b) affine utility on unambiguous variables:
    positive affine payoff maps move the (utility-unit) value affinely, and
    constant shifts translate every variable's value; (c) indicator
    penalties: the value is the explicit minimum over the listed priors;
    (d) a single state: the value is stand-alone rank-dependent utility.
    The plain expectation, the explicit minimum and, in (d), the case's own
    ``inner_rdu`` value (``choquet`` of its utility law) are the oracles.
    Section (d) values the penalty recentred on 1
    state, so a penalty that cannot be recentred (a ``table:`` penalty on 2
    or more states) raises ConfigError before any section runs.  The check
    is ``ambiguity_aversion_check``'s on the main cases.

    One ``_draw_cases`` pass draws the main cases (also the check's), the
    single-state cases of (d), the unambiguous cases of (b) and (c)'s
    listed priors.  One sort and merge of the main and single-state rows
    (``_inner_values``) values them under psi, for (c), (d) and the check,
    and the main rows under the identity distortion, for (a); (b)'s block
    under linear utility takes one ``inner_rdu`` call.  Then one
    ``robust_solve`` per state count serves (b), (d) and the check, each
    recentred penalty built once.  Every section is array operations over
    the blocks, its errors grouped per case; the main cases are grouped by
    state count once for (c) and the check.  Each generator draws in the
    order of the sections run one by one.
    """
    battery = battery or BatterySpec()
    amb = pref.ambiguity
    local = functools.cache(amb.recentered)  # each recentred penalty built once
    try:
        local(1)
    except ShapeError:
        raise ConfigError(
            f"the reduction suite's single-state section (d) needs the penalty recentred on 1 state; "
            f"{amb.describe()} covers {amb.n_states} states and table: penalties cannot be recentred"
        ) from None
    n_cases, seed = battery.n_cases, battery.seed
    rng = np.random.default_rng(seed + 1)
    # (a, b) per unambiguous case, then a shift per main case: an array draw
    # takes one number after the other, as the scalar draws did.  (c)'s
    # listed priors come after them.
    maps = rng.uniform([0.5, -2.0], [2.5, 2.0], size=(n_cases, 2))
    shifts = rng.uniform(-2.0, 2.0, size=n_cases)
    cases, singles, unamb, listed = _draw_cases(n_cases, (seed, None, False), (seed + 3, 1, False),
                                                (seed + 2, None, True), listed=rng)
    # One block under phi: the main cases, then the single-state cases.
    both, main = _stack(cases, singles), len(cases.payoffs)
    inner, utils = _inner_values(both, pref.phi, ((identity_distortion(), main), (pref.psi, None)))
    report = {"seed": seed, "expectation_reduction": _expectation_section(pref, cases, inner)}
    affine = _stack(unamb, cases, _moved(unamb, maps[:, 0], maps[:, 1]), _moved(cases, np.ones(n_cases), shifts))
    affine_utils = inner_rdu(affine, identity_utility(), pref.psi)
    n_affine = len(affine.states)
    values = _case_values(local, np.concatenate((affine_utils, utils)), np.concatenate((affine.states, both.states)))
    groups = list(_by_state_count(utils[:main], cases.states))
    report["affine_equivariance"] = _affine_section(maps, shifts, values[:n_affine])
    report["maxmin_reduction"] = _maxmin_section(groups, listed)
    report["single_state_rdu"] = _section(np.abs(values[n_affine + n_cases :] - utils[main:]), range(n_cases))
    report["passed"] = all(not report[k]["violations"] for k in REDUCTION_SECTIONS)
    return report, _aversion_section(seed, local, groups, values[n_affine : n_affine + n_cases])


def _section(errors, labels) -> dict:
    """A reduction report: the largest error, NaN if one is, and the labels
    of the errors not within INDIFFERENCE_TOL, NaN among them."""
    return {
        "max_error": float(np.max(errors, initial=0.0)),
        "violations": [label for label, err in zip(labels, errors.tolist()) if not err <= INDIFFERENCE_TOL],
    }


def _expectation_section(pref: Preference, cases: _Cases, inner: np.ndarray) -> dict:
    """(a) Under the identity distortion each state's ``inner`` value is the
    expected utility, each row's terms summed by ``exact_row_sums``; a case's
    error is the largest over its states."""
    expected = exact_row_sums(cases.outcome_probs * pref.phi(cases.payoffs))
    return _section(np.maximum.reduceat(np.abs(inner - expected), cases.starts), range(len(cases.states)))


def _affine_section(maps: np.ndarray, shifts: np.ndarray, values: np.ndarray) -> dict:
    """(b) from the values of the unambiguous and main cases, then of their
    moved copies, all under linear utility: a * x + b for the map (a, b) of
    an unambiguous case, x + m for the shift m of a main case."""
    n_moved = len(maps) + len(shifts)
    base, after = values[:n_moved], values[n_moved:]
    expect = np.concatenate((maps[:, 0] * base[: len(maps)] + maps[:, 1], base[len(maps) :] + shifts))
    return _section(np.abs(after - expect), [*range(len(maps)), *(("shift", idx) for idx in range(len(shifts)))])


def _maxmin_section(groups, listed: np.ndarray) -> dict:
    """(c) Each case's maxmin value over its listed priors, by the scan of
    ``MaxminSet.robust_solve`` (whose -0.0 costs change no dot), against
    the explicit minimum of the dots q @ u, taken as a stack of vector
    products: each is the BLAS dot a lone q @ u takes.  ``groups`` are the
    cases' profiles by state count (``_by_state_count``)."""
    errors = np.empty(len(listed))
    for n, idx, profiles in groups:
        priors = listed[idx, :, :n]
        value = _prior_dots(profiles, priors).min(axis=1)
        explicit = (priors[:, :, None, :] @ profiles[:, None, :, None])[:, :, 0, 0].min(axis=1)
        errors[idx] = np.abs(value - explicit)
    return _section(errors, range(len(listed)))


def _aversion_section(seed: int, local, groups, values: np.ndarray) -> dict:
    """The aversion check: no robust value above the p0-weighted average at
    the recentred penalty's zero-penalty prior p0 (p0 @ u for each case, a
    stack of vector products), from the cases' ``groups`` by state count
    and their robust ``values``; a NaN value is a violation."""
    neutral = np.empty(len(values))
    for n, idx, profiles in groups:
        neutral[idx] = (local(n).zero_penalty_prior().weights @ profiles[:, :, None])[:, 0]
    violations = [
        {"case": idx, "value": value, "neutral": base}
        for idx, (value, base) in enumerate(zip(values.tolist(), neutral.tolist()))
        if not value <= base + INDIFFERENCE_TOL
    ]
    return {
        "cases": len(values),
        "violations": violations,
        "seed": seed,
        "passed": not violations,
    }

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .ambiguity import AmbiguityIndex, MaxminSet, Prior, simplex_grid
from .distortion import Distortion, choquet, identity as identity_distortion
from .distribution import MERGE_TOL, TwoStageVariable
from .errors import ConfigError, DomainError, ShapeError
from .utility import UtilityFn, add_variables, identity_utility

INDIFFERENCE_TOL = 1e-9

#: Default seed for behavioral batteries; recorded in every battery report.
DEFAULT_BATTERY_SEED = 1729


@dataclass(frozen=True)
class Preference:
    """The (phi, psi, c) triple together with the ordered state labels."""

    phi: UtilityFn
    psi: Distortion
    ambiguity: AmbiguityIndex
    state_ids: tuple[str, ...]

    def __post_init__(self):
        ids = tuple(str(s) for s in self.state_ids)
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
            "per_state_utils": [float(x) for x in self.per_state_utils],
            "minimizer": [float(x) for x in self.minimizer.weights],
            "certainty_equivalent": self.certainty_equivalent,
        }


def _twosum_errors(prev: np.ndarray, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rounding errors of the steps s = prev + x on non-negative arrays (the
    Neumaier correction terms)."""
    return np.where(prev >= x, (prev - s) + x, (x - s) + prev)


def _run_sums(x: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Neumaier running sums of the 1-d x over runs that end where ``ends`` is
    set (``ends[-1]`` must be).  One pass per depth inside the longest run,
    each adding the next element of every run at once; none without runs."""
    s, comp = x.copy(), np.zeros_like(x)
    starts = np.concatenate(([True], ends[:-1]))
    k = np.flatnonzero(starts & ~ends) + 1  # the second element of every run
    while k.size:
        prev, xk = s[k - 1], x[k]
        s[k] = sk = prev + xk
        comp[k] = comp[k - 1] + _twosum_errors(prev, xk, sk)
        k = k[~ends[k]] + 1
    return s + comp


class _PayoffRows(NamedTuple):
    """The (state x outcome) rows of a block, as ``inner_rdu`` reads them."""

    state_ids: tuple[str, ...]
    outcome_probs: np.ndarray
    payoffs: np.ndarray


def inner_rdu(v: TwoStageVariable, phi: UtilityFn, psi: Distortion) -> np.ndarray:
    """Per-state distorted expectation of utility, all states in one pass.

    Ranks each row by payoff and returns u_1 + sum_i (u_{i+1} - u_i) * psi(S_i),
    with S_i the mass ranked above i, each state's terms summed by math.fsum.
    Zero-mass outcomes rank last, so they get zero tails and no weight.
    Only ``v.payoffs``, ``v.outcome_probs`` and ``v.state_ids`` are read, and
    each state's value depends on its own row alone.

    The tails are Neumaier sums from the top rank down, written as scans: the
    Neumaier running sum of x is s + cumsum(e), where s = cumsum(x) is the
    naive running sum and e holds the TwoSum errors, each computed elementwise
    from s shifted by one and x.  ``np.cumsum`` adds left to right, so this
    reproduces the former loop over outcome columns bit for bit.  As the
    reference does, the mass of payoffs tied within MERGE_TOL is rounded
    first, then that of tied utilities; each of these segmented sums takes
    one pass per depth inside its longest tie chain.  The cost is O(1) numpy
    passes over the block plus one pass per tie-chain depth, none without ties.

    Agrees with the scalar reference ``choquet(v.marginal(s).pushforward(phi),
    psi)`` within 1e-12 * (1 + max |phi(payoff)|) per state, except that a
    var: threshold may split a chain of 3+ payoffs (or utilities) under 1e-12
    apart differently.  Payoffs outside phi's domain raise with the offending
    (state, outcome).
    """
    inside = phi.domain.contains_mask(v.payoffs, tol=1e-12 * (1.0 + float(np.max(np.abs(v.payoffs)))))
    if not np.all(inside):
        w, s = np.argwhere(~inside)[0]
        raise DomainError(
            f"payoff {v.payoffs[w, s]!r} at (state {v.state_ids[w]!r}, outcome {int(s)}) "
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
    return np.fromiter(map(math.fsum, np.concatenate((u[:, :1], terms), axis=1).tolist()), float, len(u))


def _certainty_equivalent(phi: UtilityFn, value: float) -> float | None:
    # Roundoff may push the value a hair past a closed image end; genuine
    # overflow past an open end is reported as None, never extrapolated.
    tol = 1e-9 * (1.0 + abs(value))
    if not phi.image.contains(value, tol=tol):
        return None
    return phi.inverse(phi.image.clamp(value))


def evaluate(v: TwoStageVariable, pref: Preference) -> Evaluation:
    """Robust rank-dependent value of a two-stage variable."""
    if v.state_ids != pref.state_ids:
        raise ShapeError(
            f"variable states {v.state_ids} do not match preference states {pref.state_ids}"
        )
    utils = inner_rdu(v, pref.phi, pref.psi)
    value, minimizer = pref.ambiguity.robust_min(utils)
    return Evaluation(
        value_utils=value,
        per_state_utils=utils,
        minimizer=minimizer,
        certainty_equivalent=_certainty_equivalent(pref.phi, value),
    )


def relation(a: float, b: float, tol: float = INDIFFERENCE_TOL) -> str:
    """'>', '<' or '~' for two values; values within tol are indifferent."""
    if a > b + tol:
        return ">"
    if b > a + tol:
        return "<"
    return "~"


def prefer(v1: TwoStageVariable, v2: TwoStageVariable, pref: Preference, tol: float = INDIFFERENCE_TOL) -> str:
    """Compare two variables; returns '>', '<' or '~' (indifference within tol)."""
    return relation(evaluate(v1, pref).value_utils, evaluate(v2, pref).value_utils, tol)


def ambiguity_neutral_value(v: TwoStageVariable, phi: UtilityFn, psi: Distortion, p0: Prior) -> float:
    """Plain p0-weighted average of the per-state distorted utilities."""
    utils = inner_rdu(v, phi, psi)
    if p0.n_states != utils.size:
        raise ShapeError(f"prior has {p0.n_states} states, variable has {utils.size}")
    return float(p0.weights @ utils)


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
    draws = np.arange(1, 26)
    state_ids = []
    pay_a, pay_b, pay_c = [], [], []
    for r_a in range(0, 26):
        for r_c in range(5, 26):
            state_ids.append(f"rA{r_a}_rC{r_c}")
            pay_a.append(np.where(draws <= r_a, 100.0, 0.0))
            pay_b.append(np.where(draws <= 25 - r_a, 100.0, 0.0))
            pay_c.append(np.where(draws <= r_c, 100.0, 0.0))
    probs = np.full((len(state_ids), 25), 1.0 / 25.0)
    return {
        "urn_a": TwoStageVariable(state_ids, probs, pay_a),
        "urn_b": TwoStageVariable(state_ids, probs, pay_b),
        "urn_c": TwoStageVariable(state_ids, probs, pay_c),
    }


def ellsberg_preference() -> Preference:
    """Worst case over all ball compositions, linear utility, no distortion."""
    bets = ellsberg_variables()
    ids = bets["urn_a"].state_ids
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
    phi = pref.phi
    u_plus_r = add_variables(bets["urn_a"], bets["urn_b"], phi)
    v_plus_r = add_variables(bets["urn_c"], bets["urn_b"], phi)
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
    isolated = prefer(bets["urn_c"], bets["urn_a"], pref)
    combined = prefer(u_plus_r, v_plus_r, pref)
    passed = values == expected and isolated == ">" and combined == ">"
    return {
        "values": values,
        "expected": expected,
        "isolated_preference": f"urn_c {isolated} urn_a",
        "combined_preference": f"urn_a+urn_b {combined} urn_c+urn_b",
        "reversal": isolated == ">" and combined == ">",
        "passed": bool(passed),
    }


# ---------------------------------------------------------------------------
# Behavioral batteries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatterySpec:
    """Seeded pseudo-random collection of two-stage variables.

    Props over all variables can only be spot-checked; the battery is the
    documented, reproducible sample.
    """

    n_cases: int = 200
    n_states: int | None = None  # None: draw 1..max_states per case
    max_states: int = 6
    max_outcomes: int = 8
    payoff_low: float = -5.0
    payoff_high: float = 5.0
    seed: int = DEFAULT_BATTERY_SEED
    uniform_outcome_probs: bool = False
    unambiguous: bool = False
    risk_free: bool = False


def generate_battery(spec: BatterySpec) -> list[TwoStageVariable]:
    rng = np.random.default_rng(spec.seed)
    cases = []
    for _ in range(spec.n_cases):
        n_w = spec.n_states if spec.n_states is not None else int(rng.integers(1, spec.max_states + 1))
        n_s = int(rng.integers(2, spec.max_outcomes + 1))
        if spec.uniform_outcome_probs:
            probs = np.full((n_w, n_s), 1.0 / n_s)
        else:
            raw = rng.random((n_w, n_s)) + 0.05
            probs = raw / raw.sum(axis=1, keepdims=True)
        payoffs = rng.uniform(spec.payoff_low, spec.payoff_high, size=(n_w, n_s))
        if spec.unambiguous:
            probs = np.tile(probs[:1], (n_w, 1))
            payoffs = np.tile(payoffs[:1], (n_w, 1))
        if spec.risk_free:
            payoffs = np.tile(payoffs[:, :1], (1, n_s))
        ids = [f"w{i}" for i in range(n_w)]
        cases.append(TwoStageVariable(ids, probs, payoffs))
    return cases


def _inner_profiles(cases, phi: UtilityFn, psi: Distortion) -> list[np.ndarray]:
    """Each case's per-state inner values, all cases in one ``inner_rdu`` call.

    The cases' (state x outcome) rows are stacked into one block.  Rows
    narrower than the widest case get zero-mass pads that repeat the row's
    largest payoff: pads rank last, carry no tail mass and add exact zeros,
    so a padded row is valued exactly as the case alone.
    """
    if not cases:
        return []
    width = max(v.payoffs.shape[1] for v in cases)
    offsets = np.cumsum([0] + [v.payoffs.shape[0] for v in cases])
    probs = np.zeros((offsets[-1], width))
    payoffs = np.empty((offsets[-1], width))
    for lo, v in zip(offsets, cases):
        rows = slice(lo, lo + v.payoffs.shape[0])
        m = v.payoffs.shape[1]
        probs[rows, :m] = v.outcome_probs
        payoffs[rows, :m] = v.payoffs
        payoffs[rows, m:] = v.payoffs.max(axis=1, keepdims=True)
    ids = tuple(s for v in cases for s in v.state_ids)
    return np.split(inner_rdu(_PayoffRows(ids, probs, payoffs), phi, psi), offsets[1:-1])


def _robust_values(amb: AmbiguityIndex, profiles) -> np.ndarray:
    """Robust value of each profile under amb recentered to its state count,
    one ``robust_values`` call per state count."""
    values = np.empty(len(profiles))
    for n in {u.size for u in profiles}:
        idx = [i for i, u in enumerate(profiles) if u.size == n]
        values[idx] = amb.recentered(n).robust_values(np.stack([profiles[i] for i in idx]))
    return values


# ---------------------------------------------------------------------------
# Comparative and absolute ambiguity aversion
# ---------------------------------------------------------------------------

def _fit_affine_map(phi_a: UtilityFn, phi_b: UtilityFn, n_grid: int = 64):
    """Least-squares (a, b) with phi_b ~= a*phi_a + b on a shared grid."""
    lo = max(phi_a.domain.lo, phi_b.domain.lo)
    hi = min(phi_a.domain.hi, phi_b.domain.hi)
    lo = lo if math.isfinite(lo) else -3.0
    hi = hi if math.isfinite(hi) else 3.0
    if not lo < hi:
        raise DomainError("utility domains do not overlap")
    pad = 1e-9 * (1.0 + abs(lo) + abs(hi))
    grid = np.linspace(lo + pad, hi - pad, n_grid)
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
    Behavioral side: on the seeded battery, whenever the a-agent weakly
    prefers an ambiguous variable to a sure amount, the b-agent must too.
    """
    if len(pref_a.state_ids) != len(pref_b.state_ids):
        raise ShapeError("preferences must share the state set")
    battery = battery or BatterySpec(n_states=len(pref_a.state_ids))
    if battery.n_states is None:
        battery = replace(battery, n_states=len(pref_a.state_ids))

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

    if battery.n_states != n:
        raise ShapeError(f"battery draws {battery.n_states}-state cases, preferences cover {n} states")
    cases = generate_battery(battery)
    values_a = _robust_values(pref_a.ambiguity, _inner_profiles(cases, pref_a.phi, pref_a.psi)).tolist()
    values_b = _robust_values(pref_b.ambiguity, _inner_profiles(cases, pref_b.phi, pref_b.psi)).tolist()
    behavioral_violations = []
    for idx, (v, val_a, val_b) in enumerate(zip(cases, values_a, values_b)):
        lo, hi = float(v.payoffs.min()), float(v.payoffs.max())
        for m in np.linspace(lo, hi, 5):
            if val_a >= pref_a.phi(float(m)) - 1e-12 and val_b < pref_b.phi(float(m)) - 1e-9:
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
            "cases": len(cases),
            "violations": behavioral_violations,
            "seed": battery.seed,
        },
        "more_ambiguity_averse": structural,
        "consistent": bool(not (structural and behavioral_violations)),
    }


def ambiguity_aversion_check(pref: Preference, battery: BatterySpec | None = None) -> dict:
    """Robust value never exceeds the ambiguity-neutral value at a zero-penalty prior."""
    battery = battery or BatterySpec()
    amb = pref.ambiguity
    if battery.n_states is None:
        try:
            amb.recentered(amb.n_states + 1)
        except ShapeError:
            # Grid-shaped penalties cannot be re-dimensioned per case.
            battery = replace(battery, n_states=amb.n_states)
    cases = generate_battery(battery)
    profiles = _inner_profiles(cases, pref.phi, pref.psi)
    values = _robust_values(amb, profiles).tolist()
    neutral = [float(amb.recentered(u.size).zero_penalty_prior().weights @ u) for u in profiles]
    violations = [
        {"case": idx, "value": value, "neutral": base}
        for idx, (value, base) in enumerate(zip(values, neutral))
        if value > base + INDIFFERENCE_TOL
    ]
    return {
        "cases": len(cases),
        "violations": violations,
        "seed": battery.seed,
        "passed": not violations,
    }


def _section(errors, labels) -> dict:
    """A reduction report: the largest error and the labels of the errors
    above INDIFFERENCE_TOL."""
    return {
        "max_error": max([0.0, *errors]),
        "violations": [label for label, err in zip(labels, errors) if err > INDIFFERENCE_TOL],
    }


def reduction_suite(pref: Preference, battery: BatterySpec | None = None) -> dict:
    """Verify the special-case reductions of the evaluation engine.

    (a) identity distortion: the inner integral is the plain expected
        utility; (b) affine utility on unambiguous variables: positive
        affine payoff maps move the (utility-unit) value affinely, and
        constant shifts translate every variable's value; (c) indicator
        penalties: the value is the explicit minimum over the listed
        priors; (d) a single state: the value is stand-alone
        rank-dependent utility.  Each section values its cases as one
        padded row block: one ``inner_rdu`` call, then one
        ``robust_values`` call per state count (per case in (c), where
        every case lists its own priors).  The plain expectation, the
        explicit minimum and ``choquet`` are the oracles.

    Section (d) values the penalty recentred on 1 state, so a penalty that
    cannot be recentred (a ``table:`` penalty on 2 or more states) raises
    ConfigError before any section runs.
    """
    try:
        pref.ambiguity.recentered(1)
    except ShapeError:
        raise ConfigError(
            f"the reduction suite's single-state section (d) needs the penalty recentred on 1 state; "
            f"{pref.ambiguity.describe()} covers {pref.ambiguity.n_states} states and table: penalties "
            f"cannot be recentred"
        ) from None
    battery = battery or BatterySpec()
    rng = np.random.default_rng(battery.seed + 1)
    report: dict = {"seed": battery.seed}

    # (a) identity distortion collapses to expected utility
    cases = generate_battery(battery)
    errors = []
    for v, u in zip(cases, _inner_profiles(cases, pref.phi, identity_distortion())):
        expected = [math.fsum(r) for r in (v.outcome_probs * pref.phi(v.payoffs)).tolist()]
        errors.append(float(np.max(np.abs(u - expected))))
    report["expectation_reduction"] = _section(errors, range(len(cases)))

    # (b) affine equivariance on unambiguous variables; translation for all
    unamb = generate_battery(
        BatterySpec(
            n_cases=battery.n_cases,
            max_states=battery.max_states,
            max_outcomes=battery.max_outcomes,
            payoff_low=battery.payoff_low,
            payoff_high=battery.payoff_high,
            seed=battery.seed + 2,
            unambiguous=True,
        )
    )
    maps = [(float(rng.uniform(0.5, 2.5)), float(rng.uniform(-2.0, 2.0))) for _ in unamb]
    shifts = [float(rng.uniform(-2.0, 2.0)) for _ in cases]
    moved = [_PayoffRows(v.state_ids, v.outcome_probs, a * v.payoffs + b) for v, (a, b) in zip(unamb, maps)]
    moved += [_PayoffRows(v.state_ids, v.outcome_probs, v.payoffs + m) for v, m in zip(cases, shifts)]
    profiles = _inner_profiles([*unamb, *cases, *moved], identity_utility(), pref.psi)
    values = _robust_values(pref.ambiguity, profiles).tolist()
    base, after = values[: len(moved)], values[len(moved) :]
    expect = [a * x + b for (a, b), x in zip(maps, base)]
    expect += [x + m for m, x in zip(shifts, base[len(unamb) :])]
    errors = [abs(y - e) for y, e in zip(after, expect)]
    labels = [*range(len(unamb)), *(("shift", idx) for idx in range(len(cases)))]
    report["affine_equivariance"] = _section(errors, labels)

    # (c) indicator penalty equals the explicit minimum over listed priors
    errors = []
    for u in _inner_profiles(cases, pref.phi, pref.psi):
        k = int(rng.integers(1, 5))
        raw = rng.random((k, u.size)) + 0.05
        listed = MaxminSet([Prior(row / row.sum()) for row in raw])
        value = float(listed.robust_values(u[None, :])[0])
        explicit = min(float(q.weights @ u) for q in listed.priors)
        errors.append(abs(value - explicit))
    report["maxmin_reduction"] = _section(errors, range(len(cases)))

    # (d) single state: stand-alone rank-dependent utility
    singles = generate_battery(
        BatterySpec(
            n_cases=battery.n_cases,
            n_states=1,
            max_outcomes=battery.max_outcomes,
            payoff_low=battery.payoff_low,
            payoff_high=battery.payoff_high,
            seed=battery.seed + 3,
        )
    )
    values = _robust_values(pref.ambiguity, _inner_profiles(singles, pref.phi, pref.psi)).tolist()
    errors = [
        abs(value - choquet(v.marginal(v.state_ids[0]).pushforward(pref.phi), pref.psi))
        for v, value in zip(singles, values)
    ]
    report["single_state_rdu"] = _section(errors, range(len(singles)))

    report["passed"] = all(not report[k]["violations"] for k in (
        "expectation_reduction", "affine_equivariance", "maxmin_reduction", "single_state_rdu"))
    return report

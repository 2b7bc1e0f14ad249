"""The battery as a per-case loop: the test oracle of ``battery_reports``.

Cases are ``TwoStageVariable``s drawn one by one, each valued alone: its
own ``inner_rdu`` call and a one-row ``robust_solve`` under the penalty
carried to its state count by ``adapt``, written here apart from
``AmbiguityIndex.recentered``.  Section (c) builds a ``MaxminSet`` for each
case and section (d) compares with the survival-loop ``choquet`` oracle
(``support_oracle.loop_choquet``) of the case's ``DiscreteDistribution``
pushed forward by phi.  The phases run in the
order of the batched pass (draws and inner values first, robust values
after), so both raise the same error class, and every figure is computed
with the arithmetic the batched sections reproduce, so the JSON of the
reports agrees byte for byte.  The draw's shape is written here too, apart
from ``evaluator``'s constants.  ``reference_generate_battery`` and
``reference_listed_priors`` are the per-case draws that ``_draw_cases`` and
``_draw_listed_priors`` take in blocks.
"""

import functools
import math

import numpy as np

from rankrobust import (
    BatterySpec,
    ConfigError,
    Entropic,
    Gini,
    MaxminSet,
    Prior,
    ShapeError,
    TwoStageVariable,
    identity,
    identity_utility,
    inner_rdu,
)
from support_oracle import loop_choquet

TOL = 1e-9  # a reduction error above this is a violation
SECTIONS = ("expectation_reduction", "affine_equivariance", "maxmin_reduction", "single_state_rdu")
# The battery's draw: 1-6 states, 2-8 outcomes, payoffs uniform on [-5, 5].
MAX_STATES = 6
MAX_OUTCOMES = 8
PAYOFFS = (-5.0, 5.0)


def reference_generate_battery(n_cases, seed, n_states=None, *, unambiguous=False,
                               uniform_probs=False, risk_free=False, payoffs=PAYOFFS):
    """n_cases cases drawn one by one into ``TwoStageVariable``s, as the
    battery draws them.  The keywords past ``unambiguous`` give the tests
    other draws: uniform outcome probabilities (no weights drawn), a payoff
    range, and risk-free rows that repeat their first payoff."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        n_w = n_states if n_states is not None else int(rng.integers(1, MAX_STATES + 1))
        n_s = int(rng.integers(2, MAX_OUTCOMES + 1))
        if uniform_probs:
            probs = np.full((n_w, n_s), 1.0 / n_s)
        else:
            raw = rng.random((n_w, n_s)) + 0.05
            probs = raw / raw.sum(axis=1, keepdims=True)
        x = rng.uniform(*payoffs, size=(n_w, n_s))
        if unambiguous:
            probs = np.tile(probs[:1], (n_w, 1))
            x = np.tile(x[:1], (n_w, 1))
        if risk_free:
            x = np.tile(x[:, :1], (1, n_s))
        cases.append(TwoStageVariable([f"w{i}" for i in range(n_w)], probs, x))
    return cases


def reference_listed_priors(rng, states):
    """Section (c)'s listed priors drawn case by case, as a (cases, 4, max
    states) array: one to four normalised priors per case, the first
    repeated into the slots past the case's count, zeros past its states."""
    listed = np.zeros((len(states), 4, max(states)))
    for c, n in enumerate(states):
        raw = rng.random((int(rng.integers(1, 5)), n)) + 0.05
        listed[c, :, :n] = (raw / raw.sum(axis=1, keepdims=True))[[*range(len(raw)), 0, 0, 0][:4]]
    return listed


def adapt(amb, n):
    """Carry a penalty template to n states, as the batteries document it:
    reference penalties around the uniform prior, maxmin over all vertices
    (as the hull of the n point masses); a table cannot be carried."""
    if amb.n_states == n:
        return amb
    if isinstance(amb, MaxminSet):
        return MaxminSet([Prior.point_mass(n, i) for i in range(n)])
    if isinstance(amb, (Entropic, Gini)):
        return type(amb)(amb.theta, Prior.uniform(n))
    raise ShapeError(f"cannot adapt {amb.describe()} to {n} states")


def _robust_value(local, u):
    """The robust value of one case's per-state profile u."""
    return float(local(u.size).robust_solve(u[None, :])[0][0])


def _section(errors):
    return {
        "max_error": max([0.0, *(err for _, err in errors)]),
        "violations": [label for label, err in errors if err > TOL],
    }


def _aversion(seed, local, profiles, values):
    violations = []
    for idx, (u, value) in enumerate(zip(profiles, values)):
        neutral = float(local(u.size).zero_penalty_prior().weights @ u)
        if value > neutral + TOL:
            violations.append({"case": idx, "value": value, "neutral": neutral})
    return {"cases": len(profiles), "violations": violations, "seed": seed, "passed": not violations}


def reference_aversion_check(pref, battery=None):
    """``ambiguity_aversion_check`` case by case: a penalty that cannot be
    carried to another state count (a table) on cases of its own count."""
    amb = pref.ambiguity
    local = functools.cache(functools.partial(adapt, amb))
    spec = battery or BatterySpec()
    try:
        local(amb.n_states + 1)
        n_states = None
    except ShapeError:
        n_states = amb.n_states
    profiles = [inner_rdu(v, pref.phi, pref.psi) for v in reference_generate_battery(spec.n_cases, spec.seed, n_states)]
    return _aversion(spec.seed, local, profiles, [_robust_value(local, u) for u in profiles])


def reference_battery_reports(pref, battery=None):
    """``battery_reports`` case by case: the reduction suite and the
    aversion check, as the per-case path computed them."""
    battery = battery or BatterySpec()
    amb = pref.ambiguity
    local = functools.cache(functools.partial(adapt, amb))
    try:
        local(1)
    except ShapeError:
        raise ConfigError(f"{amb.describe()} cannot be recentred on 1 state") from None
    cases = reference_generate_battery(battery.n_cases, battery.seed)
    rng = np.random.default_rng(battery.seed + 1)
    # (a) the identity distortion's inner values against fsum'd expectations
    expectation = []
    for idx, v in enumerate(cases):
        u = inner_rdu(v, pref.phi, identity())
        expected = [math.fsum(row) for row in (v.outcome_probs * pref.phi(v.payoffs)).tolist()]
        expectation.append((idx, float(np.max(np.abs(u - expected)))))
    # (b)'s cases, maps and moved copies, all under linear utility
    unamb = reference_generate_battery(battery.n_cases, battery.seed + 2, unambiguous=True)
    maps = [(float(rng.uniform(0.5, 2.5)), float(rng.uniform(-2.0, 2.0))) for _ in unamb]
    shifts = [float(rng.uniform(-2.0, 2.0)) for _ in cases]
    moved = [v.with_payoffs(a * v.payoffs + b) for v, (a, b) in zip(unamb, maps)]
    moved += [v.with_payoffs(v.payoffs + m) for v, m in zip(cases, shifts)]
    linear = [inner_rdu(v, identity_utility(), pref.psi) for v in [*unamb, *cases, *moved]]
    # (c)'s listed priors, one MaxminSet per case
    listed = []
    for v in cases:
        raw = rng.random((int(rng.integers(1, 5)), v.n_states)) + 0.05
        listed.append(MaxminSet([Prior(row / row.sum()) for row in raw]))
    singles = reference_generate_battery(battery.n_cases, battery.seed + 3, n_states=1)
    profiles = [inner_rdu(v, pref.phi, pref.psi) for v in cases]
    single_profiles = [inner_rdu(v, pref.phi, pref.psi) for v in singles]
    # robust values, each case alone
    linear_values = [_robust_value(local, u) for u in linear]
    case_values = [_robust_value(local, u) for u in profiles]
    single_values = [_robust_value(local, u) for u in single_profiles]
    n_base = len(unamb) + len(cases)
    base, after = linear_values[:n_base], linear_values[n_base:]
    affine = [(idx, abs(y - (a * x + b))) for idx, ((a, b), x, y) in enumerate(zip(maps, base, after))]
    affine += [(("shift", idx), abs(y - (x + m)))
               for idx, (m, x, y) in enumerate(zip(shifts, base[len(unamb):], after[len(unamb):]))]
    maxmin = []
    for idx, (u, priors) in enumerate(zip(profiles, listed)):
        value = float(priors.robust_solve(u[None, :])[0][0])
        maxmin.append((idx, abs(value - min(float(q.weights @ u) for q in priors.priors))))
    single = [(idx, abs(value - loop_choquet(v.marginal(v.state_ids[0]).pushforward(pref.phi), pref.psi)))
              for idx, (v, value) in enumerate(zip(singles, single_values))]
    report = {"seed": battery.seed}
    for key, errors in zip(SECTIONS, (expectation, affine, maxmin, single)):
        report[key] = _section(errors)
    report["passed"] = all(not report[k]["violations"] for k in SECTIONS)
    return report, _aversion(battery.seed, local, profiles, case_values)

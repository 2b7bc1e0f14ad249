"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every expected value is either computed by an independent
oracle inside the test or is an exact structural identity.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import rel_entr

from rankrobust import (
    BatterySpec,
    Entropic,
    Gini,
    ImageOverflowError,
    MaxminSet,
    Preference,
    Prior,
    Tabulated,
    TwoStageVariable,
    Weights,
    add_variables,
    affine,
    ambiguity_aversion_check,
    choquet,
    comonotonic,
    dual_power,
    ellsberg_demo,
    es_tail,
    evaluate,
    exponential,
    identity,
    identity_utility,
    inner_rdu,
    is_more_ambiguity_averse,
    mix_variables,
    optimize,
    piecewise_linear,
    power,
    prelec,
    preference_double,
    simplex_grid,
    subjective_add,
    subjective_mix,
    tversky_kahneman,
    weighted_var,
    DiscreteDistribution,
    ScenarioPanel,
    expected_shortfall,
)
from battery_oracle import reference_generate_battery
from conftest import mean_risk_objective, solve_one, translated, values_of
from lattice_oracle import UtilityGrid, c_min_bruteforce
from support_oracle import is_unambiguous

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS - {detail}")


def _random_distribution(rng, max_points=8, lo=-10.0, hi=10.0):
    n = int(rng.integers(1, max_points + 1))
    values = np.sort(rng.uniform(lo, hi, size=n)) + np.arange(n) * 1e-6
    probs = rng.random(n) + 0.05
    probs /= probs.sum()
    return DiscreteDistribution(values, probs)


def _vertices(n):
    return MaxminSet([Prior.point_mass(n, i) for i in range(n)])


def test_c01_reduction_chain():
    start = time.perf_counter()
    cases = reference_generate_battery(200, 101)
    rng = np.random.default_rng(102)
    worst = 0.0

    for v in cases:
        n = v.n_states
        psi = power(float(rng.uniform(0.5, 2.0)))
        amb = Entropic(1.0, Prior.uniform(n)) if n > 1 else Entropic(1.0, Prior.uniform(1))

        # (a) single state equals stand-alone rank-dependent utility
        if n == 1:
            pref = Preference(identity_utility(), psi, amb, v.state_ids)
            value = evaluate(v, pref).value_utils
            rdu = choquet(v.marginal(v.state_ids[0]), psi)
            worst = max(worst, abs(value - rdu))

        # (b) identity distortion equals the penalized plain-expectation value
        pref_id = Preference(identity_utility(), identity(), amb, v.state_ids)
        value = evaluate(v, pref_id).value_utils
        plain = np.array([float(v.outcome_probs[w] @ v.payoffs[w]) for w in range(n)])
        vp_value, _ = solve_one(amb, plain)
        worst = max(worst, abs(value - vp_value))

        # (c) indicator penalties equal the explicit minimum over listed priors
        raw = rng.random((3, n)) + 0.05
        listed = MaxminSet([Prior(row / row.sum()) for row in raw])
        pref_mm = Preference(identity_utility(), psi, listed, v.state_ids)
        value = evaluate(v, pref_mm).value_utils
        utils = inner_rdu(v, pref_mm.phi, psi)
        explicit = min(float(p.weights @ utils) for p in listed.priors)
        worst = max(worst, abs(value - explicit))

        # (d) affine utility + identity distortion + single state: the plain mean
        if n == 1:
            a, b = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1, 1))
            pref_aff = Preference(affine(a, b), identity(), amb, v.state_ids)
            ev = evaluate(v, pref_aff)
            mean = v.marginal(v.state_ids[0]).mean()
            worst = max(worst, abs(ev.value_utils - (a * mean + b)))
            worst = max(worst, abs(ev.certainty_equivalent - mean))

    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst reduction error {worst}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, f"reduction chain max error {worst:.2e} over 200 cases in {elapsed:.2f}s")


def test_c02_weighted_var_equivalence():
    rng = np.random.default_rng(202)
    continuous = [identity(), power(2), power(0.4), es_tail(0.3), es_tail(1.0),
                  prelec(0.65, 1.0), tversky_kahneman(0.61), dual_power(2.0),
                  piecewise_linear([(0, 0), (0.25, 0.1), (0.75, 0.6), (1, 1)])]
    worst = 0.0
    for _ in range(500):
        d = _random_distribution(rng)
        psi = continuous[int(rng.integers(len(continuous)))]
        worst = max(worst, abs(weighted_var(d, psi) - choquet(d, psi)))
    assert worst <= 1e-9

    worst_es = 0.0
    for lam in (0.01, 0.05, 0.5, 1.0):
        for _ in range(50):
            d = _random_distribution(rng)
            gap = abs(expected_shortfall(d, lam) + choquet(d, es_tail(lam)))
            worst_es = max(worst_es, gap)
    assert worst_es <= 1e-9
    _report(2, f"quantile-weighting equivalence {worst:.2e}; shortfall identity {worst_es:.2e}")


def test_c03_choquet_properties():
    rng = np.random.default_rng(303)
    psis = [identity(), power(2), power(0.5), es_tail(0.25), prelec(0.5, 1.2),
            tversky_kahneman(0.7), dual_power(3.0)]
    worst_add = worst_aff = worst_mono = 0.0
    for _ in range(500):
        psi = psis[int(rng.integers(len(psis)))]

        # comonotone additivity on a shared outcome space
        n = int(rng.integers(2, 9))
        probs = rng.random(n) + 0.05
        probs /= probs.sum()
        x = np.sort(rng.uniform(-10, 10, n)) + np.arange(n) * 1e-3
        y = np.sort(rng.uniform(-10, 10, n)) + np.arange(n) * 1e-3
        gap = abs(
            choquet(DiscreteDistribution(x + y, probs), psi)
            - choquet(DiscreteDistribution(x, probs), psi)
            - choquet(DiscreteDistribution(y, probs), psi)
        )
        worst_add = max(worst_add, gap)

        # positive affine equivariance
        d = _random_distribution(rng)
        a, b = float(rng.uniform(0.1, 4.0)), float(rng.uniform(-8, 8))
        gap = abs(choquet(DiscreteDistribution(a * d.values + b, d.probs), psi)
                  - (a * choquet(d, psi) + b))
        worst_aff = max(worst_aff, gap)

        # monotone under first-order dominance (downward shift)
        shift = float(rng.uniform(0.0, 3.0))
        lower = DiscreteDistribution(d.values - shift, d.probs)
        worst_mono = max(worst_mono, choquet(lower, psi) - choquet(d, psi))
    assert worst_add <= 1e-9
    assert worst_aff <= 1e-9
    assert worst_mono <= 1e-9
    _report(3, f"additivity {worst_add:.2e}, affine {worst_aff:.2e}, monotone {worst_mono:.2e}")


def test_c04_entropic_duality():
    rng = np.random.default_rng(404)
    worst_grid = 0.0
    # two states, fine scan
    q1 = np.linspace(0.0, 1.0, 200_001)
    grid2 = np.stack([q1, 1.0 - q1], axis=1)
    for theta in (0.5, 1.0):
        ref = Prior.uniform(2)
        c = Entropic(theta, ref)
        kl = rel_entr(grid2, ref.weights).sum(axis=1)
        for _ in range(5):
            u = rng.uniform(0, 1, size=2)
            closed, _ = solve_one(c, u)
            gridmin = float((grid2 @ u + theta * kl).min())
            worst_grid = max(worst_grid, abs(closed - gridmin))
    # three states
    grid3 = simplex_grid(3, 2000)
    for theta in (0.5, 1.0):
        ref = Prior.uniform(3)
        c = Entropic(theta, ref)
        kl = rel_entr(grid3, ref.weights).sum(axis=1)
        for _ in range(4):
            u = rng.uniform(0, 1, size=3)
            closed, _ = solve_one(c, u)
            gridmin = float((grid3 @ u + theta * kl).min())
            worst_grid = max(worst_grid, abs(closed - gridmin))
    assert worst_grid <= 1e-6, f"grid gap {worst_grid}"

    # dual reconstruction of the penalty from certainty values
    worst_dual = 0.0
    lattice = UtilityGrid(-5.0, 5.0, 0.01)
    for theta, qvec in ((1.0, (0.7, 0.3)), (1.0, (0.55, 0.45)), (0.5, (0.8, 0.2))):
        c = Entropic(theta, Prior.uniform(2))
        q = Prior(np.array(qvec))
        bound = c_min_bruteforce(values_of(c), q, lattice)
        true_pen = c.penalty(q)
        assert bound <= true_pen + 1e-12
        worst_dual = max(worst_dual, true_pen - bound)
    assert worst_dual <= 5e-3, f"dual gap {worst_dual}"
    _report(4, f"grid agreement {worst_grid:.2e}; dual recovery gap {worst_dual:.2e}")


def test_c05_certainty_level_properties():
    rng = np.random.default_rng(505)
    tol = 1e-8
    phis = [affine(2.0, 1.0), exponential(0.3)]
    violations = 0

    # (v) certainty comonotonic additivity
    ran = 0
    for v in reference_generate_battery(150, 506, uniform_probs=True, payoffs=(-1.5, 1.5)):
        base = np.sort(rng.uniform(-1.5, 1.5, size=v.n_outcomes))
        payoffs = np.empty_like(v.payoffs)
        for w in range(v.n_states):
            ranks = np.argsort(np.argsort(v.payoffs[w], kind="stable"), kind="stable")
            payoffs[w] = base[ranks]
        r = v.with_payoffs(payoffs)
        assert comonotonic(v, r) and is_unambiguous(r)
        phi = phis[int(rng.integers(2))]
        pref = Preference(phi, identity(), Entropic(1.0, Prior.uniform(v.n_states)), v.state_ids)
        try:
            total = add_variables(v, r, phi)
        except ImageOverflowError:
            continue
        ce_t = evaluate(total, pref).certainty_equivalent
        ce_v = evaluate(v, pref).certainty_equivalent
        ce_r = evaluate(r, pref).certainty_equivalent
        if None in (ce_t, ce_v, ce_r):
            continue
        ran += 1
        f0 = phi(0.0)
        if abs((phi(ce_t) - f0) - (phi(ce_v) - f0) - (phi(ce_r) - f0)) > tol:
            violations += 1
    assert ran >= 100

    # (vii) translation invariance
    for v in reference_generate_battery(150, 507, payoffs=(-1.5, 1.5)):
        phi = phis[int(rng.integers(2))]
        pref = Preference(phi, power(1.4), Gini(1.0, Prior.uniform(v.n_states)), v.state_ids)
        m = float(rng.uniform(-0.5, 0.5))
        try:
            shifted = translated(v, m, phi)
        except ImageOverflowError:
            continue
        gap = abs(
            evaluate(shifted, pref).value_utils
            - evaluate(v, pref).value_utils
            - (phi(m) - phi(0.0))
        )
        if gap > tol:
            violations += 1

    # (viii) ambiguity concavity on risk-free profiles
    for v in reference_generate_battery(150, 508, risk_free=True, payoffs=(-1.5, 1.5)):
        phi = phis[int(rng.integers(2))]
        pref = Preference(phi, identity(), Entropic(0.8, Prior.uniform(v.n_states)), v.state_ids)
        u = v.with_payoffs(np.roll(v.payoffs, 1, axis=0))
        alpha = float(rng.uniform(0.1, 0.9))
        mixed = mix_variables(v, u, alpha, phi)
        val = evaluate(mixed, pref).value_utils
        lower = alpha * evaluate(v, pref).value_utils + (1 - alpha) * evaluate(u, pref).value_utils
        if val < lower - tol:
            violations += 1

    # (iv) monotonicity under a single payoff raise
    for v in reference_generate_battery(150, 509):
        pref = Preference(identity_utility(), power(0.7),
                          Entropic(1.0, Prior.uniform(v.n_states)), v.state_ids)
        before = evaluate(v, pref).value_utils
        bumped = v.payoffs.copy()
        bumped[int(rng.integers(v.n_states)), int(rng.integers(v.n_outcomes))] += float(rng.uniform(0, 2))
        if evaluate(v.with_payoffs(bumped), pref).value_utils < before - tol:
            violations += 1

    # (A2) neutrality: outcome relabeling and probability splitting
    for v in reference_generate_battery(150, 510):
        pref = Preference(identity_utility(), power(2),
                          Entropic(1.0, Prior.uniform(v.n_states)), v.state_ids)
        base = evaluate(v, pref).value_utils
        perm = rng.permutation(v.n_outcomes)
        permuted = TwoStageVariable(v.state_ids, v.outcome_probs[:, perm], v.payoffs[:, perm])
        if abs(evaluate(permuted, pref).value_utils - base) > tol:
            violations += 1
        split = TwoStageVariable(
            v.state_ids,
            np.concatenate([v.outcome_probs[:, :1] / 2, v.outcome_probs[:, :1] / 2,
                            v.outcome_probs[:, 1:]], axis=1),
            np.concatenate([v.payoffs[:, :1], v.payoffs[:, :1], v.payoffs[:, 1:]], axis=1),
        )
        if abs(evaluate(split, pref).value_utils - base) > tol:
            violations += 1

    assert violations == 0, f"{violations} certainty-level property violations"
    _report(5, "additivity/translation/concavity/monotonicity/neutrality: zero violations at 1e-8")


def test_c06_two_urn_demo():
    start = time.perf_counter()
    demo = ellsberg_demo()
    elapsed = time.perf_counter() - start
    assert demo["values"]["U(urn_a)"] == 0.0
    assert demo["values"]["U(urn_c)"] == 20.0
    assert demo["values"]["U(urn_a + urn_b)"] == 100.0
    assert demo["values"]["U(urn_c + urn_b)"] == 20.0
    assert demo["values"]["U(urn_c)"] > demo["values"]["U(urn_a)"]
    assert demo["values"]["U(urn_a + urn_b)"] > demo["values"]["U(urn_c + urn_b)"]
    assert demo["passed"] is True
    assert elapsed < 1.0, f"demo took {elapsed:.2f}s"
    _report(6, f"preference reversal reproduced exactly (0 < 20, 100 > 20) in {elapsed:.2f}s")


def test_c07_comparative_and_absolute_aversion():
    ids = ("w0", "w1")
    spec = BatterySpec(n_cases=200, seed=707)

    def pref_of(amb):
        return Preference(identity_utility(), identity(), amb, ids)

    # nested entropic penalties: smaller theta is the more ambiguity-averse agent
    thetas = (0.5, 1.0, 2.0)
    for lo, hi in ((0.5, 1.0), (1.0, 2.0), (0.5, 2.0)):
        rep = is_more_ambiguity_averse(pref_of(Entropic(lo, Prior.uniform(2))),
                                       pref_of(Entropic(hi, Prior.uniform(2))), spec)
        assert rep["more_ambiguity_averse"] is True
        assert not rep["behavioral"]["violations"]
        assert rep["consistent"] is True
        reverse = is_more_ambiguity_averse(pref_of(Entropic(hi, Prior.uniform(2))),
                                           pref_of(Entropic(lo, Prior.uniform(2))), spec)
        assert reverse["more_ambiguity_averse"] is False

    # nested worst-case sets: the larger prior set is more ambiguity averse
    full = pref_of(_vertices(2))
    pinned = pref_of(MaxminSet([Prior.uniform(2)]))
    rep = is_more_ambiguity_averse(full, pinned, spec)
    assert rep["more_ambiguity_averse"] is True
    assert not rep["behavioral"]["violations"]
    assert is_more_ambiguity_averse(pinned, full, spec)["more_ambiguity_averse"] is False

    # every built-in penalty kind is ambiguity averse on the battery
    builtins = {
        "entropic": Entropic(1.0, Prior.uniform(2)),
        "gini": Gini(0.8, Prior.uniform(2)),
        "maxmin": MaxminSet([Prior(np.array([0.3, 0.7])), Prior(np.array([0.8, 0.2]))]),
        "tabulated": Tabulated([(Prior.uniform(2), 0.0), (Prior(np.array([0.9, 0.1])), 0.4)]),
    }
    for name, amb in builtins.items():
        report = ambiguity_aversion_check(pref_of(amb), BatterySpec(n_cases=200, seed=708))
        assert report["passed"], f"{name}: {report['violations'][:3]}"
    _report(7, "theta-nesting, set-nesting, and absolute aversion all consistent on 200 cases")


def test_c08_mixture_algebra():
    rng = np.random.default_rng(808)
    cube = __import__("rankrobust").power_utility(3, domain=(-math.inf, math.inf))

    def fresh_phi(pick):
        if pick == 0:
            return affine(float(rng.uniform(0.2, 3.0)), float(rng.uniform(-2, 2)))
        if pick == 1:
            return exponential(float(rng.uniform(0.05, 0.4)))
        if pick == 2:
            return exponential(-float(rng.uniform(0.05, 0.4)))
        return cube

    worst = 0.0
    checked = 0
    for _ in range(1000):
        phi = fresh_phi(int(rng.integers(4)))
        x, y = (float(t) for t in rng.uniform(-1.5, 1.5, size=2))
        alpha = float(rng.uniform(0, 1))
        a, b = float(rng.uniform(0.2, 4.0)), float(rng.uniform(-3, 3))
        scaled = phi.rescaled(a, b)

        worst = max(worst, abs(subjective_mix(x, x, alpha, phi) - x))  # idempotence
        worst = max(worst, abs(subjective_mix(x, y, alpha, phi)
                               - subjective_mix(x, y, alpha, scaled)))  # affine invariance
        try:
            added = subjective_add(x, y, phi)
            worst = max(worst, abs(subjective_add(x, 0.0, phi) - x))  # neutral element
            worst = max(worst, abs(added - subjective_add(x, y, scaled)))
            # the defining construction holds bit for bit
            assert added == preference_double(subjective_mix(x, y, 0.5, phi), phi)
            checked += 1
        except ImageOverflowError:
            continue
    assert worst <= 1e-10, f"worst algebra error {worst}"
    assert checked >= 900
    _report(8, f"1000 triples: worst error {worst:.2e}, composition identity exact on {checked}")


def test_c09_portfolio_sanity():
    start = time.perf_counter()
    hedge = ScenarioPanel(["long", "short"], ("w0",), [[0.5, 0.5]],
                          [[[0.1, -0.1], [-0.1, 0.1]]])
    pref1 = Preference(identity_utility(), es_tail(0.5), MaxminSet([Prior.uniform(1)]), ("w0",))
    res = optimize(hedge, Prior.uniform(1), pref1, budget=2000)
    assert res.weights.values == pytest.approx([0.5, 0.5], abs=1e-4)
    t_hedge = time.perf_counter() - start
    assert t_hedge < 10.0

    start = time.perf_counter()
    rv = ScenarioPanel(["risky", "safe"], ("w0",), [[0.5, 0.5]],
                       [[[1.0, 0.0], [-1.0, 0.0]]])
    res2 = optimize(rv, Prior.uniform(1), pref1, budget=2000)
    assert list(res2.weights.values) == [0.0, 1.0]
    t_rv = time.perf_counter() - start
    assert t_rv < 10.0

    start = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    for trial in range(100):
        probs = rng.random((2, 4)) + 0.1
        probs /= probs.sum(axis=1, keepdims=True)
        panel = ScenarioPanel(
            [f"a{i}" for i in range(3)], ("w0", "w1"), probs,
            rng.uniform(-0.2, 0.25, size=(2, 4, 3)),
        )
        psi = es_tail(0.4) if trial % 2 else power(2)
        amb = Entropic(1.0, Prior.uniform(2)) if trial % 3 else _vertices(2)
        pref = Preference(identity_utility(), psi, amb, ("w0", "w1"))
        p = Prior.uniform(2)
        raw = rng.random((2, 3)) + 0.01
        w1, w2 = (row / row.sum() for row in raw)
        mid = 0.5 * (w1 + w2)
        mid /= mid.sum()
        gap = 0.5 * (mean_risk_objective(panel, Weights(w1), p, pref)
                     + mean_risk_objective(panel, Weights(w2), p, pref)) \
            - mean_risk_objective(panel, Weights(mid), p, pref)
        worst = max(worst, gap)
    t_conc = time.perf_counter() - start
    assert worst <= 1e-8, f"concavity violated by {worst}"
    assert t_conc < 10.0
    _report(9, f"hedge exact, risk-free selected, concavity margin {worst:.2e} "
               f"({t_hedge:.2f}s/{t_rv:.2f}s/{t_conc:.2f}s)")


def test_c10_cli_determinism():
    configs = [
        ["evaluate", "--scenario", str(FIXTURES / "two_state.json"),
         "--penalty", "entropic:1@uniform", "--distortion", "tk:0.61",
         "--seed", "42", "--output", "json"],
        ["demo", "ellsberg", "--output", "json"],
        ["portfolio", "--scenario", str(FIXTURES / "panel_hedge.csv"),
         "--penalty", "maxmin:w0=1", "--distortion", "es:0.5",
         "--mean-prior", "uniform", "--budget", "300",
         "--seed", "9", "--output", "json"],
        ["battery", "--penalty", "gini:0.7@w0=0.5,w1=0.5", "--cases", "15",
         "--seed", "5", "--output", "json"],
    ]
    for argv in configs:
        cmd = [sys.executable, "-m", "rankrobust", *argv]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout, f"non-deterministic output for {argv[0]}"
        json.loads(first.stdout)  # schema-stable JSON
    _report(10, f"{len(configs)} CLI configurations byte-identical across repeated runs")

import io
import itertools
import json
import math
import re
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rankrobust import (
    BatterySpec,
    ConfigError,
    DiscreteDistribution,
    DomainError,
    Entropic,
    Gini,
    ImageOverflowError,
    MaxminSet,
    Preference,
    Prior,
    ShapeError,
    Tabulated,
    TwoStageVariable,
    add_variables,
    affine,
    ambiguity_aversion_check,
    choquet,
    comonotonic,
    dual_power,
    ellsberg_demo,
    ellsberg_preference,
    ellsberg_variables,
    es_tail,
    evaluate,
    exponential,
    identity,
    identity_utility,
    inner_rdu,
    is_more_ambiguity_averse,
    mix_variables,
    parse_distortion,
    parse_penalty,
    parse_utility,
    piecewise_linear,
    power,
    prelec,
    tversky_kahneman,
    var_step,
)
import rankrobust.distribution as distribution_module
import rankrobust.evaluator as evaluator_module
from rankrobust.cli import main as cli_main, parse_scenario
from rankrobust.distribution import MERGE_TOL, merge_rows
from rankrobust.evaluator import (
    _Cases,
    _PayoffRows,
    _draw_cases,
    _section,
    MAX_OUTCOMES,
    battery_reports,
    relation,
)
from kernel_oracle import scan_inner_rdu
from battery_oracle import (
    reference_aversion_check,
    reference_battery_reports,
    reference_generate_battery,
    reference_listed_priors,
)
from support_oracle import is_unambiguous, loop_choquet

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

UNIFORM2 = Prior.uniform(2)


def pref_for(v, phi=None, psi=None, amb=None):
    phi = phi or identity_utility()
    psi = psi or identity()
    amb = amb or MaxminSet([Prior.point_mass(v.n_states, i) for i in range(v.n_states)])
    return Preference(phi, psi, amb, v.state_ids)


def single_state(dist_map, probs=None):
    items = sorted(dist_map.items())
    values = [v for v, _ in items]
    ps = [p for _, p in items]
    return TwoStageVariable(["w"], [ps], [values])


class TestInnerRdu:
    def test_single_state_matches_choquet(self):
        v = single_state({0.0: 0.7, 100.0: 0.3})
        utils = inner_rdu(v, identity_utility(), power(2))
        assert utils.shape == (1,)
        assert utils[0] == pytest.approx(9.0, abs=1e-12)

    def test_constant_variable(self):
        v = TwoStageVariable(["a", "b"], [[0.5, 0.5], [0.3, 0.7]], [[2.0, 2.0], [2.0, 2.0]])
        phi = exponential(0.5)
        utils = inner_rdu(v, phi, power(2))
        assert np.allclose(utils, phi(2.0), atol=1e-12)

    def test_affine_phi_scales_inner(self, rng):
        from conftest import random_variable

        for _ in range(50):
            v = random_variable(rng)
            psi = power(float(rng.uniform(0.5, 2.5)))
            a = float(rng.uniform(0.5, 3.0))
            b = float(rng.uniform(-2, 2))
            base = inner_rdu(v, identity_utility(), psi)
            mapped = inner_rdu(v, affine(a, b), psi)
            assert np.allclose(mapped, a * base + b, atol=1e-9)

    def test_out_of_domain_payoff_reports_location(self):
        v = TwoStageVariable(["a", "b"], [[1.0], [1.0]], [[1.0], [-2.0]])
        phi = exponential(1)
        sq = __import__("rankrobust").power_utility(2)  # domain (0, inf)
        with pytest.raises(DomainError) as err:
            inner_rdu(v, sq, identity())
        assert "'b'" in str(err.value)


def choquet_oracle(v, phi, psi):
    """Per-state inner values from the scalar reference, one state at a time."""
    return np.array([choquet(v.marginal(s).pushforward(phi), psi) for s in v.state_ids])


def assert_kernel_agrees(v, phi, psi):
    got, want = inner_rdu(v, phi, psi), choquet_oracle(v, phi, psi)
    assert got.tobytes() == want.tobytes(), (psi.describe(), phi.describe(), got - want)


def every_distortion(k):
    """One distortion of each kind; the var: levels are multiples of 1/k."""
    return [
        identity(), power(0.5), power(2.3), prelec(0.4, 1.2), prelec(1.7, 0.8),
        tversky_kahneman(0.61), es_tail(0.3), es_tail(max(1, k // 3) / k), dual_power(3.0),
        piecewise_linear([(0, 0), (0.3, 0.6), (1, 1)]), piecewise_linear([(0, 5e-10), (1, 1)]),
        var_step(0.25), *(var_step(j / k) for j in range(1, k)),
    ]


@st.composite
def single_path_cases(draw):
    """A preference with a penalty of each kind (listed priors with sparse
    supports among them), a variable on its states, and a block of utility
    rows, in either memory layout, with the variable's profile at row pos."""
    n = draw(st.sampled_from([1, 2, 3, 5, 9, 12]))
    kind = draw(st.sampled_from(["maxmin", "vertices", "entropic", "gini", "tabulated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("maxmin", "tabulated"):
        k = int(rng.integers(1, 7))
        raw = (rng.random((k, n)) + 0.05) * (rng.random((k, n)) < 0.7)
        raw[np.arange(k), rng.integers(0, n, size=k)] += 0.5
        priors = [Prior(row / math.fsum(row)) for row in raw]
        if kind == "maxmin":
            index = MaxminSet(priors)
        else:
            index = Tabulated(list(zip(priors, rng.uniform(0.0, 3.0, size=k))))
    elif kind == "vertices":
        index = MaxminSet.vertices(n)
    else:
        theta = draw(st.sampled_from([0.01, 0.3, 1.0, 7.5, 1e4]))
        ref = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
        index = (Entropic if kind == "entropic" else Gini)(theta, Prior(ref / math.fsum(ref)))
    m = int(rng.integers(1, 6))
    probs = rng.random((n, m)) + 0.05
    payoffs = rng.uniform(-5.0, 5.0, size=(n, m))
    if draw(st.booleans()):
        payoffs = np.round(payoffs)  # ties across states
    v = TwoStageVariable([f"w{i}" for i in range(n)], probs / probs.sum(axis=1, keepdims=True), payoffs)
    phi = draw(st.sampled_from([identity_utility(), exponential(0.3)]))
    psi = draw(st.sampled_from([identity(), power(1.5), prelec(0.65, 1.0)]))
    pad = draw(st.sampled_from([0, 1, 7, 300]))
    noise = rng.uniform(-10.0, 10.0, size=(pad, n))
    pos = int(rng.integers(0, pad + 1))
    U = np.vstack([noise[:pos], inner_rdu(v, phi, psi)[None, :], noise[pos:]])
    if draw(st.booleans()):
        U = np.asfortranarray(U)
    return Preference(phi, psi, index, v.state_ids), v, U, pos


def assert_optimal(index, u, value, q):
    """The minimizer q of min_q { q . u + c(q) } and its value, checked
    against optimality conditions derived here, not by the solver."""
    scale = 1.0 + float(np.max(np.abs(u)))
    assert np.all(q >= 0.0) and math.fsum(q) == pytest.approx(1.0, abs=1e-12)
    if isinstance(index, (MaxminSet, Tabulated)):
        objectives = [math.fsum(p.weights * u) + c for p, c in zip(index.priors, index.costs)]
        best = min(objectives)
        assert value == pytest.approx(best, abs=1e-12 * scale)
        attained = [obj for p, obj in zip(index.priors, objectives) if p.weights.tobytes() == q.tobytes()]
        assert attained and min(attained) <= best + 1e-12 * scale
    elif isinstance(index, Entropic):
        # q is proportional to p' exp(-u / theta).
        tilted = index.reference.weights * np.exp(-(u - u.min()) / index.theta)
        assert q == pytest.approx(tilted / math.fsum(tilted), rel=1e-9, abs=1e-300)
        kl = math.fsum(x * math.log(x / p) for x, p in zip(q, index.reference.weights) if x > 0)
        assert value == pytest.approx(math.fsum(q * u) + index.theta * kl, abs=1e-9 * scale)
    else:
        # KKT: u_w + 2 theta (q_w / p_w - 1) equals a common mu on the
        # support and is at least mu off it.
        p = index.reference.weights
        grad = u + 2.0 * index.theta * (q / p - 1.0)
        active = q > 0.0
        mu = grad[active].mean()
        tol = 1e-9 * (scale + 2.0 * index.theta)
        assert np.all(np.abs(grad[active] - mu) <= tol)
        assert np.all(grad[~active] >= mu - tol)
        assert value == pytest.approx(math.fsum(q * u) + index.theta * math.fsum((q - p) ** 2 / p), abs=tol)


class TestSinglePath:
    """evaluate is the one-row robust_solve: it reports the value and the
    minimizer that the profile's row of any padded batch gets."""

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(single_path_cases())
    def test_evaluate_equals_its_row_of_a_padded_batch(self, case):
        pref, v, U, pos = case
        ev = evaluate(v, pref)
        values, minimizers = pref.ambiguity.robust_solve(U)
        assert np.float64(ev.value_utils).tobytes() == values[pos].tobytes()
        assert ev.minimizer.weights.tobytes() == minimizers[pos].tobytes()
        for row in {0, pos, len(U) - 1}:
            assert_optimal(pref.ambiguity, U[row], values[row], minimizers[row])


@st.composite
def rank_cases(draw):
    """A variable with heavy ties and zero-mass outcomes, plus (phi, psi).

    Probabilities are 1/k or weights over their sum; with integer weights
    the var: levels are multiples of one of those denominators, so
    survivals land exactly on 1 - lambda.
    """
    n_w = draw(st.integers(1, 4))
    n_s = draw(st.integers(1, 7))
    if draw(st.booleans()):
        probs = np.full((n_w, n_s), 1.0 / n_s)
        denominators = [n_s]
    else:
        weight = st.one_of(st.integers(0, 4), st.floats(0.01, 1.0))
        row = st.lists(weight, min_size=n_s, max_size=n_s).filter(any)
        weights = np.array(draw(st.lists(row, min_size=n_w, max_size=n_w)), dtype=float)
        sums = weights.sum(axis=1)
        probs = weights / sums[:, None]
        denominators = [int(t) for t in sums if t == int(t)] or [n_s]
    if draw(st.booleans()):
        levels = draw(st.integers(0, 3))
        cell = st.integers(-levels, levels)
        scale = draw(st.sampled_from([0.01, 1.0, 37.0]))
    else:
        cell = st.floats(-5.0, 5.0, allow_nan=False)
        scale = 1.0
    payoffs = scale * np.array(draw(st.lists(
        st.lists(cell, min_size=n_s, max_size=n_s), min_size=n_w, max_size=n_w)), dtype=float)
    v = TwoStageVariable([f"w{i}" for i in range(n_w)], probs, payoffs)
    k = max(2, draw(st.sampled_from(denominators)))
    phi = draw(st.sampled_from([identity_utility(), affine(2.5, -1.0), exponential(0.7)]))
    psi = draw(st.sampled_from(every_distortion(k)))
    return v, phi, psi


class TestBatchedKernelAgreement:
    """inner_rdu against the per-state choquet reference."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(rank_cases())
    @example((TwoStageVariable(  # tied payoffs whose rounded group masses hit var:1/6
        ["w"], [[1 / 6, 1 / 4, 1 / 4, 1 / 12, 1 / 12, 1 / 6]], [[-0.3, 0.1, 0.3, -0.1, 0.2, -0.1]]),
        identity_utility(), var_step(1 / 6)))
    @example((TwoStageVariable(  # distinct payoffs of equal utility, merged twice by the reference
        ["w"], [[0.25, 0.0, 0.25, 1 / 12, 0.25, 0.0, 1 / 6]], [[100, -100, 200, 200, -300, -200, -200]]),
        exponential(0.7), var_step(0.25)))
    @example((TwoStageVariable(  # zero mass at both ends; the masses sum to 1 - 1.1e-16
        ["a", "b"],
        [[0.0, 0.43716026826970494, 0.26319939074807785, 0.2996403409822171, 0.0],
         [0.0, 0.25, 0.25, 0.5, 0.0]],
        [[-4, 0, 1, 2, 9], [-4, 1, 1, 2, 9]]),
        identity_utility(), prelec(0.4, 1.2)))
    @example((TwoStageVariable(["w"], [[1.0]], [[3.0]]), exponential(0.7), var_step(0.5)))
    def test_matches_choquet_reference(self, case):
        assert_kernel_agrees(*case)

    @pytest.mark.parametrize("name", ["ellsberg_urn_a.json", "ellsberg_urn_c.json"])
    def test_ellsberg_fixtures(self, name):
        v = parse_scenario(str(FIXTURES / name))
        for i, psi in enumerate(every_distortion(5)):  # survivals are multiples of 1/25
            assert_kernel_agrees(v, exponential(0.01) if i % 2 else identity_utility(), psi)


class TestEvaluate:
    def test_single_state_reduces_to_rdu(self, rng):
        from conftest import random_distribution

        for _ in range(50):
            d = random_distribution(rng, lo=-5, hi=5)
            v = TwoStageVariable(["w"], [d.probs], [d.values])
            psi = power(float(rng.uniform(0.5, 2.0)))
            pref = pref_for(v, psi=psi, amb=Entropic(1.0, Prior.uniform(1)))
            ev = evaluate(v, pref)
            assert ev.value_utils == pytest.approx(choquet(d, psi), abs=1e-12)

    def test_two_state_entropic(self):
        v = TwoStageVariable(["a", "b"], [[1.0], [1.0]], [[0.0], [1.0]])
        pref = pref_for(v, amb=Entropic(1.0, UNIFORM2))
        ev = evaluate(v, pref)
        assert ev.value_utils == pytest.approx(0.3798854930, abs=1e-9)
        assert ev.certainty_equivalent == pytest.approx(0.3798854930, abs=1e-9)

    def test_constant_has_itself_as_ce(self, rng):
        for amb in (MaxminSet([UNIFORM2]), Entropic(2.0, UNIFORM2), Gini(0.5, UNIFORM2)):
            m = float(rng.uniform(-3, 3))
            v = TwoStageVariable(["a", "b"], [[0.4, 0.6], [0.8, 0.2]], np.full((2, 2), m))
            phi = exponential(0.2)
            pref = Preference(phi, power(2), amb, v.state_ids)
            ev = evaluate(v, pref)
            assert ev.value_utils == pytest.approx(phi(m), abs=1e-12)
            assert ev.certainty_equivalent == pytest.approx(m, abs=1e-10)

    def test_duality_consistency_invariant(self, rng):
        from conftest import random_variable

        ambs = [
            lambda n: MaxminSet([Prior.point_mass(n, i) for i in range(n)]),
            lambda n: Entropic(1.2, Prior.uniform(n)),
            lambda n: Gini(0.8, Prior.uniform(n)),
        ]
        for _ in range(60):
            v = random_variable(rng)
            amb = ambs[int(rng.integers(len(ambs)))](v.n_states)
            pref = pref_for(v, psi=power(1.5), amb=amb)
            ev = evaluate(v, pref)
            recomputed = float(ev.minimizer.weights @ ev.per_state_utils) + amb.penalty(ev.minimizer)
            assert ev.value_utils == pytest.approx(recomputed, abs=1e-9)
            assert ev.value_utils >= float(np.min(ev.per_state_utils)) - 1e-9
            p0 = amb.zero_penalty_prior()
            assert ev.value_utils <= float(p0.weights @ ev.per_state_utils) + 1e-9

    def test_minimizer_optimality_under_perturbation(self, rng):
        from conftest import random_variable

        ambs = [
            lambda n: MaxminSet([Prior.point_mass(n, i) for i in range(n)]),
            lambda n: Entropic(0.9, Prior.uniform(n)),
            lambda n: Gini(1.1, Prior.uniform(n)),
        ]
        for _ in range(20):
            v = random_variable(rng, max_states=4)
            n = v.n_states
            amb = ambs[int(rng.integers(len(ambs)))](n)
            pref = pref_for(v, amb=amb)
            ev = evaluate(v, pref)
            objective = ev.value_utils
            for _ in range(100):
                direction = rng.random(n) + 1e-3
                direction /= direction.sum()
                eps = float(rng.uniform(0.0, 1.0))
                q = Prior((1 - eps) * ev.minimizer.weights + eps * direction)
                pen = amb.penalty(q)
                if not math.isfinite(pen):
                    continue
                assert float(q.weights @ ev.per_state_utils) + pen >= objective - 1e-9

    def test_state_mismatch(self):
        v = TwoStageVariable(["a", "b"], [[1.0], [1.0]], [[0.0], [1.0]])
        pref = Preference(identity_utility(), identity(), Entropic(1.0, UNIFORM2), ("x", "y"))
        with pytest.raises(ShapeError):
            evaluate(v, pref)

    @pytest.mark.parametrize("ids, reason", [
        ([f"w{i}" for i in range(2000)], "2000 against 2000 states, first differing at position 1999 ('w1999' vs 'x')"),
        ([f"w{i}" for i in range(1999)], "1999 against 2000 states, first differing at position 1999 (none vs 'x')"),
        (["v0", *(f"w{i}" for i in range(1, 2000))], "2000 against 2000 states, first differing at position 0 ('v0' vs 'w0')"),
    ])
    def test_state_mismatch_names_the_counts_and_the_first_difference(self, ids, reason):
        """The message stays one short line on thousands of states."""
        pref_ids = [*(f"w{i}" for i in range(1999)), "x"]
        v = TwoStageVariable(ids, np.ones((len(ids), 1)), np.zeros((len(ids), 1)))
        pref = Preference(identity_utility(), identity(), MaxminSet.vertices(2000), pref_ids)
        with pytest.raises(ShapeError) as err:
            evaluate(v, pref)
        assert str(err.value) == f"variable states do not match preference states: {reason}"


@st.composite
def batch_pairs(draw):
    """A preference with a penalty of each kind and two variables on its
    states with different outcome counts, zero masses and payoff ties."""
    n = draw(st.sampled_from([1, 2, 3, 7]))
    kind = draw(st.sampled_from(["maxmin", "vertices", "entropic", "gini", "tabulated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    priors = [Prior(row / math.fsum(row)) for row in rng.random((3, n)) + 0.05]
    index = {"maxmin": lambda: MaxminSet(priors), "vertices": lambda: MaxminSet.vertices(n),
             "tabulated": lambda: Tabulated(list(zip(priors, rng.uniform(0.0, 3.0, size=3)))),
             "entropic": lambda: Entropic(0.7, priors[0]), "gini": lambda: Gini(0.7, priors[0])}[kind]()
    # power:0.5 takes positive payoffs alone.
    phi, lo = draw(st.sampled_from([(identity_utility(), -5.0), (exponential(0.3), -5.0), (parse_utility("power:0.5"), 0.5)]))
    variables = []
    for m in rng.choice(np.arange(1, 9), size=2, replace=False).tolist():
        probs = (rng.random((n, m)) + 0.05) * (rng.random((n, m)) < 0.8)
        probs[:, 0] += 0.5
        payoffs = np.round(rng.uniform(lo, 5.0, size=(n, m)), draw(st.sampled_from([0, 1, 12])))
        variables.append(TwoStageVariable([f"w{i}" for i in range(n)], probs / probs.sum(axis=1, keepdims=True),
                                          payoffs))
    psi = draw(st.sampled_from([identity(), power(1.5), prelec(0.65, 1.0), var_step(0.4)]))
    return Preference(phi, psi, index, variables[0].state_ids), variables


class TestEvaluateBatch:
    """``evaluate_batch`` values each variable bit for bit as one inner
    pass and a one-row ``robust_solve`` value it, and refuses a batch as
    the variables' own evaluations would, in order."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(batch_pairs())
    def test_equals_separate_evaluations_with_different_outcome_counts(self, case):
        pref, variables = case
        assert variables[0].n_outcomes != variables[1].n_outcomes
        for order in (variables, variables[::-1]):
            for got, v in zip(evaluator_module.evaluate_batch(order, pref), order):
                utils = inner_rdu(v, pref.phi, pref.psi)
                values, minimizers = pref.ambiguity.robust_solve(utils[None, :])
                assert np.float64(got.value_utils).tobytes() == values[0].tobytes()
                assert got.per_state_utils.tobytes() == utils.tobytes()
                assert got.minimizer.weights.tobytes() == Prior(minimizers[0]).weights.tobytes()
                assert got.certainty_equivalent == evaluator_module._certainty_equivalent(pref.phi, float(values[0]))

    @pytest.mark.parametrize("case", ["power", "entropic"])
    def test_first_variables_error_comes_first(self, case):
        """power: under power:2 the first variable's utility overflows in the
        inner pass and the second has a payoff outside the domain.
        entropic: the first variable's profile is finite but its robust
        value overflows, and the second's inner pass overflows; the batch
        meets the second's error before it solves the first's profile."""
        ids = ["calm", "storm"]
        if case == "power":
            pref = Preference(parse_utility("power:2"), identity(), MaxminSet.vertices(2), ids)
            a = TwoStageVariable(ids, [[0.5, 0.5], [1.0, 0.0]], [[1.0, 1e200], [1.0, 2.0]])
            b = TwoStageVariable(ids, [[1.0], [1.0]], [[-1.0], [1.0]])
            words = ("is not finite", "outside the utility domain")
        else:
            pref = Preference(identity_utility(), identity(), Entropic(0.7, Prior([0.5, 0.5])), ids)
            a = TwoStageVariable(ids, [[1.0], [1.0]], [[-1.7e308], [-1.7e308]])
            b = TwoStageVariable(ids, [[0.5, 0.5], [1.0, 0.0]], [[-1.7e308, 1.7e308], [1.0, 2.0]])
            words = ("robust value is not finite", "of state 'calm' is not finite")
        for first, second, word in ((a, b, words[0]), (b, a, words[1])):
            with pytest.raises(DomainError) as alone:
                evaluate(first, pref)
            with pytest.raises(DomainError) as batched:
                evaluator_module.evaluate_batch([first, second], pref)
            assert str(batched.value) == str(alone.value)
            assert word in str(alone.value)


def prefer(v1, v2, pref):
    """'>', '<' or '~' between the robust values of two variables."""
    return relation(evaluate(v1, pref).value_utils, evaluate(v2, pref).value_utils)


class TestPrefer:
    def test_self_indifference(self, rng):
        from conftest import random_variable

        for _ in range(20):
            v = random_variable(rng)
            assert prefer(v, v, pref_for(v)) == "~"

    def test_fsd_respected_without_ambiguity(self, rng):
        from conftest import random_distribution

        for _ in range(100):
            d = random_distribution(rng, lo=-5, hi=5)
            gap = float(rng.uniform(0.01, 2.0))
            v = TwoStageVariable(["w"], [d.probs], [d.values])
            worse = TwoStageVariable(["w"], [d.probs], [d.values - gap])
            # strictly increasing distortion preserves the strict gap
            pref = pref_for(v, psi=power(2))
            assert prefer(v, worse, pref) == ">"
            # a flat segment can erase strict gaps but never reverses
            pref_flat = pref_for(v, psi=es_tail(0.5))
            assert prefer(v, worse, pref_flat) in (">", "~")

    def test_ellsberg_isolated_ranking(self):
        bets = ellsberg_variables()
        pref = ellsberg_preference()
        assert prefer(bets["urn_c"], bets["urn_a"], pref) == ">"


class TestEllsbergDemo:
    def test_values_exact(self):
        demo = ellsberg_demo()
        assert demo["values"]["U(urn_a)"] == 0.0
        assert demo["values"]["U(urn_c)"] == 20.0
        assert demo["values"]["U(urn_a + urn_b)"] == 100.0
        assert demo["values"]["U(urn_c + urn_b)"] == 20.0
        assert demo["passed"] is True
        assert demo["reversal"] is True

    def test_comonotone_addition_structure(self):
        bets = ellsberg_variables()
        assert comonotonic(bets["urn_a"], bets["urn_b"])
        assert comonotonic(bets["urn_c"], bets["urn_b"])
        assert bets["urn_a"].n_states == 26 * 21


def loop_ellsberg_variables():
    """The two-urn bets built one state at a time, as the package once did."""
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


class TestEllsbergConstruction:
    def test_broadcast_build_equals_the_state_loop_bit_for_bit(self):
        got, want = ellsberg_variables(), loop_ellsberg_variables()
        assert list(got) == list(want)
        for name in want:
            assert got[name].state_ids == want[name].state_ids
            for field in ("outcome_probs", "payoffs"):
                a, b = getattr(got[name], field), getattr(want[name], field)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_preference_states_match_the_bets(self):
        assert ellsberg_preference().state_ids == loop_ellsberg_variables()["urn_a"].state_ids

    def test_demo_values_each_bet_once(self, monkeypatch, capsys):
        calls = {"evaluate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(evaluator_module, name, counted(name, getattr(evaluator_module, name)))
        assert cli_main(["demo", "ellsberg"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert calls == {"evaluate": 4}


def neutral_value(v, phi, psi, p0):
    """The ambiguity-neutral value: the p0-weighted average of the per-state
    distorted utilities."""
    return float(p0.weights @ inner_rdu(v, phi, psi))


class TestAmbiguityNeutralValue:
    def test_single_state_is_inner_value(self):
        v = single_state({0.0: 0.7, 100.0: 0.3})
        got = neutral_value(v, identity_utility(), power(2), Prior.uniform(1))
        assert got == pytest.approx(9.0, abs=1e-12)

    def test_two_state_average(self):
        v = TwoStageVariable(["a", "b"], [[1.0], [1.0]], [[0.0], [1.0]])
        got = neutral_value(v, identity_utility(), identity(), UNIFORM2)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_penalty_oracle(self, rng):
        # a tabulated index holding only {p0: 0} forces the minimizer to p0
        from conftest import random_variable

        for _ in range(20):
            v = random_variable(rng)
            raw = rng.random(v.n_states) + 0.05
            p0 = Prior(raw / raw.sum())
            pinned = Tabulated([(p0, 0.0)])
            pref = pref_for(v, psi=power(1.3), amb=pinned)
            ev = evaluate(v, pref)
            neutral = neutral_value(v, pref.phi, pref.psi, p0)
            assert ev.value_utils == pytest.approx(neutral, abs=1e-10)


class TestStepOneProperties:
    """Certainty-level structural identities of the evaluation functional."""

    def _phis(self):
        return [affine(2.0, 1.0), exponential(0.3)]

    def _comonotone_unambiguous_companion(self, v, rng):
        """Unambiguous r, state-wise comonotonic with v (uniform outcome probs)."""
        base = np.sort(rng.uniform(-1.5, 1.5, size=v.n_outcomes))
        payoffs = np.empty_like(v.payoffs)
        for w in range(v.n_states):
            ranks = np.argsort(np.argsort(v.payoffs[w], kind="stable"), kind="stable")
            payoffs[w] = base[ranks]
        return v.with_payoffs(payoffs)

    def test_certainty_comonotonic_additivity(self, rng):
        from conftest import random_variable

        ran = 0
        for _ in range(120):
            v = random_variable(rng, lo=-1.5, hi=1.5, uniform_probs=True)
            r = self._comonotone_unambiguous_companion(v, rng)
            assert comonotonic(v, r)
            assert is_unambiguous(r)
            phi = self._phis()[int(rng.integers(2))]
            amb = Entropic(1.0, Prior.uniform(v.n_states))
            pref = pref_for(v, phi=phi, amb=amb)
            try:
                total = add_variables(v, r, phi)
            except ImageOverflowError:
                continue
            ce_total = evaluate(total, pref).certainty_equivalent
            ce_v = evaluate(v, pref).certainty_equivalent
            ce_r = evaluate(r, pref).certainty_equivalent
            if None in (ce_total, ce_v, ce_r):
                continue
            f0 = phi(0.0)
            assert phi(ce_total) - f0 == pytest.approx(
                (phi(ce_v) - f0) + (phi(ce_r) - f0), abs=1e-8
            )
            ran += 1
        assert ran >= 60

    def test_translation_invariance(self, rng):
        from conftest import random_variable, translated

        ran = 0
        for _ in range(120):
            v = random_variable(rng, lo=-1.5, hi=1.5)
            phi = self._phis()[int(rng.integers(2))]
            amb = Gini(1.0, Prior.uniform(v.n_states)) if rng.integers(2) else Entropic(0.8, Prior.uniform(v.n_states))
            pref = pref_for(v, phi=phi, psi=power(1.4), amb=amb)
            m = float(rng.uniform(-0.5, 0.5))
            try:
                shifted = translated(v, m, phi)
            except ImageOverflowError:
                continue
            base = evaluate(v, pref).value_utils
            moved = evaluate(shifted, pref).value_utils
            assert moved == pytest.approx(base + (phi(m) - phi(0.0)), abs=1e-8)
            ran += 1
        assert ran >= 80

    def test_ambiguity_concavity_on_risk_free(self, rng):
        for v in reference_generate_battery(100, 11, risk_free=True, payoffs=(-1.5, 1.5)):
            phi = self._phis()[v.n_states % 2]
            amb = Entropic(1.0, Prior.uniform(v.n_states))
            pref = pref_for(v, phi=phi, amb=amb)
            u = v.with_payoffs(np.roll(v.payoffs, 1, axis=0))
            alpha = 0.5
            mixed = mix_variables(v, u, alpha, phi)
            val_mix = evaluate(mixed, pref).value_utils
            val_v = evaluate(v, pref).value_utils
            val_u = evaluate(u, pref).value_utils
            assert val_mix >= alpha * val_v + (1 - alpha) * val_u - 1e-8

    def test_dual_diversification_preference(self, rng):
        # mixing two equally-valued risk-free prospects never hurts
        for v in reference_generate_battery(80, 13, risk_free=True, payoffs=(-1.0, 1.0)):
            amb = Entropic(0.7, Prior.uniform(v.n_states))
            pref = pref_for(v, amb=amb)
            u = v.with_payoffs(np.roll(v.payoffs, 1, axis=0))
            val_v = evaluate(v, pref).value_utils
            val_u = evaluate(u, pref).value_utils
            mixed = mix_variables(v, u, 0.4, pref.phi)
            assert evaluate(mixed, pref).value_utils >= min(val_v, val_u) - 1e-9

    def test_monotone_in_payoffs(self, rng):
        from conftest import random_variable

        for _ in range(100):
            v = random_variable(rng)
            amb = Entropic(1.0, Prior.uniform(v.n_states))
            pref = pref_for(v, psi=power(0.7), amb=amb)
            base = evaluate(v, pref).value_utils
            bumped = v.payoffs.copy()
            w = int(rng.integers(v.n_states))
            s = int(rng.integers(v.n_outcomes))
            bumped[w, s] += float(rng.uniform(0.0, 2.0))
            assert evaluate(v.with_payoffs(bumped), pref).value_utils >= base - 1e-8

    def test_neutrality_permutation_and_splitting(self, rng):
        from conftest import random_variable

        for _ in range(60):
            v = random_variable(rng)
            amb = Entropic(1.0, Prior.uniform(v.n_states))
            pref = pref_for(v, psi=power(2), amb=amb)
            base = evaluate(v, pref).value_utils

            # permuting outcome labels within each state changes nothing
            perm = rng.permutation(v.n_outcomes)
            permuted = TwoStageVariable(
                v.state_ids, v.outcome_probs[:, perm], v.payoffs[:, perm]
            )
            assert evaluate(permuted, pref).value_utils == base

            # splitting an outcome's mass across identical payoffs is invisible
            split_probs = np.concatenate(
                [v.outcome_probs[:, :1] / 2, v.outcome_probs[:, :1] / 2, v.outcome_probs[:, 1:]],
                axis=1,
            )
            split_payoffs = np.concatenate(
                [v.payoffs[:, :1], v.payoffs[:, :1], v.payoffs[:, 1:]], axis=1
            )
            split = TwoStageVariable(v.state_ids, split_probs, split_payoffs)
            assert evaluate(split, pref).value_utils == pytest.approx(base, abs=1e-8)


class TestComparativeAversion:
    def test_identical_preferences(self):
        pref = Preference(identity_utility(), identity(), Entropic(1.0, UNIFORM2), ("w0", "w1"))
        report = is_more_ambiguity_averse(pref, pref, BatterySpec(n_cases=40))
        assert report["more_ambiguity_averse"] is True
        assert report["consistent"] is True
        assert not report["behavioral"]["violations"]

    def test_nan_robust_values_are_violations(self, monkeypatch):
        """A case whose value is NaN on either side settles no comparison, so
        every such case is a violation, as in the battery's aversion check."""
        def nan_solve(self, U):
            U = np.asarray(U, dtype=float)
            return np.full(len(U), math.nan), np.full(U.shape, math.nan)

        monkeypatch.setattr(Entropic, "robust_solve", nan_solve)
        pref = Preference(identity_utility(), identity(), Entropic(1.0, UNIFORM2), ("w0", "w1"))
        finite = Preference(identity_utility(), identity(), Gini(1.0, UNIFORM2), ("w0", "w1"))
        spec = BatterySpec(n_cases=5)
        report = is_more_ambiguity_averse(pref, pref, spec)
        assert report["more_ambiguity_averse"] is True and report["consistent"] is False
        for a, b in ((pref, pref), (pref, finite), (finite, pref)):
            violations = is_more_ambiguity_averse(a, b, spec)["behavioral"]["violations"]
            assert sorted({v["case"] for v in violations}) == list(range(5))

    def test_entropic_theta_ordering(self):
        tight = Preference(identity_utility(), identity(), Entropic(1.0, UNIFORM2), ("w0", "w1"))
        loose = Preference(identity_utility(), identity(), Entropic(2.0, UNIFORM2), ("w0", "w1"))
        spec = BatterySpec(n_cases=60)
        # smaller theta penalizes deviations less, so it is MORE ambiguity averse
        report = is_more_ambiguity_averse(tight, loose, spec)
        assert report["more_ambiguity_averse"] is True
        assert report["consistent"] is True
        reverse = is_more_ambiguity_averse(loose, tight, spec)
        assert reverse["more_ambiguity_averse"] is False

    def test_maxmin_nesting(self):
        full = Preference(
            identity_utility(), identity(),
            MaxminSet([Prior.point_mass(2, 0), Prior.point_mass(2, 1)]), ("w0", "w1"),
        )
        pinned = Preference(
            identity_utility(), identity(), MaxminSet([UNIFORM2]), ("w0", "w1")
        )
        spec = BatterySpec(n_cases=60)
        report = is_more_ambiguity_averse(full, pinned, spec)
        assert report["more_ambiguity_averse"] is True
        assert report["consistent"] is True
        assert is_more_ambiguity_averse(pinned, full, spec)["more_ambiguity_averse"] is False

    def test_rescaled_utility_pair(self):
        # 2*phi + 1 with a doubled penalty describes the same preferences
        base = Preference(identity_utility(), identity(), Entropic(1.0, UNIFORM2), ("w0", "w1"))
        scaled = Preference(
            identity_utility().rescaled(2.0, 1.0), identity(), Entropic(2.0, UNIFORM2), ("w0", "w1")
        )
        spec = BatterySpec(n_cases=40)
        assert is_more_ambiguity_averse(base, scaled, spec)["more_ambiguity_averse"] is True
        assert is_more_ambiguity_averse(scaled, base, spec)["more_ambiguity_averse"] is True

    def test_battery_draws_the_preferences_state_count(self, monkeypatch):
        drawn = []
        real = evaluator_module._draw_cases

        def recorded(*args, **kwargs):
            drawn.append(real(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(evaluator_module, "_draw_cases", recorded)
        pref = Preference(identity_utility(), identity(), Entropic(1.0, Prior.uniform(3)), ("w0", "w1", "w2"))
        report = is_more_ambiguity_averse(pref, pref, BatterySpec(n_cases=7, seed=5))
        ((cases,),) = drawn
        assert cases.states.tolist() == [3] * 7
        assert report["behavioral"] == {"cases": 7, "violations": [], "seed": 5}

    def test_distortion_mismatch_blocks_verdict(self):
        a = Preference(identity_utility(), identity(), Entropic(1.0, UNIFORM2), ("w0", "w1"))
        b = Preference(identity_utility(), power(2), Entropic(1.0, UNIFORM2), ("w0", "w1"))
        report = is_more_ambiguity_averse(a, b, BatterySpec(n_cases=10))
        assert report["structural"]["psi_equal"] is False
        assert report["more_ambiguity_averse"] is False


class TestAbsoluteAversion:
    @pytest.mark.parametrize(
        "amb",
        [
            Entropic(1.0, UNIFORM2),
            Gini(0.8, UNIFORM2),
            MaxminSet([Prior(np.array([0.3, 0.7])), Prior(np.array([0.8, 0.2]))]),
            Tabulated([(UNIFORM2, 0.0), (Prior(np.array([0.9, 0.1])), 0.4)]),
        ],
        ids=["entropic", "gini", "maxmin", "tabulated"],
    )
    def test_every_builtin_is_ambiguity_averse(self, amb):
        pref = Preference(identity_utility(), power(1.5), amb, ("w0", "w1"))
        report = ambiguity_aversion_check(pref, BatterySpec(n_cases=80))
        assert report["passed"], report["violations"][:3]

    def test_equality_iff_constant_utils_for_entropic(self):
        pref = Preference(identity_utility(), identity(), Entropic(1.0, UNIFORM2), ("a", "b"))
        flat = TwoStageVariable(["a", "b"], [[1.0], [1.0]], [[2.0], [2.0]])
        tilted = TwoStageVariable(["a", "b"], [[1.0], [1.0]], [[2.0], [3.0]])
        ev_flat = evaluate(flat, pref)
        neutral_flat = neutral_value(flat, pref.phi, pref.psi, UNIFORM2)
        assert ev_flat.value_utils == pytest.approx(neutral_flat, abs=1e-12)
        ev_tilted = evaluate(tilted, pref)
        neutral_tilted = neutral_value(tilted, pref.phi, pref.psi, UNIFORM2)
        assert ev_tilted.value_utils < neutral_tilted - 1e-6


def _neumaier_add(total: np.ndarray, comp: np.ndarray, x: np.ndarray):
    """One compensated (Neumaier) summation step on non-negative arrays."""
    t = total + x
    return t, comp + np.where(total >= x, (total - t) + x, (x - t) + total)


def _flush(total: np.ndarray, comp: np.ndarray, x: np.ndarray, done: np.ndarray):
    """Add x to a running group sum; where done, hand the rounded sum on and restart."""
    total, comp = _neumaier_add(total, comp, x)
    return np.where(done, total + comp, 0.0), np.where(done, 0.0, total), np.where(done, 0.0, comp)


def column_loop_inner_rdu(v, phi, psi) -> np.ndarray:
    """The former inner kernel, one loop step per outcome column (the oracle
    of the scan kernel; kept verbatim)."""
    inside = phi.domain.contains_mask(v.payoffs, tol=1e-12 * (1.0 + float(np.max(np.abs(v.payoffs)))))
    if not np.all(inside):
        w, s = np.argwhere(~inside)[0]
        raise DomainError(
            f"payoff {v.payoffs[w, s]!r} at (state {v.state_ids[w]!r}, outcome {int(s)}) "
            f"is outside the utility domain {phi.domain}"
        )
    order = np.argsort(np.where(v.outcome_probs > 0.0, v.payoffs, np.inf), axis=1, kind="stable")
    x = np.take_along_axis(v.payoffs, order, axis=1)
    p = np.take_along_axis(v.outcome_probs, order, axis=1)
    u = phi(x)
    # The reference merges payoffs, then utilities, within MERGE_TOL and rounds
    # the mass at each merge; rounding the same way here keeps its var: hits.
    n_states, n_outcomes = x.shape
    point = point_c = atom = atom_c = total = total_c = np.zeros(n_states)
    tails = np.empty((n_states, n_outcomes - 1))
    for i in range(n_outcomes - 1, 0, -1):
        new_point = x[:, i] - x[:, i - 1] > MERGE_TOL
        mass, point, point_c = _flush(point, point_c, p[:, i], new_point)
        mass, atom, atom_c = _flush(atom, atom_c, mass, new_point & (u[:, i] - u[:, i - 1] > MERGE_TOL))
        total, total_c = _neumaier_add(total, total_c, mass)
        tails[:, i - 1] = total + total_c
    terms = np.diff(u, axis=1) * np.where(tails > 0.0, psi(tails), 0.0)
    return np.array([math.fsum([lo, *row]) for lo, row in zip(u[:, 0].tolist(), terms.tolist())])


SATURATED = exponential(3.0)  # utilities of payoffs in [10, 20] tie within MERGE_TOL


@st.composite
def kernel_blocks(draw):
    """A (state x outcome) row block built to stress the tail scans, plus (phi, psi).

    Payoff shapes: every payoff of a row tied; a chain of 20+ payoffs, each
    within MERGE_TOL of the next; a few integer levels; distinct floats; or
    distinct payoffs whose utilities tie under SATURATED.  Some blocks get
    zero-mass pads that repeat the row maximum, as the battery blocks pad.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["tied", "chain", "levels", "floats", "saturated"]))
    n_w = draw(st.integers(1, 6))
    n_s = draw(st.integers(20, 32)) if shape == "chain" else draw(st.integers(1, 12))
    if shape == "tied":
        payoffs = np.repeat(rng.integers(-3, 4, size=(n_w, 1)).astype(float), n_s, axis=1)
    elif shape == "chain":
        steps = rng.choice([0.0, 3e-13, 9e-13, 5.0], size=(n_w, n_s), p=[0.3, 0.3, 0.35, 0.05])
        payoffs = rng.permuted(np.cumsum(steps, axis=1) - 2.0, axis=1)
    elif shape == "levels":
        payoffs = rng.integers(-2, 3, size=(n_w, n_s)) * draw(st.sampled_from([0.01, 1.0, 37.0]))
    elif shape == "floats":
        payoffs = rng.uniform(-5.0, 5.0, size=(n_w, n_s))
    else:
        payoffs = rng.uniform(10.0, 20.0, size=(n_w, n_s))
    if draw(st.booleans()):
        probs, k = np.full((n_w, n_s), 1.0 / n_s), n_s
    else:
        weights = rng.integers(0, 4, size=(n_w, n_s)).astype(float)
        weights[:, 0] += weights.sum(axis=1) == 0
        probs, k = weights / weights.sum(axis=1, keepdims=True), int(weights[0].sum())
    pads = draw(st.integers(0, 3))
    if pads:
        probs = np.hstack([probs, np.zeros((n_w, pads))])
        payoffs = np.hstack([payoffs, np.repeat(payoffs.max(axis=1, keepdims=True), pads, axis=1)])
    rows = _PayoffRows(tuple(f"w{i}" for i in range(n_w)), probs, np.asarray(payoffs, dtype=float))
    phi = SATURATED if shape == "saturated" else draw(
        st.sampled_from([identity_utility(), affine(2.5, -1.0), exponential(0.7)]))
    psi = draw(st.sampled_from(every_distortion(max(2, k))))
    return rows, phi, psi


def has_near_ties(rows, phi) -> bool:
    """Whether a row has two points with mass whose payoffs, or whose
    utilities, are distinct but within MERGE_TOL: there the former kernels
    merged by the adjacent-gap rule, and ``inner_rdu`` by the group leader."""
    for x, p in zip(rows.payoffs, rows.outcome_probs):
        x = np.sort(x[p > 0.0])
        for points in (x, phi(x)):
            gaps = np.diff(points)
            if ((gaps > 0.0) & (gaps <= MERGE_TOL)).any():
                return True
    return False


def assert_same_as_column_loop(rows, phi, psi):
    got, want = inner_rdu(rows, phi, psi), column_loop_inner_rdu(rows, phi, psi)
    assert got.tobytes() == want.tobytes(), (psi.describe(), phi.describe(), got - want)


class TestLoopFreeKernel:
    """``inner_rdu`` equals the former column loop bit for bit on blocks
    without near ties."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(kernel_blocks())
    @example((_PayoffRows(("w",), np.array([[1.0]]), np.array([[2.0]])), exponential(0.7), var_step(0.5)))
    @example((_PayoffRows(("w",), np.array([[0.5, 0.5, 0.0]]), np.array([[0.0, 0.0, 0.0]])),
              identity_utility(), es_tail(0.5)))
    def test_matches_column_loop(self, case):
        assume(not has_near_ties(*case[:2]))
        assert_same_as_column_loop(*case)

    @pytest.mark.parametrize("name", ["ellsberg_urn_a.json", "ellsberg_urn_c.json"])
    def test_ellsberg_fixtures(self, name):
        v = parse_scenario(str(FIXTURES / name))
        for i, psi in enumerate(every_distortion(5)):
            assert_same_as_column_loop(v, exponential(0.01) if i % 2 else identity_utility(), psi)

    @pytest.mark.parametrize("n_w, n_s", [(2000, 4), (3, 200)])
    def test_large_blocks(self, n_w, n_s):
        rng = np.random.default_rng(n_w * n_s)
        weights = rng.integers(0, 3, size=(n_w, n_s)).astype(float)
        weights[:, 0] += 1.0
        payoffs = rng.integers(-3, 4, size=(n_w, n_s))  # exact ties only: near ties follow another rule
        rows = _PayoffRows(tuple(f"w{i}" for i in range(n_w)), weights / weights.sum(axis=1, keepdims=True),
                           payoffs.astype(float))
        for psi in (prelec(0.65, 1.0), es_tail(0.3), var_step(0.25), var_step(0.5)):
            assert_same_as_column_loop(rows, exponential(0.3), psi)


@st.composite
def lean_kernel_blocks(draw):
    """A block for the lean kernel against its scan oracle: a ``kernel_blocks``
    block (ties of every kind, zero masses, pads), a battery block (padded
    rows of 2-8 outcomes), or rows of distinct payoffs (the path without
    ties, unless their utilities tie under SATURATED), some with zero
    masses; with one outcome or more, and any zero probability possibly -0.0."""
    source = draw(st.sampled_from(["kernel", "battery", "distinct", "saturated"]))
    phi = draw(st.sampled_from([identity_utility(), affine(2.5, -1.0), exponential(0.7), exponential(-0.2)]))
    psi = draw(st.sampled_from(every_distortion(4)))
    if source == "kernel":
        rows, phi, psi = draw(kernel_blocks())
    elif source == "battery":
        (rows,) = _draw_cases(draw(st.integers(1, 8)), (draw(st.integers(0, 2**16)), None, False))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n_w, n_s = draw(st.integers(1, 6)), draw(st.integers(1, 12))
        low, phi = (10.0, SATURATED) if source == "saturated" else (-5.0, phi)
        payoffs = rng.permuted(np.cumsum(rng.uniform(0.01, 0.8, size=(n_w, n_s)), axis=1) + low, axis=1)
        weights = rng.integers(draw(st.integers(0, 1)), 4, size=(n_w, n_s)).astype(float)
        weights[:, 0] += weights.sum(axis=1) == 0
        rows = _PayoffRows(tuple(f"w{i}" for i in range(n_w)), weights / weights.sum(axis=1, keepdims=True), payoffs)
    if draw(st.booleans()):
        rows = rows._replace(outcome_probs=np.where(rows.outcome_probs == 0.0, -0.0, rows.outcome_probs))
    return rows, phi, psi


class TestLeanKernel:
    """``inner_rdu`` equals its former scan form, ``kernel_oracle.scan_inner_rdu``,
    bit for bit on blocks without near ties."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(lean_kernel_blocks())
    @example((_PayoffRows(("w",), np.array([[1.0]]), np.array([[2.0]])), exponential(0.7), var_step(0.5)))
    @example((_PayoffRows(("w",), np.array([[-0.0, 1.0, -0.0]]), np.array([[3.0, 1.0, 2.0]])),
              identity_utility(), es_tail(0.5)))
    def test_matches_scan_oracle(self, case):
        rows, phi, psi = case
        assume(not has_near_ties(rows, phi))
        got, want = inner_rdu(rows, phi, psi), scan_inner_rdu(rows, phi, psi)
        assert got.tobytes() == want.tobytes(), (psi.describe(), phi.describe(), got - want)

    def test_blocks_without_ties_skip_the_merge(self, monkeypatch):
        skipped = []

        def recorded(values, masses):
            merged = merge_rows(values, masses)
            skipped.append(merged[0] is values)
            return merged

        monkeypatch.setattr(evaluator_module, "merge_rows", recorded)
        # The zero-mass outcome ranks last, below the payoff before it: no tie.
        distinct = _PayoffRows(("w0", "w1"), np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]),
                               np.array([[1.0, 2.0, 0.5], [3.0, 1.0, 2.0]]))
        inner_rdu(distinct, exponential(0.7), prelec(0.65, 1.0))
        assert skipped == [True, True]
        # A payoff tie is merged; the merged utilities have none.
        skipped.clear()
        inner_rdu(distinct._replace(payoffs=np.array([[1.0, 1.0, 3.0], [3.0, 1.0, 2.0]])), exponential(0.7),
                  prelec(0.65, 1.0))
        assert skipped == [False, True]

    def test_payoffs_are_checked_once(self, monkeypatch):
        def refused(self, t):
            raise AssertionError("inner_rdu checked the payoffs again through UtilityFn.__call__")

        v = TwoStageVariable(["a", "b"], [[0.5, 0.5], [0.25, 0.75]], [[1.0, 2.0], [0.5, 3.0]])
        want = inner_rdu(v, exponential(0.7), power(2))
        monkeypatch.setattr(type(identity_utility()), "__call__", refused)
        assert inner_rdu(v, exponential(0.7), power(2)).tobytes() == want.tobytes()


class TestTiedGroupWork:
    """``merge_rows`` calls ``exact_sum`` once per group of three or more
    unequal masses and for no other group."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(values):
            calls.append(values)
            return math.fsum(values)

        monkeypatch.setattr(distribution_module, "exact_sum", counted)
        return calls

    def test_urn_bets_take_no_exact_sum(self, calls):
        pref = ellsberg_preference()
        bets = [parse_scenario(str(FIXTURES / name)) for name in ("ellsberg_urn_a.json", "ellsberg_urn_c.json")]
        urns = ellsberg_variables()
        bets += [add_variables(urns[name], urns["urn_b"], pref.phi) for name in ("urn_a", "urn_c")]
        calls.clear()  # count the calls of inner_rdu alone
        for v in bets:
            inner_rdu(v, pref.phi, pref.psi)
        assert calls == []

    @pytest.mark.parametrize("groups", [1, 2, 5])
    def test_one_call_per_group_of_unequal_masses(self, calls, groups):
        # Each state holds an equal-mass triple, a pair and a single point,
        # and all but the last state also an unequal triple.
        row = ([1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0], [0.1, 0.1, 0.1, 0.15, 0.15, 0.1, 0.05, 0.2, 0.05])
        last = ([1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0], row[1])
        rows = [row] * groups + [last]
        v = TwoStageVariable([f"w{i}" for i in range(len(rows))], [p for _, p in rows], [x for x, _ in rows])
        calls.clear()  # the constructor sums each small row by exact_sum
        inner_rdu(v, identity_utility(), power(2))
        assert calls == [[0.05, 0.2, 0.05]] * groups


class TestNonFiniteUtilities:
    """A state whose value is not finite is refused, naming the state (and the
    outcome whose utility overflowed), with no numpy warning; an overflowed
    utility difference of zero weight leaves the value finite."""

    def test_overflowing_utility_names_the_state_and_the_outcome(self):
        v = TwoStageVariable(["calm", "storm"], [[0.5, 0.5], [0.5, 0.5]], [[0.0, 1.0], [0.0, -1000.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                inner_rdu(v, exponential(1.0), identity())
        assert str(err.value) == "utility exp:1 of payoff -1000.0 at (state 'storm', outcome 1) is not finite"

    @pytest.mark.parametrize("payoffs, probs, want", [
        ([1e308, -1e308], [0.5, 0.5], "the distorted expected utility of state 'storm' is not finite"),
        # The overflowed difference has no mass above it, so it has no weight.
        ([-1e308, 1e308], [1.0, 0.0], -1e308),
    ], ids=["difference", "zero-mass difference"])
    def test_overflowing_differences_name_the_state(self, payoffs, probs, want):
        v = TwoStageVariable(["calm", "storm"], [[0.5, 0.5], probs], [[0.0, 1.0], payoffs])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = inner_rdu(v, identity_utility(), power(2))[1]
            except DomainError as err:
                got = str(err)
        assert got == want

    def test_finite_values_pass(self):
        v = TwoStageVariable(["calm"], [[0.5, 0.5]], [[-1e307, 1e307]])
        assert np.isfinite(inner_rdu(v, identity_utility(), power(2))).all()


class TestReductionSuite:
    def test_all_reductions_pass(self):
        pref = Preference(identity_utility(), power(2), Entropic(1.0, UNIFORM2), ("w0", "w1"))
        report, _ = battery_reports(pref, BatterySpec(n_cases=60))
        assert report["passed"], report
        for key in ("expectation_reduction", "affine_equivariance", "maxmin_reduction", "single_state_rdu"):
            assert report[key]["max_error"] <= 1e-9

    def test_table_on_two_states_fails_before_any_section(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(evaluator_module, "_draw_cases", lambda *args, **kwargs: drawn.append(args))
        table = Tabulated([(UNIFORM2, 0.0), (Prior([0.2, 0.8]), 0.5)])
        pref = Preference(identity_utility(), power(2), table, ("w0", "w1"))
        with pytest.raises(ConfigError, match=r"section \(d\).*recentred on 1 state.*table: penalties"):
            battery_reports(pref, BatterySpec(n_cases=5))
        assert drawn == []

    def test_a_nan_error_is_a_violation(self):
        report = _section(np.array([0.0, math.nan, 2e-9, 1e-9]), range(4))
        assert math.isnan(report["max_error"]) and report["violations"] == [1, 2]

    def test_nan_robust_values_fail_the_battery(self, monkeypatch, capsys):
        """A penalty whose robust_solve returns NaN fails (b), (d) and the
        aversion check on every case: the battery exits 3, not 0."""
        def nan_solve(self, U):
            U = np.asarray(U, dtype=float)
            return np.full(len(U), math.nan), np.full(U.shape, math.nan)

        monkeypatch.setattr(Entropic, "robust_solve", nan_solve)
        argv = ["battery", "--penalty", "entropic:1@w0=0.5,w1=0.5", "--cases", "4", "--output", "json"]
        assert cli_main(argv) == 3
        result = json.loads(capsys.readouterr().out)["result"]
        reductions = result["reductions"]
        for key in ("affine_equivariance", "single_state_rdu"):
            assert math.isnan(reductions[key]["max_error"]) and reductions[key]["violations"], key
        assert reductions["passed"] is False
        assert len(result["ambiguity_aversion"]["violations"]) == 4
        assert result["ambiguity_aversion"]["passed"] is False

    def test_table_on_one_state_runs(self):
        # A 1-state table cannot be recentred, so it values only batteries
        # whose main and unambiguous cases all drew one state.
        seed = next(s for s in range(1000) if all(
            v.n_states == 1 for v in [*reference_generate_battery(1, s), *reference_generate_battery(1, s + 2)]))
        table = Tabulated([(Prior([1.0]), 0.0)])
        report, check = battery_reports(Preference(exponential(0.1), power(2), table, ("w0",)),
                                        BatterySpec(n_cases=1, seed=seed))
        assert report["passed"], report
        assert check == {"cases": 1, "violations": [], "seed": seed, "passed": True}


@st.composite
def battery_setups(draw):
    """A preference of each penalty kind on 1-3 states and a small battery."""
    kind = draw(st.sampled_from(["maxmin", "entropic", "gini", "tabulated"]))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def prior():
        return Prior(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)

    if kind == "maxmin":
        amb = MaxminSet([prior() for _ in range(draw(st.integers(1, 3)))])
    elif kind == "tabulated":
        amb = Tabulated([(prior(), float(rng.uniform(0.0, 2.0))) for _ in range(draw(st.integers(1, 4)))])
    else:
        amb = (Entropic if kind == "entropic" else Gini)(draw(st.sampled_from([0.3, 1.0, 4.0])), prior())
    phi = draw(st.sampled_from([identity_utility(), affine(2.0, 1.0), exponential(0.1)]))
    psi = draw(st.sampled_from([
        identity(), power(1.5), prelec(0.65, 1.0), dual_power(2.0), es_tail(0.4), var_step(0.3),
        tversky_kahneman(0.7), piecewise_linear([(0, 0), (0.5, 0.3), (1, 1)]),
    ]))
    spec = BatterySpec(n_cases=draw(st.integers(1, 6)), seed=draw(st.integers(0, 10**6)))
    return Preference(phi, psi, amb, [f"w{i}" for i in range(n)]), spec


@st.composite
def case_draws(draw):
    """The arguments of a ``_draw_cases`` call: case count, seed, a fixed
    state count or none, and whether the cases are unambiguous."""
    return (draw(st.integers(1, 60)), draw(st.integers(0, 10**6)), draw(st.sampled_from([None, 1, 3])),
            draw(st.booleans()))


def json_or_error(run):
    """The JSON of what run() returns, or the class of the battery error it raises."""
    try:
        return json.dumps(run())
    except (ConfigError, DomainError, ShapeError) as exc:
        return type(exc)


class TestBatterySpec:
    @pytest.mark.parametrize("n_cases", [0, -3])
    def test_needs_at_least_one_case(self, n_cases):
        with pytest.raises(ConfigError, match=rf"^a battery needs at least 1 case, got n_cases={n_cases}$"):
            BatterySpec(n_cases=n_cases)

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_refuses_a_negative_seed(self, seed):
        with pytest.raises(ConfigError, match=rf"^a battery seed must be a non-negative integer, got seed={seed}$"):
            BatterySpec(seed=seed)

    def test_battery_command_refuses_a_negative_seed(self, capsys):
        code = cli_main(["battery", "--penalty", "entropic:1@w0=0.5,w1=0.5", "--cases", "3", "--seed", "-1"])
        assert (code, capsys.readouterr().err) == (
            2, "error: a battery seed must be a non-negative integer, got seed=-1\n")


class TestBatteryBlocks:
    """The batched batteries against the per-case loops they replaced
    (``battery_oracle``)."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(battery_setups())
    def test_reports_match_per_case_reference(self, setup):
        """Both reports, as JSON, equal the per-case oracle's byte for byte,
        or both raise the same error class: a table on 2+ states is refused
        up front, other shape clashes surface where the sections meet them."""
        pref, spec = setup
        assert json_or_error(lambda: battery_reports(pref, spec)) == json_or_error(
            lambda: reference_battery_reports(pref, spec))
        assert json_or_error(lambda: ambiguity_aversion_check(pref, spec)) == json_or_error(
            lambda: reference_aversion_check(pref, spec))

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(battery_setups())
    def test_one_pass_equals_the_separate_reports(self, setup):
        """``battery_reports``' check is ``ambiguity_aversion_check``'s report
        bit for bit, or both calls raise the error class the first failing
        one raises; tables included (a 2+-state table is refused by the
        reduction report and checked by ``ambiguity_aversion_check``)."""
        pref, spec = setup
        want = json_or_error(lambda: (battery_reports(pref, spec)[0], ambiguity_aversion_check(pref, spec)))
        assert json_or_error(lambda: battery_reports(pref, spec)) == want

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case_draws())
    def test_drawn_block_equals_the_per_case_draws(self, args):
        """Each case's rows of the block are the per-case loop's draws, bit
        for bit; pads have zero mass and repeat the row's largest payoff."""
        n_cases, seed, n_states, unambiguous = args
        (cases,) = _draw_cases(n_cases, (seed, n_states, unambiguous))
        want = reference_generate_battery(n_cases, seed, n_states, unambiguous=unambiguous)
        assert cases.outcome_probs.shape[1] == cases.payoffs.shape[1] == MAX_OUTCOMES
        assert cases.states.tolist() == [v.n_states for v in want]
        assert cases.outcomes.tolist() == [v.n_outcomes for v in want]
        for v, lo in zip(want, cases.starts.tolist()):
            rows, m = slice(lo, lo + v.n_states), v.n_outcomes
            assert cases.outcome_probs[rows, :m].tobytes() == v.outcome_probs.tobytes()
            assert cases.payoffs[rows, :m].tobytes() == v.payoffs.tobytes()
            assert not cases.outcome_probs[rows, m:].any()
            assert (cases.payoffs[rows, m:] == v.payoffs.max(axis=1, keepdims=True)).all()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_listed_priors_equal_the_per_case_draws(self, n_cases, seed, listed_seed):
        """(c)'s listed priors, drawn in the one draw pass with their cases,
        are the per-case loop's bit for bit (1 to 4 priors per case, 1 to 6
        states), and both leave the generator in the same state."""
        rng, want_rng = np.random.default_rng(listed_seed), np.random.default_rng(listed_seed)
        cases, got = _draw_cases(n_cases, (seed, None, False), listed=rng)
        want = reference_listed_priors(want_rng, cases.states.tolist())
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng.random() == want_rng.random()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(rank_cases(), min_size=1, max_size=5))
    def test_padded_row_equals_case_alone(self, cases):
        """Each case padded to MAX_OUTCOMES, as ``_draw_cases`` pads: zero
        masses and the row's largest payoff."""
        variables = [v for v, _, _ in cases]
        _, phi, psi = cases[0]

        def padded(a, fill):
            return np.hstack((a, np.repeat(fill, MAX_OUTCOMES - a.shape[1], axis=1)))

        block = _Cases(np.vstack([padded(v.outcome_probs, np.zeros((v.n_states, 1))) for v in variables]),
                       np.vstack([padded(v.payoffs, v.payoffs.max(axis=1, keepdims=True)) for v in variables]),
                       np.array([v.n_states for v in variables]), np.array([v.n_outcomes for v in variables]))
        values = inner_rdu(block, phi, psi)
        for v, lo in zip(variables, block.starts.tolist()):
            assert values[lo : lo + v.n_states].tobytes() == inner_rdu(v, phi, psi).tobytes()

    def test_draws_follow_the_per_case_order(self, monkeypatch):
        blocks, drawn = [], []
        real_inner, real_draw = evaluator_module.inner_rdu, evaluator_module._draw_cases

        def recorded_inner(v, phi, psi):
            blocks.append(v.payoffs.copy())
            return real_inner(v, phi, psi)

        def recorded_draw(*args, **kwargs):
            drawn.append(real_draw(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(evaluator_module, "inner_rdu", recorded_inner)
        monkeypatch.setattr(evaluator_module, "_draw_cases", recorded_draw)
        spec = BatterySpec(n_cases=12, seed=99)
        battery_reports(Preference(exponential(0.1), prelec(0.65, 1.0), Entropic(1.5, UNIFORM2), ("w0", "w1")), spec)

        # The per-case loop's draws: (a, b) per unambiguous case, a shift per
        # case, then each case's listed maxmin priors.
        rng = np.random.default_rng(spec.seed + 1)
        cases = reference_generate_battery(spec.n_cases, spec.seed)
        unamb = reference_generate_battery(spec.n_cases, spec.seed + 2, unambiguous=True)
        moved = []
        for v in unamb:
            a = float(rng.uniform(0.5, 2.5))
            b = float(rng.uniform(-2.0, 2.0))
            moved.append(a * v.payoffs + b)
        moved += [v.payoffs + float(rng.uniform(-2.0, 2.0)) for v in cases]
        row = sum(v.n_states for v in [*unamb, *cases])
        (block,) = blocks  # section (b)'s block, the one inner_rdu call
        for payoffs in moved:
            k, m = payoffs.shape
            assert np.array_equal(block[row : row + k, :m], payoffs)
            row += k
        # A case with fewer than four priors repeats its first; its other
        # states have no weight.
        ((*_, priors),) = drawn
        assert len(priors) == len(cases)
        for v, drawn in zip(cases, priors):
            raw = rng.random((int(rng.integers(1, 5)), v.n_states)) + 0.05
            k, n = raw.shape
            assert np.array_equal(drawn[:k, :n], np.array([r / r.sum() for r in raw]))
            assert np.array_equal(drawn[k:, :n], np.repeat(drawn[:1, :n], 4 - k, axis=0))
            assert not drawn[:, n:].any()

    @pytest.mark.parametrize("penalty", [
        "maxmin:[w0=0.3,w1=0.7;w0=0.6,w1=0.4]", "entropic:1.5@w0=0.4,w1=0.6", "gini:0.8@w0=0.5,w1=0.5",
    ])
    def test_twelve_case_battery_makes_few_inner_calls(self, monkeypatch, capsys, penalty):
        """Two inner passes: the main and single-state rows once under phi,
        and section (b)'s block under linear utility."""
        calls = []
        real = evaluator_module._inner_values

        def counted(*args, **kwargs):
            calls.append(args[0].payoffs.shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluator_module, "_inner_values", counted)
        argv = ["battery", "--penalty", penalty, "--utility", "exp:0.1", "--distortion", "prelec:0.65,1",
                "--cases", "12", "--output", "json"]
        assert cli_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["total_violations"] == 0
        assert 1 <= len(calls) <= 2, calls

    @pytest.mark.parametrize("penalty", [
        "maxmin:[w0=0.3,w1=0.7;w0=0.6,w1=0.4]", "entropic:1.5@w0=0.4,w1=0.6", "gini:0.8@w0=0.5,w1=0.5",
    ])
    def test_twelve_case_battery_work(self, monkeypatch, capsys, penalty):
        """A 12-case battery makes at most two sort/merge passes (each two
        ``merge_rows`` calls) and one ``_weight_rows`` call."""
        merges, weights = [], []
        real_merge, real_weights = evaluator_module.merge_rows, evaluator_module._weight_rows
        monkeypatch.setattr(evaluator_module, "merge_rows", lambda *args: merges.append(1) or real_merge(*args))
        monkeypatch.setattr(evaluator_module, "_weight_rows", lambda *args: weights.append(1) or real_weights(*args))
        argv = ["battery", "--penalty", penalty, "--utility", "exp:0.1", "--distortion", "prelec:0.65,1",
                "--cases", "12", "--output", "json"]
        assert cli_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["total_violations"] == 0
        assert 1 <= len(merges) <= 4 and len(weights) == 1, (len(merges), len(weights))


@st.composite
def reference_blocks(draw):
    """A ``kernel_blocks`` block (ties, chains of near ties, saturated
    utilities, zero masses, pads), its payoffs at will replaced by integer
    levels with offsets of 0 or 4e-13 (near-tie pairs), then, each at will:
    a zero mass on every row's smallest payoff (a zero-mass leader), two
    zero-mass outcomes at -1e308 and 1e308, whose utilities, or the
    difference of their utilities, overflow, and every zero payoff and mass
    written -0.0."""
    rows, phi, psi = draw(kernel_blocks())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs, payoffs = rows.outcome_probs.copy(), rows.payoffs.copy()
    if draw(st.booleans()):
        payoffs = rng.integers(-3, 4, size=payoffs.shape) + rng.choice([0.0, 4e-13], size=payoffs.shape)
    if draw(st.booleans()) and payoffs.shape[1] > 1:
        probs[np.arange(len(probs)), np.argmin(payoffs, axis=1)] = 0.0
        empty = probs.sum(axis=1) == 0.0
        probs[empty, np.argmax(payoffs, axis=1)[empty]] = 1.0
        probs /= probs.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        payoffs = np.hstack([payoffs, np.tile([-1e308, 1e308], (len(payoffs), 1))])
        probs = np.hstack([probs, np.zeros((len(probs), 2))])
    if draw(st.booleans()):
        payoffs, probs = np.where(payoffs == 0.0, -0.0, payoffs), np.where(probs == 0.0, -0.0, probs)
    return rows._replace(outcome_probs=probs, payoffs=payoffs), phi, psi


class TestChoquetRows:
    """``inner_rdu`` (a stable sort, ``merge_rows`` on payoffs, phi,
    ``merge_rows`` on utilities, ``choquet_rows``) equals the survival-loop
    oracle ``loop_choquet`` of each row's utility law bit for bit: near-tie
    pairs and chains, zero-mass leaders, -0.0 and overflowing utilities of
    outcomes without mass included.  A one-point law reads fsum of its
    point, as ``choquet`` documents."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(reference_blocks())
    @example((_PayoffRows(("w",), np.array([[1.0]]), np.array([[2.0]])), exponential(0.7), var_step(0.5)))
    @example((_PayoffRows(("w",), np.full((1, 4), 0.25), np.array([[0.0, 0.8e-12, 1.6e-12, 1.0]])),
              identity_utility(), var_step(0.5)))  # a 3-point chain splits at its third point
    @example((_PayoffRows(("w",), np.array([[0.0, 0.5, 0.5]]), np.array([[0.0, 5e-13, 1.0]])),
              identity_utility(), identity()))  # a zero-mass point leads no group
    @example((_PayoffRows(("w",), np.array([[1.0, -0.0]]), np.array([[-0.0, 1e308]])),
              affine(2.5, -1.0), prelec(0.4, 1.2)))
    def test_equals_choquet_row_by_row(self, case):
        rows, phi, psi = case
        laws = [DiscreteDistribution(x, p).pushforward(phi) for x, p in zip(rows.payoffs, rows.outcome_probs)]
        want = np.array([loop_choquet(d, psi) if d.values.size > 1 else math.fsum(d.values) for d in laws])
        assert np.isfinite(want).all()
        got = inner_rdu(rows, phi, psi)
        assert got.tobytes() == want.tobytes(), (psi.describe(), phi.describe(), got - want)


SECTIONS = ("expectation_reduction", "affine_equivariance", "maxmin_reduction", "single_state_rdu")


def composed_battery_output(penalty, utility, distortion, cases, seed):
    """The battery report put together from the reduction report of
    ``battery_reports`` and a separate ``ambiguity_aversion_check`` call.
    A spec with no cases is refused, which the command reports as exit 2."""
    ids = list(dict.fromkeys(re.findall(r"([A-Za-z_]\w*)\s*=", penalty)))
    pref = Preference(parse_utility(utility), parse_distortion(distortion), parse_penalty(penalty, ids), ids)
    try:
        spec = BatterySpec(n_cases=cases, seed=seed)
    except ConfigError:
        return 2, ""
    reductions = battery_reports(pref, spec)[0]
    aversion = ambiguity_aversion_check(pref, spec)
    violations = sum(len(reductions[k]["violations"]) for k in SECTIONS) + len(aversion["violations"])
    report = {
        "command": "battery",
        "preference": pref.describe(),
        "seed": seed,
        "cases": cases,
        "result": {"reductions": reductions, "ambiguity_aversion": aversion, "total_violations": violations},
    }
    return (3 if violations else 0), json.dumps(report, indent=2, sort_keys=True) + "\n"


@st.composite
def battery_commands(draw):
    """A battery command line: an entropic, Gini or maxmin penalty with
    named priors on 1-3 states, and 0-12 cases."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ids = [f"s{i}" for i in range(n)]

    def prior():
        q = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
        return ",".join(f"{s}={float(w)!r}" for s, w in zip(ids, q / math.fsum(q)))

    kind = draw(st.sampled_from(["entropic", "gini", "maxmin"]))
    if kind == "maxmin":
        penalty = "maxmin:[" + ";".join(prior() for _ in range(draw(st.integers(1, 3)))) + "]"
    else:
        penalty = f"{kind}:{draw(st.sampled_from([0.3, 1.0, 4.0]))}@{prior()}"
    utility = draw(st.sampled_from(["affine:1,0", "affine:2,1", "exp:0.1", "exp:-0.05"]))
    distortion = draw(st.sampled_from(["identity", "power:1.5", "prelec:0.65,1", "dualpower:2", "es:0.4",
                                       "var:0.3", "tk:0.7"]))
    return penalty, utility, distortion, draw(st.integers(0, 12)), draw(st.integers(0, 10**6))


class TestBatteryPass:
    """The ``battery`` command's one pass against the separate reports."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(battery_commands())
    def test_json_equals_separate_reports(self, command):
        penalty, utility, distortion, cases, seed = command
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main(["battery", "--penalty", penalty, "--utility", utility, "--distortion", distortion,
                             "--cases", str(cases), "--seed", str(seed), "--output", "json"])
        assert (code, out.getvalue()) == composed_battery_output(penalty, utility, distortion, cases, seed)

    @pytest.mark.parametrize("penalty", [
        "maxmin:[w0=0.3,w1=0.7;w0=0.6,w1=0.4]", "entropic:1.5@w0=0.4,w1=0.6", "gini:0.8@w0=0.5,w1=0.5",
    ])
    def test_draws_and_solves_once(self, monkeypatch, capsys, penalty):
        drawn, inner, recentred, solved = [], [], [], []
        real_draw, real_inner = evaluator_module._draw_cases, evaluator_module._inner_values
        kind = type(parse_penalty(penalty, ["w0", "w1"]))
        real_recentered, real_solve = kind.recentered, kind.robust_solve

        def draw(*args, **kwargs):
            blocks = real_draw(*args, **kwargs)
            drawn.append(blocks)
            return blocks

        def recentered(self, n):
            out = real_recentered(self, n)
            recentred.append((n, out))
            return out

        def robust_solve(self, U):
            solved.append((self, np.shape(U)[1]))  # holding self keeps ids unique
            return real_solve(self, U)

        monkeypatch.setattr(evaluator_module, "_draw_cases", draw)
        monkeypatch.setattr(evaluator_module, "_inner_values", lambda *args: inner.append(args) or real_inner(*args))
        monkeypatch.setattr(kind, "recentered", recentered)
        monkeypatch.setattr(kind, "robust_solve", robust_solve)
        argv = ["battery", "--penalty", penalty, "--utility", "exp:0.1", "--distortion", "prelec:0.65,1",
                "--cases", "12", "--output", "json"]
        assert cli_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["total_violations"] == 0
        # One draw pass: the main, single-state and unambiguous cases, then
        # (c)'s listed priors; two inner passes.
        (blocks,) = drawn
        assert len(blocks) == 4 and len(inner) == 2
        counts = [n for n, _ in recentred]
        assert sorted(counts) == sorted(set(counts)), "a recentred penalty was built twice"
        local = [out for _, out in recentred]
        solved_counts = [n for obj, n in solved if any(obj is out for out in local)]
        assert sorted(solved_counts) == sorted({n for cases in blocks[:3] for n in cases.states.tolist()})

    def test_builds_no_per_case_objects(self, monkeypatch, capsys):
        """A battery command constructs no ``TwoStageVariable`` or
        ``DiscreteDistribution``, and a fixed number of ``Prior``s whatever
        its case count."""
        built = []
        for cls, method in ((TwoStageVariable, "__init__"), (DiscreteDistribution, "__init__"),
                            (Prior, "__post_init__")):
            def recorded(self, *args, real=getattr(cls, method), **kwargs):
                built.append(type(self).__name__)
                real(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, recorded)
        priors = []
        for cases in ("60", "240"):
            built.clear()
            argv = ["battery", "--penalty", "maxmin:[w0=0.3,w1=0.7;w0=0.6,w1=0.4]", "--utility", "exp:0.1",
                    "--distortion", "var:0.3", "--cases", cases, "--output", "json"]
            assert cli_main(argv) == 0
            assert json.loads(capsys.readouterr().out)["result"]["total_violations"] == 0
            assert set(built) <= {"Prior"}, built
            priors.append(len(built))
        assert priors[0] == priors[1] < 20, priors
        built.clear()
        reference_generate_battery(2, 0)  # the probes do record
        assert built == ["TwoStageVariable"] * 2

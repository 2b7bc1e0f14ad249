import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rankrobust import (
    BatterySpec,
    ConfigError,
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
    ambiguity_neutral_value,
    choquet,
    comonotonic,
    dual_power,
    ellsberg_demo,
    ellsberg_preference,
    ellsberg_variables,
    es_tail,
    evaluate,
    exponential,
    generate_battery,
    identity,
    identity_utility,
    inner_rdu,
    is_more_ambiguity_averse,
    mix_variables,
    piecewise_linear,
    power,
    prefer,
    prelec,
    reduction_suite,
    tversky_kahneman,
    var_step,
)
import rankrobust.evaluator as evaluator_module
from rankrobust.cli import main as cli_main, parse_scenario
from rankrobust.distribution import MERGE_TOL
from rankrobust.evaluator import _PayoffRows, _inner_profiles

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
    bound = 1e-12 * (1.0 + float(np.max(np.abs(phi(v.payoffs)))))
    err = np.abs(inner_rdu(v, phi, psi) - choquet_oracle(v, phi, psi))
    assert float(np.max(err)) <= bound, (psi, phi.describe(), err)


def every_distortion(k):
    """One distortion of each kind; the var: levels are multiples of 1/k."""
    return [
        identity(), power(0.5), power(2.3), prelec(0.4, 1.2), prelec(1.7, 0.8),
        tversky_kahneman(0.61), es_tail(0.3), es_tail(max(1, k // 3) / k), dual_power(3.0),
        piecewise_linear([(0, 0), (0.3, 0.6), (1, 1)]), piecewise_linear([(0, 5e-10), (1, 1)]),
        var_step(0.25), *(var_step(j / k) for j in range(1, k)),
    ]


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


class TestAmbiguityNeutralValue:
    def test_single_state_is_inner_value(self):
        v = single_state({0.0: 0.7, 100.0: 0.3})
        got = ambiguity_neutral_value(v, identity_utility(), power(2), Prior.uniform(1))
        assert got == pytest.approx(9.0, abs=1e-12)

    def test_two_state_average(self):
        v = TwoStageVariable(["a", "b"], [[1.0], [1.0]], [[0.0], [1.0]])
        got = ambiguity_neutral_value(v, identity_utility(), identity(), UNIFORM2)
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
            neutral = ambiguity_neutral_value(v, pref.phi, pref.psi, p0)
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
            assert r.is_unambiguous()
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
        from conftest import random_variable
        from rankrobust import translate_variable

        ran = 0
        for _ in range(120):
            v = random_variable(rng, lo=-1.5, hi=1.5)
            phi = self._phis()[int(rng.integers(2))]
            amb = Gini(1.0, Prior.uniform(v.n_states)) if rng.integers(2) else Entropic(0.8, Prior.uniform(v.n_states))
            pref = pref_for(v, phi=phi, psi=power(1.4), amb=amb)
            m = float(rng.uniform(-0.5, 0.5))
            try:
                shifted = translate_variable(v, m, phi)
            except ImageOverflowError:
                continue
            base = evaluate(v, pref).value_utils
            moved = evaluate(shifted, pref).value_utils
            assert moved == pytest.approx(base + (phi(m) - phi(0.0)), abs=1e-8)
            ran += 1
        assert ran >= 80

    def test_ambiguity_concavity_on_risk_free(self, rng):
        spec = BatterySpec(n_cases=100, seed=11, risk_free=True, payoff_low=-1.5, payoff_high=1.5)
        for v in generate_battery(spec):
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
        spec = BatterySpec(n_cases=80, seed=13, risk_free=True, payoff_low=-1.0, payoff_high=1.0)
        for v in generate_battery(spec):
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
        report = is_more_ambiguity_averse(pref, pref, BatterySpec(n_cases=40, n_states=2))
        assert report["more_ambiguity_averse"] is True
        assert report["consistent"] is True
        assert not report["behavioral"]["violations"]

    def test_entropic_theta_ordering(self):
        tight = Preference(identity_utility(), identity(), Entropic(1.0, UNIFORM2), ("w0", "w1"))
        loose = Preference(identity_utility(), identity(), Entropic(2.0, UNIFORM2), ("w0", "w1"))
        spec = BatterySpec(n_cases=60, n_states=2)
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
        spec = BatterySpec(n_cases=60, n_states=2)
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
        spec = BatterySpec(n_cases=40, n_states=2)
        assert is_more_ambiguity_averse(base, scaled, spec)["more_ambiguity_averse"] is True
        assert is_more_ambiguity_averse(scaled, base, spec)["more_ambiguity_averse"] is True

    def test_battery_options_reach_the_battery(self, monkeypatch):
        specs = []
        real = evaluator_module.generate_battery

        def recorded(spec):
            specs.append(spec)
            return real(spec)

        monkeypatch.setattr(evaluator_module, "generate_battery", recorded)
        pref = Preference(identity_utility(), identity(), Entropic(1.0, UNIFORM2), ("w0", "w1"))
        spec = BatterySpec(n_cases=3, max_states=4, max_outcomes=4, uniform_outcome_probs=True, risk_free=True)
        is_more_ambiguity_averse(pref, pref, spec)
        assert specs == [replace(spec, n_states=2)]
        assert specs[0].uniform_outcome_probs and specs[0].risk_free

    def test_distortion_mismatch_blocks_verdict(self):
        a = Preference(identity_utility(), identity(), Entropic(1.0, UNIFORM2), ("w0", "w1"))
        b = Preference(identity_utility(), power(2), Entropic(1.0, UNIFORM2), ("w0", "w1"))
        report = is_more_ambiguity_averse(a, b, BatterySpec(n_cases=10, n_states=2))
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
        neutral_flat = ambiguity_neutral_value(flat, pref.phi, pref.psi, UNIFORM2)
        assert ev_flat.value_utils == pytest.approx(neutral_flat, abs=1e-12)
        ev_tilted = evaluate(tilted, pref)
        neutral_tilted = ambiguity_neutral_value(tilted, pref.phi, pref.psi, UNIFORM2)
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
    zero-mass pads that repeat the row maximum, as ``_inner_profiles`` pads.
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


def assert_same_as_column_loop(rows, phi, psi):
    got, want = inner_rdu(rows, phi, psi), column_loop_inner_rdu(rows, phi, psi)
    assert got.tobytes() == want.tobytes(), (psi.describe(), phi.describe(), got - want)


class TestLoopFreeKernel:
    """The scan kernel equals the former column loop bit for bit."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(kernel_blocks())
    @example((_PayoffRows(("w",), np.array([[1.0]]), np.array([[2.0]])), exponential(0.7), var_step(0.5)))
    @example((_PayoffRows(("w",), np.array([[0.5, 0.5, 0.0]]), np.array([[0.0, 0.0, 0.0]])),
              identity_utility(), es_tail(0.5)))
    def test_matches_column_loop(self, case):
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
        payoffs = rng.integers(-3, 4, size=(n_w, n_s)) + rng.choice([0.0, 4e-13], size=(n_w, n_s))
        rows = _PayoffRows(tuple(f"w{i}" for i in range(n_w)), weights / weights.sum(axis=1, keepdims=True),
                           payoffs.astype(float))
        for psi in (prelec(0.65, 1.0), es_tail(0.3), var_step(0.25), var_step(0.5)):
            assert_same_as_column_loop(rows, exponential(0.3), psi)


class TestReductionSuite:
    def test_all_reductions_pass(self):
        pref = Preference(identity_utility(), power(2), Entropic(1.0, UNIFORM2), ("w0", "w1"))
        report = reduction_suite(pref, BatterySpec(n_cases=60))
        assert report["passed"], report
        for key in ("expectation_reduction", "affine_equivariance", "maxmin_reduction", "single_state_rdu"):
            assert report[key]["max_error"] <= 1e-9

    def test_table_on_two_states_fails_before_any_section(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(evaluator_module, "generate_battery", lambda spec: drawn.append(spec) or [])
        table = Tabulated([(UNIFORM2, 0.0), (Prior([0.2, 0.8]), 0.5)])
        pref = Preference(identity_utility(), power(2), table, ("w0", "w1"))
        with pytest.raises(ConfigError, match=r"section \(d\).*recentred on 1 state.*table: penalties"):
            reduction_suite(pref, BatterySpec(n_cases=5, n_states=2))
        assert drawn == []

    def test_table_on_one_state_runs(self):
        table = Tabulated([(Prior([1.0]), 0.0)])
        report = reduction_suite(Preference(exponential(0.1), power(2), table, ("w0",)),
                                 BatterySpec(n_cases=20, max_states=1))
        assert report["passed"], report


def _adapt(amb, n):
    """Carry a penalty template to n states, as the batteries document it:
    reference penalties around the uniform prior, maxmin over all vertices."""
    if amb.n_states == n:
        return amb
    if isinstance(amb, MaxminSet):
        return MaxminSet([Prior.point_mass(n, i) for i in range(n)])
    if isinstance(amb, (Entropic, Gini)):
        return type(amb)(amb.theta, Prior.uniform(n))
    raise ShapeError(f"cannot adapt {amb.describe()} to {n} states")


def _case_value(v, pref, amb):
    return evaluate(v, Preference(pref.phi, pref.psi, _adapt(amb, v.n_states), v.state_ids)).value_utils


def reference_reduction_suite(pref, battery):
    """The suite as a per-case loop: one evaluate call per variable."""
    rng = np.random.default_rng(battery.seed + 1)
    report = {"seed": battery.seed}
    cases = generate_battery(battery)
    errors = []
    for v in cases:
        _adapt(pref.ambiguity, v.n_states)
        utils = inner_rdu(v, pref.phi, identity())
        expected = [float(v.outcome_probs[w] @ pref.phi(v.payoffs[w])) for w in range(v.n_states)]
        errors.append((len(errors), float(np.max(np.abs(utils - expected)))))
    report["expectation_reduction"] = errors
    unamb = generate_battery(replace(battery, n_states=None, seed=battery.seed + 2, unambiguous=True,
                                     uniform_outcome_probs=False))
    linear = Preference(identity_utility(), pref.psi, pref.ambiguity, pref.state_ids)
    errors = []
    for idx, v in enumerate(unamb):
        a, b = float(rng.uniform(0.5, 2.5)), float(rng.uniform(-2.0, 2.0))
        mapped = _case_value(v.with_payoffs(a * v.payoffs + b), linear, pref.ambiguity)
        errors.append((idx, abs(mapped - (a * _case_value(v, linear, pref.ambiguity) + b))))
    for idx, v in enumerate(cases):
        m = float(rng.uniform(-2.0, 2.0))
        shifted = _case_value(v.with_payoffs(v.payoffs + m), linear, pref.ambiguity)
        errors.append((("shift", idx), abs(shifted - (_case_value(v, linear, pref.ambiguity) + m))))
    report["affine_equivariance"] = errors
    errors = []
    for idx, v in enumerate(cases):
        raw = rng.random((int(rng.integers(1, 5)), v.n_states)) + 0.05
        listed = MaxminSet([Prior(row / row.sum()) for row in raw])
        value = _case_value(v, pref, listed)
        utils = inner_rdu(v, pref.phi, pref.psi)
        errors.append((idx, abs(value - min(float(q.weights @ utils) for q in listed.priors))))
    report["maxmin_reduction"] = errors
    singles = generate_battery(replace(battery, n_states=1, max_states=6, seed=battery.seed + 3,
                                       uniform_outcome_probs=False))
    report["single_state_rdu"] = [
        (idx, abs(_case_value(v, pref, pref.ambiguity) - choquet(v.marginal(v.state_ids[0]).pushforward(pref.phi), pref.psi)))
        for idx, v in enumerate(singles)
    ]
    return report


def reference_aversion_violations(pref, battery):
    amb = pref.ambiguity
    if battery.n_states is None and isinstance(amb, Tabulated):
        battery = replace(battery, n_states=amb.n_states)
    violations = []
    for idx, v in enumerate(generate_battery(battery)):
        local = _adapt(amb, v.n_states)
        utils = inner_rdu(v, pref.phi, pref.psi)
        if _case_value(v, pref, amb) > float(local.zero_penalty_prior().weights @ utils) + 1e-9:
            violations.append(idx)
    return violations


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
        tversky_kahneman(0.7),
    ]))
    spec = BatterySpec(
        n_cases=draw(st.integers(0, 6)),
        n_states=draw(st.sampled_from([None, n])),
        max_states=draw(st.integers(1, 4)),
        max_outcomes=draw(st.integers(2, 6)),
        seed=draw(st.integers(0, 10**6)),
        uniform_outcome_probs=draw(st.booleans()),
    )
    return Preference(phi, psi, amb, [f"w{i}" for i in range(n)]), spec


class TestBatteryBlocks:
    """The batched batteries against the per-case loops they replaced."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(battery_setups())
    def test_reports_match_per_case_reference(self, setup):
        pref, spec = setup
        try:
            want = reference_reduction_suite(pref, spec)
        except ShapeError:
            # A table on 2+ states is refused up front; other shape clashes
            # surface where the sections meet them.
            table = isinstance(pref.ambiguity, Tabulated) and pref.ambiguity.n_states >= 2
            with pytest.raises(ConfigError if table else ShapeError):
                reduction_suite(pref, spec)
        else:
            got = reduction_suite(pref, spec)
            for key, errors in want.items():
                if key == "seed":
                    continue
                assert got[key]["violations"] == [label for label, err in errors if err > 1e-9], key
                assert abs(got[key]["max_error"] - max([0.0, *(err for _, err in errors)])) <= 1e-12, key
            assert got["seed"] == spec.seed
        report = ambiguity_aversion_check(pref, spec)
        assert [v["case"] for v in report["violations"]] == reference_aversion_violations(pref, spec)
        assert report["passed"] == (not report["violations"])

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(rank_cases(), min_size=1, max_size=5))
    def test_padded_row_equals_case_alone(self, cases):
        variables = [v for v, _, _ in cases]
        _, phi, psi = cases[0]
        for v, u in zip(variables, _inner_profiles(variables, phi, psi)):
            assert u.tobytes() == inner_rdu(v, phi, psi).tobytes()

    def test_draws_follow_the_per_case_order(self, monkeypatch):
        blocks, listed = [], []
        real = evaluator_module.inner_rdu

        def recorded_inner(v, phi, psi):
            blocks.append(v.payoffs.copy())
            return real(v, phi, psi)

        class RecordedMaxmin(MaxminSet):
            def __init__(self, priors):
                super().__init__(priors)
                listed.append(np.array([q.weights for q in self.priors]))

        monkeypatch.setattr(evaluator_module, "inner_rdu", recorded_inner)
        monkeypatch.setattr(evaluator_module, "MaxminSet", RecordedMaxmin)
        spec = BatterySpec(n_cases=12, seed=99)
        reduction_suite(Preference(exponential(0.1), prelec(0.65, 1.0), Entropic(1.5, UNIFORM2), ("w0", "w1")), spec)

        # The per-case loop's draws: (a, b) per unambiguous case, a shift per
        # case, then each case's listed maxmin priors.
        rng = np.random.default_rng(spec.seed + 1)
        cases = generate_battery(spec)
        unamb = generate_battery(replace(spec, seed=spec.seed + 2, unambiguous=True))
        moved = []
        for v in unamb:
            a = float(rng.uniform(0.5, 2.5))
            b = float(rng.uniform(-2.0, 2.0))
            moved.append(a * v.payoffs + b)
        moved += [v.payoffs + float(rng.uniform(-2.0, 2.0)) for v in cases]
        row = sum(v.n_states for v in [*unamb, *cases])
        for payoffs in moved:
            k, m = payoffs.shape
            assert np.array_equal(blocks[1][row : row + k, :m], payoffs)
            row += k
        assert len(listed) == len(cases)
        for v, priors in zip(cases, listed):
            raw = rng.random((int(rng.integers(1, 5)), v.n_states)) + 0.05
            assert np.array_equal(priors, np.array([r / r.sum() for r in raw]))

    @pytest.mark.parametrize("penalty", [
        "maxmin:[w0=0.3,w1=0.7;w0=0.6,w1=0.4]", "entropic:1.5@w0=0.4,w1=0.6", "gini:0.8@w0=0.5,w1=0.5",
    ])
    def test_twelve_case_battery_makes_few_inner_calls(self, monkeypatch, capsys, penalty):
        calls = []
        real = evaluator_module.inner_rdu

        def counted(*args, **kwargs):
            calls.append(args[0].payoffs.shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluator_module, "inner_rdu", counted)
        argv = ["battery", "--penalty", penalty, "--utility", "exp:0.1", "--distortion", "prelec:0.65,1",
                "--cases", "12", "--output", "json"]
        assert cli_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["total_violations"] == 0
        assert 1 <= len(calls) <= 6, calls

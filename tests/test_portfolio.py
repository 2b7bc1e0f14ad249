import json
import math
from itertools import combinations_with_replacement, product
from pathlib import Path

import numpy as np
import pytest

from rankrobust import (
    BudgetError,
    ConfigError,
    DomainError,
    Entropic,
    Gini,
    MaxminSet,
    Preference,
    Prior,
    ScenarioPanel,
    ShapeError,
    Tabulated,
    Weights,
    affine,
    dual_power,
    es_tail,
    exponential,
    identity_utility,
    mean_risk_components,
    optimize,
    parse_distortion,
    parse_penalty,
    parse_prior,
    power,
    prelec,
    simplex_grid,
)
from rankrobust import portfolio as portfolio_module
from rankrobust.cli import main as cli_main, parse_panel
from rankrobust.portfolio import _block_payoffs, _score_block, _utility_scale
from rankrobust.utility import is_affine
from conftest import mean_risk_objective

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SINGLE_STATE = ("w0",)


def hedge_panel():
    return ScenarioPanel(
        assets=["long", "short"],
        state_ids=SINGLE_STATE,
        outcome_probs=[[0.5, 0.5]],
        returns=[[[0.1, -0.1], [-0.1, 0.1]]],
    )


def risky_riskfree_panel():
    return ScenarioPanel(
        assets=["risky", "safe"],
        state_ids=SINGLE_STATE,
        outcome_probs=[[0.5, 0.5]],
        returns=[[[1.0, 0.0], [-1.0, 0.0]]],
    )


def base_pref(psi=None, amb=None, state_ids=SINGLE_STATE):
    amb = amb or MaxminSet([Prior.uniform(len(state_ids))])
    return Preference(identity_utility(), psi or es_tail(0.5), amb, state_ids)


def two_state_panel(rng, n_assets=3, n_outcomes=4):
    probs = rng.random((2, n_outcomes)) + 0.1
    probs /= probs.sum(axis=1, keepdims=True)
    returns = rng.uniform(-0.2, 0.25, size=(2, n_outcomes, n_assets))
    return ScenarioPanel(
        assets=[f"a{i}" for i in range(n_assets)],
        state_ids=["w0", "w1"],
        outcome_probs=probs,
        returns=returns,
    )


class TestPortfolioVariable:
    """A portfolio's payoffs: per (state, outcome), the weighted sum of the asset returns."""

    def test_single_asset_passthrough(self):
        panel = risky_riskfree_panel()
        payoffs = _block_payoffs(panel, np.array([[1.0, 0.0]]))[0]
        assert np.allclose(payoffs, [[1.0, -1.0]])

    def test_identical_assets_mix_to_same(self):
        panel = ScenarioPanel(
            assets=["a", "b"],
            state_ids=SINGLE_STATE,
            outcome_probs=[[0.4, 0.6]],
            returns=[[[0.2, 0.2], [-0.1, -0.1]]],
        )
        payoffs = _block_payoffs(panel, np.array([[0.5, 0.5]]))[0]
        assert np.allclose(payoffs, [[0.2, -0.1]])

    def test_perfect_hedge_is_constant_zero(self):
        payoffs = _block_payoffs(hedge_panel(), np.array([[0.5, 0.5]]))[0]
        assert np.allclose(payoffs, 0.0)

    def test_weight_validation(self):
        with pytest.raises(ShapeError):
            _block_payoffs(hedge_panel(), np.array([[1.0]]))
        with pytest.raises(Exception):
            Weights(np.array([0.7, 0.7]))


class TestScenarioPanel:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_return_names_asset_state_and_outcome(self, bad):
        with pytest.raises(DomainError) as err:
            ScenarioPanel(["a", "b"], ["calm", "stormy"], [[0.5, 0.5]] * 2,
                          [[[0.1, 0.2], [0.0, 0.1]], [[0.1, 0.2], [0.3, bad]]])
        assert str(err.value) == f"return {bad!r} of asset 'b' in state 'stormy' (outcome 1) is not finite"


class TestMeanRiskObjective:
    def test_constant_zero_portfolio(self):
        panel = hedge_panel()
        obj = mean_risk_objective(panel, Weights(np.array([0.5, 0.5])), Prior.uniform(1), base_pref())
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_risk_neutral_configuration_doubles_mean(self):
        # es tail at level one is the negated mean, so the criterion collapses
        # to twice the mean; the components report makes this visible.
        panel = ScenarioPanel(
            assets=["a"],
            state_ids=SINGLE_STATE,
            outcome_probs=[[0.5, 0.5]],
            returns=[[[0.3], [0.1]]],
        )
        pref = base_pref(psi=es_tail(1.0))
        w = Weights(np.array([1.0]))
        mean, rho = mean_risk_components(panel, w, Prior.uniform(1), pref)
        assert mean == pytest.approx(0.2, abs=1e-12)
        assert rho == pytest.approx(-0.2, abs=1e-12)
        assert mean_risk_objective(panel, w, Prior.uniform(1), pref) == pytest.approx(0.4, abs=1e-12)

    def test_symmetric_bet_vs_riskfree(self):
        panel = risky_riskfree_panel()
        pref = base_pref(psi=es_tail(0.5))
        p = Prior.uniform(1)
        risky = mean_risk_objective(panel, Weights(np.array([1.0, 0.0])), p, pref)
        safe = mean_risk_objective(panel, Weights(np.array([0.0, 1.0])), p, pref)
        assert risky == pytest.approx(-1.0, abs=1e-12)
        assert safe == pytest.approx(0.0, abs=1e-12)

    def test_rho_is_invariant_to_affine_normalization(self):
        # the risk term is reported on the linear-utility scale whatever
        # affine representation the preference carries
        from rankrobust import affine, identity_utility

        panel = risky_riskfree_panel()
        w = Weights(np.array([1.0, 0.0]))
        p = Prior.uniform(1)
        amb = MaxminSet([Prior.uniform(1)])
        base = Preference(identity_utility(), es_tail(0.5), amb, SINGLE_STATE)
        rescaled = Preference(affine(2.0, 3.0), es_tail(0.5), amb, SINGLE_STATE)
        wrapped = Preference(identity_utility().rescaled(2.0, 3.0), es_tail(0.5), amb, SINGLE_STATE)
        want = mean_risk_objective(panel, w, p, base)
        assert mean_risk_objective(panel, w, p, rescaled) == pytest.approx(want, abs=1e-12)
        assert mean_risk_objective(panel, w, p, wrapped) == pytest.approx(want, abs=1e-12)

    def test_requires_affine_utility(self):
        panel = hedge_panel()
        pref = Preference(exponential(1.0), es_tail(0.5), MaxminSet([Prior.uniform(1)]), SINGLE_STATE)
        with pytest.raises(ConfigError):
            mean_risk_objective(panel, Weights(np.array([0.5, 0.5])), Prior.uniform(1), pref)


class TestOptimize:
    def test_single_asset_trivial(self):
        panel = ScenarioPanel(
            assets=["only"],
            state_ids=SINGLE_STATE,
            outcome_probs=[[1.0]],
            returns=[[[0.05]]],
        )
        res = optimize(panel, Prior.uniform(1), base_pref(), budget=10)
        assert list(res.weights.values) == [1.0]
        # the general search scores the one-row grid and has no pair to move
        mean, risk = mean_risk_components(panel, res.weights, Prior.uniform(1), base_pref())
        assert (res.mean_term, res.risk_term, res.objective) == (mean, risk, mean - risk)
        assert res.trace == (((1.0,), mean - risk),)
        with pytest.raises(BudgetError):
            optimize(panel, Prior.uniform(1), base_pref(), budget=0)

    def test_twice_rescaled_affine_utility_accepted(self):
        phi = affine(1.0).rescaled(2.0, 3.0).rescaled(0.5, 1.0)
        assert is_affine(phi)
        assert not is_affine(exponential(1.0).rescaled(2.0, 3.0))
        pref = Preference(phi, es_tail(0.5), MaxminSet([Prior.uniform(1)]), SINGLE_STATE)
        res = optimize(risky_riskfree_panel(), Prior.uniform(1), pref, budget=2000)
        want = optimize(risky_riskfree_panel(), Prior.uniform(1), base_pref(), budget=2000)
        assert list(res.weights.values) == list(want.weights.values)
        assert res.objective == pytest.approx(want.objective, abs=1e-12)

    def test_perfect_hedge_found(self):
        res = optimize(hedge_panel(), Prior.uniform(1), base_pref(), budget=2000)
        assert res.weights.values == pytest.approx([0.5, 0.5], abs=1e-4)
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_riskfree_selected(self):
        res = optimize(risky_riskfree_panel(), Prior.uniform(1), base_pref(), budget=2000)
        assert res.weights.values == pytest.approx([0.0, 1.0], abs=1e-6)

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            optimize(hedge_panel(), Prior.uniform(1), base_pref(), budget=5)

    def test_trace_and_reproducibility(self):
        panel = risky_riskfree_panel()
        pref = base_pref()
        res = optimize(panel, Prior.uniform(1), pref, budget=500)
        assert len(res.trace) <= 500
        # the reported optimum is the best point visited and reproduces bit for bit
        best_seen = max(obj for _, obj in res.trace)
        assert res.objective == best_seen
        again = mean_risk_objective(panel, res.weights, Prior.uniform(1), pref)
        assert again == res.objective
        assert abs(res.weights.values.sum() - 1.0) <= 1e-12
        assert np.all(res.weights.values >= 0)

    def test_deterministic_across_runs(self, rng):
        panel = two_state_panel(rng)
        pref = base_pref(amb=Entropic(1.0, Prior.uniform(2)), state_ids=("w0", "w1"))
        p = Prior.uniform(2)
        r1 = optimize(panel, p, pref, budget=400)
        r2 = optimize(panel, p, pref, budget=400)
        assert list(r1.weights.values) == list(r2.weights.values)
        assert r1.objective == r2.objective


class TestObjectiveShape:
    def test_concavity_in_weights_convex_distortion(self, rng):
        for trial in range(30):
            panel = two_state_panel(rng)
            amb = Entropic(1.0, Prior.uniform(2)) if trial % 2 else MaxminSet(
                [Prior.point_mass(2, 0), Prior.point_mass(2, 1)]
            )
            psi = es_tail(0.4) if trial % 3 else power(2)
            pref = base_pref(psi=psi, amb=amb, state_ids=("w0", "w1"))
            p = Prior.uniform(2)

            def obj(wvec):
                return mean_risk_objective(panel, Weights(wvec), p, pref)

            raw = rng.random((2, panel.n_assets)) + 0.01
            w1, w2 = (row / row.sum() for row in raw)
            mid = 0.5 * (w1 + w2)
            mid = mid / mid.sum()
            assert obj(mid) >= 0.5 * obj(w1) + 0.5 * obj(w2) - 1e-8

    def test_positive_homogeneity_with_indicator_penalty(self, rng):
        for _ in range(20):
            panel = two_state_panel(rng)
            pref = base_pref(
                psi=es_tail(0.3),
                amb=MaxminSet([Prior.point_mass(2, 0), Prior.point_mass(2, 1)]),
                state_ids=("w0", "w1"),
            )
            p = Prior.uniform(2)
            raw = rng.random(panel.n_assets) + 0.01
            w = Weights(raw / raw.sum())
            a = float(rng.uniform(0.25, 4.0))
            scaled_panel = ScenarioPanel(panel.assets, panel.state_ids, panel.outcome_probs, a * panel.returns)
            base = mean_risk_objective(panel, w, p, pref)
            scaled = mean_risk_objective(scaled_panel, w, p, pref)
            assert scaled == pytest.approx(a * base, abs=1e-9)


def simplex_lattice(n, resolution):
    """Long-only weight vectors with entries k/resolution, in lexicographic order."""
    counts = sorted(c for c in product(range(resolution + 1), repeat=n) if sum(c) == resolution)
    return [np.array(c, dtype=float) / resolution for c in counts]


def reference_optimize(panel, p_mean, pref, budget, resolution=10, step_tol=1e-6):
    """Grid then pairwise polish, scoring one candidate at a time.  Besides
    the best weights, objective and trace, returns the polish rounds as
    (candidates scored, improved) pairs."""
    n = panel.n_assets
    trace, rounds = [], []

    def score(w):
        obj = mean_risk_objective(panel, Weights(w), p_mean, pref)
        trace.append((tuple(float(x) for x in w), obj))
        return obj

    best_w, best = None, -math.inf
    for row in simplex_lattice(n, resolution):
        obj = score(row)
        if obj > best:
            best, best_w = obj, row
    step = 1.0 / resolution
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
                candidates.append(cand / cand.sum())
        scored = 0
        for cand in candidates:
            if len(trace) >= budget:
                break
            obj = score(cand)
            scored += 1
            if obj > best + 1e-12:
                best, best_w, improved = obj, cand, True
        rounds.append((scored, improved))
        if not improved:
            step /= 2.0
    return best_w, best, tuple(trace), rounds


def credit_blocks(rounds, trace, budget, resolution=10, step_tol=1e-6):
    """The one-at-a-time search's polish rounds grouped as ``optimize``
    scores them, as (rows scored, rows recorded, rounds scored) per block.

    A block takes the next round, then each further round (the same
    incumbent at half the step, its rows counted from the incumbent's
    donors and cut to the budget) while its rows fit in the credit: rows
    recorded less rows discarded.  The first improving round ends the
    block and the rows after it are discarded.  Checks after every block
    that discarded rows never exceed recorded ones."""
    grid = len(trace) - sum(scored for scored, _ in rounds)
    best_w, best = None, -math.inf
    for w, obj in trace[:grid]:
        if obj > best:
            best, best_w = obj, w
    blocks, recorded, discarded, k, step = [], grid, 0, 0, 1.0 / resolution
    while k < len(rounds):
        sizes, steps = [rounds[k][0]], [step]
        room, credit = budget - recorded - sizes[0], recorded - discarded
        while steps[-1] / 2 >= step_tol and room > 0:
            donors = sum(1 for x in best_w if x >= steps[-1] / 2 - 1e-15)
            rows = min((len(best_w) - 1) * donors, room)
            if rows > credit:
                break
            credit, room = credit - rows, room - rows
            sizes.append(rows)
            steps.append(steps[-1] / 2)
        hits = [r for r, (_, improved) in enumerate(rounds[k : k + len(sizes)]) if improved]
        n_used = hits[0] + 1 if hits else len(sizes)
        assert sizes[:n_used] == [scored for scored, _ in rounds[k : k + n_used]]
        used = sum(sizes[:n_used])
        for w, obj in trace[recorded : recorded + used]:
            if obj > best + 1e-12:
                best, best_w = obj, w
        blocks.append((sum(sizes), used, len(sizes)))
        recorded, discarded = recorded + used, discarded + sum(sizes) - used
        assert discarded <= recorded
        k += n_used
        step = steps[n_used - 1] if hits else steps[-1] / 2
    return blocks


def budgets_inside_blocks(blocks, grid, limit=3):
    """Budgets that stop in the first and in the last round of the first
    ``limit`` speculative blocks (two or more rounds and rows)."""
    budgets, start = [], grid
    for scored, used, n_rounds in blocks:
        if n_rounds >= 2 and scored >= 2 and len(budgets) < 2 * limit:
            budgets += [start + 1, start + scored - 1]
        start += used
    return budgets


class CountedScoring:
    """Wraps ``portfolio._score_block`` to record each call's row count."""

    def __init__(self, monkeypatch):
        self.rows = []
        real = portfolio_module._score_block

        def counted(panel, W, *args):
            self.rows.append(len(W))
            return real(panel, W, *args)

        monkeypatch.setattr(portfolio_module, "_score_block", counted)


def random_panel(rng, n_states, n_outcomes, n_assets):
    probs = rng.random((n_states, n_outcomes)) + 0.05
    probs /= probs.sum(axis=1, keepdims=True)
    returns = 0.02 + rng.normal(0.0, 0.1, size=(n_states, n_outcomes, n_assets))
    # a duplicated asset and a rounded one make ties between candidates
    returns[:, :, -1] = returns[:, :, 0]
    returns[:, :, 1] = np.round(returns[:, :, 1], 1)
    return ScenarioPanel([f"a{i}" for i in range(n_assets)], [f"w{i}" for i in range(n_states)], probs, returns)


def random_prior(rng, n):
    raw = rng.random(n) + 0.05
    return Prior(raw / raw.sum())


def penalty_of_kind(kind, rng, n):
    if kind == "maxmin":
        return MaxminSet([random_prior(rng, n) for _ in range(3)])
    if kind == "vertices":
        return MaxminSet.vertices(n)
    if kind == "entropic":
        return Entropic(float(rng.uniform(0.2, 3.0)), random_prior(rng, n))
    if kind == "gini":
        return Gini(float(rng.uniform(0.2, 3.0)), random_prior(rng, n))
    return Tabulated([(random_prior(rng, n), float(rng.uniform(0.0, 1.0))) for _ in range(4)])


PENALTY_KINDS = ("maxmin", "vertices", "entropic", "gini", "tabulated")
DISTORTIONS = (es_tail(0.3), dual_power(2), prelec(0.65, 1), power(1.5))


class TestBlockScoring:
    def test_rows_match_one_at_a_time(self, rng):
        for kind in PENALTY_KINDS:
            for n_assets in (2, 3, 5):
                panel = random_panel(rng, 3, 7, n_assets)
                pref = Preference(affine(2.0, -1.0), DISTORTIONS[n_assets % 4],
                                  penalty_of_kind(kind, rng, 3), panel.state_ids)
                p = random_prior(rng, 3)
                block = np.vstack([np.array(simplex_lattice(n_assets, 4)), rng.dirichlet(np.ones(n_assets), 50)])
                block /= block.sum(axis=1, keepdims=True)
                means, risks = _score_block(panel, block, p, pref, _utility_scale(panel, p, pref))
                for w, mean, risk in zip(block, means, risks):
                    assert (mean, risk) == mean_risk_components(panel, Weights(w), p, pref)

    def test_rows_validated_like_weights(self):
        panel = hedge_panel()
        pref, p = base_pref(), Prior.uniform(1)
        for bad, exc in (([0.7, 0.7], DomainError), ([1.2, -0.2], DomainError)):
            with pytest.raises(exc) as want:
                Weights(np.array(bad))
            with pytest.raises(exc) as got:
                _score_block(panel, np.array([[0.5, 0.5], bad]), p, pref, _utility_scale(panel, p, pref))
            assert str(got.value) == str(want.value)
        with pytest.raises(ShapeError):
            _score_block(panel, np.array([[1.0]]), p, pref, _utility_scale(panel, p, pref))


def score_hedge(block):
    panel, p, pref = hedge_panel(), Prior.uniform(1), base_pref()
    return _score_block(panel, block, p, pref, _utility_scale(panel, p, pref))


class TestLongOnlyRule:
    """Every weight vector is long-only; a row's sum is checked before its signs."""

    def test_negative_weight_refused(self):
        with pytest.raises(DomainError, match="long-only weights must be >= 0"):
            Weights([1.5, -0.5])

    def test_negative_row_in_a_block_refused(self):
        block = np.array([[0.5, 0.5], [1.5, -0.5], [0.25, 0.75]])
        with pytest.raises(DomainError, match="long-only weights must be >= 0"):
            score_hedge(block)

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [0.5, math.nan]])
    def test_nan_weight_refused(self, weights):
        with pytest.raises(DomainError, match=r"^weights must sum to 1 within 1e-12, got nan$"):
            Weights(np.array(weights))

    @pytest.mark.parametrize("weights, total", [([1e308, 1e308], "inf"), ([-1e308, -1e308, 1.0], "-inf")])
    def test_overflowing_sum_is_reported_as_infinite(self, weights, total):
        with pytest.raises(DomainError) as err:
            Weights(weights)
        assert str(err.value) == f"weights must sum to 1 within 1e-12, got {total}"

    def test_sum_reported_before_sign(self):
        for score in (Weights, lambda w: score_hedge(np.array([w]))):
            with pytest.raises(DomainError) as err:
                score([0.7, -0.2])
            assert str(err.value) == "weights must sum to 1 within 1e-12, got 0.49999999999999994"


class TestOptimizeMatchesOneAtATime:
    """Block scoring reproduces the one-candidate-at-a-time search exactly,
    in the ``_score_block`` calls the credit rule predicts."""

    def assert_same_search(self, monkeypatch, panel, p_mean, pref, budget, resolution=10):
        counted = CountedScoring(monkeypatch)
        monkeypatch.setattr(portfolio_module, "COARSE_RESOLUTION", resolution)
        res = optimize(panel, p_mean, pref, budget=budget)
        monkeypatch.undo()
        best_w, best, trace, rounds = reference_optimize(panel, p_mean, pref, budget, resolution)
        assert res.trace == trace
        assert res.objective == best
        assert list(res.weights.values) == list(best_w)
        blocks = credit_blocks(rounds, trace, budget, resolution)
        assert counted.rows[1:] == [scored for scored, *_ in blocks if scored]
        return blocks

    @pytest.mark.parametrize("name", ["panel_hedge.csv", "panel_risky_riskfree.csv"])
    def test_fixture_panels(self, monkeypatch, name):
        panel = parse_panel(str(FIXTURES / name))
        for psi in (es_tail(0.5), dual_power(2)):
            pref = Preference(identity_utility(), psi, MaxminSet.vertices(1), panel.state_ids)
            blocks = self.assert_same_search(monkeypatch, panel, Prior.uniform(1), pref, 300)
            inside = budgets_inside_blocks(blocks, 11)
            assert inside
            for budget in (11, 12, 27, *inside):
                self.assert_same_search(monkeypatch, panel, Prior.uniform(1), pref, budget)

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_seeded_panels(self, monkeypatch, kind):
        rng = np.random.default_rng(["maxmin", "vertices", "entropic", "gini", "tabulated"].index(kind))
        discarding = inside = 0
        for n_assets, resolution in ((2, 10), (3, 10), (4, 6), (5, 4), (4, 6)):
            panel = random_panel(rng, 2, 5, n_assets)
            pref = Preference(identity_utility(), DISTORTIONS[n_assets % 4],
                              penalty_of_kind(kind, rng, 2), panel.state_ids)
            p_mean = random_prior(rng, 2)
            grid = math.comb(resolution + n_assets - 1, n_assets - 1)
            blocks = self.assert_same_search(monkeypatch, panel, p_mean, pref, grid + 200, resolution)
            discarding += sum(1 for scored, used, _ in blocks if scored > used)
            # budgets that stop inside the first polish round, later, and
            # inside speculative blocks
            budgets = (grid + 1, grid + 2 * n_assets + 1, grid + 60, *budgets_inside_blocks(blocks, grid))
            inside += len(budgets) - 3
            for budget in budgets:
                self.assert_same_search(monkeypatch, panel, p_mean, pref, budget, resolution)
        assert discarding >= 1 and inside >= 1, (discarding, inside)


class TestPolishCalls:
    """Speculative blocks never take more calls than the one-at-a-time
    search has polish rounds, and never discard more rows than they record."""

    @pytest.mark.parametrize("step_tol, n_rounds", [(1e-6, 17), (2e-6, 16)])
    def test_corner_optimum_takes_two_calls(self, monkeypatch, step_tol, n_rounds):
        # The safe asset wins the 11-row grid; each round's one candidate
        # moves mass to the risky asset and never improves, so the first
        # block holds 1 + 11 rounds and the second the rest.
        panel, pref, p = risky_riskfree_panel(), base_pref(), Prior.uniform(1)
        counted = CountedScoring(monkeypatch)
        monkeypatch.setattr(portfolio_module, "STEP_TOL", step_tol)
        res = optimize(panel, p, pref, budget=2000)
        monkeypatch.undo()
        *_, rounds = reference_optimize(panel, p, pref, 2000, step_tol=step_tol)
        assert rounds == [(1, False)] * n_rounds
        assert len(res.trace) == 11 + n_rounds
        assert counted.rows[1:] == [12, n_rounds - 12]

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_calls_and_discarded_rows_are_bounded(self, monkeypatch, kind):
        rng = np.random.default_rng(10 + PENALTY_KINDS.index(kind))
        for n_assets, resolution in ((2, 10), (3, 10), (4, 6), (6, 3)):
            panel = random_panel(rng, 2, 5, n_assets)
            pref = Preference(identity_utility(), DISTORTIONS[n_assets % 4],
                              penalty_of_kind(kind, rng, 2), panel.state_ids)
            p_mean = random_prior(rng, 2)
            budget = math.comb(resolution + n_assets - 1, n_assets - 1) + 150
            counted = CountedScoring(monkeypatch)
            monkeypatch.setattr(portfolio_module, "COARSE_RESOLUTION", resolution)
            res = optimize(panel, p_mean, pref, budget=budget)
            monkeypatch.undo()
            *_, trace, rounds = reference_optimize(panel, p_mean, pref, budget, resolution)
            polish_calls = len(counted.rows) - 1
            assert polish_calls <= sum(1 for scored, _ in rounds if scored)
            # credit_blocks checks discarded <= recorded after every block
            blocks = credit_blocks(rounds, trace, budget, resolution)
            assert counted.rows[1:] == [scored for scored, *_ in blocks if scored]
            assert sum(counted.rows) <= 2 * len(res.trace)


    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_each_scored_round_is_built_once(self, monkeypatch, kind):
        """``_pair_moves`` builds exactly the rounds the blocks score: the
        round a block's credit does not admit is counted from its donors
        and never built."""
        rng = np.random.default_rng(10 + PENALTY_KINDS.index(kind))
        real = portfolio_module._pair_moves
        dropped = 0
        for n_assets, resolution in ((2, 10), (3, 10), (4, 6), (6, 3)):
            panel = random_panel(rng, 2, 5, n_assets)
            pref = Preference(identity_utility(), DISTORTIONS[n_assets % 4],
                              penalty_of_kind(kind, rng, 2), panel.state_ids)
            p_mean = random_prior(rng, 2)
            budget = math.comb(resolution + n_assets - 1, n_assets - 1) + 150
            built = []
            monkeypatch.setattr(portfolio_module, "_pair_moves", lambda w, step: built.append(step) or real(w, step))
            monkeypatch.setattr(portfolio_module, "COARSE_RESOLUTION", resolution)
            optimize(panel, p_mean, pref, budget=budget)
            monkeypatch.undo()
            *_, trace, rounds = reference_optimize(panel, p_mean, pref, budget, resolution)
            blocks = credit_blocks(rounds, trace, budget, resolution)
            assert len(built) == sum(n_rounds for *_, n_rounds in blocks)
            # some blocks speculate on two or more rounds
            dropped += sum(1 for *_, n_rounds in blocks if n_rounds >= 2)
        assert dropped >= 1


def write_panel(path, panel):
    """The panel as the CSV the CLI reads, every number in round-trip form."""
    lines = ["state,prob,outcome," + ",".join(panel.assets)]
    for s, sid in enumerate(panel.state_ids):
        for o, prob in enumerate(panel.outcome_probs[s]):
            lines.append(",".join([sid, repr(float(prob)), str(o), *map(repr, panel.returns[s, o].tolist())]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestReportedTerms:
    """``portfolio`` reports the winner's terms from the block that scored
    it; they equal ``mean_risk_components`` at the reported weights."""

    def assert_terms(self, capsys, path, penalty, distortion, mean_prior):
        argv = ["portfolio", "--scenario", path, "--utility", "affine:2,-1", "--distortion", distortion,
                "--penalty", penalty, "--mean-prior", mean_prior, "--budget", "400", "--output", "json"]
        assert cli_main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        panel = parse_panel(path)
        pref = Preference(affine(2.0, -1.0), parse_distortion(distortion),
                          parse_penalty(penalty, panel.state_ids), panel.state_ids)
        mean, risk = mean_risk_components(panel, Weights(result["weights"]),
                                          parse_prior(mean_prior, panel.state_ids), pref)
        assert (result["mean_term"], result["risk_term"]) == (mean, risk)
        assert result["objective"] == mean - risk

    @pytest.mark.parametrize("name", ["panel_hedge.csv", "panel_risky_riskfree.csv"])
    def test_fixture_panels(self, capsys, name):
        for distortion in ("es:0.5", "dualpower:2"):
            self.assert_terms(capsys, str(FIXTURES / name), "maxmin:w0=1", distortion, "uniform")

    def test_seeded_panels(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        penalties = ("entropic:1.5@w0=0.3,w1=0.7", "gini:0.8@w0=0.5,w1=0.5",
                     "maxmin:[w0=0.2,w1=0.8;w0=0.7,w1=0.3]")
        for k, (n_assets, penalty) in enumerate(product((2, 3, 4), penalties)):
            path = write_panel(tmp_path / f"panel{k}.csv", random_panel(rng, 2, 5, n_assets))
            self.assert_terms(capsys, path, penalty, ("es:0.3", "prelec:0.65,1", "power:1.5")[k % 3],
                              "w0=0.4,w1=0.6")


class TestCoarseGrid:
    """The optimizer's coarse grid is ``simplex_grid``: every long-only weight
    vector with entries k/resolution, rows in ascending lexicographic order."""

    def test_equals_the_combinations_oracle_byte_for_byte(self):
        for n_assets in range(1, 8):
            for resolution in range(1, 13):
                rows = [np.bincount(combo, minlength=n_assets) / resolution
                        for combo in combinations_with_replacement(range(n_assets), resolution)]
                want = np.unique(np.asarray(rows, dtype=float), axis=0)
                got = simplex_grid(n_assets, resolution)
                assert got.dtype == want.dtype and got.shape == want.shape, (n_assets, resolution)
                assert got.tobytes() == want.tobytes(), (n_assets, resolution)

    @pytest.mark.parametrize("n_assets, size", [(13, 646646), (20, 20030010)])
    def test_budget_checked_before_the_grid_is_built(self, monkeypatch, n_assets, size):
        """A budget below the grid size exits before building the grid,
        whose C(n + 9, n - 1) rows would not fit in memory at 20 assets."""

        def refuse(*args):
            raise AssertionError("the coarse grid was built")

        monkeypatch.setattr(portfolio_module, "simplex_grid", refuse)
        rng = np.random.default_rng(n_assets)
        panel = ScenarioPanel([f"a{i}" for i in range(n_assets)], SINGLE_STATE, [[0.5, 0.5]],
                              rng.normal(size=(1, 2, n_assets)))
        with pytest.raises(BudgetError, match=rf"^budget 2000 is below the coarse grid size {size}$"):
            optimize(panel, Prior.uniform(1), base_pref(), budget=2000)

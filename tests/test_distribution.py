import math

import numpy as np
import pytest

from rankrobust import (
    DiscreteDistribution,
    DomainError,
    ShapeError,
    TwoStageVariable,
    comonotonic,
    dominance,
    ellsberg_variables,
    power_utility,
)
from rankrobust.distribution import check_outcome_probs
from conftest import quantile_oracle, random_distribution


class TestDiscreteDistribution:
    @pytest.mark.parametrize("mapping", [{0.0: 0.5, 1.0: 0.5, 2.0: math.nan}, {0.0: math.nan, 1.0: 1.0}])
    def test_nan_probability_refused(self, mapping):
        with pytest.raises(DomainError, match=r"^probabilities must be >= 0, got min nan$"):
            DiscreteDistribution.from_mapping(mapping)

    def test_cdf_step_between_support(self):
        d = DiscreteDistribution.from_mapping({0: 0.7, 100: 0.3})
        assert d.cdf(50) == pytest.approx(0.7)

    def test_cdf_right_continuous_at_max(self):
        d = DiscreteDistribution.from_mapping({0: 0.7, 100: 0.3})
        assert d.cdf(100) == 1.0
        assert d.cdf(100.1) == 1.0
        assert d.cdf(-1) == 0.0

    def test_cdf_cumulative_sum(self):
        d = DiscreteDistribution.from_mapping({-50: 0.2, 10: 0.5, 20: 0.3})
        # oracle: plain cumulative sum over the sorted support
        assert d.cdf(10) == pytest.approx(0.2 + 0.5)

    def test_quantile_examples(self):
        d = DiscreteDistribution.from_mapping({0: 0.7, 100: 0.3})
        assert d.quantile(0.7) == 0
        assert d.quantile(0.71) == 100
        for lam in (0.01, 0.42, 0.99):
            assert DiscreteDistribution.degenerate(5).quantile(lam) == 5

    def test_quantile_domain(self):
        d = DiscreteDistribution.from_mapping({0: 1.0})
        for lam in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                d.quantile(lam)

    def test_quantile_matches_scan_oracle(self, rng):
        for _ in range(300):
            d = random_distribution(rng)
            lam = float(rng.uniform(1e-6, 1 - 1e-6))
            assert d.quantile(lam) == quantile_oracle(d, lam)

    def test_quantile_cdf_round_trip(self, rng):
        # delta must clear the 1e-12 level tolerance but stay below any mass
        delta = 1e-9
        for _ in range(200):
            d = random_distribution(rng)
            for x in d.values:
                below = d.cdf(x - 1e-7)
                assert d.quantile(below + delta) == x

    def test_merging_duplicates_keeps_cdf(self, rng):
        values = [1.0, 1.0, 2.0, 3.0, 3.0, 3.0]
        probs = [0.1, 0.2, 0.3, 0.1, 0.1, 0.2]
        merged = DiscreteDistribution(values, probs)
        assert merged.n_points == 3
        plain = DiscreteDistribution([1.0, 2.0, 3.0], [0.3, 0.3, 0.4])
        for t in np.linspace(0, 4, 41):
            assert merged.cdf(t) == pytest.approx(plain.cdf(t), abs=1e-15)

    def test_probability_validation(self):
        with pytest.raises(DomainError):
            DiscreteDistribution([0, 1], [0.6, 0.6])
        with pytest.raises(DomainError):
            DiscreteDistribution([0, 1], [-0.1, 1.1])


class TestTwoStageVariable:
    def test_marginal_direct_read(self):
        v = TwoStageVariable(["w"], [[0.3, 0.7]], [[100.0, 0.0]])
        m = v.marginal("w")
        assert list(m.values) == [0.0, 100.0]
        assert list(m.probs) == [0.7, 0.3]

    def test_marginal_merges_duplicates(self):
        v = TwoStageVariable(["w"], [[0.5, 0.5]], [[1.0, 1.0]])
        m = v.marginal("w")
        assert m.n_points == 1
        assert m.probs[0] == 1.0

    def test_ellsberg_marginal(self):
        bets = ellsberg_variables()
        m = bets["urn_a"].marginal("rA10_rC5")
        assert list(m.values) == [0.0, 100.0]
        assert m.probs[1] == pytest.approx(10 / 25, abs=1e-15)
        assert m.probs[0] == pytest.approx(0.6, abs=1e-15)

    def test_unknown_state(self):
        v = TwoStageVariable(["w"], [[1.0]], [[5.0]])
        with pytest.raises(KeyError):
            v.marginal("nope")

    def test_probability_sum_validation(self):
        with pytest.raises(DomainError):
            TwoStageVariable(["w"], [[0.5, 0.49]], [[0.0, 1.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_payoff_names_state_and_outcome(self, bad):
        with pytest.raises(DomainError) as err:
            TwoStageVariable(["calm", "stormy"], [[0.5, 0.5]] * 2, [[0.0, 1.0], [2.0, bad]])
        assert str(err.value) == f"payoff {bad!r} in state 'stormy' (outcome 1) is not finite"

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            TwoStageVariable(["a", "b"], [[1.0]], [[0.0], [1.0], [2.0]])
        with pytest.raises(ShapeError):
            TwoStageVariable(["a", "a"], [[1.0], [1.0]], [[0.0], [1.0]])


ULP_ABOVE_ONE = 2.0**-52


def row_summing_to(total):
    """A non-negative row whose exact sum, hence its fsum, is total (near 1):
    total - 0.5 is exact by Sterbenz's lemma."""
    row = [0.25, 0.25, total - 0.5]
    assert math.fsum(row) == total
    return row


def rejection(probs, state_ids=("calm", "edge")):
    """The DomainError message for a (calm, probs) pair of rows, or None."""
    try:
        check_outcome_probs(state_ids, np.array([[0.5, 0.25, 0.25], probs]))
    except DomainError as exc:
        return str(exc)
    return None


class TestRowCheck:
    """check_outcome_probs decides every row by its correctly rounded sum."""

    HIGH, LOW = 1.0 + 1e-12, 1.0 - 1e-12

    @pytest.mark.parametrize("total, accepted", [
        # fl(1 + 1e-12) is 1 + 4504 ulps, just past the tolerance; 4503 is the last inside.
        (math.nextafter(HIGH, 0.0), True),
        (HIGH, False),
        (math.nextafter(HIGH, 2.0), False),
        # fl(1 - 1e-12) is 1 - 9007 half-ulps, the last total inside from below.
        (math.nextafter(LOW, 0.0), False),
        (LOW, True),
        (math.nextafter(LOW, 2.0), True),
    ])
    def test_totals_at_the_tolerance_and_one_ulp_either_side(self, total, accepted):
        assert (abs(total - 1.0) <= 1e-12) is accepted
        message = rejection(row_summing_to(total))
        if accepted:
            assert message is None
        else:
            assert message == f"outcome probabilities in state 'edge' sum to {total!r}, not 1"

    def test_decisions_follow_fsum_where_np_sum_rounds_across(self):
        # Tiny entries vanish (first row) or each round up (second row) in a
        # left-to-right sum, so np.sum lands on the other side of the tolerance.
        swallowed = [0.5 + 4503 * ULP_ABOVE_ONE, 0.5, 0.3 * ULP_ABOVE_ONE, 0.3 * ULP_ABOVE_ONE]
        rounded_up = [1.0 + 4502 * ULP_ABOVE_ONE, 0.51 * ULP_ABOVE_ONE, 0.51 * ULP_ABOVE_ONE]
        for row, fsum_accepts in ((swallowed, False), (rounded_up, True)):
            assert (abs(float(np.sum(row)) - 1.0) <= 1e-12) is not fsum_accepts
            assert (abs(math.fsum(row) - 1.0) <= 1e-12) is fsum_accepts
            ids = [f"w{i}" for i in range(3)]
            probs = np.array([row, row[::-1], row])
            message = None
            try:
                check_outcome_probs(ids, probs)
            except DomainError as exc:
                message = str(exc)
            assert message == (None if fsum_accepts else
                               f"outcome probabilities in state 'w0' sum to {math.fsum(row)!r}, not 1")

    @pytest.mark.parametrize("bad, wording", [
        (math.nan, "sum to nan"),
        (math.inf, "sum to inf"),
        (-math.inf, "in state 'edge' (outcome 1) is negative"),
    ])
    def test_non_finite_rows_are_rejected_naming_the_state(self, bad, wording):
        message = rejection([0.5, bad, 0.5])
        assert message is not None and "'edge'" in message and wording in message
        assert "'calm'" not in message


class TestComonotonic:
    def test_weakly_aligned(self):
        v = TwoStageVariable(["w"], [[1 / 3] * 3], [[1, 2, 3]])
        u = TwoStageVariable(["w"], [[1 / 3] * 3], [[10, 10, 30]])
        assert comonotonic(v, u)

    def test_opposing_move(self):
        v = TwoStageVariable(["w"], [[0.5, 0.5]], [[1, 2]])
        u = TwoStageVariable(["w"], [[0.5, 0.5]], [[2, 1]])
        assert not comonotonic(v, u)

    def test_ellsberg_bets_pairwise_comonotonic(self):
        bets = ellsberg_variables()
        assert comonotonic(bets["urn_a"], bets["urn_b"])
        assert comonotonic(bets["urn_c"], bets["urn_b"])
        assert comonotonic(bets["urn_a"], bets["urn_c"])

    def test_reflexive_symmetric(self, rng):
        from conftest import random_variable

        for _ in range(50):
            v = random_variable(rng)
            u = v.with_payoffs(rng.uniform(-5, 5, size=v.payoffs.shape))
            assert comonotonic(v, v)
            assert comonotonic(v, u) == comonotonic(u, v)

    def test_constant_is_comonotonic_with_anything(self, rng):
        from conftest import random_variable

        for _ in range(25):
            v = random_variable(rng)
            const = v.with_payoffs(np.tile(rng.uniform(-5, 5, size=(v.n_states, 1)), (1, v.n_outcomes)))
            assert comonotonic(v, const)
            assert comonotonic(const, v)

    def test_mismatched_space(self):
        v = TwoStageVariable(["a"], [[1.0]], [[0.0]])
        u = TwoStageVariable(["b"], [[1.0]], [[0.0]])
        with pytest.raises(ShapeError):
            comonotonic(v, u)


class TestDominance:
    def test_fsd_pointwise(self):
        d1 = DiscreteDistribution.from_mapping({0: 0.5, 10: 0.5})
        d2 = DiscreteDistribution.from_mapping({0: 0.6, 10: 0.4})
        assert dominance(d1, d2, "fsd").relation == "dominates"
        assert dominance(d2, d1, "fsd").relation == "dominated"

    def test_ssd_mean_preserving_spread(self):
        # integrated step cdfs cross nowhere: sure 5 beats the fair 0/10 bet
        d1 = DiscreteDistribution.degenerate(5)
        d2 = DiscreteDistribution.from_mapping({0: 0.5, 10: 0.5})
        rep = dominance(d1, d2, "ssd")
        assert rep.relation == "dominates"
        assert dominance(d1, d2, "fsd").relation == "incomparable"

    def test_self_equal_all_orders(self):
        d = DiscreteDistribution.from_mapping({-1: 0.25, 0: 0.5, 3: 0.25})
        for order in ("fsd", "ssd"):
            assert dominance(d, d, order).relation == "equal"
        assert dominance(d, d, "phissd", phi=power_utility(3, domain=(-np.inf, np.inf))).relation == "equal"

    def test_incomparable_carries_witness(self):
        d1 = DiscreteDistribution.from_mapping({0: 0.5, 10: 0.5})
        d2 = DiscreteDistribution.from_mapping({-5: 0.1, 4: 0.9})
        rep = dominance(d1, d2, "fsd")
        assert rep.relation == "incomparable"
        assert rep.witness_t is not None
        # at the witness the claimed inequality F1 <= F2 indeed fails
        assert d1.cdf(rep.witness_t) > d2.cdf(rep.witness_t)

    def test_phissd_requires_phi(self):
        d = DiscreteDistribution.degenerate(1)
        with pytest.raises(DomainError):
            dominance(d, d, "phissd")

    def test_fsd_implies_ssd_implies_phissd_concave(self, rng):
        phi = power_utility(0.5, domain=(0.0, np.inf))  # concave, increasing
        for _ in range(100):
            base = random_distribution(rng, lo=1.0, hi=20.0)
            shift = float(rng.uniform(0.0, 0.5))
            lower = DiscreteDistribution(np.maximum(base.values - shift, 0.5), base.probs)
            assert dominance(base, lower, "fsd").relation in ("dominates", "equal")
            assert dominance(base, lower, "ssd").relation in ("dominates", "equal")
            assert dominance(base, lower, "phissd", phi=phi).relation in ("dominates", "equal")

    def test_ssd_dominance_implies_phissd_concave(self, rng):
        # mean-preserving contraction: pull one pair of support points together
        phi = power_utility(0.5, domain=(0.0, np.inf))
        for _ in range(100):
            mid = float(rng.uniform(5.0, 10.0))
            spread = float(rng.uniform(0.5, 4.0))
            risky = DiscreteDistribution([mid - spread, mid + spread], [0.5, 0.5])
            safe = DiscreteDistribution.degenerate(mid)
            assert dominance(safe, risky, "ssd").relation == "dominates"
            assert dominance(safe, risky, "phissd", phi=phi).relation == "dominates"

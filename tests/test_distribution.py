import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from rankrobust.distribution import (MERGE_TOL, SMALL_BLOCK, check_outcome_probs, exact_row_sums, exact_sum, merge_rows,
                                     sums_off_one)
from rankrobust.portfolio import _check_weight_rows
from conftest import quantile_oracle, random_distribution
from risk_oracle import quantile
from kernel_oracle import group_merge_rows
from support_oracle import loop_distribution, support_laws


class TestDiscreteDistribution:
    @pytest.mark.parametrize("mapping", [{0.0: 0.5, 1.0: 0.5, 2.0: math.nan}, {0.0: math.nan, 1.0: 1.0}])
    def test_nan_probability_refused(self, mapping):
        with pytest.raises(DomainError, match=r"^probabilities must be >= 0, got min nan$"):
            DiscreteDistribution(list(mapping), list(mapping.values()))

    def test_cdf_step_between_support(self):
        d = DiscreteDistribution([0, 100], [0.7, 0.3])
        assert d.cdf_many([50])[0] == pytest.approx(0.7)

    def test_cdf_right_continuous_at_max(self):
        d = DiscreteDistribution([0, 100], [0.7, 0.3])
        assert d.cdf_many([100, 100.1, -1]).tolist() == [1.0, 1.0, 0.0]

    def test_cdf_cumulative_sum(self):
        d = DiscreteDistribution([-50, 10, 20], [0.2, 0.5, 0.3])
        # oracle: plain cumulative sum over the sorted support
        assert d.cdf_many([10])[0] == pytest.approx(0.2 + 0.5)

    def test_quantile_examples(self):
        # risk_oracle's left-continuous quantile, which the VaR and ES tests read
        assert quantile([0.0, 100.0], [0.7, 0.3], 0.7) == 0
        assert quantile([0.0, 100.0], [0.7, 0.3], 0.71) == 100
        for lam in (0.01, 0.42, 0.99):
            assert quantile([5.0], [1.0], lam) == 5

    def test_quantile_matches_scan_oracle(self, rng):
        # risk_oracle's fsum levels against a scan of the law's own cdf_many
        for _ in range(300):
            d = random_distribution(rng)
            lam = float(rng.uniform(1e-6, 1 - 1e-6))
            assert quantile(d.values.tolist(), d.probs.tolist(), lam) == quantile_oracle(d, lam)

    def test_quantile_cdf_round_trip(self, rng):
        # delta must clear the 1e-12 level tolerance but stay below any mass
        delta = 1e-9
        for _ in range(200):
            d = random_distribution(rng)
            for x, below in zip(d.values, d.cdf_many(d.values - 1e-7)):
                assert quantile_oracle(d, below + delta) == x

    def test_merging_duplicates_keeps_cdf(self, rng):
        values = [1.0, 1.0, 2.0, 3.0, 3.0, 3.0]
        probs = [0.1, 0.2, 0.3, 0.1, 0.1, 0.2]
        merged = DiscreteDistribution(values, probs)
        assert merged.values.size == 3
        plain = DiscreteDistribution([1.0, 2.0, 3.0], [0.3, 0.3, 0.4])
        grid = np.linspace(0, 4, 41)
        np.testing.assert_allclose(merged.cdf_many(grid), plain.cdf_many(grid), rtol=0, atol=1e-15)

    def test_probability_validation(self):
        with pytest.raises(DomainError):
            DiscreteDistribution([0, 1], [0.6, 0.6])
        with pytest.raises(DomainError):
            DiscreteDistribution([0, 1], [-0.1, 1.1])


    @pytest.mark.parametrize("values", [[0.0, 1.0], [0.0, 0.0]], ids=["two points", "merged points"])
    def test_overflowing_probabilities_sum_to_inf(self, values):
        # The total of two points, or the mass of one merged point, leaves the float range.
        with pytest.raises(DomainError, match=r"^probabilities must sum to 1 within 1e-12, got inf$"):
            DiscreteDistribution(values, [1e308, 1e308])


def law_or_error(build, values, probs):
    """The bytes of (values, probs, cumulative) that build returns, or the
    class and message of the error it raises."""
    try:
        return [a.tobytes() for a in build(values, probs)]
    except (ShapeError, DomainError) as exc:
        return type(exc), str(exc)


def fields(values, probs):
    d = DiscreteDistribution(values, probs)
    return d.values, d.probs, d.cumulative


class TestSupportMerge:
    """``DiscreteDistribution`` merges its support as the per-point loop
    ``support_oracle.merge_support`` does after dropping zero masses, bit
    for bit, cumulative included, and refuses the same laws with the same
    messages."""

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(support_laws())
    @example(([0.0, 6e-13, 1.2e-12], [0.25, 0.25, 0.5]))  # a 3-point chain splits at its third point
    @example(([2.0, 2.0 + 5e-13], [0.0, 1.0]))  # a zero-mass point leads no group
    @example(([-0.0], [1.0]))
    @example(([0.0, 0.0], [1e308, 1e308]))
    @example(([1.0, 2.0], [-0.0, 0.0]))
    def test_matches_the_merge_loop(self, law):
        assert law_or_error(fields, *law) == law_or_error(loop_distribution, *law)

    @pytest.mark.parametrize("values, probs", [([], []), ([[0.0]], [[1.0]]), ([0.0, 1.0], [1.0]),
                                               ([math.nan], [1.0]), ([0.0], [math.nan])])
    def test_refusals_match_the_merge_loop(self, values, probs):
        assert law_or_error(fields, values, probs) == law_or_error(loop_distribution, values, probs)

    @pytest.mark.parametrize("values, masses, unmerged", [
        ([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]], True),
        ([[0.0, 1.0, -5.0]], [[0.5, 0.5, -0.0]], True),  # trailing zero masses may lie anywhere
        ([[0.0, math.nextafter(MERGE_TOL, 1.0)]], [[0.5, 0.5]], True),
        ([[0.0, MERGE_TOL]], [[0.5, 0.5]], False),
        ([[0.0, 1.0], [2.0, 2.0]], [[0.5, 0.5], [0.5, 0.5]], False),  # one tied row merges the block
        ([[0.0, 1.0, 1.0]], [[0.5, 0.5, 0.0]], True),  # a zero-mass point tied to the last group
    ])
    def test_blocks_without_ties_are_returned_as_they_are(self, values, masses, unmerged):
        values, masses = np.array(values), np.array(masses)
        merged = merge_rows(values, masses)
        assert (merged[0] is values and merged[1] is masses) == unmerged


@st.composite
def tied_blocks(draw):
    """(values, masses) blocks for ``merge_rows`` with many tied groups.

    Each row is a run of groups at increasing levels: groups of 3-30 equal
    masses, two-member groups, groups of three or more unequal masses,
    single points, and near-tie chains in 0.8e-12 steps, which split into
    groups by the leader rule.  Masses include 1/25, 5e-324 and 1e308.
    Rows are padded to the block's width with zero-mass points (0.0 or
    -0.0) after their points with mass, at a level of the row or a new one.
    One-row and one-column blocks are drawn too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.sampled_from([1, 1, 2, 4]))
    max_groups = draw(st.sampled_from([1, 3, 6]))
    special = [0.04, 0.1, 1.0 / 3.0, 5e-324, 1e308, 1e-17]

    def mass():
        return float(rng.choice(special)) if rng.random() < 0.5 else float(rng.uniform(1e-3, 1.0))

    rows = []
    for _ in range(n_rows):
        level, values, masses = float(rng.integers(-3, 3)), [], []
        for _ in range(int(rng.integers(1, max_groups + 1))):
            kind = rng.choice(["equal", "pair", "unequal", "single", "chain"])
            k = {"equal": int(rng.integers(3, 31)), "pair": 2, "unequal": int(rng.integers(3, 9)),
                 "single": 1, "chain": int(rng.integers(2, 8))}[kind]
            if kind == "chain":
                values += [level + 0.8e-12 * i for i in range(k)]
                masses += [mass()] * k if rng.random() < 0.5 else [mass() for _ in range(k)]
            else:
                values += [level] * k
                group = [mass()] * k if kind == "equal" else [mass() for _ in range(k)]
                if kind == "unequal" and len(set(group)) == 1:
                    group[-1] = math.nextafter(group[-1], 2.0)
                masses += group
            level += float(rng.choice([0.5, 1.0, 100.0]))
        rows.append((values, masses))
    width = max(len(v) for v, _ in rows) + (int(rng.integers(0, 3)) if draw(st.booleans()) else 0)
    for values, masses in rows:
        while len(values) < width:
            values.append(float(rng.choice([values[-1], values[0], level, -9.0])))
            masses.append(float(rng.choice([0.0, -0.0])))
    return np.array([v for v, _ in rows]), np.array([m for _, m in rows])


def sorted_block(v):
    """The (payoffs, probabilities) block ``inner_rdu`` hands to ``merge_rows``."""
    order = np.argsort(np.where(v.outcome_probs > 0.0, v.payoffs, np.inf), axis=1, kind="stable")
    rows = np.arange(order.shape[0])[:, None]
    return v.payoffs[rows, order], v.outcome_probs[rows, order]


class TestTiedGroupSums:
    """``merge_rows`` equals its former per-group ``exact_sum`` form,
    ``kernel_oracle.group_merge_rows``, bit for bit on tie-heavy blocks, and
    returns its inputs themselves where that form did."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(tied_blocks())
    @example(sorted_block(ellsberg_variables()["urn_a"]))
    @example(sorted_block(ellsberg_variables()["urn_c"]))
    @example((np.zeros((1, 6)), np.full((1, 6), 0.04)))  # a naive sum reads 0.24000000000000002
    @example((np.zeros((1, 3)), np.full((1, 3), 1e308)))  # inf, with no RuntimeWarning
    @example((np.ones((2, 7)), np.full((2, 7), 5e-324)))
    @example((np.array([[0.0, 0.0, 0.0, 1.0]]), np.array([[0.5, 0.25, 0.25, -0.0]])))
    @example((np.array([[2.0], [-0.0]]), np.array([[1.0], [0.5]])))
    def test_matches_the_group_sum_loop(self, block):
        values, masses = block
        got, want = merge_rows(values, masses), group_merge_rows(values, masses)
        assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]
        assert (got[0] is values, got[1] is masses) == (want[0] is values, want[1] is masses)


class TestTwoStageVariable:
    def test_marginal_direct_read(self):
        v = TwoStageVariable(["w"], [[0.3, 0.7]], [[100.0, 0.0]])
        m = v.marginal("w")
        assert list(m.values) == [0.0, 100.0]
        assert list(m.probs) == [0.7, 0.3]

    def test_marginal_merges_duplicates(self):
        v = TwoStageVariable(["w"], [[0.5, 0.5]], [[1.0, 1.0]])
        m = v.marginal("w")
        assert m.values.size == 1
        assert m.probs[0] == 1.0

    def test_ellsberg_marginal(self):
        bets = ellsberg_variables()
        m = bets["urn_a"].marginal("rA10_rC5")
        assert list(m.values) == [0.0, 100.0]
        assert m.probs[1] == pytest.approx(10 / 25, abs=1e-15)
        assert m.probs[0] == pytest.approx(0.6, abs=1e-15)

    def test_unknown_state(self):
        v = TwoStageVariable(["w", "3"], [[1.0], [1.0]], [[5.0], [6.0]])
        with pytest.raises(KeyError) as err:
            v.marginal("nope")
        assert err.value.args == ("unknown state 'nope'; known states: ('w', '3')",)
        assert v.marginal(3).values.tolist() == [6.0]  # looked up by its text

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


def fsum_total(row):
    """The per-row oracle: math.fsum, and where fsum raises, the sum exact
    arithmetic gives (nan for inf - inf, +-inf beyond the float range)."""
    try:
        return math.fsum(row)
    except ValueError:
        return math.nan
    except OverflowError:
        if any(map(math.isnan, row)) or (math.inf in row and -math.inf in row):
            return math.nan
        if math.inf in row or -math.inf in row:
            return math.inf if math.inf in row else -math.inf
        exact = sum(map(Fraction, row))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def loop_probs_message(state_ids, probs):
    """check_outcome_probs's message as the per-row fsum loop gave it."""
    for w, row in enumerate(probs.tolist()):
        for s, p in enumerate(row):
            if p < 0.0:
                return f"outcome probability {p!r} in state {state_ids[w]!r} (outcome {s}) is negative"
    for sid, row in zip(state_ids, probs.tolist()):
        total = fsum_total(row)
        if not abs(total - 1.0) <= 1e-12:
            return f"outcome probabilities in state {sid!r} sum to {total!r}, not 1"
    return None


def loop_weights_message(W):
    """The weights rule as the per-row fsum loop: sum first, then signs."""
    for row in W.tolist():
        total = fsum_total(row)
        if not abs(total - 1.0) <= 1e-12:
            return f"weights must sum to 1 within 1e-12, got {total!r}"
        if not all(x >= 0.0 for x in row):
            return "long-only weights must be >= 0"
    return None


def message_of(check, *args):
    try:
        check(*args)
    except DomainError as exc:
        return str(exc)
    return None


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


def edge_row(rng, width, target):
    """A random non-negative row whose sum lies within an ulp or two of target."""
    if width == 0:
        return []
    head = list(rng.random(width - 1) * (2.0 / width))
    last = float(Fraction(target) - sum(map(Fraction, head)))
    return head + [last]


def family_row(rng, family, width):
    """One row of the named family, ``width`` entries long."""
    if family == "edge":
        target = nudged(float(rng.choice([1.0 + 1e-12, 1.0 - 1e-12, 1.0])), int(rng.integers(-3, 4)))
        row = edge_row(rng, width, target)
        if row:
            k = int(rng.integers(width))
            row[k] = nudged(row[k], int(rng.integers(-2, 3)))
        return row
    if family == "tiny":
        # Entries below an ulp of 1, which a left-to-right np.sum swallows or rounds up.
        if width < 2:
            return [nudged(1.0 + 1e-12, int(rng.integers(-2, 3)))][:width]
        tiny = float(rng.uniform(0.05, 1.0)) * 2.0**-52
        head = 0.5 + int(rng.integers(4400, 4510)) * 2.0**-52
        return [head, 0.5] + [tiny] * (width - 2)
    if family == "subnormal":
        row = edge_row(rng, width, nudged(1.0, int(rng.integers(-3, 4))))
        for k in rng.integers(0, max(width, 1), size=min(width, 3)):
            row[int(k)] = float(rng.integers(1, 1 << 20)) * 5e-324
        return row
    if family == "nonfinite":
        row = edge_row(rng, width, 1.0)
        if row:
            row[int(rng.integers(width))] = float(rng.choice([math.nan, math.inf, -math.inf]))
        return row
    if family == "overflow":
        big = [1e308, 1.5e308, -1e308, -1.7e308, float(np.finfo(float).max)]
        return [float(rng.choice(big)) if rng.random() < 0.6 else float(rng.random()) for _ in range(width)]
    if family == "cancelling":
        # Signed entries whose exact sum is near 1, for the weights rule.
        row = edge_row(rng, width, nudged(1.0, int(rng.integers(-2, 3))))
        if width >= 2:
            spike = float(rng.choice([1e3, 1e16, 1e300]))
            row[0] += spike
            row[-1] -= spike
        return row
    return edge_row(rng, width, 1.0)  # plain


FAMILIES = ("plain", "edge", "tiny", "subnormal", "nonfinite", "overflow", "cancelling")


def family_block(seed, width, n_rows):
    rng = np.random.default_rng(seed)
    return np.array([family_row(rng, str(rng.choice(FAMILIES)), width) for _ in range(n_rows)],
                    dtype=float).reshape(n_rows, width)


class TestCertifiedRowSums:
    """The bound-certified row check decides every row, and words every
    message, as the per-row math.fsum loop it replaced."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([0, 1, 2, 3, 5, 17, 65, 2000]),
           n_rows=st.integers(1, 6))
    def test_every_row_verdict_and_message_follow_the_fsum_loop(self, seed, width, n_rows):
        rows = family_block(seed, width, n_rows)
        want = [not abs(fsum_total(row) - 1.0) <= 1e-12 for row in rows.tolist()]
        assert sums_off_one(rows, 1e-12).tolist() == want
        assert [repr(exact_sum(row)) for row in rows.tolist()] == [repr(fsum_total(row)) for row in rows.tolist()]
        ids = [f"w{i}" for i in range(n_rows)]
        assert message_of(check_outcome_probs, ids, rows) == loop_probs_message(ids, rows)
        assert message_of(_check_weight_rows, rows) == loop_weights_message(rows)

    @pytest.mark.parametrize("width", [0, 1, 2000])
    def test_widths(self, width):
        rows = np.array([edge_row(np.random.default_rng(width), width, 1.0), [1.0 / max(width, 1)] * width])
        want = [not abs(fsum_total(row) - 1.0) <= 1e-12 for row in rows.tolist()]
        assert sums_off_one(rows, 1e-12).tolist() == want == [width == 0] * 2
        assert message_of(check_outcome_probs, ["a", "b"], rows) == loop_probs_message(["a", "b"], rows)

    def test_edge_rows_in_a_block_beyond_the_small_block_size(self):
        edge = [row_summing_to(t) for t in (nudged(TestRowCheck.HIGH, -1), TestRowCheck.HIGH,
                                             TestRowCheck.LOW, nudged(TestRowCheck.LOW, -1))]
        swallowed = [0.5 + 4503 * ULP_ABOVE_ONE, 0.5] + [0.3 * ULP_ABOVE_ONE] * 70
        rounded_up = [1.0 + 4502 * ULP_ABOVE_ONE] + [0.51 * ULP_ABOVE_ONE] * 2
        width = len(swallowed)
        rows = np.array([row + [0.0] * (width - len(row)) for row in edge + [swallowed, rounded_up]])
        assert rows.size > SMALL_BLOCK
        want = [not abs(fsum_total(row) - 1.0) <= 1e-12 for row in rows.tolist()]
        assert want == [False, True, False, True, True, False]
        assert sums_off_one(rows, 1e-12).tolist() == want
        ids = [f"w{i}" for i in range(len(rows))]
        assert message_of(check_outcome_probs, ids, rows) == loop_probs_message(ids, rows)

    def test_the_first_failing_row_is_reported_and_sums_precede_signs(self):
        W = np.array([[0.5, 0.5], [1.5, -0.5], [0.7, -0.2], [0.5, 0.49]])
        assert message_of(_check_weight_rows, W) == "long-only weights must be >= 0"
        assert message_of(_check_weight_rows, W[2:]) == "weights must sum to 1 within 1e-12, got 0.49999999999999994"
        probs = np.array([[0.5, 0.5], [0.5, 0.49], [0.6, 0.6]])
        assert message_of(check_outcome_probs, ["a", "b", "c"], probs) == \
            "outcome probabilities in state 'b' sum to 0.99, not 1"

    @pytest.mark.parametrize("row, total", [
        ([1e308, 1e308], math.inf),
        ([-1e308, -1e308], -math.inf),
        ([1e308, 1e308, -1e308, -1e308, 1.0], 1.0),
        ([math.inf, 1e308, 1e308], math.inf),
        ([math.nan, 1e308, 1e308], math.nan),
        ([math.inf, -math.inf], math.nan),
    ])
    def test_sums_fsum_cannot_give(self, row, total):
        assert repr(exact_sum(row)) == repr(total)


#: Finite floats (subnormals and both zeros among them), the float range's
#: edges, whose pairs overflow, and inf, -inf and nan.
NARROW_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]),
)


class TestExactRowSums:
    """``exact_row_sums`` gives every row's ``exact_sum``, bit for bit."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([0, 1, 2, 3, 5, 17, 65]),
           n_rows=st.integers(0, 6), twist=st.sampled_from(["none", "negative zeros", "inf - inf"]))
    def test_each_row_is_its_exact_sum(self, seed, width, n_rows, twist):
        rows = family_block(seed, width, n_rows)
        if twist == "negative zeros":
            rows = np.where(np.random.default_rng(seed).random(rows.shape) < 0.5, -0.0, rows)
        elif twist == "inf - inf" and width >= 2:
            rows[:, :2] = [math.inf, -math.inf]
        assert [repr(x) for x in exact_row_sums(rows).tolist()] == [repr(exact_sum(row)) for row in rows.tolist()]

    @pytest.mark.filterwarnings("error")
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(width=st.sampled_from([0, 1, 2]), pairs=st.lists(st.tuples(NARROW_ENTRIES, NARROW_ENTRIES), max_size=8))
    def test_narrow_rows_bit_for_bit(self, width, pairs):
        """Rows of at most two entries skip fsum, yet each sum has
        ``exact_sum``'s bits, the sign of zero included, and no warning is
        raised.  A nan is compared as a nan: for inf - inf the processor
        gives its default nan, whose sign bit may be set, where exact_sum
        gives math.nan, and nothing reads the sign of a nan."""
        rows = np.array(pairs, dtype=float).reshape(len(pairs), 2)[:, :width]

        def bits(x):
            return "nan" if math.isnan(x) else struct.pack("<d", x)

        got = exact_row_sums(rows)
        assert got.dtype == float and got.shape == (len(pairs),)
        assert list(map(bits, got.tolist())) == [bits(exact_sum(row)) for row in rows.tolist()]

    @pytest.mark.parametrize("rows, want", [
        ([[math.inf, -math.inf], [0.5, 0.25]], [math.nan, 0.75]),
        ([[1e308, 1e308], [-1e308, -1e308]], [math.inf, -math.inf]),
        ([[1e308, 1e308, -1e308, -1e308, 1.0]], [1.0]),
        ([[-0.0], [-0.0]], [math.fsum([-0.0])] * 2),
        ([[5e-324, 5e-324, -5e-324]], [5e-324]),
        ([[0.1]], [0.1]),
        (np.zeros((3, 0)), [0.0, 0.0, 0.0]),
        (np.zeros((0, 4)), []),
    ], ids=["inf - inf", "overflow", "cancelling overflow", "negative zero", "subnormals", "width 1", "width 0",
            "no rows"])
    def test_edge_rows(self, rows, want):
        assert [repr(x) for x in exact_row_sums(np.array(rows, dtype=float)).tolist()] == [repr(x) for x in want]


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
        d1 = DiscreteDistribution([0, 10], [0.5, 0.5])
        d2 = DiscreteDistribution([0, 10], [0.6, 0.4])
        assert dominance(d1, d2, "fsd").relation == "dominates"
        assert dominance(d2, d1, "fsd").relation == "dominated"

    def test_ssd_mean_preserving_spread(self):
        # integrated step cdfs cross nowhere: sure 5 beats the fair 0/10 bet
        d1 = DiscreteDistribution([5], [1.0])
        d2 = DiscreteDistribution([0, 10], [0.5, 0.5])
        rep = dominance(d1, d2, "ssd")
        assert rep.relation == "dominates"
        assert dominance(d1, d2, "fsd").relation == "incomparable"

    def test_self_equal_all_orders(self):
        d = DiscreteDistribution([-1, 0, 3], [0.25, 0.5, 0.25])
        for order in ("fsd", "ssd"):
            assert dominance(d, d, order).relation == "equal"
        assert dominance(d, d, "phissd", phi=power_utility(3, domain=(-np.inf, np.inf))).relation == "equal"

    def test_incomparable_carries_witness(self):
        d1 = DiscreteDistribution([0, 10], [0.5, 0.5])
        d2 = DiscreteDistribution([-5, 4], [0.1, 0.9])
        rep = dominance(d1, d2, "fsd")
        assert rep.relation == "incomparable"
        assert rep.witness_t is not None
        # at the witness the claimed inequality F1 <= F2 indeed fails
        assert d1.cdf_many([rep.witness_t])[0] > d2.cdf_many([rep.witness_t])[0]

    def test_phissd_requires_phi(self):
        d = DiscreteDistribution([1], [1.0])
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
            safe = DiscreteDistribution([mid], [1.0])
            assert dominance(safe, risky, "ssd").relation == "dominates"
            assert dominance(safe, risky, "phissd", phi=phi).relation == "dominates"

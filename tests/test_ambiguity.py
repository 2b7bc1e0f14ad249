import itertools
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from scipy.special import logsumexp, rel_entr

from rankrobust import (
    AmbiguityIndex,
    ConfigError,
    DomainError,
    Entropic,
    Gini,
    MaxminSet,
    Prior,
    ShapeError,
    SolverError,
    SpecStringError,
    Tabulated,
    UnknownPriorError,
    ambiguity,
    c_min_exact,
    parse_penalty,
    parse_prior,
    simplex_grid,
)
from rankrobust.ambiguity import _weights_text
from rankrobust.spec import float_list, loaded_orjson
from conftest import FLOAT_EDGES, solve_one, values_of
from hull_oracle import highs_c_min_lp, lp_hull_penalty
from kernel_oracle import gini_minimizers
from lattice_oracle import UtilityGrid, c_min_bruteforce, exact_gap

UNIFORM2 = Prior.uniform(2)


def entropic_grid_oracle(theta, reference, u, resolution=200_000):
    """Direct scan of q.u + theta*KL(q||p) over the 2-state simplex."""
    q1 = np.linspace(0.0, 1.0, resolution + 1)
    q = np.stack([q1, 1.0 - q1], axis=1)
    p = reference.weights
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_terms = np.where(q > 0, q * np.log(q / p), 0.0)
    vals = q @ np.asarray(u) + theta * kl_terms.sum(axis=1)
    return float(vals.min())


class TestPrior:
    def test_validation(self):
        with pytest.raises(DomainError):
            Prior(np.array([0.5, 0.6]))
        with pytest.raises(DomainError):
            Prior(np.array([-0.1, 1.1]))
        with pytest.raises(ShapeError):
            Prior(np.array([]))

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [0.5, math.nan], [math.nan, math.nan]])
    def test_nan_weights_refused(self, weights):
        with pytest.raises(DomainError, match=r"^prior weights must be >= 0, got min nan$"):
            Prior(np.array(weights))

    def test_overflowing_sum_is_reported_as_infinite(self):
        with pytest.raises(DomainError, match=r"^prior weights must sum to 1 within 1e-12, got inf$"):
            Prior(np.array([1e308, 1e308]))
        with pytest.raises(SpecStringError, match=r"prior weights must sum to 1 within 1e-12, got inf$"):
            parse_penalty("entropic:1@calm=1e308,stormy=1e308", ["calm", "stormy"])

    def test_repr_ignores_numpy_print_options(self):
        priors = [Prior(np.array([0.3, 0.7])), Prior(np.array([1 / 3, 1 / 3, 1 / 3])), Prior.uniform(1200),
                  Prior(np.array([1e-9, 1 - 1e-9]))]
        default = [repr(p) for p in priors]
        assert default[0] == "Prior([0.3, 0.7])"
        assert default[1] == "Prior([0.333333, 0.333333, 0.333333])"
        with np.printoptions(sign="+", floatmode="fixed", legacy="1.13", precision=2, threshold=5, edgeitems=1,
                             linewidth=20, suppress=True, formatter={"float": lambda x: "F"}):
            assert [repr(p) for p in priors] == default

    def test_helpers(self):
        assert np.allclose(Prior.uniform(4).weights, 0.25)
        assert list(Prior.point_mass(3, 1).weights) == [0.0, 1.0, 0.0]


def plain_text_oracle(a):
    """The prior text written entry by entry: "%.6g" of each numpy float,
    ", " between them, and past 1,000 entries the first and last three
    around "..."."""
    entries = list(a)
    if len(entries) > 1000:
        entries = entries[:3] + [...] + entries[-3:]
    return "[" + ", ".join("..." if x is ... else "%.6g" % x for x in entries) + "]"


#: numpy print options that would change np.array2string's text at every point.
ODD_PRINT_OPTIONS = dict(sign="+", floatmode="fixed", legacy="1.13", precision=2, threshold=5, edgeitems=1,
                         linewidth=20, suppress=True, formatter={"float": lambda x: "F"})


@st.composite
def printed_arrays(draw):
    """Finite 1-d float arrays: priors, values spread over many decades,
    rounded and dyadic values (ties at the last digit), negative values and
    -0.0, large values, subnormals, and arrays past the 1,000-entry summary
    threshold."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 40, 200, 1000, 1001, 1500]))
    kind = draw(st.sampled_from(["prior", "decades", "rounded", "dyadic", "signed", "large", "subnormal"]))
    if kind == "prior":
        a = rng.dirichlet(np.full(size, draw(st.sampled_from([0.05, 1.0, 50.0]))))
    elif kind == "decades":
        a = rng.random(size) * 10.0 ** rng.integers(-12, 12, size=size if draw(st.booleans()) else 1)
    elif kind == "rounded":
        a = np.round(rng.random(size) * 10.0 ** draw(st.integers(-3, 7)), draw(st.integers(0, 10)))
    elif kind == "dyadic":
        a = rng.integers(0, 2 ** draw(st.integers(1, 12)), size) / 2.0 ** draw(st.integers(0, 30))
    elif kind == "signed":
        a = (rng.random(size) - 0.5) * 10.0 ** draw(st.integers(-6, 10))
    elif kind == "large":
        a = np.round(2.0 ** draw(st.integers(17, 27)) * (1.0 + rng.random(size)), draw(st.integers(0, 12)))
    else:
        a = rng.integers(1, 2**20, size) * 5e-324
    if draw(st.booleans()):
        a[rng.random(size) < 0.3] = draw(st.sampled_from([0.0, -0.0]))
    return a


class TestWeightsText:
    """``_weights_text``, the prior text of reports and messages: 6
    significant digits a value, no padding and no line break, the first and
    last three values past 1,000, whatever numpy's print options."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(printed_arrays())
    def test_plain_text(self, a):
        text = _weights_text(a)
        assert text == plain_text_oracle(a)
        assert "\n" not in text and "  " not in text and " ," not in text
        assert ("..." in text) == (a.size > 1000)
        assert len(text[1:-1].split(", ")) == (a.size if a.size <= 1000 else 7)
        with np.printoptions(**ODD_PRINT_OPTIONS):
            assert _weights_text(a) == text

    @pytest.mark.parametrize("values", [
        [1 / 128, 0.5],
        [0.0], [-0.0, 1.0], [1e-5, 1.0], [1e8, 1.0], [1e-100, 1e100], [5e-324, 1.0],
        [2.0**26 + 2.0**-26, 1e5], [99999999.99999999, 1e6], [0.1] * 75, [1 / 3] * 2000,
        [1 / 1024, 0.5],  # 0.0009765625 ties at the seventh significant digit
    ])
    def test_edges(self, values):
        a = np.array(values)
        assert _weights_text(a) == plain_text_oracle(a)
        with np.printoptions(**ODD_PRINT_OPTIONS):
            assert _weights_text(a) == plain_text_oracle(a)

    def test_prior_text(self):
        assert _weights_text(np.array([1 / 1024, -0.0, 5e-324])) == "[0.000976562, -0, 4.94066e-324]"
        assert _weights_text(np.array([0.20204812, 0.07665042, 0.72130146])) == "[0.202048, 0.0766504, 0.721301]"
        assert repr(Prior(np.array([1.0, 0.0]))) == "Prior([1, 0])"
        assert repr(Prior.uniform(1200)) == "Prior([" + ", ".join(["0.000833333"] * 3 + ["..."] + ["0.000833333"] * 3) + "])"
        assert repr(Prior.uniform(1000)) == "Prior([" + ", ".join(["0.001"] * 1000) + "])"


class TestPenalty:
    def test_entropic_grounded_at_reference(self):
        c = Entropic(1.0, UNIFORM2)
        assert c.penalty([0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_entropic_closed_value(self):
        c = Entropic(1.0, UNIFORM2)
        want = 0.7 * math.log(1.4) + 0.3 * math.log(0.6)
        assert c.penalty([0.7, 0.3]) == pytest.approx(want, abs=1e-12)
        assert c.penalty([0.7, 0.3]) == pytest.approx(0.0822828785, abs=1e-9)

    def test_maxmin_hull_membership(self):
        c = MaxminSet([Prior.point_mass(2, 0), Prior.point_mass(2, 1)])
        assert c.penalty([0.4, 0.6]) == 0.0
        narrow = MaxminSet([Prior(np.array([0.4, 0.6])), Prior(np.array([0.6, 0.4]))])
        assert narrow.penalty([0.5, 0.5]) == 0.0
        assert narrow.penalty([0.8, 0.2]) == math.inf

    def test_gini_quadratic_form(self, rng):
        p = Prior(np.array([0.3, 0.7]))
        c = Gini(2.0, p)
        for _ in range(50):
            q1 = float(rng.uniform(0, 1))
            q = np.array([q1, 1 - q1])
            want = 2.0 * np.sum(p.weights * (q / p.weights - 1.0) ** 2)
            assert c.penalty(q) == pytest.approx(want, abs=1e-12)

    def test_reference_must_have_full_support(self):
        with pytest.raises(DomainError):
            Entropic(1.0, Prior(np.array([1.0, 0.0])))
        with pytest.raises(DomainError):
            Gini(1.0, Prior(np.array([0.0, 1.0])))

    def test_tabulated_regrounded_and_exact_match(self):
        grid = [
            (Prior(np.array([1.0, 0.0])), 3.0),
            (Prior(np.array([0.5, 0.5])), 1.0),
            (Prior(np.array([0.0, 1.0])), 2.0),
        ]
        c = Tabulated(grid)
        assert c.penalty([0.5, 0.5]) == 0.0  # re-grounded by subtracting the min
        assert c.penalty([1.0, 0.0]) == 2.0
        with pytest.raises(UnknownPriorError):
            c.penalty([0.25, 0.75])

    def test_off_grid_message_ignores_numpy_print_options(self):
        c = Tabulated([(Prior(np.array([1.0, 0.0])), 3.0), (Prior(np.array([0.5, 0.5])), 1.0)])
        want = "prior [0.25, 0.75] is not on the tabulated grid (closest gap 0.25)"
        for options in ({}, {"sign": "+", "floatmode": "fixed", "legacy": "1.13", "precision": 3}):
            with np.printoptions(**options), pytest.raises(UnknownPriorError) as err:
                c.penalty([0.25, 0.75])
            assert str(err.value) == want

    def test_convexity_entropic_gini(self, rng):
        for c in (Entropic(0.7, UNIFORM2), Gini(1.3, Prior(np.array([0.4, 0.6])))):
            for _ in range(100):
                a1, b1 = rng.uniform(0.01, 0.99, size=2)
                qa = np.array([a1, 1 - a1])
                qb = np.array([b1, 1 - b1])
                mid = 0.5 * (qa + qb)
                assert c.penalty(mid) <= 0.5 * c.penalty(qa) + 0.5 * c.penalty(qb) + 1e-10

    def test_groundedness_on_simplex_grid(self):
        indices = [
            MaxminSet([Prior(np.array([0.2, 0.8]))]),
            Entropic(2.0, Prior(np.array([0.25, 0.75]))),
            Gini(0.5, Prior(np.array([0.6, 0.4]))),
        ]
        for c in indices:
            best = min(c.penalty(q) for q in simplex_grid(2, 100))
            assert best == pytest.approx(0.0, abs=1e-9)
        # tabulated indices are grounded over their own grid
        tab = Tabulated([(Prior(np.array([0.5, 0.5])), 0.7), (Prior(np.array([1.0, 0.0])), 1.2)])
        assert min(tab.penalty(p) for p in tab.priors) == 0.0


class TestRobustMin:
    def test_maxmin_worst_state(self):
        c = MaxminSet([Prior.point_mass(2, 0), Prior.point_mass(2, 1)])
        value, prior = solve_one(c, [2.0, 5.0])
        assert value == 2.0
        assert list(prior.weights) == [1.0, 0.0]

    def test_entropic_two_state_closed_form(self):
        c = Entropic(1.0, UNIFORM2)
        value, prior = solve_one(c, [0.0, 1.0])
        assert value == pytest.approx(-math.log(0.5 * (1 + math.exp(-1))), abs=1e-12)
        assert value == pytest.approx(0.3798854930, abs=1e-9)
        assert prior.weights[0] == pytest.approx(0.7310585786, abs=1e-9)

    def test_constants_are_fixed_points(self, rng):
        indices = [
            MaxminSet([Prior(np.array([0.1, 0.9])), Prior(np.array([0.7, 0.3]))]),
            Entropic(0.8, UNIFORM2),
            Gini(1.1, UNIFORM2),
            Tabulated([(UNIFORM2, 0.0), (Prior(np.array([0.9, 0.1])), 0.5)]),
        ]
        for c in indices:
            for _ in range(20):
                m = float(rng.uniform(-5, 5))
                value, prior = solve_one(c, [m, m])
                assert value == pytest.approx(m, abs=1e-12)
                assert c.penalty(prior) == pytest.approx(0.0, abs=1e-12)

    def test_entropic_matches_grid_scan(self, rng):
        for theta in (0.5, 1.0, 2.0):
            ref = Prior(np.array([0.35, 0.65]))
            c = Entropic(theta, ref)
            for _ in range(5):
                u = rng.uniform(0, 1, size=2)
                value, _ = solve_one(c, u)
                assert value == pytest.approx(
                    entropic_grid_oracle(theta, ref, u), abs=1e-6
                )

    def test_gini_matches_grid_scan(self, rng):
        ref = Prior(np.array([0.45, 0.55]))
        c = Gini(0.8, ref)
        q1 = np.linspace(0.0, 1.0, 200_001)
        qs = np.stack([q1, 1.0 - q1], axis=1)
        pen = 0.8 * np.sum(ref.weights * (qs / ref.weights - 1.0) ** 2, axis=1)
        for _ in range(10):
            u = rng.uniform(-1, 1, size=2)
            value, prior = solve_one(c, u)
            grid_min = float((qs @ u + pen).min())
            assert value == pytest.approx(grid_min, abs=1e-7)
            # KKT stationarity residual at the reported minimizer
            assert abs(float(prior.weights.sum()) - 1.0) <= 1e-10

    def test_translation_equivariance(self, rng):
        indices = [
            MaxminSet([Prior(np.array([0.2, 0.5, 0.3]))]),
            Entropic(1.4, Prior.uniform(3)),
            Gini(0.6, Prior.uniform(3)),
        ]
        for c in indices:
            for _ in range(50):
                u = rng.uniform(-4, 4, size=3)
                m = float(rng.uniform(-3, 3))
                v0, _ = solve_one(c, u)
                v1, _ = solve_one(c, u + m)
                assert v1 == pytest.approx(v0 + m, abs=1e-9)

    def test_concavity_in_utils(self, rng):
        indices = [
            MaxminSet([Prior.uniform(3), Prior(np.array([0.6, 0.2, 0.2]))]),
            Entropic(0.9, Prior.uniform(3)),
            Gini(1.2, Prior.uniform(3)),
        ]
        for c in indices:
            for _ in range(100):
                u1 = rng.uniform(-3, 3, size=3)
                u2 = rng.uniform(-3, 3, size=3)
                alpha = float(rng.uniform(0, 1))
                vmix, _ = solve_one(c, alpha * u1 + (1 - alpha) * u2)
                v1, _ = solve_one(c, u1)
                v2, _ = solve_one(c, u2)
                assert vmix >= alpha * v1 + (1 - alpha) * v2 - 1e-9

    def test_value_bounds(self, rng):
        indices = [
            MaxminSet([Prior(np.array([0.3, 0.7])), Prior(np.array([0.5, 0.5]))]),
            Entropic(1.0, UNIFORM2),
            Gini(1.0, UNIFORM2),
        ]
        for c in indices:
            p0 = c.zero_penalty_prior()
            for _ in range(50):
                u = rng.uniform(-5, 5, size=2)
                value, _ = solve_one(c, u)
                assert value <= float(p0.weights @ u) + 1e-12
                assert value >= float(np.min(u)) - 1e-12

    def test_minimizer_reproduces_value(self, rng):
        indices = [
            MaxminSet([Prior(np.array([0.3, 0.7])), Prior(np.array([0.9, 0.1]))]),
            Entropic(0.7, UNIFORM2),
            Gini(1.5, UNIFORM2),
        ]
        for c in indices:
            for _ in range(50):
                u = rng.uniform(-3, 3, size=2)
                value, prior = solve_one(c, u)
                assert value == pytest.approx(
                    float(prior.weights @ u) + c.penalty(prior), abs=1e-9
                )

    def test_hull_interior_never_improves_linear_objective(self, rng):
        c = MaxminSet([
            Prior(np.array([0.2, 0.3, 0.5])),
            Prior(np.array([0.6, 0.2, 0.2])),
            Prior(np.array([0.1, 0.8, 0.1])),
        ])
        for _ in range(100):
            u = rng.uniform(-4, 4, size=3)
            value, _ = solve_one(c, u)
            mix = rng.random(3) + 1e-3
            mix /= mix.sum()
            interior = Prior(mix @ np.vstack([p.weights for p in c.priors]))
            assert float(interior.weights @ u) >= value - 1e-12

    def test_robust_values_matches_scalar(self, rng):
        indices = [
            MaxminSet([Prior(np.array([0.3, 0.7])), Prior(np.array([0.9, 0.1]))]),
            Entropic(0.7, UNIFORM2),
            Gini(1.5, UNIFORM2),
            Tabulated([(UNIFORM2, 0.0), (Prior(np.array([0.2, 0.8])), 0.3)]),
        ]
        U = rng.uniform(-3, 3, size=(40, 2))
        for c in indices:
            batch = c.robust_solve(U)[0]
            for row, got in zip(U, batch):
                want, _ = solve_one(c, row)
                assert got == pytest.approx(want, abs=1e-10)


def gini_bisection_oracle(theta, p, u, steps=300):
    """Water-filling minimizer of q.u + theta*sum((q-p)^2/p) by plain bisection
    on the multiplier, one row at a time, with correctly rounded mass sums."""

    def q_at(mu):
        return [pw * max(0.0, 1.0 + (mu - uw) / (2.0 * theta)) for pw, uw in zip(p, u)]

    lo, hi = min(u) - 2.0 * theta, max(u) + 2.0 * theta
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if math.fsum(q_at(mid)) < 1.0:
            lo = mid
        else:
            hi = mid
    q = np.array(q_at(0.5 * (lo + hi)))
    return q / math.fsum(q)


class TestGiniExactSolve:
    def cases(self, rng):
        for n in (1, 2, 3, 5, 9):
            for theta in (1e-6, 0.05, 0.8, 3.0, 1e6):
                for _ in range(8):
                    raw = rng.random(n) + 0.05
                    ref = Prior(raw / raw.sum())
                    u = rng.uniform(-3, 3, size=n)
                    if n > 2 and rng.random() < 0.5:
                        u[: n // 2] = u[n - 1]  # ties
                    yield Gini(theta, ref), u

    def test_matches_bisection_oracle(self, rng):
        for c, u in self.cases(rng):
            value, prior = solve_one(c, u)
            want = gini_bisection_oracle(c.theta, c.reference.weights, u)
            assert prior.weights == pytest.approx(want, abs=1e-9)
            scale = 1.0 + float(np.max(np.abs(u)))
            assert value == pytest.approx(float(want @ u) + c.penalty(want), abs=1e-12 * scale)

    def test_kkt_conditions(self, rng):
        # Stationarity: u_w + 2 theta (q_w / p_w - 1) equals a common mu on
        # the support and is at least mu off it.
        for c, u in self.cases(rng):
            _, prior = solve_one(c, u)
            q, p = prior.weights, c.reference.weights
            assert np.all(q >= 0.0)
            assert math.fsum(q) == pytest.approx(1.0, abs=1e-12)
            grad = u + 2.0 * c.theta * (q / p - 1.0)
            active = q > 0.0
            mu = grad[active].mean()
            tol = 1e-9 * (1.0 + np.max(np.abs(u)) + 2.0 * c.theta)
            assert np.all(np.abs(grad[active] - mu) <= tol)
            assert np.all(grad[~active] >= mu - tol)

    def test_rows_solved_independently(self, rng):
        c = Gini(0.4, Prior(np.array([0.2, 0.3, 0.5])))
        U = rng.uniform(-2, 2, size=(200, 3))
        U[::7] *= 1e6  # rows on very different scales share the batch
        batch = c.robust_solve(U)[0]
        for i in range(U.shape[0]):
            assert batch[i] == c.robust_solve(U[i : i + 1])[0][0]


@st.composite
def water_fill_cases(draw):
    """A Gini penalty on 1-9 states, theta from 1e-6 to 1e6 or at a gap of
    its first row (where the active count's comparison is an equality), and
    1-6 utility rows: spread, tied (integer levels, repeated rows) or on
    mixed scales, row by row and entry by entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, rows = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        raw = rng.random(n) + 0.05
        reference = Prior(raw / raw.sum())
    else:
        reference = Prior.uniform(n)
    shape = draw(st.sampled_from(["spread", "tied", "mixed"]))
    if shape == "spread":
        U = rng.uniform(-3.0, 3.0, size=(rows, n))
    elif shape == "tied":
        U = rng.integers(-2, 3, size=(rows, n)).astype(float)
        U[rng.random(rows) < 0.3] = U[0]
    else:
        U = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-6, 7, size=(rows, 1))
        U *= 10.0 ** rng.integers(-3, 4, size=(rows, n))
    theta = 10.0 ** draw(st.floats(-6.0, 6.0))
    if draw(st.booleans()) and n > 1:
        # theta at a breakpoint: 2 theta equals one of the first row's gaps.
        p = reference.weights[np.argsort(U[0], kind="stable")]
        u = np.sort(U[0], kind="stable")
        gaps = np.cumsum(np.cumsum(p)[:-1] * np.diff(u))
        gaps = gaps[gaps > 0.0]
        if gaps.size:
            theta = float(gaps[draw(st.integers(0, gaps.size - 1))]) / 2.0
    return Gini(theta, reference), U


class TestGiniWaterFill:
    """``Gini._minimizers`` equals its former ``take_along_axis`` form,
    ``kernel_oracle.gini_minimizers``, bit for bit."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(water_fill_cases())
    @example((Gini(0.25, Prior.uniform(2)), np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])))
    @example((Gini(1e-6, Prior.uniform(1)), np.array([[3.0], [-2.0]])))
    def test_equals_the_former_kernel(self, case):
        gini, U = case
        p = gini.reference.weights
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want_q = gini_minimizers(gini, U)
            want = np.sum(want_q * U, axis=-1) + gini.theta * np.sum((want_q - p) ** 2 / p, axis=-1)
        assert gini._minimizers(U).tobytes() == want_q.tobytes()
        values, q = gini.robust_solve(U)
        assert values.tobytes() == want.tobytes() and q.tobytes() == want_q.tobytes()


class TestOverflowingTheta:
    """A finite theta whose solve overflows is refused, naming the penalty
    and theta, with no numpy warning; finite results keep their bits."""

    @pytest.mark.parametrize("index, text", [
        (Gini(1e308, UNIFORM2), "gini penalty with theta=1e+308: robust value is not finite"),
        (Entropic(1e-320, UNIFORM2), "entropic penalty with theta=1e-320: robust value is not finite"),
    ])
    def test_refused_without_a_warning(self, index, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
                index.robust_solve(np.array([[30.0, 60.0]]))

    @pytest.mark.parametrize("p, row, weights", [
        ([0.7, 0.3], [1.5, 2.5], [1.0, 0.0]),
        ([0.19, 0.57, 0.24], [1.4, 1.4, 2.4], [0.25, 0.75, 0.0]),
        ([0.33, 0.4, 0.27], [-1.6, -1.6, -0.6000000000000001], [0.33 / 0.73, 0.4 / 0.73, 0.0]),
    ])
    def test_tiny_gini_theta_keeps_the_least_utilities(self, p, row, weights):
        # At theta = 1e-300, mu's rounding clips every water-fill weight of
        # these rows to 0; the minimizer is p' on the least utilities.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, q = Gini(1e-300, Prior(np.array(p))).robust_solve(np.array([row]))
        assert values[0] == pytest.approx(min(row), abs=1e-15)
        assert q[0] == pytest.approx(weights, abs=1e-15)

    def test_tiny_gini_theta_is_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, q = Gini(1e-320, UNIFORM2).robust_solve(np.array([[30.0, 60.0]]))
        assert values.tolist() == [30.0] and q.tolist() == [[1.0, 0.0]]


class TestMaxminVertices:
    def test_same_set_as_point_masses(self, rng):
        for n in (1, 2, 5):
            fast = MaxminSet.vertices(n)
            explicit = MaxminSet([Prior.point_mass(n, i) for i in range(n)])
            assert [list(p.weights) for p in fast.priors] == [list(p.weights) for p in explicit.priors]
            assert fast.describe() == explicit.describe()
            U = rng.uniform(-3, 3, size=(20, n))
            assert list(fast.robust_solve(U)[0]) == list(explicit.robust_solve(U)[0])
            for u in U[:5]:
                v1, q1 = solve_one(fast, u)
                v2, q2 = solve_one(explicit, u)
                assert v1 == v2 and list(q1.weights) == list(q2.weights)
            assert fast.penalty(Prior.uniform(n)) == 0.0
            assert list(fast.zero_penalty_prior().weights) == list(explicit.zero_penalty_prior().weights)

    @pytest.mark.parametrize("n", [1, 2, 7, 546])
    def test_no_identity_matrix_and_same_bits_as_point_masses(self, rng, n):
        fast = MaxminSet.vertices(n)
        explicit = MaxminSet([Prior.point_mass(n, i) for i in range(n)])
        U = rng.uniform(-3, 3, size=(12, n))
        U[:4] = np.round(U[:4])  # tied minima: the first vertex wins
        U[4] = 0.0
        values, minimizers = fast.robust_solve(U)
        want_values, want_minimizers = explicit.robust_solve(U)
        assert values.tobytes() == want_values.tobytes()
        assert minimizers.tobytes() == want_minimizers.tobytes()
        for q in [Prior.point_mass(n, n - 1), Prior.uniform(n), Prior(rng.dirichlet(np.ones(n)))]:
            assert fast.penalty(q) == explicit.penalty(q) == 0.0
        with pytest.raises(ShapeError):
            fast.penalty(Prior.uniform(n + 1))
        assert fast.zero_penalty_prior().weights.tobytes() == explicit.zero_penalty_prior().weights.tobytes()
        assert fast.describe() == explicit.describe()
        assert "_matrix" not in vars(fast)  # nothing so far needed the n x n identity
        q = Prior(rng.dirichlet(np.ones(n)))
        bracket = c_min_exact(fast, q, -2.0, 3.0)
        assert repr(bracket) == repr(c_min_exact(explicit, q, -2.0, 3.0))
        # q has full support, so every point mass enters the simplex's basis:
        # n - 1 pivots from the first, under a cap that grows with n.
        assert bracket.status == "converged" and bracket.iterations >= n - 1
        assert [p.weights.tobytes() for p in fast.priors] == [p.weights.tobytes() for p in explicit.priors]

    @pytest.mark.parametrize("k, n", [(1, 1), (1, 3), (3, 2), (4, 3), (6, 5)])
    def test_zero_cost_table_is_the_maxmin_set(self, rng, k, n):
        """A maxmin set and a table of zero costs over the same priors are one
        scan: the same bits for every value, minimizer and cmin bracket (the
        sums differ only at a -0.0 dot, which maxmin keeps and a +0.0 cost
        turns into 0.0)."""
        priors = [Prior(rng.dirichlet(np.ones(n))) for _ in range(k)]
        maxmin, table = MaxminSet(priors), Tabulated([(q, 1.5) for q in priors])
        U = rng.uniform(-3, 3, size=(9, n))
        U[:3] = np.round(U[:3])  # ties between priors: the first listed wins
        for got, want in zip(maxmin.robust_solve(U), table.robust_solve(U)):
            assert got.tobytes() == want.tobytes()
        assert maxmin.zero_penalty_prior().weights.tobytes() == table.zero_penalty_prior().weights.tobytes()
        for q in [priors[-1], Prior(rng.dirichlet(np.ones(n)))]:
            assert repr(c_min_exact(maxmin, q, -2.0, 3.0)) == repr(c_min_exact(table, q, -2.0, 3.0))

    def test_parser_uses_vertices(self):
        c = parse_penalty("maxmin:vertices", ["a", "b", "c"])
        assert c.n_states == 3 and c.describe() == "maxmin over 3 priors"


@st.composite
def indices_and_blocks(draw):
    """One penalty of each kind and a utility block, optionally padded with
    seeded random rows so that the batch is large."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["maxmin", "entropic", "gini", "tabulated"]))
    weight = st.floats(0.05, 1.0)

    def prior():
        raw = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
        return Prior(raw / raw.sum())

    if kind == "maxmin":
        index = MaxminSet([prior() for _ in range(draw(st.integers(1, 6)))])
    elif kind == "tabulated":
        k = draw(st.integers(1, 6))
        index = Tabulated([(prior(), draw(st.floats(0.0, 5.0))) for _ in range(k)])
    else:
        theta = draw(st.sampled_from([0.01, 0.3, 1.0, 7.5, 1e4]))
        index = (Entropic if kind == "entropic" else Gini)(theta, prior())
    cell = st.one_of(st.floats(-50.0, 50.0), st.integers(-3, 3).map(float))
    rows = np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=1, max_size=12)))
    pad = draw(st.sampled_from([0, 7, 300]))
    if pad:
        noise = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(-10, 10, size=(pad, n))
        rows = np.vstack([noise[: pad // 2], rows, noise[pad // 2 :]])
    return index, rows


class TestRobustValuesRowIndependence:
    """A row's robust value never depends on the block it is scored in."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(indices_and_blocks())
    def test_row_equals_single_row_call(self, case):
        index, U = case
        batch = index.robust_solve(U)[0]
        for i in range(U.shape[0]):
            assert batch[i] == index.robust_solve(U[i : i + 1])[0][0]


def loop_prior_dots(U, matrix):
    """q . u summed state by state in state order: the loop the batched dots replaced."""
    out = np.zeros((U.shape[0], matrix.shape[0]))
    for j, q in enumerate(matrix):
        for w in np.flatnonzero(q):
            out[:, j] += q[w] * U[:, w]
    return out


class TestPriorDots:
    """The listed priors' dots against the state-by-state loop they replaced."""

    @staticmethod
    def random_priors(rng, k, n):
        raw = rng.random((k, n)) * (rng.random((k, n)) < 0.6)
        raw[np.arange(k), rng.integers(0, n, size=k)] += 0.5
        return raw / raw.sum(axis=1, keepdims=True)

    @staticmethod
    def check(U, matrix):
        eps = np.finfo(float).eps
        got = ambiguity._prior_dots(U, matrix)
        want = loop_prior_dots(U, matrix)
        support = (matrix != 0.0).sum(axis=1)
        assert np.all(np.abs(got - want) <= 2 * support * eps * (np.abs(U) @ matrix.T))
        # A prior's dots do not depend on the priors listed with it, and each
        # is numpy's pairwise sum of the row's products in state order.
        for j, q in enumerate(matrix):
            alone = ambiguity._prior_dots(U, q[None, :])[:, 0]
            assert alone.tobytes() == got[:, j].tobytes()
            assert (U * q).sum(axis=1).tobytes() == got[:, j].tobytes()

    def test_agree_with_the_state_loop(self, rng):
        for n in (1, 2, 5, 7, 8, 13, 40):
            matrix = self.random_priors(rng, 6, n)
            self.check(rng.uniform(-50.0, 50.0, size=(30, n)), matrix)

    @pytest.mark.parametrize("rows, n, k, step", [(3000, 50, 4, 1), (1000, 40, 9, 3)])
    def test_priors_split_across_product_blocks(self, rng, rows, n, k, step):
        # A block holds PRODUCT_BLOCK // (rows * n) priors, at least one.
        assert max(1, ambiguity.PRODUCT_BLOCK // (rows * n)) == step
        matrix = self.random_priors(rng, k, n)
        self.check(rng.uniform(-50.0, 50.0, size=(rows, n)), matrix)


THREE_STATE_INDICES = {
    "maxmin": MaxminSet([[0.2, 0.3, 0.5], [0.6, 0.4, 0.0]]),
    "vertices": MaxminSet.vertices(3),
    "entropic": Entropic(1.0, Prior.uniform(3)),
    "gini": Gini(0.7, Prior(np.array([0.2, 0.3, 0.5]))),
    "tabulated": Tabulated([(Prior.uniform(3), 0.0), ([1.0, 0.0, 0.0], 0.4)]),
}


class TestRobustSolveValidation:
    """robust_solve checks its rows once, on entry, for every kind."""

    @pytest.mark.parametrize("kind", sorted(THREE_STATE_INDICES))
    def test_a_row_of_another_width_is_a_shape_error(self, kind):
        index = THREE_STATE_INDICES[kind]
        for width in (2, 4):
            with pytest.raises(ShapeError):
                index.robust_solve(np.zeros((1, width)))
        with pytest.raises(ShapeError):
            index.robust_solve(np.zeros(3))

    @pytest.mark.parametrize("kind", sorted(THREE_STATE_INDICES))
    def test_a_non_finite_utility_is_a_domain_error(self, kind):
        index = THREE_STATE_INDICES[kind]
        for bad in (math.nan, math.inf, -math.inf):
            U = np.zeros((2, 3))
            U[1, 2] = bad
            with pytest.raises(DomainError):
                index.robust_solve(U)

    @pytest.mark.parametrize("kind", sorted(THREE_STATE_INDICES))
    def test_no_rows_give_empty_results(self, kind):
        values, minimizers = THREE_STATE_INDICES[kind].robust_solve(np.zeros((0, 3)))
        assert values.shape == (0,) and minimizers.shape == (0, 3)


class TestRecentered:
    def test_same_state_count_returns_the_index(self):
        for index in (
            MaxminSet([UNIFORM2]), Entropic(0.7, UNIFORM2), Gini(0.7, UNIFORM2), Tabulated([(UNIFORM2, 0.0)]),
        ):
            assert index.recentered(2) is index

    def test_reference_penalties_move_to_the_uniform_prior(self):
        ref = Prior(np.array([0.2, 0.3, 0.5]))
        for kind in (Entropic, Gini):
            moved = kind(0.7, ref).recentered(4)
            assert type(moved) is kind and moved.theta == 0.7
            assert list(moved.reference.weights) == [0.25] * 4

    def test_maxmin_moves_to_the_whole_simplex(self):
        moved = MaxminSet([UNIFORM2]).recentered(3)
        assert [list(q.weights) for q in moved.priors] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    def test_tabulated_cannot_move(self):
        with pytest.raises(ShapeError):
            Tabulated([(UNIFORM2, 0.0)]).recentered(3)


class TestEntropicKernel:
    """The entropic robust_solve against scipy's logsumexp closed form."""

    def test_agrees_with_logsumexp(self, rng):
        eps = np.finfo(float).eps
        for n in range(1, 7):
            for theta in (0.01, 0.3, 1.0, 7.5, 1e4):
                ref = Prior(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
                U = rng.uniform(-50.0, 50.0, size=(500, n))
                want = -theta * logsumexp(np.log(ref.weights) - U / theta, axis=-1)
                scale = theta * (1.0 + np.max(np.abs(np.log(ref.weights)))) + np.max(np.abs(U), axis=1)
                err = np.abs(Entropic(theta, ref).robust_solve(U)[0] - want)
                assert np.all(err <= 4 * eps * scale), (n, theta, float(np.max(err / scale)))

    def test_layout_does_not_change_values(self, rng):
        c = Entropic(0.9, Prior(np.array([0.2, 0.3, 0.5])))
        state_major = rng.uniform(-5.0, 5.0, size=(3, 1000))
        assert list(c.robust_solve(state_major.T)[0]) == list(c.robust_solve(np.ascontiguousarray(state_major.T))[0])

    @staticmethod
    def closed_form(theta, ref, u):
        """-theta log E'[exp(-u/theta)] and its softmax minimizer, through scipy."""
        logits = np.log(ref) - u / theta
        lse = logsumexp(logits)
        q = np.exp(logits - lse)
        return -theta * float(lse), q / math.fsum(q)

    def test_robust_min_equals_the_logsumexp_closed_form(self, rng):
        checked = 0
        for n in (1, 2, 3, 7, 64, 300, 2000):
            for theta in (1e-9, 1e-3, 0.3, 1.0, 50.0, 1e9):
                for tied in (False, True):
                    ref = np.full(n, 1.0 / n) if tied else rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
                    u = rng.uniform(-50.0, 50.0, size=n)
                    if tied:  # several states share the largest logit
                        u[rng.integers(0, n, size=max(1, n // 3))] = u.min()
                    value, prior = solve_one(Entropic(theta, Prior(ref)), u)
                    want_value, want_q = self.closed_form(theta, Prior(ref).weights, u)
                    assert value == want_value, (n, theta, tied)
                    assert prior.weights.tobytes() == want_q.tobytes(), (n, theta, tied)
                    checked += 1
        assert checked == 7 * 6 * 2

    def test_penalty_agrees_with_rel_entr(self, rng):
        eps = np.finfo(float).eps
        worst = 0.0
        for n in (1, 2, 3, 10, 200):
            for theta in (1e-3, 1.0, 1e3):
                for shape in ("dirichlet", "zeros", "near_reference"):
                    ref = Prior(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
                    if shape == "near_reference":
                        q = ref.weights * (1.0 + rng.uniform(-1e-6, 1e-6, size=n))
                    else:
                        q = rng.dirichlet(np.ones(n))
                        if shape == "zeros" and n > 1:
                            q[rng.permutation(n)[: n // 2]] = 0.0
                    q = Prior(q / math.fsum(q))
                    kl = float(np.sum(rel_entr(q.weights, ref.weights)))
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = Entropic(theta, ref).penalty(q)
                    err = abs(got - theta * kl) / (eps * theta * (1.0 + kl))
                    assert err <= 4.0, (n, theta, shape, err)
                    worst = max(worst, err)
        assert worst > 0.0  # the tolerance is exercised, not vacuous



class TestCMinBruteForce:
    def test_entropic_fenchel_recovery(self):
        c = Entropic(1.0, UNIFORM2)
        q = Prior(np.array([0.7, 0.3]))
        got = c_min_bruteforce(values_of(c), q, UtilityGrid(-5, 5, 0.01))
        assert got == pytest.approx(c.penalty(q), abs=5e-3)
        assert got <= c.penalty(q) + 1e-12

    def test_maxmin_zero_at_member(self):
        c = MaxminSet([Prior(np.array([0.25, 0.75])), Prior(np.array([0.5, 0.5]))])
        q = Prior(np.array([0.25, 0.75]))
        assert c_min_bruteforce(values_of(c), q, UtilityGrid(-2, 2, 0.5)) == 0.0

    def test_constant_lattice_contributes_zero(self):
        c = Entropic(1.0, UNIFORM2)
        got = c_min_bruteforce(values_of(c), UNIFORM2, UtilityGrid(1.5, 1.5, 1.0))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_weak_duality_and_refinement(self, rng):
        c = Entropic(0.8, Prior(np.array([0.4, 0.6])))
        for _ in range(5):
            q1 = float(rng.uniform(0.05, 0.95))
            q = Prior(np.array([q1, 1 - q1]))
            coarse = c_min_bruteforce(values_of(c), q, UtilityGrid(-4, 4, 0.5))
            fine = c_min_bruteforce(values_of(c), q, UtilityGrid(-4, 4, 0.1))
            finest = c_min_bruteforce(values_of(c), q, UtilityGrid(-4, 4, 0.02))
            assert coarse <= fine + 1e-12 <= finest + 2e-12
            assert finest <= c.penalty(q) + 1e-12

    def test_listed_maxmin_priors_read_exactly_zero(self):
        # q . u is summed in MaxminSet's own order, so no gap can round above 0.
        rng = np.random.default_rng(20)
        for _ in range(20):
            c = MaxminSet(rng.dirichlet(np.ones(3), size=3))
            for q in c.priors:
                assert c_min_bruteforce(values_of(c), q, UtilityGrid(-5, 5, 0.25)) == 0.0

    def test_chunks_cover_the_lattice_state_major(self):
        seen = []

        def eval_ce(block):
            assert block.shape[0] <= 7 and block.T.flags.c_contiguous
            seen.append(block.copy())
            return block.min(axis=1)

        grid = UtilityGrid(-1, 1, 0.5)
        c_min_bruteforce(eval_ce, Prior(np.array([0.2, 0.3, 0.5])), grid, chunk=7)
        lattice = np.array(list(itertools.product(grid.axis(), repeat=3)))
        assert np.array_equal(np.vstack(seen), lattice)

    def test_bound_is_the_best_lattice_gap(self):
        c = Gini(0.6, Prior(np.array([0.2, 0.3, 0.5])))
        q = Prior(np.array([0.5, 0.25, 0.25]))
        grid = UtilityGrid(-2, 2, 0.5)
        lattice = np.array(list(itertools.product(grid.axis(), repeat=3)))
        best = max(float(c.robust_solve(u[None, :])[0][0] - math.fsum(q.weights * u)) for u in lattice)
        assert c_min_bruteforce(values_of(c), q, grid, chunk=10) == pytest.approx(best, abs=1e-15)

    def test_empty_grid_rejected(self):
        c = Entropic(1.0, UNIFORM2)
        with pytest.raises(DomainError):
            c_min_bruteforce(values_of(c), UNIFORM2, UtilityGrid(1.0, 0.0, 0.5))
        with pytest.raises(DomainError):
            c_min_bruteforce(values_of(c), UNIFORM2, UtilityGrid(0.0, 1.0, -0.5))


EPS = np.finfo(float).eps


@st.composite
def cmin_problems(draw):
    """(index, q, low, high, step) on 2-3 states; the box is the lattice's hull."""
    kind = draw(st.sampled_from(["maxmin", "table", "entropic", "gini"]))
    n = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    low = step * draw(st.integers(-8, 0))
    high = low + step * draw(st.integers(0, 12 // n + 2))
    if kind == "maxmin":
        vertices = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 5)))
        index = MaxminSet(vertices)
        q = rng.dirichlet(np.ones(n)) if draw(st.booleans()) else rng.dirichlet(np.ones(len(vertices))) @ vertices
    elif kind == "table":
        grid = simplex_grid(n, int(rng.integers(1, 6)))
        index = Tabulated(list(zip(grid, rng.uniform(0.0, 2.0, size=len(grid)))))
        q = grid[int(rng.integers(len(grid)))]
    else:
        theta = float(rng.choice([0.05, 0.5, 1.0, 3.0, 20.0]))
        index = (Entropic if kind == "entropic" else Gini)(theta, Prior(rng.dirichlet(np.ones(n))))
        q = rng.dirichlet(np.ones(n))
        if draw(st.booleans()):
            q[int(rng.integers(n))] = 0.0
    return index, Prior(q / math.fsum(q)), low, high, step


@st.composite
def smooth_cmin_problems(draw):
    """(index, q, low, high, points): an entropic or Gini index on 2-20 states
    with theta in {1e-300, 1e-8, 1e-3, 1, 1e3, 1e8}, q with zero weights, a
    box of width 0, 1e-3, 1 or up to 10, and 8 box points (2 of them corners)."""
    kind = draw(st.sampled_from([Entropic, Gini]))
    n = draw(st.integers(2, 20))
    theta = draw(st.sampled_from([1e-300, 1e-8, 1e-3, 1.0, 1e3, 1e8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.dirichlet(np.full(n, draw(st.sampled_from([0.2, 1.0]))))
    p = np.maximum(p, 1e-12)
    q = rng.dirichlet(np.ones(n))
    zero = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.6]))
    zero[int(rng.integers(n))] = False
    q[zero] = 0.0
    low = draw(st.floats(-5.0, 0.0))
    high = low + draw(st.sampled_from([0.0, 1e-3, 1.0, float(rng.uniform(0.0, 10.0))]))
    points = rng.uniform(low, high, size=(8, n))
    points[:2] = np.where(rng.random((2, n)) < 0.5, low, high)
    return kind(theta, Prior(p / math.fsum(p))), Prior(q / math.fsum(q)), low, high, points


def kl_oracle(theta, q, p):
    return theta * math.fsum(qi * math.log(qi / pi) for qi, pi in zip(q, p) if qi > 0)


class TestExactCMin:
    """c_min_exact against the lattice, the direct penalty and closed forms."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(cmin_problems())
    def test_bracket_dominates_the_lattice_and_stays_below_the_penalty(self, problem):
        index, q, low, high, step = problem
        lower, upper, status, iterations = c_min_exact(index, q, low, high)
        lattice = c_min_bruteforce(values_of(index), q, UtilityGrid(low, high, step))
        # Each gap I(u) - q . u sums n products of size up to |c| + |u|, so it
        # rounds by a few ulps of n (|c| + radius), the lattice's own points
        # included: at a prior inside a maxmin hull the lattice can read a few
        # ulps above the true 0.  The exact solve's gap dominates the lattice's
        # within that, and its lower bound sits one such allowance below it.
        ulps = 4 * index.n_states * EPS * (1 + abs(lattice) + max(abs(low), abs(high)))
        assert lower >= lattice - 2 * ulps
        assert upper >= lower
        assert status == "converged" and iterations >= 0
        assert upper - lower <= 1e-9 * (1 + abs(lower))
        assert lower <= index.penalty(q) + ulps

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(cmin_problems())
    def test_lower_bound_never_exceeds_the_direct_penalty(self, problem):
        # The lower bound is certified: its rounding allowance covers the
        # few ulps by which the Fenchel gap it was read from can exceed c(q).
        index, q, low, high, _ = problem
        lower, upper, _, _ = c_min_exact(index, q, low, high)
        assert 0.0 <= lower <= index.penalty(q)
        assert upper >= lower

    def test_entropic_matches_theta_kl_inside_the_box(self, rng):
        for n in (2, 3, 7, 20):
            for _ in range(5):
                p, q, theta = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)), float(rng.uniform(0.2, 3.0))
                # The maximizer u_i = -theta log(q_i / p_i) + const lies inside this box.
                half = theta * float(np.ptp(np.log(q / p))) / 2 + 1.0
                want = kl_oracle(theta, q, p)
                lower, upper, status, _ = c_min_exact(Entropic(theta, Prior(p)), Prior(q), -half, half)
                assert status == "converged"
                assert abs(lower - want) <= 1e-9 * (1 + want)
                assert upper >= want

    def test_gini_matches_chi_square_inside_the_box(self, rng):
        for n in (2, 3, 7, 20):
            for _ in range(5):
                p, q, theta = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)), float(rng.uniform(0.2, 3.0))
                # The maximizer u_i = mu + 2 theta (1 - q_i / p_i) lies inside this box.
                half = theta * float(np.ptp(q / p)) + 1.0
                want = theta * math.fsum((q - p) ** 2 / p)
                lower, upper, status, _ = c_min_exact(Gini(theta, Prior(p)), Prior(q), -half, half)
                assert status == "converged"
                assert abs(lower - want) <= 1e-9 * (1 + want)
                assert upper >= want

    def test_listed_maxmin_priors_never_read_above_zero(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 6):
            index = MaxminSet(rng.dirichlet(np.ones(n), size=4))
            for q in index.priors:
                lower, upper, status, _ = c_min_exact(index, q, -5, 5)
                assert lower <= 0.0 <= upper and status == "converged"

    def test_maxmin_outside_the_hull_gets_the_box_value(self):
        index = MaxminSet([Prior(np.array([0.5, 0.5]))])
        # sup over the box of (0.5 - 0.9) u_1 + (0.5 - 0.1) u_2 is 0.4 * 2 + 0.4 * 2.
        lower, upper, status, _ = c_min_exact(index, Prior(np.array([0.9, 0.1])), -2, 2)
        assert lower == pytest.approx(1.6, abs=1e-12) and upper >= lower and status == "converged"
        assert index.penalty(Prior(np.array([0.9, 0.1]))) == math.inf

    @pytest.mark.parametrize("n", [20, 50])
    def test_brackets_close_on_many_states(self, rng, n):
        for kind in (Entropic, Gini):
            for _ in range(4):
                index = kind(float(rng.uniform(0.2, 3.0)), Prior(rng.dirichlet(np.ones(n))))
                q = Prior(rng.dirichlet(np.ones(n)))
                lower, upper, status, _ = c_min_exact(index, q, -5, 5)
                assert status == "converged", (kind, status)
                assert 0.0 <= upper - lower <= 1e-9 * (1 + abs(lower))
                assert lower <= index.penalty(q) + 1e-12
        vertices = rng.dirichlet(np.ones(n), size=30)
        for index in (MaxminSet(vertices), Tabulated(list(zip(vertices, rng.uniform(0, 1, 30))))):
            lower, upper, status, _ = c_min_exact(index, Prior(vertices[0]), -5, 5)
            assert status == "converged" and 0.0 <= upper - lower <= 1e-9 * (1 + abs(lower))

    def test_gini_states_outside_the_support_still_close(self):
        # Small theta and sparse priors leave many states outside the Gini
        # minimizer's support, where f is linear and Newton sees no curvature.
        rng = np.random.default_rng(31)
        for n in (5, 50):
            for _ in range(3):
                p, q = rng.dirichlet(np.full(n, 0.2)), rng.dirichlet(np.full(n, 0.2))
                index = Gini(0.01, Prior(p))
                lower, upper, status, _ = c_min_exact(index, Prior(q), -2.0, 2.0)
                assert status == "converged", (n, status, upper - lower)
                assert upper - lower <= 1e-9 * (1 + abs(lower))

    def test_gini_state_with_rounding_level_curvature_closes(self):
        # One reference weight is 4e-17, so its state's curvature is below
        # what lstsq keeps; it must still reach the box face its slope
        # points to, not crawl there by Frank-Wolfe steps.
        rng = np.random.default_rng(35)
        p, q = rng.dirichlet(np.full(50, 0.2)), rng.dirichlet(np.full(50, 5.0))
        index = Gini(0.05, Prior(p))
        lower, upper, status, _ = c_min_exact(index, Prior(q), -2.0, 2.0)
        assert status == "converged"
        assert 0.0 <= upper - lower <= 1e-9 * (1 + abs(lower))
        assert lower <= index.penalty(Prior(q))

    @pytest.mark.parametrize("theta, p, q", [
        (0.01, [0.95, 0.05 - 1e-6, 1e-6], [0.055, 0.002, 0.943]),
        (0.01, [7e-4, 5e-5, 1 - 7.5e-4], [0.05, 0.896, 0.054]),
        (0.2, [7e-4, 5e-5, 1 - 7.5e-4], [2e-4, 1 - 2e-4 - 8e-9, 8e-9]),
    ])
    def test_badly_scaled_entropic_boxes_still_close(self, theta, p, q):
        # Reference weights near 1e-6 and a box 40 / theta wide: the clipped
        # Newton step stops ascending after a couple of iterations, and the
        # Frank-Wolfe step has to carry the solve on.
        p, q = np.array(p) / math.fsum(p), np.array(q) / math.fsum(q)
        want = kl_oracle(theta, q, p)
        lower, upper, status, _ = c_min_exact(Entropic(theta, Prior(p)), Prior(q), -20.0, 20.0)
        assert status == "converged"
        assert abs(lower - want) <= 1e-9 * (1 + want)
        assert upper >= want

    def test_open_bracket_is_reported_and_still_valid(self, rng, monkeypatch):
        # No bracket meets a tolerance of 0 (each bound carries its rounding
        # allowance), so the status says it stayed open and the bracket is
        # still valid.
        monkeypatch.setattr(ambiguity, "CMIN_RTOL", 0.0)
        n = 50
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        half = float(np.ptp(np.log(q / p))) / 2 + 1.0
        lower, upper, status, iterations = c_min_exact(Entropic(1.0, Prior(p)), Prior(q), -half, half)
        assert status == "bracket_open" and 0 < iterations <= 64
        assert lower <= kl_oracle(1.0, q, p) <= upper

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(smooth_cmin_problems())
    def test_every_theta_closes_on_a_valid_bracket(self, problem):
        """At every theta from 1e-300 to 1e8, on 2-20 states with zero weights
        in q: the bracket closes; its lower bound is 0 or at most the exact
        gap I(u) - q . u at a box point the solver reads, and at most c(q);
        and no box point's exact gap is above it by more than twice its
        rounding allowance."""
        index, q, low, high, points = problem
        read = []
        solve = index.robust_solve
        index.robust_solve = lambda U: (read.extend(np.array(U)), solve(U))[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower, upper, status, iterations = c_min_exact(index, q, low, high)
        n = index.n_states
        allowance = 4 * n * EPS * (1 + abs(lower) + max(abs(low), abs(high)))
        assert status == "converged" and iterations <= 64
        assert 0.0 <= lower <= upper and upper - lower <= 1e-9 * (1 + abs(lower))
        assert lower <= index.penalty(q)
        # lower is 0 or is read at one of the points, less its allowance.
        assert lower <= max(0.0, *(exact_gap(index, q.weights, u) for u in read))
        for u in points:
            assert exact_gap(index, q.weights, u) <= lower + 2 * allowance

    def test_huge_entropic_theta_reads_the_reference_bound(self):
        # I(u) <= p' . u bounds c*(q) by the box's max of (p' - q) . u, here
        # 5 * (0.28 + 0.26 + 0.02) = 2.8, and at theta = 1e300 I(u) is p' . u
        # less a 1e-300-sized term: the bracket is 2.8 within rounding.
        p, q = np.array([0.57, 0.36, 0.07]), np.array([0.85, 0.1, 0.05])
        lower, upper, status, _ = c_min_exact(Entropic(1e300, Prior(p)), Prior(q), -5.0, 5.0)
        assert status == "converged"
        assert 2.8 - 1e-13 <= lower <= 2.8 <= upper <= 2.8 + 1e-13

    def test_a_contradicted_bracket_is_refused(self, monkeypatch):
        # With allowances that pull both bounds inward by 1, the lower bound
        # passes the upper one: refused, naming the kind and theta.
        monkeypatch.setattr(ambiguity, "_rounding_slack", lambda n, value, radius: -1.0)
        for index in (Entropic(0.5, Prior.uniform(3)), Gini(0.5, Prior.uniform(3))):
            with pytest.raises(SolverError, match=rf"^{index.kind} penalty with theta=0\.5: cmin lower bound "):
                c_min_exact(index, Prior(np.array([0.6, 0.3, 0.1])), -1.0, 1.0)

    @pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.5,
                                   1.7976931348623157e308, -1.7976931348623157e308])
    def test_bisection_keys_order_the_doubles(self, x):
        key = ambiguity._ordered(x)
        assert ambiguity._unordered(key) == x
        if x < 1.7976931348623157e308:
            assert ambiguity._ordered(math.nextafter(x, math.inf)) == key + 1

    def test_degenerate_box_and_bad_inputs(self):
        index = Entropic(1.0, UNIFORM2)
        lower, upper, status, _ = c_min_exact(index, Prior(np.array([0.3, 0.7])), 1.5, 1.5)
        assert lower == pytest.approx(0.0, abs=1e-15) and upper >= lower and status == "converged"
        with pytest.raises(DomainError):
            c_min_exact(index, UNIFORM2, 1.0, 0.0)
        with pytest.raises(ShapeError):
            c_min_exact(index, Prior.uniform(3), -1.0, 1.0)

        class Custom(AmbiguityIndex):
            n_states = 2

            def describe(self):
                return "custom"

        with pytest.raises(ConfigError):
            c_min_exact(Custom(), UNIFORM2, -1.0, 1.0)


CAP_SET = MaxminSet([Prior(np.array([0.2, 0.8])), Prior(np.array([0.6, 0.4]))])


class TestSolverStatus:
    """Without a pivot allowed, the simplex stops at its start, the best listed
    prior, where neither cmin's bracket nor an inside point's mixture is
    settled.  No such stop may read as a point outside the hull."""

    def test_penalty_raises_at_the_pivot_cap(self, monkeypatch):
        monkeypatch.setattr(ambiguity, "SIMPLEX_PIVOTS_PER_COLUMN", 0)
        with pytest.raises(SolverError, match=r"^maxmin hull-membership test: simplex stopped after 0 pivots$"):
            CAP_SET.penalty(Prior(np.array([0.4, 0.6])))
        # The start itself certifies this point's distance: outside, no pivot needed.
        assert CAP_SET.penalty(Prior(np.array([0.7, 0.3]))) == math.inf

    def test_point_outside_the_hull_is_infinite_without_scipy(self):
        script = (
            "import sys, numpy as np\n"
            "from rankrobust import MaxminSet, Prior\n"
            "index = MaxminSet([Prior(np.array([0.2, 0.8])), Prior(np.array([0.6, 0.4]))])\n"
            "print(index.penalty(Prior(np.array([0.7, 0.3]))), index.penalty(Prior(np.array([0.4, 0.6]))))\n"
            "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines() == ["inf 0.0", "[]"]

    def test_exact_cmin_reports_the_pivot_cap(self, monkeypatch):
        monkeypatch.setattr(ambiguity, "SIMPLEX_PIVOTS_PER_COLUMN", 0)
        q = Prior(np.array([0.4, 0.6]))
        table = Tabulated([(Prior(np.array([0.2, 0.8])), 0.0), (Prior(np.array([0.6, 0.4])), 0.0), (q, 0.5)])
        for index, want in ((CAP_SET, 0.0), (table, 0.0)):
            lower, upper, status, iterations = c_min_exact(index, q, -1.0, 1.0)
            assert (status, iterations) == ("iteration_limit", 0)
            assert lower <= want <= upper and upper - lower > 1e-3


@st.composite
def hull_problems(draw):
    """(priors, q, inside) on 1-5 states: 1 to n + 3 listed priors (so more
    than states plus one), some with zero weights, some duplicated, and q
    at a listed prior, on an edge between two, inside, or 1e-6 outside the
    hull (below its minimum of a centred linear functional c, by a step of
    1e-6 along -c in the largest coordinate)."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((k, n)) + 0.05
    if draw(st.booleans()):  # sparse priors, each keeping one positive weight
        raw *= (rng.random((k, n)) < 0.5) | (np.arange(n) == rng.integers(0, n, size=(k, 1)))
    priors = raw / raw.sum(axis=1, keepdims=True)
    if k > 1 and draw(st.booleans()):
        priors[-1] = priors[0]
    where = draw(st.sampled_from(["vertex", "edge", "interior", "outside", "outside"]))
    i, j = rng.integers(0, k, size=2)
    if where == "vertex":
        q = priors[i]
    elif where == "edge":
        t = draw(st.floats(0.01, 0.99))
        q = t * priors[i] + (1.0 - t) * priors[j]
    elif where == "interior":
        mix = rng.random(k) + 0.05
        q = (mix / mix.sum()) @ priors
    else:
        c = rng.standard_normal(n)
        c -= c.mean()
        assume(n > 1)
        q = priors[np.argmin(priors @ c)] - 1e-6 * c / np.abs(c).max()
        assume(np.all(q >= 0.0))
    return priors, q, where != "outside"


class TestHullMembership:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(hull_problems())
    def test_simplex_verdict_equals_the_lp(self, problem):
        """The simplex hull test reads 0.0 inside and inf outside, as the
        HiGHS membership LP does (``hull_oracle``)."""
        priors, q, inside = problem
        index = MaxminSet([Prior(row) for row in priors])
        got = index.penalty(Prior(q))
        assert got == lp_hull_penalty(priors, Prior(q).weights) == (0.0 if inside else math.inf)


@st.composite
def listed_lp_problems(draw):
    """(index, q, low, high) for cmin's listed-prior LP: a maxmin set (zero
    costs) or a table (costs in [0, 2], some zero) of 1-60 priors on 1-8
    states, some sparse, some duplicated; q at a listed prior, on an edge,
    inside, or a random prior or point mass (mostly outside the hull); a box
    of width 0 or an asymmetric one."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((k, n)) + 0.05
    if draw(st.booleans()):  # sparse priors, each keeping one positive weight
        raw *= (rng.random((k, n)) < 0.5) | (np.arange(n) == rng.integers(0, n, size=(k, 1)))
    priors = raw / raw.sum(axis=1, keepdims=True)
    if k > 1 and draw(st.booleans()):
        priors[k // 2 :] = priors[rng.integers(0, k // 2, size=k - k // 2)]  # duplicates of the first half
    where = draw(st.sampled_from(["vertex", "edge", "interior", "random", "point"]))
    i, j = rng.integers(0, k, size=2)
    if where == "vertex":
        q = priors[i]
    elif where == "edge":
        t = draw(st.floats(0.01, 0.99))
        q = t * priors[i] + (1.0 - t) * priors[j]
    elif where == "interior":
        q = rng.dirichlet(np.ones(k)) @ priors
    elif where == "random":
        q = rng.dirichlet(np.ones(n))
    else:
        q = np.eye(n)[i % n]
    if draw(st.booleans()):
        index = MaxminSet(priors)
    else:
        costs = rng.uniform(0.0, 2.0, size=k) * (rng.random(k) < 0.8)
        index = Tabulated(list(zip(priors, costs)))
    low = draw(st.sampled_from([-10.0, -5.0, -1.0, 0.0, 0.5, 3.0]))
    high = low + draw(st.sampled_from([0.0, 0.0, 0.25, 2.0, 7.5, 20.0]))
    return index, Prior(q / math.fsum(q)), low, high


class TestListedPriorSimplex:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(listed_lp_problems())
    def test_bracket_holds_the_highs_optimum(self, problem):
        """The simplex's bracket closes and holds HiGHS's optimum of the same
        LP (``hull_oracle.highs_c_min_lp``, whose own bracket is as tight)
        within the rounding allowance of either bracket, in fewer pivots than
        the cap."""
        index, q, low, high = problem
        k, n = index._matrix.shape
        lower, upper, status, pivots = c_min_exact(index, q, low, high)
        highs = highs_c_min_lp(index, q.weights, low, high)
        slack = 4 * (k + n) * EPS * (1.0 + max(abs(low), abs(high)) + float(index.costs.max()))
        assert highs.status == status == "converged"
        assert lower - slack <= highs.upper and highs.lower <= upper + slack
        assert 0.0 <= lower <= upper
        assert pivots < ambiguity.SIMPLEX_PIVOTS_PER_COLUMN * (k + 2 * n)


class TestSimplexGrid:
    def test_two_states(self):
        g = simplex_grid(2, 4)
        assert g.shape == (5, 2)
        assert np.allclose(g.sum(axis=1), 1.0)

    def test_three_states_count(self):
        g = simplex_grid(3, 6)
        assert g.shape == (28, 3)  # C(6+2, 2)
        assert np.allclose(g.sum(axis=1), 1.0)
        assert np.all(g >= 0)


def orjson_text(x: float) -> str:
    """x as orjson writes it (null for NaN and +-inf)."""
    return orjson.dumps(x).decode()


#: Weight texts where orjson and ``float()`` read differently or not at all,
#: with the edge doubles as repr and orjson write them.
WEIGHT_TOKENS = ["-0", "0", "1", "1_0", "+1", ".5", "1.", "nan", "NaN", "inf", "-Infinity", "1e999", "-1e999", " 0.5",
                 "0.5 ", "\t1\n", "", "x", "1e-05", "1E16", "[1]", "true", "null",
                 *map(repr, FLOAT_EDGES), *map(orjson_text, FLOAT_EDGES)]


class TestSpecParsing:
    def test_prior_forms(self):
        ids = ["a", "b", "c"]
        assert np.allclose(parse_prior("uniform", ids).weights, 1 / 3)
        named = parse_prior("b=0.25,a=0.75", ids)
        assert list(named.weights) == [0.75, 0.25, 0.0]
        bare = parse_prior("0.2,0.3,0.5", ids)
        assert list(bare.weights) == [0.2, 0.3, 0.5]
        with pytest.raises(SpecStringError):
            parse_prior("z=1.0", ids)
        with pytest.raises(SpecStringError):
            parse_prior("0.5,0.5", ids)

    # The fixture's sys.modules state is meant to hold for every example.
    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.sampled_from(WEIGHT_TOKENS) | st.floats().map(repr) | st.floats().map(orjson_text), min_size=1))
    def test_weight_lists_read_as_float_reads_each_token(self, orjson_state, tokens):
        """Both paths of ``spec.float_list``: one orjson read when every value
        it reads is a float, ``float()`` per token otherwise."""
        text = ",".join(tokens)
        try:
            want = np.array([float(x) for x in text.split(",")])
        except ValueError:
            with pytest.raises(ValueError):
                float_list(text)
            return
        got = float_list(text)
        assert set(map(type, got)) == {float} and np.array(got).tobytes() == want.tobytes()

    def test_weight_lists_take_one_orjson_read_once_loaded(self, monkeypatch):
        assert loaded_orjson() is orjson  # probed before loads is wrapped
        reads = []
        real = orjson.loads
        monkeypatch.setattr(orjson, "loads", lambda text: reads.append(text) or real(text))
        assert parse_prior("0.5,0.25,0.25", ["a", "b", "c"]).weights.tolist() == [0.5, 0.25, 0.25]
        assert reads == ["[0.5,0.25,0.25]"]
        monkeypatch.delitem(sys.modules, "orjson")
        assert parse_prior("0.5,0.5", ["a", "b"]).weights.tolist() == [0.5, 0.5] and len(reads) == 1

    def test_bare_prior_of_edge_weights(self, orjson_state):
        tokens = ["-0", "-0.0", "1e-05", "0.00001", "1e-7", "5e-324", "1e16", "1e+16"]
        with pytest.raises(SpecStringError, match="must sum to 1"):
            parse_prior(",".join(tokens), [f"w{i}" for i in range(len(tokens))])
        prior = parse_prior("0.25,-0,+0.25,.5,0", ["a", "b", "c", "d", "e"])
        assert prior.weights.tolist() == [0.25, 0.0, 0.25, 0.5, 0.0]
        assert math.copysign(1.0, prior.weights[1]) == -1.0

    @pytest.mark.parametrize("spec, reason", [
        ("a=0.5,z=0.5", "prior names unknown state 'z'"),
        ("0.5,0.5", "prior lists 2 weights for 3 states"),
    ])
    def test_unknown_state_and_weight_count_name_the_spec(self, spec, reason):
        with pytest.raises(SpecStringError) as err:
            parse_prior(spec, ["a", "b", "c"])
        assert str(err.value) == f"bad prior spec '{spec}': {reason}"

    @pytest.mark.parametrize("spec, name", [("a=0.5,a=0.25,b=0.25", "a"), ("b=0,a=0.5, b =0.5", "b")])
    def test_prior_naming_a_state_twice_is_refused(self, spec, name):
        with pytest.raises(SpecStringError, match=rf"^bad prior spec '{spec}': prior names state '{name}' twice$"):
            parse_prior(spec, ["a", "b", "c"])

    def test_penalty_forms(self, tmp_path):
        ids = ["a", "b"]
        mm = parse_penalty("maxmin:[a=1,b=0;a=0,b=1]", ids)
        assert isinstance(mm, MaxminSet) and len(mm.priors) == 2
        verts = parse_penalty("maxmin:vertices", ids)
        assert len(verts.priors) == 2
        ent = parse_penalty("entropic:1.5@uniform", ids)
        assert isinstance(ent, Entropic) and ent.theta == 1.5
        gin = parse_penalty("gini:2@a=0.3,b=0.7", ids)
        assert isinstance(gin, Gini)
        table = tmp_path / "pen.csv"
        table.write_text("a,b,penalty\n0.5,0.5,0.2\n1,0,1.0\n")
        tab = parse_penalty(f"table:{table}", ids)
        assert isinstance(tab, Tabulated)
        assert tab.penalty([0.5, 0.5]) == 0.0  # re-grounded
        with pytest.raises(SpecStringError):
            parse_penalty("entropic:-1@uniform", ids)
        with pytest.raises(SpecStringError):
            parse_penalty("whatever:1", ids)

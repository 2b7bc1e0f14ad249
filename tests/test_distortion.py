import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rankrobust import (
    DiscreteDistribution,
    Distortion,
    DomainError,
    SpecStringError,
    choquet,
    dominance,
    dual_power,
    es_tail,
    identity,
    parse_distortion,
    piecewise_linear,
    power,
    prelec,
    tversky_kahneman,
    var_step,
)
from conftest import random_distribution, riemann_choquet, riemann_tolerance, var_oracle
from risk_oracle import expected_shortfall, value_at_risk, weighted_var
from support_oracle import loop_choquet, support_laws

TOL = 1e-9


class TestApply:
    def test_identity(self):
        assert identity()(0.3) == pytest.approx(0.3)

    def test_es_tail_kink(self):
        # (1/lambda) * max(p - (1 - lambda), 0) at lambda=0.5, p=0.75
        assert es_tail(0.5)(0.75) == pytest.approx(0.5)
        assert es_tail(0.5)(0.25) == 0.0
        assert es_tail(1.0)(0.4) == pytest.approx(0.4)  # full-mean case is the identity

    def test_power_square(self):
        assert power(2)(0.3) == pytest.approx(0.09)

    def test_var_step_right_closed(self):
        psi = var_step(0.05)
        assert psi(1 - 0.05) == 1.0
        assert psi(0.94999) == 0.0
        assert psi(1.0) == 1.0
        assert psi(0.0) == 0.0

    def test_prelec_identity_special_case(self):
        psi = prelec(1, 1)
        grid = np.linspace(0, 1, 101)
        assert np.allclose(psi(grid), grid, atol=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            identity()(1.2)
        with pytest.raises(DomainError):
            identity()(-0.1)
        with pytest.raises(DomainError, match=r"^distortion argument must lie in \[0, 1\], got 1\.2$"):
            power(2)(np.array([0.5, 1.2, -0.1]))

    def test_construction_validation(self):
        with pytest.raises(DomainError):
            power(0.0)
        with pytest.raises(DomainError):
            tversky_kahneman(0.2)  # non-monotone regime is rejected outright
        with pytest.raises(DomainError):
            es_tail(0.0)
        with pytest.raises(DomainError):
            var_step(1.0)
        with pytest.raises(DomainError):
            piecewise_linear([(0, 0), (0.5, 0.9), (1, 0.8)])
        with pytest.raises(DomainError):
            piecewise_linear([(0.2, 0), (1, 1)])

    def test_parse_round_trip(self):
        for spec in ("identity", "power:2", "prelec:0.5,1", "tk:0.61", "es:0.05",
                     "var:0.1", "dualpower:2", "pwl:0,0;0.5,0.2;1,1"):
            psi = parse_distortion(spec)
            assert parse_distortion(psi.describe()).describe() == psi.describe()
        with pytest.raises(SpecStringError):
            parse_distortion("mystery:1")
        with pytest.raises(SpecStringError):
            parse_distortion("power:-1")

    def test_kind_and_params_are_the_spec(self):
        cases = [(identity(), "identity", ()), (power(2), "power", (2.0,)),
                 (prelec(0.5, 1), "prelec", (0.5, 1.0)), (tversky_kahneman(0.61), "tk", (0.61,)),
                 (es_tail(0.05), "es", (0.05,)), (var_step(0.1), "var", (0.1,)),
                 (dual_power(2), "dualpower", (2.0,)),
                 (piecewise_linear([(1, 1), (0, 0), (0.5, 0.2)]), "pwl", ((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))]
        for psi, kind, params in cases:
            assert (psi.kind, psi.params) == (kind, params)
            again = parse_distortion(psi.describe())
            assert (again.kind, again.params) == (kind, params)
            assert repr(psi) == f"Distortion({psi.describe()})"

    @pytest.mark.parametrize("spec", ["pwl:0,0;nan,0.5;1,1", "pwl:0,0;0.5,nan;1,1", "pwl:0,0;0.5,inf;1,1",
                                      "pwl:0,0;inf,0.5;1,1", "pwl:-inf,0;0.5,0.5;1,1"])
    def test_non_finite_knots_name_the_spec(self, spec):
        with pytest.raises(SpecStringError) as err:
            parse_distortion(spec)
        assert str(err.value) == f"bad distortion spec {spec!r}: pwl distortion knots must be finite"

    @pytest.mark.parametrize("spec", ["prelec:1,inf", "prelec:0.5,inf"])
    def test_infinite_parameter_refused_without_a_warning(self, spec):
        # RuntimeWarnings are errors under this suite's filter.
        with pytest.raises(SpecStringError, match="bad distortion spec " + re.escape(repr(spec))):
            parse_distortion(spec)

    @pytest.mark.parametrize("spec, message", [
        ("power:inf", "power distortion needs a finite a > 0, got inf"),
        ("dualpower:inf", "dualpower distortion needs a finite k >= 1, got inf"),
        ("prelec:inf,1", "prelec distortion needs a finite alpha > 0 and beta > 0, got inf, 1.0"),
    ])
    def test_infinite_exponent_refused_naming_the_spec(self, spec, message):
        with pytest.raises(SpecStringError) as err:
            parse_distortion(spec)
        assert str(err.value) == f"bad distortion spec {spec!r}: {message}"

    @pytest.mark.parametrize("build, arg", [(power, float("inf")), (dual_power, float("inf")),
                                            (lambda a: prelec(a, 1.0), float("inf")), (power, float("nan"))])
    def test_constructors_refuse_infinite_exponents(self, build, arg):
        with pytest.raises(DomainError, match="needs a finite"):
            build(arg)

    def test_non_finite_values_refused(self):
        with pytest.raises(DomainError, match="distortion 'odd' is not finite on"):
            Distortion("odd", lambda p: np.where(p == 0.5, np.nan, p))

    def test_endpoints_are_printed_as_plain_numbers(self):
        with pytest.raises(DomainError) as err:
            Distortion("bad", lambda p: 0.5 * p + 0.25)
        assert str(err.value) == "distortion 'bad' must satisfy psi(0)=0 and psi(1)=1, got 0.25 and 0.75"

    @pytest.mark.parametrize("spec", ["identity:1", "power:", "power:1,2", "prelec:0.5",
                                      "prelec:0.5,1,2", "es:0.1;0.2", "pwl:0,0;0.5;1,1", "pwl:0,0,0;1,1"])
    def test_wrong_count_names_the_spec(self, spec):
        with pytest.raises(SpecStringError, match="bad distortion spec " + re.escape(repr(spec))):
            parse_distortion(spec)


class TestChoquet:
    def test_two_point_square(self):
        d = DiscreteDistribution([0, 100], [0.7, 0.3])
        psi = power(2)
        assert choquet(d, psi) == pytest.approx(9.0, abs=TOL)
        assert choquet(d, psi) == pytest.approx(riemann_choquet(d, psi), abs=riemann_tolerance(d))

    def test_identity_reduces_to_mean(self):
        d = DiscreteDistribution([-50, 10, 20], [0.2, 0.5, 0.3])
        assert choquet(d, identity()) == pytest.approx(1.0, abs=TOL)

    def test_constants_are_fixed_points(self):
        d = DiscreteDistribution([5.0], [1.0])
        for psi in (identity(), power(2), es_tail(0.3), var_step(0.4), prelec(0.5, 1)):
            assert choquet(d, psi) == 5.0

    def test_matches_defining_integral(self, rng):
        psis = [identity(), power(2), power(0.5), es_tail(0.25), prelec(0.65, 1.0),
                tversky_kahneman(0.61), dual_power(3), var_step(0.3)]
        for _ in range(40):
            d = random_distribution(rng)
            psi = psis[int(rng.integers(len(psis)))]
            assert choquet(d, psi) == pytest.approx(
                riemann_choquet(d, psi), abs=riemann_tolerance(d)
            )

    def test_affine_equivariance(self, rng):
        for _ in range(200):
            d = random_distribution(rng)
            psi = power(float(rng.uniform(0.4, 3.0)))
            a = float(rng.uniform(0.1, 4.0))
            b = float(rng.uniform(-10, 10))
            scaled = DiscreteDistribution(a * d.values + b, d.probs)
            assert choquet(scaled, psi) == pytest.approx(a * choquet(d, psi) + b, abs=1e-9)

    def test_comonotone_additivity(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 8))
            probs = rng.random(n) + 0.05
            probs /= probs.sum()
            x = np.sort(rng.uniform(-10, 10, n)) + np.arange(n) * 1e-3
            y = np.sort(rng.uniform(-10, 10, n)) + np.arange(n) * 1e-3
            psi = prelec(float(rng.uniform(0.4, 2.0)), 1.0)
            dv = DiscreteDistribution(x, probs)
            du = DiscreteDistribution(y, probs)
            dsum = DiscreteDistribution(x + y, probs)
            assert choquet(dsum, psi) == pytest.approx(
                choquet(dv, psi) + choquet(du, psi), abs=1e-9
            )

    def test_identity_collapses_to_expectation(self, rng):
        for _ in range(100):
            d = random_distribution(rng)
            assert choquet(d, identity()) == pytest.approx(math.fsum(d.values * d.probs), abs=1e-12)

    def test_fsd_monotone(self, rng):
        for _ in range(200):
            d1 = random_distribution(rng)
            shift = float(rng.uniform(0, 3))
            d2 = DiscreteDistribution(d1.values - shift, d1.probs)
            psi = es_tail(float(rng.uniform(0.05, 1.0)))
            assert dominance(d1, d2, "fsd").relation in ("dominates", "equal")
            assert choquet(d1, psi) >= choquet(d2, psi) - 1e-12


class TestChoquetOracle:
    """``choquet`` equals the former survival loop (``support_oracle.loop_choquet``)
    bit for bit, except that a one-point law reads fsum of its point: 0.0 at -0.0."""

    DISTORTIONS = [identity(), power(2.0), prelec(0.65, 1.0), tversky_kahneman(0.6), es_tail(0.5), var_step(0.3),
                   dual_power(2.0), piecewise_linear([(0, 0), (0.5, 0.3), (1, 1)])]

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(support_laws(valid=True), st.sampled_from(DISTORTIONS))
    @example(([-0.0], [1.0]), power(2.0))
    @example(([0.0, 6e-13, 1.2e-12, 5.0], [0.25, 0.25, 0.25, 0.25]), var_step(0.3))
    def test_matches_the_survival_loop(self, law, psi):
        d = DiscreteDistribution(*law)
        want = loop_choquet(d, psi)
        if d.values.size == 1:
            want = math.fsum([want])
        assert repr(choquet(d, psi)) == repr(want)


class TestVaR:
    """VaR_lam(v) is -choquet(d, var_step(lam)), checked against the loss
    quantile (``risk_oracle``) and a capital scan (``conftest.var_oracle``)."""

    def test_threshold_examples(self):
        d = DiscreteDistribution([-100, 0], [0.05, 0.95])
        for lam, var in ((0.05, 0.0), (0.01, 100.0)):
            assert -choquet(d, var_step(lam)) == var == value_at_risk(d, lam)

    def test_degenerate(self):
        for c in (-3.0, 0.0, 7.5):
            d = DiscreteDistribution([c], [1.0])
            assert -choquet(d, var_step(0.3)) == -c == value_at_risk(d, 0.3)

    def test_domain(self):
        for lam in (0.0, 1.0, 2.0):
            with pytest.raises(DomainError, match=r"^var distortion needs lambda in \(0, 1\)"):
                var_step(lam)

    def test_matches_scan_oracle(self, rng):
        for _ in range(100):
            d = random_distribution(rng)
            lam = float(rng.uniform(0.01, 0.99))
            var = -choquet(d, var_step(lam))
            assert var == pytest.approx(var_oracle(d, lam), abs=1e-9)
            assert var == pytest.approx(value_at_risk(d, lam), abs=1e-9)

    def test_var_step_choquet_is_negated_var_at_exact_levels(self):
        # lam = j/n lands exactly on a survival level of the uniform law, where
        # one ulp decides whether the step is reached; both sides use 1e-12 slack.
        cases = 0
        for n in range(2, 13):
            d = DiscreteDistribution(np.arange(n, dtype=float), np.full(n, 1.0 / n))
            for j in range(1, n):
                lam = j / n
                assert choquet(d, var_step(lam)) == -value_at_risk(d, lam), (n, j)
                cases += 1
        assert cases == 66


class TestExpectedShortfall:
    """ES_lam(v) is -choquet(d, es_tail(lam)), checked against the exact sum
    over loss-quantile segments (``risk_oracle``)."""

    def test_tail_average(self):
        d = DiscreteDistribution([-100, 0], [0.05, 0.95])
        assert -choquet(d, es_tail(0.05)) == 100.0
        assert -choquet(d, es_tail(1.0)) == 5.0
        assert expected_shortfall(d, 0.05) == pytest.approx(100.0, abs=TOL)
        assert expected_shortfall(d, 1.0) == pytest.approx(5.0, abs=TOL)

    def test_degenerate(self):
        d = DiscreteDistribution([4.0], [1.0])
        for lam in (0.01, 0.5, 1.0):
            assert -choquet(d, es_tail(lam)) == -4.0
            assert expected_shortfall(d, lam) == pytest.approx(-4.0, abs=TOL)

    def test_domain(self):
        for lam in (0.0, 1.5):
            with pytest.raises(DomainError, match=r"^es distortion needs lambda in \(0, 1\]"):
                es_tail(lam)

    def test_es_is_negated_choquet_under_kink(self, rng):
        for _ in range(100):
            d = random_distribution(rng)
            lam = float(rng.uniform(0.02, 1.0))
            assert -choquet(d, es_tail(lam)) == pytest.approx(expected_shortfall(d, lam), abs=1e-9)

    def test_averages_var_curve(self, rng):
        # independent oracle: midpoint integration of the VaR staircase
        for _ in range(6):
            d = random_distribution(rng, max_points=5)
            lam = float(rng.uniform(0.1, 1.0))
            gammas = np.linspace(lam / 4000, lam - lam / 4000, 2000)
            approx = np.mean([value_at_risk(d, g) for g in gammas])
            assert -choquet(d, es_tail(lam)) == pytest.approx(approx, abs=0.1)


class TestWeightedVaR:
    """Weighted VaR under a continuous psi is choquet(d, psi), checked against
    the Stieltjes sum over loss segments (``risk_oracle``)."""

    def test_identity_gives_mean(self):
        d = DiscreteDistribution([0, 100], [0.7, 0.3])
        assert choquet(d, identity()) == pytest.approx(30.0, abs=TOL)
        assert weighted_var(d, identity()) == pytest.approx(30.0, abs=TOL)

    def test_prelec_identity(self):
        d = DiscreteDistribution([0, 100], [0.7, 0.3])
        assert choquet(d, prelec(1, 1)) == pytest.approx(30.0, abs=TOL)
        assert weighted_var(d, prelec(1, 1)) == pytest.approx(30.0, abs=TOL)

    def test_square_matches_choquet(self):
        d = DiscreteDistribution([0, 100], [0.7, 0.3])
        assert weighted_var(d, power(2)) == pytest.approx(9.0, abs=TOL)
        assert choquet(d, power(2)) == pytest.approx(9.0, abs=TOL)

    def test_equals_choquet_for_continuous_psi(self, rng):
        psis = [identity(), power(2), power(0.3), es_tail(0.4), prelec(0.5, 0.8),
                tversky_kahneman(0.7), dual_power(2.5),
                piecewise_linear([(0, 0), (0.3, 0.1), (0.8, 0.5), (1, 1)])]
        for _ in range(300):
            d = random_distribution(rng)
            psi = psis[int(rng.integers(len(psis)))]
            assert choquet(d, psi) == pytest.approx(weighted_var(d, psi), abs=1e-9)

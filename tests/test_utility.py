import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankrobust import (
    DomainError,
    ImageOverflowError,
    Interval,
    ShapeError,
    SpecStringError,
    TwoStageVariable,
    add_variables,
    affine,
    ellsberg_variables,
    exponential,
    identity_utility,
    mix_variables,
    parse_utility,
    piecewise_linear_utility,
    power_utility,
    preference_double,
    subjective_add,
    subjective_mix,
)

CUBE = power_utility(3, domain=(-math.inf, math.inf))


def random_phi(rng):
    pick = int(rng.integers(4))
    if pick == 0:
        return affine(float(rng.uniform(0.2, 3.0)), float(rng.uniform(-2, 2)))
    if pick == 1:
        return exponential(float(rng.uniform(0.05, 0.4)))
    if pick == 2:
        return exponential(-float(rng.uniform(0.05, 0.4)))
    return CUBE


def loop_contains(interval, x, tol):
    """Whole-array membership written end by end: the rules contains()
    encoded on its own before it was built on contains_mask()."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        return False
    if interval.lo == -math.inf:
        ok_lo = True
    elif interval.closed_lo:
        ok_lo = bool(np.all(arr >= interval.lo - tol))
    else:
        ok_lo = bool(np.all(arr > interval.lo))
    if interval.hi == math.inf:
        ok_hi = True
    elif interval.closed_hi:
        ok_hi = bool(np.all(arr <= interval.hi + tol))
    else:
        ok_hi = bool(np.all(arr < interval.hi))
    return ok_lo and ok_hi


@st.composite
def membership_cases(draw):
    """(interval, x, tol): open, closed and infinite ends; scalar or array x
    with NaN, +-inf and points on and just past each end."""
    end = st.one_of(st.sampled_from([-math.inf, math.inf, 0.0, 1.0]), st.floats(-5.0, 5.0))
    interval = Interval(draw(end), draw(end), draw(st.booleans()), draw(st.booleans()))
    tol = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.sampled_from([1e-12, math.inf])))
    near = [interval.lo, interval.hi, interval.lo - tol, interval.hi + tol,
            np.nextafter(interval.lo, -math.inf), np.nextafter(interval.hi, math.inf)]
    point = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf] + near), st.floats(-8.0, 8.0))
    if draw(st.booleans()):
        return interval, draw(point), tol
    return interval, np.array(draw(st.lists(point, max_size=6))), tol


class TestIntervalContains:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(membership_cases())
    def test_equals_the_end_by_end_rules(self, case):
        interval, x, tol = case
        got = interval.contains(x, tol)
        assert type(got) is bool
        assert got == loop_contains(interval, x, tol)


class TestEvalInverse:
    def test_affine(self):
        phi = affine(2, 1)
        assert phi(3) == 7
        assert phi.inverse(7) == 3

    def test_exponential_zero(self):
        assert exponential(1)(0) == 0.0

    def test_pwl_interpolates(self):
        phi = piecewise_linear_utility([(0, 0), (1, 2)])
        assert phi.inverse(1) == pytest.approx(0.5)

    def test_round_trip(self, rng):
        for _ in range(300):
            phi = random_phi(rng)
            x = float(rng.uniform(-3, 3))
            assert phi.inverse(phi(x)) == pytest.approx(x, abs=1e-10)

    def test_domain_and_image_errors(self):
        sq = power_utility(2)  # domain (0, inf)
        with pytest.raises(DomainError):
            sq(-1.0)
        with pytest.raises(DomainError):
            sq.inverse(-4.0)
        bounded = exponential(1)  # image (-inf, 1)
        with pytest.raises(DomainError):
            bounded.inverse(1.5)

    def test_domain_errors_name_the_first_offending_value(self):
        sq = power_utility(0.5)  # domain (0, inf)
        with pytest.raises(DomainError, match=r"^utility argument outside domain \(0, inf\): -1\.0$"):
            sq(np.array([[2.0, -1.0], [-3.0, 1.0]]))
        with pytest.raises(DomainError, match=r"^utility argument outside domain \(0, inf\): nan$"):
            sq(math.nan)
        with pytest.raises(DomainError, match=r"^inverse argument outside image \(-inf, 1\): 1\.5$"):
            exponential(1).inverse(np.array([0.5, 1.5, 2.0]))

    def test_construction_validation(self):
        with pytest.raises(DomainError):
            affine(0.0)
        with pytest.raises(DomainError):
            exponential(0.0)
        with pytest.raises(DomainError):
            power_utility(-1.0)
        with pytest.raises(DomainError):
            piecewise_linear_utility([(0, 0), (1, -1)])

    def test_parse_round_trip(self):
        for spec in ("identity", "affine:2", "affine:2,1", "exp:0.5", "power:2", "pwl:0,0;1,2"):
            phi = parse_utility(spec)
            assert parse_utility(phi.describe()).describe() == phi.describe()
        with pytest.raises(SpecStringError):
            parse_utility("quadratic:1")

    def test_kind_and_params_are_the_spec(self):
        cases = [(identity_utility(), "affine", (1.0, 0.0)), (affine(2), "affine", (2.0, 0.0)),
                 (exponential(0.5), "exp", (0.5,)), (power_utility(2), "power", (2.0,)),
                 (CUBE, "power", (3.0, -math.inf, math.inf)),
                 (piecewise_linear_utility([(1, 2), (0, 0)]), "pwl", ((0.0, 0.0), (1.0, 2.0)))]
        for phi, kind, params in cases:
            assert (phi.kind, phi.params) == (kind, params)
            again = parse_utility(phi.describe())
            assert (again.kind, again.params) == (kind, params)
        base = exponential(0.5)
        scaled = base.rescaled(2, 1)
        assert (scaled.kind, scaled.params) == ("rescaled", (2.0, 1.0, base))
        assert scaled.rescaled(0.5, 3).describe() == "rescaled:0.5,3(rescaled:2,1(exp:0.5))"

    def test_power_domain_is_part_of_the_spec(self):
        # the odd extension and the positive-domain utility differ in
        # (kind, params) and in spec text, and each parses back to itself
        assert power_utility(3).describe() == "power:3"
        assert CUBE.describe() == "power:3,-inf,inf"
        for phi in (CUBE, power_utility(0.5, domain=(-2.0, 5.0)), power_utility(2, domain=(0.0, 4.0))):
            again = parse_utility(phi.describe())
            assert (again.kind, again.params, again.domain) == (phi.kind, phi.params, phi.domain)
            t = np.linspace(max(phi.domain.lo, -3.0), min(phi.domain.hi, 3.0), 13)[1:-1]
            assert again(t).tolist() == phi(t).tolist()
        assert CUBE(-2.0) == -8.0
        for spec in ("power:3,1,1", "power:3,nan,1", "power:3,1,-inf"):
            with pytest.raises(SpecStringError, match="bad utility spec " + re.escape(repr(spec))):
                parse_utility(spec)

    @pytest.mark.parametrize("spec", ["exp:inf", "affine:inf", "exp:-inf"])
    def test_infinite_parameter_refused_without_a_warning(self, spec):
        # RuntimeWarnings are errors under this suite's filter, so a warning
        # from the validation grid would surface here instead of the refusal.
        with pytest.raises(SpecStringError, match="bad utility spec " + re.escape(repr(spec))):
            parse_utility(spec)

    @pytest.mark.parametrize("spec", ["identity:1", "affine:", "affine:1,2,3", "exp:1,2", "power:",
                                      "power:1,2", "power:1,2,3,4", "pwl:0,0;1", "pwl:0,0;1,2,3"])
    def test_wrong_count_names_the_spec(self, spec):
        with pytest.raises(SpecStringError, match="bad utility spec " + re.escape(repr(spec))):
            parse_utility(spec)


class TestSubjectiveMix:
    def test_affine_is_arithmetic(self):
        assert subjective_mix(0, 10, 0.5, identity_utility()) == pytest.approx(5.0)

    def test_square_root_five(self):
        sq = power_utility(2)
        assert subjective_mix(1, 3, 0.5, sq) == pytest.approx(math.sqrt(5), abs=1e-10)

    def test_idempotent(self, rng):
        for _ in range(100):
            phi = random_phi(rng)
            c = float(rng.uniform(-2, 2))
            alpha = float(rng.uniform(0, 1))
            assert subjective_mix(c, c, alpha, phi) == pytest.approx(c, abs=1e-10)

    def test_monotone_in_each_argument(self, rng):
        for _ in range(100):
            phi = random_phi(rng)
            x, y = sorted(rng.uniform(-2, 2, size=2))
            alpha = float(rng.uniform(0.05, 0.95))
            base = subjective_mix(x, y, alpha, phi)
            assert subjective_mix(x + 0.1, y, alpha, phi) >= base - 1e-12
            assert subjective_mix(x, y + 0.1, alpha, phi) >= base - 1e-12

    def test_stays_between(self, rng):
        for _ in range(100):
            phi = random_phi(rng)
            x, y = rng.uniform(-2, 2, size=2)
            alpha = float(rng.uniform(0, 1))
            m = subjective_mix(x, y, alpha, phi)
            assert min(x, y) - 1e-12 <= m <= max(x, y) + 1e-12


class TestPreferenceAverage:
    """The equal-weight subjective mix."""

    def test_affine(self):
        assert subjective_mix(0, 10, 0.5, identity_utility()) == pytest.approx(5.0)

    def test_exponential_halfway(self):
        got = subjective_mix(0, 1, 0.5, exponential(1))
        want = -math.log(1 - (1 - math.exp(-1)) / 2)  # independent closed form
        assert got == pytest.approx(want, abs=1e-10)
        assert got == pytest.approx(0.3798854930417224, abs=1e-10)

    def test_degenerate(self):
        assert subjective_mix(2.5, 2.5, 0.5, exponential(0.7)) == pytest.approx(2.5)


class TestPreferenceDouble:
    def test_identity(self):
        assert preference_double(3, affine(1, 0)) == pytest.approx(6.0)

    def test_affine_invariance_of_z(self):
        # same z no matter the positive affine normalization
        assert preference_double(3, affine(2, 5)) == pytest.approx(6.0, abs=1e-10)
        assert preference_double(3, affine(0.25, -7)) == pytest.approx(6.0, abs=1e-10)

    def test_zero_fixed_point(self, rng):
        for _ in range(50):
            phi = random_phi(rng)
            assert preference_double(0.0, phi) == pytest.approx(0.0, abs=1e-10)

    def test_overflow_reported(self):
        phi = exponential(1)  # image bounded above by 1
        with pytest.raises(ImageOverflowError):
            preference_double(1.0, phi)  # needs utility 2*(1-e^-1) > 1


class TestSubjectiveAdd:
    def test_affine_is_plus(self):
        assert subjective_add(2, 3, identity_utility()) == pytest.approx(5.0)

    def test_cube_root_two(self):
        assert subjective_add(1, 1, CUBE) == pytest.approx(2 ** (1 / 3), abs=1e-10)

    def test_zero_neutral(self, rng):
        for _ in range(100):
            phi = random_phi(rng)
            x = float(rng.uniform(-2, 2))
            assert subjective_add(x, 0.0, phi) == pytest.approx(x, abs=1e-10)

    def test_equals_double_of_half_mix_exactly(self, rng):
        for _ in range(300):
            phi = random_phi(rng)
            x, y = rng.uniform(-2, 2, size=2)
            direct = subjective_add(float(x), float(y), phi)
            composed = preference_double(subjective_mix(float(x), float(y), 0.5, phi), phi)
            assert direct == composed  # identical construction, bit for bit

    def test_commutative_associative(self, rng):
        for _ in range(150):
            phi = random_phi(rng)
            x, y, z = rng.uniform(-1.5, 1.5, size=3)
            try:
                xy = subjective_add(float(x), float(y), phi)
                yx = subjective_add(float(y), float(x), phi)
                assert xy == pytest.approx(yx, abs=1e-10)
                left = subjective_add(xy, float(z), phi)
                right = subjective_add(float(x), subjective_add(float(y), float(z), phi), phi)
                assert left == pytest.approx(right, abs=1e-9)
            except ImageOverflowError:
                continue  # bounded-image utilities may legitimately refuse

    def test_affine_invariance(self, rng):
        for _ in range(200):
            phi = random_phi(rng)
            a = float(rng.uniform(0.2, 4.0))
            b = float(rng.uniform(-3, 3))
            scaled = phi.rescaled(a, b)
            x, y = rng.uniform(-1.5, 1.5, size=2)
            alpha = float(rng.uniform(0, 1))
            assert subjective_mix(float(x), float(y), alpha, phi) == pytest.approx(
                subjective_mix(float(x), float(y), alpha, scaled), abs=1e-10
            )
            try:
                assert subjective_add(float(x), float(y), phi) == pytest.approx(
                    subjective_add(float(x), float(y), scaled), abs=1e-10
                )
            except ImageOverflowError:
                continue


class TestLiftedOperations:
    def test_constants_add(self):
        ids = ["a", "b"]
        probs = [[0.5, 0.5], [0.2, 0.8]]
        c1 = TwoStageVariable(ids, probs, np.full((2, 2), 2.0))
        c2 = TwoStageVariable(ids, probs, np.full((2, 2), 3.0))
        out = add_variables(c1, c2, identity_utility())
        assert np.allclose(out.payoffs, 5.0)

    def test_self_mix_is_identity(self, rng):
        from conftest import random_variable

        for _ in range(50):
            v = random_variable(rng)
            phi = random_phi(rng)
            out = mix_variables(v, v, float(rng.uniform(0, 1)), phi)
            assert np.allclose(out.payoffs, v.payoffs, atol=1e-10)

    def test_ellsberg_addition_structure(self):
        bets = ellsberg_variables()
        total = add_variables(bets["urn_a"], bets["urn_b"], identity_utility())
        draws = np.arange(1, 26)
        for w, sid in enumerate(total.state_ids):
            r_a = int(sid.split("_")[0][2:])
            low, high = min(r_a, 25 - r_a), max(r_a, 25 - r_a)
            expected = np.where(draws <= low, 200.0, np.where(draws <= high, 100.0, 0.0))
            assert np.array_equal(total.payoffs[w], expected)

    def test_shape_errors(self):
        a = TwoStageVariable(["w"], [[0.5, 0.5]], [[0.0, 1.0]])
        b = TwoStageVariable(["x"], [[0.5, 0.5]], [[0.0, 1.0]])
        c = TwoStageVariable(["w"], [[0.4, 0.6]], [[0.0, 1.0]])
        with pytest.raises(ShapeError):
            add_variables(a, b, identity_utility())
        with pytest.raises(ShapeError):
            add_variables(a, c, identity_utility())

    def test_overflow_location(self):
        phi = exponential(1)
        ids = ["s0", "s1"]
        probs = [[0.5, 0.5], [0.5, 0.5]]
        small = TwoStageVariable(ids, probs, np.full((2, 2), 0.1))
        big = TwoStageVariable(ids, probs, [[0.1, 0.1], [0.1, 5.0]])
        with pytest.raises(ImageOverflowError) as err:
            add_variables(big, big, phi)
        assert err.value.location == ("s1", 1)
        assert add_variables(small, small, phi) is not None

    def test_translate_matches_scalar_add(self, rng):
        from conftest import random_variable, translated

        for _ in range(50):
            v = random_variable(rng, lo=-1.5, hi=1.5)
            phi = random_phi(rng)
            m = float(rng.uniform(-0.5, 0.5))
            try:
                shifted = translated(v, m, phi)
            except ImageOverflowError:
                continue
            for w in range(v.n_states):
                for s in range(v.n_outcomes):
                    want = subjective_add(float(v.payoffs[w, s]), m, phi)
                    assert shifted.payoffs[w, s] == pytest.approx(want, abs=1e-12)


#: Utilities whose doubling leaves the image on part of [-2, 2]: open ends
#: (exp) and closed ends with slack (pwl), and some that never overflow.
LIFT_PHIS = [identity_utility(), affine(2.5, -1.0), exponential(1.0), exponential(-0.3), CUBE,
             piecewise_linear_utility([(-3.0, -2.0), (0.0, 0.0), (1.0, 3.0), (3.0, 4.0)])]


class TestLiftedEqualsScalar:
    """The lifted operations are the scalar ones entry by entry: mix_variables
    and add_variables equal subjective_mix and subjective_add bit for bit,
    and raise ImageOverflowError on the same inputs."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(LIFT_PHIS))), st.floats(0.0, 1.0))
    def test_entry_by_entry(self, seed, pick, alpha):
        rng, phi = np.random.default_rng(seed), LIFT_PHIS[pick]
        n_w, n_s = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        ids, probs = [f"w{i}" for i in range(n_w)], np.full((n_w, n_s), 1.0 / n_s)
        v, u = (TwoStageVariable(ids, probs, rng.uniform(-2.0, 2.0, (n_w, n_s))) for _ in range(2))
        pairs = list(zip(v.payoffs.ravel().tolist(), u.payoffs.ravel().tolist()))
        mixed = np.array([subjective_mix(x, y, alpha, phi) for x, y in pairs])
        assert mix_variables(v, u, alpha, phi).payoffs.ravel().tobytes() == mixed.tobytes()
        try:
            added = np.array([subjective_add(x, y, phi) for x, y in pairs]).tobytes()
        except ImageOverflowError:
            added = ImageOverflowError
        try:
            lifted = add_variables(v, u, phi).payoffs.ravel().tobytes()
        except ImageOverflowError:
            lifted = ImageOverflowError
        assert lifted == added

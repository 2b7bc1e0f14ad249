"""Strictly increasing utility maps and the utility-scale mixture algebra.

The mixture operations combine *utility profiles*: a mix of x and y is the
payoff whose utility is the convex combination of the utilities of x and y,
and the addition x (+) y is the payoff whose shifted utility is the sum of
shifted utilities (shift = phi - phi(0), the unique affine-invariant
normalization).  Addition is built literally as doubling of the half-mix,
so the defining identity holds bit-for-bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distribution import TwoStageVariable, same_space
from .errors import DomainError, ImageOverflowError
from .spec import parse_spec, spec_text

_INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A real interval with per-end closedness flags."""

    lo: float
    hi: float
    closed_lo: bool = False
    closed_hi: bool = False

    def contains(self, x, tol: float = 0.0) -> bool:
        """Whole-array membership; the tolerance relaxes only closed ends.

        Open ends stay strict: values on an open boundary are outside by
        definition and must not be absorbed by float slack.
        """
        return bool(np.all(self.contains_mask(x, tol)))

    def contains_mask(self, x, tol: float = 0.0) -> np.ndarray:
        """Element-wise membership: finite entries within the ends, each end
        strict if open and relaxed by tol if closed."""
        arr = np.asarray(x, dtype=float)
        ok = np.isfinite(arr)
        if self.lo != -_INF:
            ok &= (arr >= self.lo - tol) if self.closed_lo else (arr > self.lo)
        if self.hi != _INF:
            ok &= (arr <= self.hi + tol) if self.closed_hi else (arr < self.hi)
        return ok

    def slack_mask(self, arr: np.ndarray) -> np.ndarray:
        """``contains_mask`` with the slack of every utility check, closed ends
        relaxed by 1e-12 * (1 + max |arr|); on the whole line just ``isfinite``."""
        if self.lo == -_INF and self.hi == _INF:
            return np.isfinite(arr)
        return self.contains_mask(arr, 1e-12 * (1.0 + np.max(np.abs(arr), initial=0.0)))

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)

    def __repr__(self):
        left = "[" if self.closed_lo else "("
        right = "]" if self.closed_hi else ")"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


_REAL_LINE = Interval(-_INF, _INF)

_CHECK_POINTS = 257


class UtilityFn:
    """A strictly increasing, continuous utility with tracked image interval.

    ``kind`` is the spec head and ``params`` the spec's numbers in order
    (for ``pwl`` the sorted knots; for ``rescaled`` the slope, the
    intercept and the base utility).

    Evaluation and inversion are closed form for every built-in kind and
    round-trip to better than 1e-10.  Both accept scalars or arrays and use
    the same numpy kernels, so lifted (matrix) operations reproduce scalar
    results exactly.
    """

    __slots__ = ("kind", "params", "domain", "image", "_fwd", "_inv")

    def __init__(self, kind, fwd, inv, domain: Interval, image: Interval, params=()):
        self.kind = kind
        self.params = tuple(params)
        self.domain = domain
        self.image = image
        self._fwd = fwd
        self._inv = inv
        self._validate_monotone()

    def _validate_monotone(self):
        lo = self.domain.lo if math.isfinite(self.domain.lo) else -10.0
        hi = self.domain.hi if math.isfinite(self.domain.hi) else 10.0
        if not lo < hi:
            raise DomainError(f"empty domain {self.domain}")
        pad = 1e-9 * (1.0 + abs(lo) + abs(hi))
        grid = np.linspace(lo + (0 if self.domain.closed_lo else pad), hi - (0 if self.domain.closed_hi else pad), _CHECK_POINTS)
        with np.errstate(all="ignore"):  # a bad parameter shows as a non-finite value
            vals = np.asarray(self._fwd(grid), dtype=float)
        if not np.all(np.isfinite(vals)) or np.any(np.diff(vals) <= 0.0):
            raise DomainError(f"utility {self.kind!r} is not strictly increasing on {self.domain}")

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        inside = self.domain.slack_mask(arr)
        if not inside.all():
            raise DomainError(f"utility argument outside domain {self.domain}: {float(arr[~inside].flat[0])!r}")
        out = self._fwd(arr)
        return float(out) if np.ndim(t) == 0 else np.asarray(out, dtype=float)

    def inverse(self, y):
        arr = np.asarray(y, dtype=float)
        inside = self.image.slack_mask(arr)
        if not inside.all():
            raise DomainError(f"inverse argument outside image {self.image}: {float(arr[~inside].flat[0])!r}")
        out = self._inv(arr)
        return float(out) if np.ndim(y) == 0 else np.asarray(out, dtype=float)

    def rescaled(self, a: float, b: float) -> "UtilityFn":
        """The positive affine transform a*phi + b (represents the same preferences)."""
        if not a > 0:
            raise DomainError(f"rescaling slope must be positive, got {a}")
        lo, hi = a * self.image.lo + b, a * self.image.hi + b
        image = Interval(lo, hi, self.image.closed_lo, self.image.closed_hi)
        base_fwd, base_inv = self._fwd, self._inv
        return UtilityFn(
            "rescaled",
            lambda t: a * base_fwd(t) + b,
            lambda y: base_inv((np.asarray(y, dtype=float) - b) / a),
            self.domain,
            image,
            (float(a), float(b), self),
        )

    def describe(self) -> str:
        """Canonical spec string; a rescaled utility reads `rescaled:a,b(base)`."""
        if self.kind == "rescaled":
            a, b, base = self.params
            return f"{spec_text(self.kind, (a, b))}({base.describe()})"
        return spec_text(self.kind, self.params)

    def __repr__(self):
        return f"UtilityFn({self.describe()}, domain={self.domain}, image={self.image})"


def affine(a: float, b: float = 0.0) -> UtilityFn:
    """phi(t) = a*t + b with a > 0."""
    if not a > 0:
        raise DomainError(f"affine utility needs slope a > 0, got {a}")
    return UtilityFn(
        "affine",
        lambda t: a * np.asarray(t, dtype=float) + b,
        lambda y: (np.asarray(y, dtype=float) - b) / a,
        _REAL_LINE,
        _REAL_LINE,
        (float(a), float(b)),
    )


@functools.cache
def identity_utility() -> UtilityFn:
    """phi(t) = t, built once: a utility is never changed once built."""
    return affine(1.0, 0.0)


def exponential(a: float) -> UtilityFn:
    """phi(t) = (1 - exp(-a*t)) / a, increasing for any a != 0, phi(0) = 0.

    For a > 0 the image is bounded above by 1/a, so utility-scale addition
    can overflow; that is surfaced as ImageOverflowError downstream.
    """
    if a == 0:
        raise DomainError("exponential utility needs a != 0 (use affine for the linear case)")
    if a > 0:
        image = Interval(-_INF, 1.0 / a)
    else:
        image = Interval(1.0 / a, _INF)
    return UtilityFn(
        "exp",
        lambda t: -np.expm1(-a * np.asarray(t, dtype=float)) / a,
        lambda y: -np.log1p(-a * np.asarray(y, dtype=float)) / a,
        _REAL_LINE,
        image,
        (float(a),),
    )


def power_utility(r: float, domain: tuple[float, float] = (0.0, _INF)) -> UtilityFn:
    """phi(t) = t**r on a positive domain, or the odd extension sign(t)|t|**r
    when the stated domain reaches non-positive values (strictly increasing
    through zero for every r > 0).  A domain other than (0, inf) is part of
    the spec: ``power:r,lo,hi``."""
    if not r > 0:
        raise DomainError(f"power utility needs exponent r > 0, got {r}")
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise DomainError(f"power utility needs a domain lo < hi, got {lo}, {hi}")
    dom = Interval(lo, hi)
    if lo >= 0.0:
        fwd = lambda t: np.power(np.asarray(t, dtype=float), r)
        inv = lambda y: np.power(np.asarray(y, dtype=float), 1.0 / r)
    else:
        fwd = lambda t: np.sign(t) * np.power(np.abs(np.asarray(t, dtype=float)), r)
        inv = lambda y: np.sign(y) * np.power(np.abs(np.asarray(y, dtype=float)), 1.0 / r)
    img_lo = float(fwd(lo)) if math.isfinite(lo) else -_INF if lo < 0 else 0.0
    if lo == 0.0:
        img_lo = 0.0
    img_hi = float(fwd(hi)) if math.isfinite(hi) else _INF
    params = (float(r),) if (lo, hi) == (0.0, _INF) else (float(r), lo, hi)
    return UtilityFn("power", fwd, inv, dom, Interval(img_lo, img_hi), params)


def piecewise_linear_utility(knots) -> UtilityFn:
    """Linear interpolation through strictly increasing (x, y) knots.

    Domain and image are the closed knot ranges.
    """
    pts = sorted((float(x), float(y)) for x, y in knots)
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    if xs.size < 2:
        raise DomainError("pwl utility needs at least two knots")
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
        raise DomainError("pwl utility knots must be strictly increasing in x and y")
    return UtilityFn(
        "pwl",
        lambda t: np.interp(np.asarray(t, dtype=float), xs, ys),
        lambda y: np.interp(np.asarray(y, dtype=float), ys, xs),
        Interval(xs[0], xs[-1], True, True),
        Interval(ys[0], ys[-1], True, True),
        tuple(pts),
    )


_BUILDERS = {
    "identity": (identity_utility, (0,)),
    "affine": (affine, (1, 2)),
    "exp": (exponential, (1,)),
    "power": (lambda r, lo=0.0, hi=_INF: power_utility(r, (lo, hi)), (1, 3)),
    "pwl": (piecewise_linear_utility, None),
}


def parse_utility(spec: str) -> UtilityFn:
    """Parse `affine:a[,b] | exp:a | power:r[,lo,hi] | pwl:x1,y1;x2,y2;...` (plus `identity`)."""
    return parse_spec(spec, "utility", _BUILDERS)


def is_affine(phi: UtilityFn) -> bool:
    """True for an affine utility, however many times rescaled."""
    while phi.kind == "rescaled":
        phi = phi.params[2]
    return phi.kind == "affine"


# ---------------------------------------------------------------------------
# Mixture algebra: element-wise kernels, lifted point-wise to variables
# ---------------------------------------------------------------------------

def subjective_mix(x, y, alpha: float, phi: UtilityFn):
    """The payoff whose utility is alpha*phi(x) + (1-alpha)*phi(y), element
    by element for arrays.

    Always lies between x and y, so it never leaves the domain.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"mixing weight must lie in [0, 1], got {alpha}")
    fx = phi(x)
    fy = phi(y)
    target = alpha * fx + (1.0 - alpha) * fy
    # The exact blend lies in [min, max]; clipping only removes float spill.
    return phi.inverse(np.minimum(np.maximum(target, np.minimum(fx, fy)), np.maximum(fx, fy)))


def _doubled(x, phi: UtilityFn):
    """The doubling target 2*phi(x) - phi(0) and the mask of its entries
    inside phi's image, closed ends relaxed by 1e-12 * (1 + max |target|)."""
    f0 = phi(0.0)
    target = 2.0 * phi(x) - f0
    return target, phi.image.slack_mask(target)


def preference_double(x: float, phi: UtilityFn) -> float:
    """The payoff z solving phi(z)/2 + phi(0)/2 = phi(x).

    Invariant under positive affine transformations of phi.  When
    2*phi(x) - phi(0) falls outside the image the overflow is reported,
    never clamped.
    """
    target, inside = _doubled(x, phi)
    if not inside.all():
        raise ImageOverflowError(
            f"doubling of {x!r} needs utility value {target!r} outside image {phi.image}"
        )
    return phi.inverse(target)


def subjective_add(x: float, y: float, phi: UtilityFn) -> float:
    """Utility-scale addition: shifted utilities add (shift = phi - phi(0)).

    Built as the doubling of the half mix, so
    subjective_add(x, y) == preference_double(subjective_mix(x, y, 1/2))
    holds exactly, and the closed form inv(phi(x) + phi(y) - phi(0)) holds
    to roundoff.
    """
    return preference_double(subjective_mix(x, y, 0.5, phi), phi)


def _locate_overflow(mask: np.ndarray, v: TwoStageVariable):
    w, s = np.argwhere(mask)[0]
    return (v.state_ids[w], int(s))


def mix_variables(v: TwoStageVariable, u: TwoStageVariable, alpha: float, phi: UtilityFn) -> TwoStageVariable:
    """Point-wise subjective mix of two variables on the same space."""
    same_space(v, u)
    return v.with_payoffs(subjective_mix(v.payoffs, u.payoffs, alpha, phi))


def add_variables(v: TwoStageVariable, u: TwoStageVariable, phi: UtilityFn) -> TwoStageVariable:
    """Point-wise utility-scale addition, doubling of the half mix.

    Overflow reports the offending (state, outcome).
    """
    target, inside = _doubled(mix_variables(v, u, 0.5, phi).payoffs, phi)
    if not inside.all():
        loc = _locate_overflow(~inside, v)
        raise ImageOverflowError(
            f"utility-scale addition leaves image {phi.image} at (state, outcome) = {loc}",
            location=loc,
        )
    return v.with_payoffs(phi.inverse(target))

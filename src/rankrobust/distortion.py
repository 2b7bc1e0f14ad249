"""Probability weighting functions and the distorted expectation.

A distortion is a non-decreasing map psi on [0, 1] with psi(0) = 0 and
psi(1) = 1 applied to survival probabilities.  The central functional is
:func:`choquet`, the distorted expectation of a finite-support payoff.  It
is also the one path to the distortion risk measures: VaR_lam(v) is
``-choquet(d, var_step(lam))``, ES_lam(v) is ``-choquet(d, es_tail(lam))``,
and weighted VaR under a continuous psi is ``choquet(d, psi)``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .distribution import DiscreteDistribution, exact_row_sums, running_sums
from .errors import DomainError
from .spec import parse_spec, spec_text

_VALIDATION_GRID = np.linspace(0.0, 1.0, 4097)
_MONOTONE_SLACK = 1e-9


class Distortion:
    """A probability weighting function named by its spec.

    ``kind`` is the spec head and ``params`` the spec's numbers in order
    (for ``pwl`` the sorted knots), so equal ``(kind, params)`` mean the
    same function.
    """

    __slots__ = ("kind", "params", "_fn")

    def __init__(self, kind, fn, params=()):
        self.kind = kind
        self.params = tuple(params)
        self._fn = fn
        with np.errstate(all="ignore"):  # a bad parameter shows as a non-finite value
            vals = np.asarray(fn(_VALIDATION_GRID), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise DomainError(f"distortion {kind!r} is not finite on [0, 1]")
        if abs(vals[0]) > _MONOTONE_SLACK or abs(vals[-1] - 1.0) > _MONOTONE_SLACK:
            raise DomainError(
                f"distortion {kind!r} must satisfy psi(0)=0 and psi(1)=1, "
                f"got {float(vals[0])!r} and {float(vals[-1])!r}"
            )
        if np.any(np.diff(vals) < -_MONOTONE_SLACK):
            raise DomainError(f"distortion {kind!r} is not non-decreasing on [0, 1]")

    def __call__(self, p):
        """Evaluate psi at p (scalar or array), p in [0, 1]."""
        arr = np.asarray(p, dtype=float)
        outside = (arr < -1e-12) | (arr > 1.0 + 1e-12)
        if outside.any():
            raise DomainError(f"distortion argument must lie in [0, 1], got {float(arr[outside].flat[0])!r}")
        out = self._fn(np.clip(arr, 0.0, 1.0))
        return float(out) if np.ndim(p) == 0 else np.asarray(out, dtype=float)

    def __repr__(self):
        return f"Distortion({self.describe()})"

    def describe(self) -> str:
        """Canonical spec string (round-trips through parse_distortion)."""
        return spec_text(self.kind, self.params)


@functools.cache
def identity() -> Distortion:
    """psi(p) = p, built once: a distortion is never changed once built."""
    return Distortion("identity", lambda p: p)


def power(a: float) -> Distortion:
    """psi(p) = p**a; convex for a >= 1, concave for a <= 1."""
    if not 0 < a < math.inf:
        raise DomainError(f"power distortion needs a finite a > 0, got {a}")
    return Distortion("power", lambda p: np.power(p, a), (float(a),))


def prelec(alpha: float, beta: float) -> Distortion:
    """psi(p) = exp(-beta * (-ln p)**alpha); prelec(1, 1) is the identity."""
    if not (0 < alpha < math.inf and beta > 0):
        raise DomainError(f"prelec distortion needs a finite alpha > 0 and beta > 0, got {alpha}, {beta}")

    def fn(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros_like(p)
        pos = p > 0.0
        with np.errstate(divide="ignore"):
            out[pos] = np.exp(-beta * np.power(-np.log(p[pos]), alpha))
        return out

    return Distortion("prelec", fn, (float(alpha), float(beta)))


def tversky_kahneman(gamma: float) -> Distortion:
    """Inverse-S weighting p**g / (p**g + (1-p)**g)**(1/g); monotone only for g > ~0.28."""
    if not 0.28 < gamma <= 1.0:
        raise DomainError(f"tk distortion needs gamma in (0.28, 1], got {gamma}")

    def fn(p):
        p = np.asarray(p, dtype=float)
        num = np.power(p, gamma)
        den = np.power(num + np.power(1.0 - p, gamma), 1.0 / gamma)
        return num / den

    return Distortion("tk", fn, (float(gamma),))


def es_tail(lam: float) -> Distortion:
    """psi(p) = max(p - (1 - lam), 0) / lam, the expected-shortfall kink."""
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"es distortion needs lambda in (0, 1], got {lam}")
    return Distortion(
        "es",
        lambda p: np.maximum(np.asarray(p, dtype=float) - (1.0 - lam), 0.0) / lam,
        (float(lam),),
    )


def var_step(lam: float) -> Distortion:
    """psi(p) = 1{p >= 1 - lam}, the (discontinuous) VaR indicator.

    The jump is right-closed: psi(1 - lam) = 1.  Survivals within 1e-12 of
    1 - lam count as reaching it, so a level that lands on a survival
    probability up to its rounding (lam = j/n on n equal masses) reaches
    the step, and ``-choquet(d, var_step(lam))`` is the left-continuous
    loss quantile, VaR_lam.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError(f"var distortion needs lambda in (0, 1), got {lam}")
    return Distortion(
        "var",
        lambda p: (np.asarray(p, dtype=float) >= 1.0 - lam - 1e-12).astype(float),
        (float(lam),),
    )


def dual_power(k: float) -> Distortion:
    """psi(p) = 1 - (1 - p)**k for k >= 1 (concave)."""
    if not 1.0 <= k < math.inf:
        raise DomainError(f"dualpower distortion needs a finite k >= 1, got {k}")
    return Distortion("dualpower", lambda p: 1.0 - np.power(1.0 - np.asarray(p, dtype=float), k), (float(k),))


def piecewise_linear(knots) -> Distortion:
    """Linear interpolation through (p, psi(p)) knots from (0, 0) to (1, 1).

    Monotonicity of user knots is a construction error, not a runtime
    surprise.
    """
    pts = sorted((float(x), float(y)) for x, y in knots)
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    if xs.size < 2:
        raise DomainError("pwl distortion needs at least two knots")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DomainError("pwl distortion knots must be finite")
    if np.any(np.diff(xs) <= 0):
        raise DomainError("pwl distortion knots must have strictly increasing p")
    if abs(xs[0]) > 1e-9 or abs(xs[-1] - 1.0) > 1e-9:
        raise DomainError("pwl distortion knots must span p=0 to p=1")
    if abs(ys[0]) > 1e-9 or abs(ys[-1] - 1.0) > 1e-9:
        raise DomainError("pwl distortion must map 0 to 0 and 1 to 1")
    if np.any(np.diff(ys) < -1e-12):
        raise DomainError("pwl distortion knots must be non-decreasing")
    return Distortion(
        "pwl",
        lambda p: np.interp(np.asarray(p, dtype=float), xs, ys),
        tuple(pts),
    )


_BUILDERS = {
    "identity": (identity, (0,)),
    "power": (power, (1,)),
    "prelec": (prelec, (2,)),
    "tk": (tversky_kahneman, (1,)),
    "es": (es_tail, (1,)),
    "var": (var_step, (1,)),
    "dualpower": (dual_power, (1,)),
    "pwl": (piecewise_linear, None),
}


def parse_distortion(spec: str) -> Distortion:
    """Parse `identity | power:a | prelec:alpha,beta | tk:gamma | es:lambda |
    var:lambda | dualpower:k | pwl:p1,y1;p2,y2;...`."""
    return parse_spec(spec, "distortion", _BUILDERS)


def choquet(d: DiscreteDistribution, psi: Distortion) -> float:
    """Distorted expectation of d under psi: ``choquet_rows`` of d's one row,
    the kernel ``inner_rdu`` runs on every state.

    With support x_1 < ... < x_n and survivals S_i = P(v > x_i), returns
    x_1 + sum_i (x_{i+1} - x_i) * psi(S_i).  For step cdfs this evaluates
    the survival-distortion integral exactly; survivals are compensated
    tail sums of the merged masses, so relabeling outcomes cannot change
    the result.  A one-point law reads ``math.fsum`` of its point (0.0 at
    -0.0).
    """
    return float(choquet_rows(d.values[None, :], d.probs[None, :], psi)[0])


def choquet_rows(u: np.ndarray, mass: np.ndarray, psi: Distortion) -> np.ndarray:
    """The survival form of the distorted expectation on every row of a
    (rows, points) block of merged support points u with their masses
    (``distribution.merge_rows``' output): u_1 + sum_i (u_{i+1} - u_i) *
    psi(S_i), where S_i is the ``running_sums`` tail of the masses above
    point i, psi's map is applied once to the tails capped at 1 (sums of
    non-negative masses need no other check), a term whose tail is 0 is 0
    (even where its difference overflowed), and each row's terms are summed
    exactly (``exact_row_sums``)."""
    tails = running_sums(mass[:, ::-1])[:, -2::-1]
    terms = np.where(tails > 0.0, (u[:, 1:] - u[:, :-1]) * psi._fn(np.minimum(tails, 1.0)), 0.0)
    return exact_row_sums(np.concatenate((u[:, :1], terms), axis=1))

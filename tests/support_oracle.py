"""The scalar support merge and the survival-loop ``choquet`` that
``DiscreteDistribution`` and ``distortion.choquet`` used before both moved
onto the row kernels ``distribution.merge_rows`` and
``distortion.choquet_rows``: their bit-for-bit oracles (kept verbatim, but
for ``survival``'s fsum written inline and the merge dropping zero masses
first, as ``DiscreteDistribution`` does), ``is_unambiguous``, which only
tests read, and ``support_laws``, the laws the oracles are compared on."""

import math

import numpy as np
from hypothesis import strategies as st

from rankrobust.distribution import MERGE_TOL, PROB_SUM_TOL, exact_sum
from rankrobust.errors import DomainError, ShapeError


def merge_support(values, probs):
    """Drop zero masses, sort support, merge points within MERGE_TOL of a group leader.

    Group sums use ``exact_sum`` so merged probabilities are correctly
    rounded and independent of input ordering (label permutations cannot
    change any downstream value), and a sum past the float range reads inf.
    """
    v = np.asarray(values, dtype=float)
    p = np.asarray(probs, dtype=float)
    if v.ndim != 1 or p.ndim != 1 or v.shape != p.shape or v.size == 0:
        raise ShapeError("values and probs must be equal-length non-empty 1-D sequences")
    if not np.all(np.isfinite(v)):
        raise DomainError("support values must be finite")
    if not np.all(p >= 0.0):  # NaN-safe
        raise DomainError(f"probabilities must be >= 0, got min {p.min()}")
    v, p = v[p > 0.0], p[p > 0.0]
    order = np.argsort(v, kind="stable")
    v = v[order]
    p = p[order]
    out_v: list[float] = []
    out_p: list[float] = []
    i = 0
    n = v.size
    while i < n:
        j = i + 1
        while j < n and v[j] - v[i] <= MERGE_TOL:
            j += 1
        mass = exact_sum(p[i:j].tolist())
        if mass > 0.0:
            out_v.append(float(v[i]))
            out_p.append(mass)
        i = j
    if not out_v:
        raise DomainError("distribution has no support point with positive mass")
    return np.array(out_v), np.array(out_p)


def loop_distribution(values, probs):
    """(values, probs, cumulative) as the former ``DiscreteDistribution``
    constructor built them, or the error it raised."""
    v, p = merge_support(values, probs)
    total = exact_sum(p.tolist())
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise DomainError(f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {total!r}")
    cum = np.array([math.fsum(p[: i + 1]) for i in range(p.size)])
    cum[-1] = 1.0
    return v, p, cum


def loop_choquet(d, psi) -> float:
    """Distorted expectation of d under psi: x_1 + sum_i (x_{i+1} - x_i) *
    psi(S_i), each survival S_i = P(v > x_i) a correctly rounded tail sum."""
    v = d.values
    n = v.size
    if n == 1:
        return float(v[0])
    survivals = np.array([math.fsum(d.probs[i + 1 :]) for i in range(n - 1)])
    weights = psi(survivals)
    terms = np.diff(v) * weights
    return math.fsum([float(v[0]), *terms])


def is_unambiguous(v) -> bool:
    """True when every state of the two-stage variable v induces the same
    one-stage law, its support points within MERGE_TOL and probabilities
    within PROB_SUM_TOL."""
    first = v.marginal(v.state_ids[0])
    for sid in v.state_ids[1:]:
        m = v.marginal(sid)
        if m.values.size != first.values.size:
            return False
        if not (
            np.allclose(m.values, first.values, atol=MERGE_TOL, rtol=0.0)
            and np.allclose(m.probs, first.probs, atol=PROB_SUM_TOL, rtol=0.0)
        ):
            return False
    return True


@st.composite
def support_laws(draw, valid=False):
    """(values, probs) for the support merge, the labels shuffled.

    Support shapes: chains of points each within MERGE_TOL of the next (so
    3+-point chains split where a point passes MERGE_TOL above its group's
    first), gaps at MERGE_TOL and an ulp either side, a few levels, distinct
    floats, and values near 1e307; any 0.0 possibly -0.0 (one-point laws
    included).  Masses: uniform, small integer weights (zero-mass points,
    leaders of merged groups among them), and, unless ``valid``, masses of
    1e308 that overflow, totals off one and no positive mass.  Zero masses
    may be -0.0.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["chain", "edge", "levels", "floats", "huge"]))
    if shape == "chain":
        values = np.cumsum(rng.choice([0.0, 3e-13, 6e-13, 9e-13, 2.0], size=n, p=[0.2, 0.25, 0.25, 0.25, 0.05]))
        values += float(rng.integers(-3, 4))
    elif shape == "edge":
        gaps = [MERGE_TOL, math.nextafter(MERGE_TOL, 0.0), math.nextafter(MERGE_TOL, 1.0), 0.0]
        values = float(rng.choice([0.0, 1.0, -7.5])) + np.cumsum(rng.choice(gaps, size=n))
    elif shape == "levels":
        values = rng.integers(-2, 3, size=n) * 0.5
    elif shape == "floats":
        values = rng.uniform(-5.0, 5.0, size=n)
    else:
        values = rng.choice([-1e307, -1.0, 0.0, 1e307, 1.5e307], size=n)
    values = rng.permutation(values)
    if draw(st.booleans()):
        values = np.where(values == 0.0, -0.0, values)
    families = ["uniform", "weights", "zero leader"] + ([] if valid else ["overflow", "off", "no mass"])
    family = draw(st.sampled_from(families))
    if family == "uniform":
        probs = np.full(n, 1.0 / n)
    elif family in ("weights", "zero leader", "off"):
        weights = rng.integers(0, 4, size=n).astype(float)
        if family == "zero leader":
            weights[np.argmin(values)] = 0.0
        if weights.sum() == 0.0:
            weights[int(rng.integers(n))] = 1.0
        probs = weights / weights.sum()
        if family == "off":
            probs *= 1.0 + 1e-9
    elif family == "overflow":
        probs = rng.choice([0.0, 0.5, 1e308], size=n)
    else:
        probs = np.zeros(n)
    if draw(st.booleans()):
        probs = np.where(probs == 0.0, -0.0, probs)
    return values, probs

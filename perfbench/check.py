"""Output checks for benchmark jobs.

``evaluate``, ``ce`` and ``compare`` reports are recomputed by an
independent vectorized oracle: each state's outcomes are sorted, survival
probabilities are reverse cumulative sums, the distorted expectation is
``u_(1) + sum_i (u_(i+1) - u_(i)) * psi(S_i)``, and the outer minimum uses
closed forms (maxmin and tabulated: smallest listed value; entropic:
``-theta * log E'[exp(-u/theta)]``; Gini: exact water-filling by sorting).
The oracle re-parses the spec strings itself and never calls the package.

Agreement bound: utility-scale values must match within
``1e-9 * (1 + max |utility|)`` and certainty equivalents within
``1e-8 * (1 + max |payoff|)``.

``battery`` passes on exit 0 with no violations, ``cmin`` when its dual
bound does not exceed the direct penalty, and ``portfolio`` when
``mean_risk_components`` at the reported weights reproduces the reported
objective and the weights lie on the simplex.  Portfolio weights are never
compared with fixed values, since an exact optimizer may move them.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

VALUE_RTOL = 1e-9
CE_RTOL = 1e-8
INDIFFERENCE_TOL = 1e-9


def _option(argv, name: str, default=None):
    for i, token in enumerate(argv):
        if token == name:
            return argv[i + 1]
        if token.startswith(name + "="):
            return token.split("=", 1)[1]
    return default


def _utility(spec: str):
    """(forward, inverse) pair for a utility spec."""
    head, _, rest = spec.partition(":")
    if head == "identity":
        return (lambda x: x), (lambda y: y)
    if head == "affine":
        a, b = (float(t) for t in rest.split(","))
        return (lambda x: a * x + b), (lambda y: (y - b) / a)
    if head == "exp":
        a = float(rest)
        return (lambda x: (1.0 - np.exp(-a * x)) / a), (lambda y: -np.log(1.0 - a * y) / a)
    if head == "power":
        r = float(rest)
        return (lambda x: x**r), (lambda y: y ** (1.0 / r))
    raise ValueError(f"oracle has no utility {spec!r}")


def _distortion(spec: str):
    head, _, rest = spec.partition(":")
    if head == "identity":
        return lambda s: s
    if head == "power":
        a = float(rest)
        return lambda s: s**a
    if head == "prelec":
        alpha, beta = (float(t) for t in rest.split(","))

        def prelec(s):
            out = np.zeros_like(s)
            pos = s > 0
            out[pos] = np.exp(-beta * (-np.log(s[pos])) ** alpha)
            return out

        return prelec
    if head == "tk":
        g = float(rest)
        return lambda s: s**g / (s**g + (1.0 - s) ** g) ** (1.0 / g)
    if head == "dualpower":
        k = float(rest)
        return lambda s: 1.0 - (1.0 - s) ** k
    if head == "es":
        lam = float(rest)
        return lambda s: np.maximum(s - (1.0 - lam), 0.0) / lam
    raise ValueError(f"oracle has no distortion {spec!r}")


def _prior(text: str, n: int) -> np.ndarray:
    if text.strip() == "uniform":
        return np.full(n, 1.0 / n)
    return np.array([float(t) for t in text.split(",")])


def _outer(spec: str, n: int):
    """Map a (k, n) array of per-state utilities to k robust values."""
    head, _, rest = spec.partition(":")
    if head == "maxmin":
        if rest == "vertices":
            return lambda u: u.min(axis=-1)
        priors = np.array([_prior(p, n) for p in rest.strip("[]").split(";")])
        return lambda u: (u @ priors.T).min(axis=-1)
    if head == "table":
        with open(rest, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        priors = np.array([[float(t) for t in row[:-1]] for row in rows])
        values = np.array([float(row[-1]) for row in rows])
        values -= values.min()
        return lambda u: (u @ priors.T + values).min(axis=-1)
    theta_text, _, prior_text = rest.partition("@")
    theta, p = float(theta_text), _prior(prior_text, n)
    if head == "entropic":
        def entropic(u):
            logits = np.log(p) - u / theta
            top = logits.max(axis=-1, keepdims=True)
            return -theta * (top[..., 0] + np.log(np.exp(logits - top).sum(axis=-1)))

        return entropic
    if head == "gini":
        return lambda u: np.array([_gini_min(row, p, theta) for row in np.atleast_2d(u)])
    raise ValueError(f"oracle has no penalty {spec!r}")


def _gini_min(u: np.ndarray, p: np.ndarray, theta: float) -> float:
    """min_q q.u + theta * sum (q - p)^2 / p by sorting out the active set.

    The minimizer is q_w = p_w * max(0, nu - u_w) / (2 theta); with the k
    smallest utilities active, nu = (2 theta + sum p u) / sum p, and the
    active set is the largest k whose k-th utility lies below its nu.
    """
    order = np.argsort(u, kind="stable")
    mass = np.cumsum(p[order])
    moment = np.cumsum(p[order] * u[order])
    nu = (2.0 * theta + moment) / mass
    k = int(np.nonzero(u[order] < nu)[0].max())
    q = p * np.maximum(0.0, nu[k] - u) / (2.0 * theta)
    q /= q.sum()
    return float(q @ u + theta * np.sum((q - p) ** 2 / p))


def _load_scenario(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        states = json.load(fh)["states"]
    probs = np.array([s["probs"] for s in states.values()], dtype=float)
    payoffs = np.array([s["payoffs"] for s in states.values()], dtype=float)
    return probs, payoffs


def inner_values(probs: np.ndarray, payoffs: np.ndarray, phi, psi) -> np.ndarray:
    """Per-state distorted expected utility, all states at once."""
    order = np.argsort(payoffs, axis=1, kind="stable")
    u = phi(np.take_along_axis(payoffs, order, axis=1))
    p = np.take_along_axis(probs, order, axis=1)
    survival = np.cumsum(p[:, ::-1], axis=1)[:, ::-1][:, 1:]
    weights = psi(np.clip(survival, 0.0, 1.0))
    return u[:, 0] + np.sum(np.diff(u, axis=1) * weights, axis=1)


def _close(got, want, tol: float) -> bool:
    return got is not None and abs(float(got) - float(want)) <= tol


def _check_variable(argv, result: dict, path: str, key: str = "") -> str | None:
    probs, payoffs = _load_scenario(path)
    phi, phi_inv = _utility(_option(argv, "--utility", "identity"))
    psi = _distortion(_option(argv, "--distortion", "identity"))
    utils = inner_values(probs, payoffs, phi, psi)
    value = float(_outer(_option(argv, "--penalty"), probs.shape[0])(utils[None, :])[0])
    tol = VALUE_RTOL * (1.0 + float(np.max(np.abs(phi(payoffs)))))
    if key:
        return None if _close(result.get(key), value, tol) else f"{key} {result.get(key)!r} != oracle {value!r}"
    if "value_utils" in result:
        if not _close(result["value_utils"], value, tol):
            return f"value_utils {result['value_utils']!r} != oracle {value!r}"
        got = np.asarray(result["per_state_utils"], dtype=float)
        if got.shape != utils.shape or np.max(np.abs(got - utils)) > tol:
            return "per_state_utils disagree with the oracle"
        if abs(math.fsum(result["minimizer"]) - 1.0) > 1e-9 or min(result["minimizer"]) < 0:
            return "minimizer is not a prior"
    ce = float(phi_inv(value))
    ce_tol = CE_RTOL * (1.0 + float(np.max(np.abs(payoffs))))
    if not _close(result.get("certainty_equivalent"), ce, ce_tol):
        return f"certainty_equivalent {result.get('certainty_equivalent')!r} != oracle {ce!r}"
    return None


def _check_compare(argv, result: dict) -> str | None:
    for key, flag in (("value_1", "--scenario"), ("value_2", "--scenario2")):
        problem = _check_variable(argv, result, _option(argv, flag), key)
        if problem:
            return problem
    gap = result["value_1"] - result["value_2"]
    want = ">" if gap > INDIFFERENCE_TOL else "<" if -gap > INDIFFERENCE_TOL else "~"
    return None if result["relation"] == want else f"relation {result['relation']!r} but values give {want!r}"


def _check_demo(result: dict) -> str | None:
    known = {"U(urn_a)": 0.0, "U(urn_c)": 20.0, "U(urn_a + urn_b)": 100.0, "U(urn_c + urn_b)": 20.0}
    values = result.get("values", {})
    if set(values) != set(known) or any(abs(values[k] - v) > VALUE_RTOL * 101 for k, v in known.items()):
        return f"demo values {values!r} differ from the two-urn values {known!r}"
    return None if result.get("passed") and result.get("reversal") else "demo reports no reversal"


def _check_cmin(result: dict) -> str | None:
    bound, direct = result["dual_lower_bound"], result["direct_penalty"]
    if direct == "inf":
        return None
    if bound > direct + VALUE_RTOL * (1.0 + abs(direct)):
        return f"dual bound {bound!r} exceeds the direct penalty {direct!r}"
    return None


def _check_portfolio(argv, result: dict) -> str | None:
    from rankrobust.ambiguity import parse_penalty, parse_prior
    from rankrobust.cli import parse_panel
    from rankrobust.distortion import parse_distortion
    from rankrobust.evaluator import Preference
    from rankrobust.portfolio import Weights, mean_risk_components
    from rankrobust.utility import parse_utility

    w = np.asarray(result["weights"], dtype=float)
    if np.any(w < 0.0) or abs(math.fsum(w) - 1.0) > 1e-12:
        return f"weights {result['weights']!r} are not on the simplex"
    panel = parse_panel(_option(argv, "--scenario"))
    ids = panel.state_ids
    pref = Preference(parse_utility(_option(argv, "--utility")), parse_distortion(_option(argv, "--distortion")),
                      parse_penalty(_option(argv, "--penalty"), ids), ids)
    mean, rho = mean_risk_components(panel, Weights(w), parse_prior(_option(argv, "--mean-prior"), ids), pref)
    tol = VALUE_RTOL * (1.0 + abs(mean) + abs(rho))
    if not (_close(result["objective"], mean - rho, tol) and _close(result["mean_term"], mean, tol)
            and _close(result["risk_term"], rho, tol)):
        return f"objective {result['objective']!r} != mean - risk {mean - rho!r} at the reported weights"
    return None


def check(argv, exit_code: int, stdout: str) -> str | None:
    """None when the job's output is right, else a one-line reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    command = argv[0]
    if command in ("evaluate", "ce"):
        return _check_variable(argv, result, _option(argv, "--scenario"))
    if command == "compare":
        return _check_compare(argv, result)
    if command == "demo":
        return _check_demo(result)
    if command == "battery":
        return None if result["total_violations"] == 0 else f"{result['total_violations']} violations"
    if command == "cmin":
        return _check_cmin(result)
    if command == "portfolio":
        return _check_portfolio(argv, result)
    return f"no check for command {command!r}"

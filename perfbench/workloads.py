"""Seeded inputs and fixed job lists for the three benchmark workloads.

Every workload is a fixed list of CLI jobs.  The shape of each job (the
command, the problem size and the utility/distortion/penalty kinds) is the
same for every seed; the seed only draws the numbers in the generated
files and spec strings.  That keeps the amount of work per run nearly
independent of the seed while the same seed always writes byte-identical
inputs.

Why these workloads:

* ``evaluate_large`` -- ``evaluate``/``ce``/``compare`` on large variables,
  the two-urn fixtures and ``demo ellsberg``.  The inner layer
  (distribution + utility + distortion) and scenario parsing dominate;
  the outer ``robust_min`` is a few percent.
* ``verify_small`` -- ``battery`` and ``cmin`` jobs.  Per-case evaluator
  loops over tiny lotteries and the ambiguity layer dominate, the latter
  both as many one-vector ``robust_min`` calls and as one large
  ``robust_values`` batch.
* ``portfolio_search`` -- ``portfolio`` jobs, the only callers of the
  optimizer; every scored candidate is a small evaluation.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("evaluate_large", "verify_small", "portfolio_search")


@dataclass(frozen=True)
class Job:
    """One in-process CLI invocation: ``rankrobust.cli.main(argv)``."""

    name: str
    argv: tuple[str, ...]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _fmt(x: float) -> str:
    return repr(float(x))


def _probs(rng: np.random.Generator, shape) -> np.ndarray:
    raw = rng.random(shape) + 0.05
    return raw / raw.sum(axis=-1, keepdims=True)


def _prior_list(weights) -> str:
    return ",".join(_fmt(x) for x in weights)


def _named_prior(ids, weights) -> str:
    return ",".join(f"{s}={_fmt(x)}" for s, x in zip(ids, weights))


def _state_ids(n: int) -> list[str]:
    return [f"w{i}" for i in range(n)]


def _write_scenario(path: Path, probs: np.ndarray, payoffs: np.ndarray) -> str:
    states = {
        sid: {"probs": [float(x) for x in probs[w]], "payoffs": [float(x) for x in payoffs[w]]}
        for w, sid in enumerate(_state_ids(probs.shape[0]))
    }
    path.write_text(json.dumps({"states": states}))
    return str(path)


def _write_panel(path: Path, probs: np.ndarray, returns: np.ndarray) -> str:
    n_states, n_outcomes, n_assets = returns.shape
    lines = ["state,prob,outcome," + ",".join(f"asset_{k + 1}" for k in range(n_assets))]
    for w in range(n_states):
        for s in range(n_outcomes):
            cells = [f"w{w}", _fmt(probs[w, s]), f"o{s}", *(_fmt(r) for r in returns[w, s])]
            lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _simplex_points(n: int, resolution: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(resolution,)]
    return [(k, *rest) for k in range(resolution + 1) for rest in _simplex_points(n - 1, resolution - k)]


def _write_table(path: Path, rng: np.random.Generator, n: int, resolution: int) -> str:
    """A small tabulated penalty: a seeded quadratic on a simplex grid.

    ``Tabulated.robust_values`` allocates (lattice chunk) x (grid size)
    floats, so the grid stays at a few dozen priors.
    """
    ids = _state_ids(n)
    ref = _probs(rng, n)
    theta = float(rng.uniform(0.5, 2.0))
    lines = [",".join([*ids, "penalty"])]
    for counts in _simplex_points(n, resolution):
        q = np.array(counts, dtype=float) / resolution
        lines.append(",".join([*(_fmt(x) for x in q), _fmt(theta * np.sum((q - ref) ** 2 / ref))]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _penalty(kind: str, rng: np.random.Generator, n: int, workdir: Path, tag: str) -> str:
    if kind == "entropic":
        return f"entropic:{_fmt(rng.uniform(0.5, 5.0))}@{_prior_list(_probs(rng, n))}"
    if kind == "gini":
        return f"gini:{_fmt(rng.uniform(0.5, 5.0))}@{_prior_list(_probs(rng, n))}"
    if kind == "maxmin":
        priors = _probs(rng, (4, n))
        return "maxmin:[" + ";".join(_prior_list(q) for q in priors) + "]"
    if kind == "vertices":
        return "maxmin:vertices"
    if kind == "table":
        return "table:" + _write_table(workdir / f"{tag}_table.csv", rng, n, {3: 8, 4: 6}[n])
    raise ValueError(f"unknown penalty kind {kind!r}")


# (utility spec, lowest payoff, highest payoff): power utility needs positive payoffs.
_UTILITIES = (("exp:0.1", -10.0, 10.0), ("affine:2,1", -10.0, 10.0), ("power:0.5", 0.5, 20.0), ("exp:-0.05", -10.0, 10.0))
_DISTORTIONS = ("prelec:0.65,1", "identity", "tk:0.7", "power:1.5", "dualpower:2", "es:0.4")


def _evaluate_large(rng, workdir: Path, fixtures: Path, tiny: bool) -> list[Job]:
    # (command, states, outcomes, penalty kind).  Few states x many outcomes
    # stress the O(outcomes^2) inner layer; many states x few outcomes
    # stress the per-state overhead.
    wide = [(3, 200), (4, 180), (6, 160), (8, 150), (12, 120), (3, 140), (4, 200), (16, 100),
            (5, 180), (10, 150), (3, 160), (6, 120), (4, 150), (8, 100), (3, 180), (4, 120)]
    tall = [("evaluate", 2000, 4, "entropic"), ("ce", 1500, 5, "vertices"), ("compare", 500, 6, "gini"),
            ("evaluate", 1000, 8, "maxmin"), ("ce", 1200, 3, "entropic"), ("compare", 400, 8, "vertices"),
            ("evaluate", 800, 5, "gini")]
    if tiny:
        wide, tall = [(3, 12), (4, 10)], [("compare", 30, 4, "vertices")]
    commands = ("evaluate", "ce", "compare")
    wide_penalties = ("entropic", "table", "gini", "maxmin")
    specs = []
    for i, (n, m) in enumerate(wide):
        for rep in range(2):
            kind = wide_penalties[(i + rep) % 4]
            specs.append((commands[(i + rep) % 3], n, m, kind if kind != "table" or n in (3, 4) else "entropic"))
    specs += tall
    jobs: list[Job] = []
    for i, (cmd, n, m, kind) in enumerate(specs):
        util, lo, hi = _UTILITIES[i % len(_UTILITIES)]
        files = []
        for suffix in ("a", "b") if cmd == "compare" else ("a",):
            payoffs = rng.uniform(lo, hi, size=(n, m))
            files.append(_write_scenario(workdir / f"var{i}{suffix}.json", _probs(rng, (n, m)), payoffs))
        argv = [cmd, "--scenario", files[0], *(("--scenario2", files[1]) if cmd == "compare" else ())]
        argv += ["--utility", util, "--distortion", _DISTORTIONS[i % len(_DISTORTIONS)],
                 "--penalty", _penalty(kind, rng, n, workdir, f"var{i}")]
        jobs.append(Job(f"{cmd}/{n}x{m}/{kind}", tuple(argv)))
    # The 546-state two-urn fixtures of the paper's Ellsberg example.
    urn_a = str(fixtures / "ellsberg_urn_a.json")
    urn_c = str(fixtures / "ellsberg_urn_c.json")
    fixture_jobs = [
        ("evaluate", urn_a, None, "vertices"),
        ("ce", urn_c, None, "entropic"),
        ("compare", urn_c, urn_a, "vertices"),
        ("evaluate", urn_c, None, "gini"),
        ("compare", urn_a, urn_c, "entropic"),
    ]
    for i, (cmd, first, second, kind) in enumerate(fixture_jobs[:1] if tiny else fixture_jobs):
        argv = [cmd, "--scenario", first, *(("--scenario2", second) if second else ())]
        argv += ["--utility", "exp:0.01", "--penalty", _penalty(kind, rng, 546, workdir, f"urn{i}")]
        jobs.append(Job(f"{cmd}/ellsberg/{kind}", tuple(argv)))
    jobs.append(Job("demo/ellsberg", ("demo", "ellsberg")))
    return jobs


def _verify_small(rng, workdir: Path, fixtures: Path, tiny: bool) -> list[Job]:
    jobs: list[Job] = []
    cases = 4 if tiny else 12
    battery_prefs = [
        ("gini", "exp:0.1", "prelec:0.65,1"),
        ("entropic", "affine:1,0", "tk:0.7"),
        ("maxmin", "exp:-0.05", "dualpower:2"),
        ("gini", "affine:2,1", "identity"),
        ("entropic", "exp:0.1", "power:1.5"),
        ("maxmin", "affine:1,0", "es:0.4"),
    ]
    n_battery = 2 if tiny else 24
    for i in range(n_battery):
        kind, util, dist = battery_prefs[i % len(battery_prefs)]
        ids = _state_ids(2)
        ref = _named_prior(ids, _probs(rng, 2))
        if kind == "maxmin":
            penalty = "maxmin:[" + ";".join(_named_prior(ids, q) for q in _probs(rng, (3, 2))) + "]"
        else:
            penalty = f"{kind}:{_fmt(rng.uniform(0.5, 3.0))}@{ref}"
        job_seed = str(int(rng.integers(0, 2**31)))
        argv = ("battery", "--penalty", penalty, "--utility", util, "--distortion", dist,
                "--cases", str(cases), "--seed", job_seed)
        jobs.append(Job(f"battery/{kind}", argv))
    # Gini and the table scan a 41^3 lattice, entropic and maxmin a 101^3 one.
    grids = {"gini": "-4,4,0.2", "table": "-4,4,0.2", "entropic": "-5,5,0.1", "maxmin": "-5,5,0.1"}
    ids = _state_ids(3)
    cmin_kinds = ("gini", "entropic", "maxmin", "table")
    for i in range(len(cmin_kinds) if tiny else 16):
        kind = cmin_kinds[i % len(cmin_kinds)]
        if kind == "table":
            penalty = "table:" + _write_table(workdir / f"cmin{i}_table.csv", rng, 3, 8)
            counts = _simplex_points(3, 8)[int(rng.integers(0, 45))]
            prior = np.array(counts, dtype=float) / 8
        elif kind == "maxmin":
            vertices = _probs(rng, (3, 3))
            penalty = "maxmin:[" + ";".join(_named_prior(ids, q) for q in vertices) + "]"
            mix = _probs(rng, 3) @ vertices
            prior = mix / mix.sum()
        else:
            penalty = f"{kind}:{_fmt(rng.uniform(0.5, 3.0))}@{_named_prior(ids, _probs(rng, 3))}"
            prior = _probs(rng, 3)
        argv = ("cmin", "--penalty", penalty, "--prior", _named_prior(ids, prior), f"--grid={'-1,1,0.5' if tiny else grids[kind]}")
        jobs.append(Job(f"cmin/{kind}", argv))
    return jobs


def _budget(n_assets: int) -> str:
    """An evaluation budget that every search of this size exhausts.

    The optimizer scores the C(n_assets + 9, n_assets - 1)-point coarse grid, then
    polishes for at least 17 step sizes with n_assets - 1 or more
    candidates each.  Capping the polish at 16 * (n_assets - 1) candidates
    fixes the work per job: otherwise whether the seeded optimum is a
    corner or interior changes the evaluation count up to threefold.
    """
    return str(math.comb(n_assets + 9, n_assets - 1) + 16 * (n_assets - 1))


def _portfolio_search(rng, workdir: Path, fixtures: Path, tiny: bool) -> list[Job]:
    # (states, outcomes, assets): the coarse grid has 11, 66, 286, 1,001
    # and 3,003 points for 2 to 6 assets.
    shapes = [
        (4, 20, 2), (6, 16, 2), (3, 30, 2), (5, 24, 2), (6, 20, 2), (4, 30, 2), (3, 20, 2),
        (5, 16, 2), (6, 24, 2), (4, 16, 2), (3, 24, 2), (5, 30, 2), (4, 24, 2), (6, 12, 2),
        (3, 16, 2), (5, 20, 2), (4, 12, 2), (6, 30, 2), (3, 12, 2), (5, 12, 2),
        (4, 12, 3), (5, 10, 3), (4, 10, 3), (6, 8, 3), (3, 12, 3), (4, 16, 3), (5, 12, 3), (4, 8, 3),
        (2, 10, 4), (2, 12, 4),
        (2, 4, 5),
    ]
    if tiny:
        shapes = [(2, 4, 2)]
    penalties = ("entropic", "gini", "maxmin", "vertices")
    distortions = ("es:0.25", "dualpower:2", "prelec:0.65,1", "power:1.5", "identity")
    jobs: list[Job] = []
    for i, (n, m, a) in enumerate(shapes):
        loading = rng.normal(0.0, 0.1, size=(n, m, 1))
        returns = 0.03 + loading * rng.uniform(0.5, 2.0, size=a) + rng.normal(0.0, 0.08, size=(n, m, a))
        returns += rng.normal(0.0, 0.02, size=(n, 1, a))
        panel = _write_panel(workdir / f"panel{i}.csv", _probs(rng, (n, m)), returns)
        kind = penalties[i % len(penalties)]
        argv = ("portfolio", "--scenario", panel, "--utility", "affine:1,0",
                "--distortion", distortions[i % len(distortions)],
                "--penalty", _penalty(kind, rng, n, workdir, f"panel{i}"), "--mean-prior", "uniform",
                "--budget", _budget(a))
        jobs.append(Job(f"portfolio/{n}x{m}x{a}/{kind}", argv))
    for name in ("panel_hedge.csv", "panel_risky_riskfree.csv"):
        for dist in ("es:0.5", "dualpower:2"):
            argv = ("portfolio", "--scenario", str(fixtures / name), "--utility", "affine:1,0",
                    "--distortion", dist, "--penalty", "maxmin:vertices", "--mean-prior", "uniform",
                    "--budget", _budget(2))
            jobs.append(Job(f"portfolio/{name[:-4]}/{dist}", argv))
    # Six assets: the coarse grid alone exceeds the default budget of 2,000.
    n, m = (1, 2) if tiny else (2, 2)
    returns = 0.02 + rng.normal(0.0, 0.1, size=(n, m, 6))
    panel = _write_panel(workdir / "panel_six.csv", _probs(rng, (n, m)), returns)
    argv = ("portfolio", "--scenario", panel, "--utility", "affine:1,0", "--distortion", "es:0.5",
            "--penalty", f"entropic:1@{_prior_list(_probs(rng, n))}", "--mean-prior", "uniform",
            "--budget", _budget(6))
    jobs.append(Job(f"portfolio/{n}x{m}x6/entropic", argv))
    return jobs


_JOB_LISTS = {
    "evaluate_large": _evaluate_large,
    "verify_small": _verify_small,
    "portfolio_search": _portfolio_search,
}


def build(workload: str, seed: int, workdir: Path, fixtures: Path, tiny: bool = False) -> list[Job]:
    """Write the workload's seeded inputs into ``workdir`` and return its job list.

    ``workdir`` is emptied first; ``fixtures`` is the repository's fixture
    directory.  ``tiny`` shrinks every job for smoke tests.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = _JOB_LISTS[workload](_rng(seed, workload), workdir, fixtures, tiny)
    return [
        Job(job.name, (*job.argv, "--output", "json", *(() if "--seed" in job.argv else ("--seed", str(seed)))))
        for job in jobs
    ]

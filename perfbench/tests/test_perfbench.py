"""Tests of the benchmark itself: tiny runs, the output check, seeded inputs.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rankrobust.cli import main as cli_main  # noqa: E402


def tiny_jobs(workload, tmp_path, seed=7):
    return workloads.build(workload, seed, tmp_path / workload, ROOT / "fixtures", tiny=True)


def report(jobs, first_pass, command):
    index = next(i for i, job in enumerate(jobs) if job.argv[0] == command)
    return jobs[index].argv, json.loads(first_pass.outputs[index])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_timed_run_passes_every_check(workload, tmp_path):
    result = run.timed_run(cli_main, tiny_jobs(workload, tmp_path), seconds=0)
    assert result["failed"] == 0, result["notes"]["failures"]
    assert set(result["metrics"]) == set(run.end_to_end_units())
    assert all(value > 0 for value in result["metrics"].values())


def test_normalised_time_cancels_a_uniform_slowdown():
    quiet = run.normalised(0.3, 0.004, 0.005, reference=0.004)
    assert run.normalised(0.6, 0.008, 0.010, reference=0.004) == pytest.approx(quiet)
    assert quiet == pytest.approx(0.3 * 0.004 / (0.004 * 0.005) ** 0.5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_matches_untraced_and_counts_repeat(workload, tmp_path):
    jobs = tiny_jobs(workload, tmp_path)
    result = run.traced_run(cli_main, jobs, seconds=0, spans_path=tmp_path / "spans.npz")
    assert result["failed"] == 0, result["notes"]["failures"]
    assert set(result["metrics"]) == {name for name, _ in tracer.metric_names()}
    assert result["metrics"]["cli.main.calls"] == len(jobs)
    assert result["notes"]["self_s_sum"] == pytest.approx(result["metrics"]["trace.job_s"], rel=1e-9)
    again = run.traced_run(cli_main, jobs, seconds=0, spans_path=tmp_path / "spans.npz")
    for name, unit in tracer.metric_names():
        if unit == "count":
            assert again["metrics"][name] == result["metrics"][name], name


def test_tracer_restores_the_package():
    import rankrobust.cli
    import rankrobust.distribution
    import rankrobust.evaluator

    before = (rankrobust.evaluator.evaluate, rankrobust.cli.evaluate,
              rankrobust.distribution.DiscreteDistribution.__dict__["survival"])
    t = tracer.Tracer()
    t.install()
    assert rankrobust.cli.evaluate is not before[1]
    t.uninstall()
    after = (rankrobust.evaluator.evaluate, rankrobust.cli.evaluate,
             rankrobust.distribution.DiscreteDistribution.__dict__["survival"])
    assert all(a is b for a, b in zip(before, after))


def test_check_flags_perturbed_results(tmp_path):
    jobs = tiny_jobs("evaluate_large", tmp_path) + tiny_jobs("verify_small", tmp_path) + tiny_jobs("portfolio_search", tmp_path)
    first = run.Pass(cli_main, jobs)
    assert run.verdicts(jobs, first) == [None] * len(jobs)

    argv, doc = report(jobs, first, "evaluate")
    doc["result"]["value_utils"] += 1e-6 * (1.0 + abs(doc["result"]["value_utils"]))
    assert check.check(argv, 0, json.dumps(doc))

    argv, doc = report(jobs, first, "ce")
    doc["result"]["certainty_equivalent"] *= 1.0 + 1e-6
    assert check.check(argv, 0, json.dumps(doc))

    argv, doc = report(jobs, first, "compare")
    doc["result"]["relation"] = {">": "<", "<": ">", "~": ">"}[doc["result"]["relation"]]
    assert check.check(argv, 0, json.dumps(doc))

    argv, doc = report(jobs, first, "cmin")
    doc["result"]["dual_lower_bound"] = doc["result"]["direct_penalty"] + 1e-3
    assert check.check(argv, 0, json.dumps(doc))

    argv, doc = report(jobs, first, "battery")
    doc["result"]["total_violations"] = 1
    assert check.check(argv, 0, json.dumps(doc))

    argv, doc = report(jobs, first, "portfolio")
    doc["result"]["objective"] += 1e-6
    assert check.check(argv, 0, json.dumps(doc))
    argv, doc = report(jobs, first, "portfolio")
    doc["result"]["weights"][0] += 1e-3
    assert check.check(argv, 0, json.dumps(doc))

    assert check.check(argv, 2, "")


def test_gini_oracle_matches_a_fine_scan():
    import numpy as np

    rng = np.random.default_rng(3)
    u = rng.uniform(-2.0, 2.0, size=2)
    p = np.array([0.3, 0.7])
    q = np.linspace(0.0, 1.0, 200_001)
    scan = np.min(q * u[0] + (1 - q) * u[1] + 0.4 * ((q - p[0]) ** 2 / p[0] + (1 - q - p[1]) ** 2 / p[1]))
    assert check._gini_min(u, p, 0.4) == pytest.approx(scan, abs=1e-9)


def snapshot(workdir, jobs):
    files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    argv = [tuple(arg.replace(str(workdir), "<work>") for arg in job.argv) for job in jobs]
    return files, argv


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    a = snapshot(tmp_path / "a", workloads.build(workload, 11, tmp_path / "a", ROOT / "fixtures"))
    b = snapshot(tmp_path / "b", workloads.build(workload, 11, tmp_path / "b", ROOT / "fixtures"))
    c = snapshot(tmp_path / "c", workloads.build(workload, 12, tmp_path / "c", ROOT / "fixtures"))
    assert a == b
    assert a != c


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_small", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""rankrobust benchmark: seeded CLI workloads, end-to-end metrics, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evaluate_large --seed 1 --seconds 35 --trace 0

The command writes the workload's seeded inputs under ``perfbench/_work``,
then runs its fixed job list as a closed loop with one client: each job is
an in-process ``rankrobust.cli.main(argv)`` call with stdout captured, and
the next job starts when the previous one returns.  Whole passes over the
job list repeat while another pass fits in ``--seconds``.  Every job's
report is checked (see ``check.py``); later passes must repeat the first
pass's reports byte for byte.

``--trace 0`` reports the end-to-end metrics.  Times are host-normalised
(see ``probe.py``): each job's time is divided by the geometric mean of a
fixed probe timed right before and right after it, and multiplied by the
probe's quiet-host time, which cancels most of a shared host's slow
phases; each job's figure is the median of this over the passes.

* ``setup_s``     -- median, over two fresh interpreters started before
  every pass, of importing ``rankrobust.cli`` and parsing the first job's
  inputs, normalised by a pure-Python probe run in the same interpreter
  right before and right after;
* ``wall_s``      -- time of one pass over the job list, as the sum of
  each job's figure;
* ``jobs_per_s``  -- jobs in the list over ``wall_s``;
* ``job_p50_ms``, ``job_tail_ms`` -- median and tail over the jobs' figures;
  the tail is the order statistic with ten jobs above it, and its
  percentile is printed with the job count;
* ``pass_ratio``  -- jobs that passed their check over jobs attempted
  (``fail_ratio`` is its complement and is printed too);
* ``peak_rss_mb`` -- peak resident memory of this process.

The same figures without normalisation are printed beside them.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` from the fastest traced pass, plus
``trace_overhead``: that pass's time over the fastest untraced pass's
(interference only ever adds time).
The spans of that pass are written to ``perfbench/_work/<workload>/spans.npz``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance of the result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BLAS_THREADS = "1"
if __name__ == "__main__":
    # One client on a small machine: keep BLAS from adding its own threads.
    # Set before numpy is first imported; set-up interpreters inherit it.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import check  # noqa: E402
import probe  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS_PER_PASS = 2
TAIL_BEYOND = 10
#: Line count of src/rankrobust at the commit that introduced this benchmark.
SEED_SRC_LINES = 2850

SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
from probe import interpreter_probe
from time import perf_counter
before = interpreter_probe()
start = perf_counter()
sys.path.insert(0, sys.argv[2])
import rankrobust.cli as cli
args = cli.build_parser().parse_args(sys.argv[3:])
if getattr(args, "scenario", None):
    (cli.parse_panel if args.command == "portfolio" else cli.parse_scenario)(args.scenario)
elapsed = perf_counter() - start
print(elapsed, before, interpreter_probe())
"""


def end_to_end_units() -> dict[str, str]:
    return {"setup_s": "s", "wall_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
            "job_tail_ms": "ms", "pass_ratio": "ratio", "peak_rss_mb": "MB"}


def normalised(seconds: float, before: float, after: float, reference: float) -> float:
    """``seconds`` at the host speed where the probe takes ``reference`` seconds."""
    return seconds * reference / (before * after) ** 0.5


def measure_setup(job: workloads.Job) -> tuple[float, float]:
    """(raw, normalised) seconds of a fresh interpreter importing the CLI and parsing the inputs."""
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(ROOT / "perfbench"), str(SRC), *job.argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    elapsed, before, after = (float(x) for x in proc.stdout.split())
    return elapsed, normalised(elapsed, before, after, probe.INTERPRETER_REFERENCE_S)


def run_job(cli_main, job: workloads.Job, tracer=None, index: int = 0) -> tuple[int, str, float]:
    """Run one job in-process; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = tracer.run_root(index, cli_main, list(job.argv)) if tracer else cli_main(list(job.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing job is a failed job, not a crashed benchmark
            traceback.print_exc()
            code = -1
    elapsed = perf_counter() - start
    if code != 0:
        out.write(err.getvalue())
    return code, out.getvalue(), elapsed


class Pass:
    """One pass over the job list; with a ``probe_fn``, it is timed before every job and after the last."""

    def __init__(self, cli_main, jobs, tracer=None, probe_fn=None):
        self.codes, self.outputs, self.latencies, self.probes = [], [], [], []
        start = perf_counter()
        for index, job in enumerate(jobs):
            if probe_fn:
                self.probes.append(probe_fn())
            code, output, elapsed = run_job(cli_main, job, tracer, index)
            self.codes.append(code)
            self.outputs.append(output)
            self.latencies.append(elapsed)
        if probe_fn:
            self.probes.append(probe_fn())
        self.wall = perf_counter() - start

    def normalised(self) -> list[float]:
        """Each job's latency normalised by the probes on either side of it."""
        return [normalised(t, before, after, probe.ARRAY_REFERENCE_S)
                for t, before, after in zip(self.latencies, self.probes, self.probes[1:])]


def repeat_passes(seconds: float, run_pass) -> None:
    """Call ``run_pass()`` at least once, then while another call fits in ``seconds``."""
    start = perf_counter()
    last = run_pass()
    while perf_counter() - start + last <= seconds:
        last = run_pass()


def verdicts(jobs, first: Pass) -> list[str | None]:
    """Check every report of the first pass; None means correct."""
    out = []
    for job, code, output in zip(jobs, first.codes, first.outputs):
        try:
            out.append(check.check(job.argv, code, output))
        except Exception as exc:  # a report the check cannot read is wrong
            out.append(f"check raised {type(exc).__name__}: {exc}")
    return out


def failures(jobs, first: Pass, later: Pass, first_verdicts) -> list[tuple[str, str | None]]:
    """(job name, reason or None) per job; a repeat fails if the first run failed or its report changed."""
    return [
        (job.name, verdict or (None if (code, output) == (first.codes[i], first.outputs[i])
                               else "report differs from the first pass"))
        for i, (job, verdict, code, output) in enumerate(zip(jobs, first_verdicts, later.codes, later.outputs))
    ]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the order statistic with TAIL_BEYOND jobs above it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def summary(outcomes: list[tuple[str, str | None]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, distinct failure reasons)."""
    failed = [f"{name}: {reason}" for name, reason in outcomes if reason]
    return len(outcomes), len(failed), sorted(set(failed))


def timed_run(cli_main, jobs, seconds: float) -> dict:
    """Alternate a set-up measurement and a probed pass over the job list."""
    measure_setup(jobs[0])  # the first start also compiles the package's bytecode
    array_probe = probe.ArrayProbe()
    setups: list[tuple[float, float]] = []
    passes: list[Pass] = []

    def run_cycle() -> float:
        start = perf_counter()
        setups.extend(measure_setup(jobs[0]) for _ in range(SETUPS_PER_PASS))
        passes.append(Pass(cli_main, jobs, probe_fn=array_probe))
        return perf_counter() - start

    repeat_passes(seconds, run_cycle)
    first_verdicts = verdicts(jobs, passes[0])
    attempted, failed, reasons = summary([f for p in passes for f in failures(jobs, passes[0], p, first_verdicts)])
    per_pass = [p.normalised() for p in passes]
    figures = [statistics.median(n[i] for n in per_pass) for i in range(len(jobs))]
    raw = [statistics.median(p.latencies[i] for p in passes) for i in range(len(jobs))]
    tail_value, pct = tail(figures)
    metrics = {
        "setup_s": statistics.median(n for _, n in setups),
        "wall_s": sum(figures),
        "jobs_per_s": len(jobs) / sum(figures),
        "job_p50_ms": 1000.0 * statistics.median(figures),
        "job_tail_ms": 1000.0 * tail_value,
        "pass_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "passes": len(passes),
        "raw_setup_s": statistics.median(r for r, _ in setups),
        "raw_wall_s": sum(raw),
        "raw_job_p50_ms": 1000.0 * statistics.median(raw),
        "probe_median_ms": 1000.0 * statistics.median(q for p in passes for q in p.probes),
        "pass_walls_s": [p.wall for p in passes],
        "fail_ratio": failed / attempted,
        "job_tail_percentile": pct,
        "jobs_in_list": len(jobs),
        "job_runs": attempted,
        "failures": reasons,
        "job_ms": {f"{job.name}#{i}": 1000.0 * t for i, (job, t) in enumerate(zip(jobs, figures))},
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def traced_run(cli_main, jobs, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes; per-layer numbers come from the fastest traced pass."""
    tracer = tracing.Tracer()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    aggregates: list[dict] = []
    spans = {}

    def run_pair() -> float:
        untraced.append(Pass(cli_main, jobs))
        tracer.reset()
        tracer.install()
        try:
            traced.append(Pass(cli_main, jobs, tracer))
        finally:
            tracer.uninstall()
        aggregates.append(tracer.aggregate())
        if traced[-1].wall == min(p.wall for p in traced):
            spans.update(tracer.arrays())
        return untraced[-1].wall + traced[-1].wall

    repeat_passes(seconds, run_pair)
    np.savez(spans_path, names=np.array(tracing.SPANS), **spans)
    first_verdicts = verdicts(jobs, untraced[0])
    outcomes = [f for p in untraced + traced for f in failures(jobs, untraced[0], p, first_verdicts)]
    counted = [name for name, unit in tracing.metric_names() if unit == "count"]
    for agg in aggregates[1:]:
        if any(agg[name] != aggregates[0][name] for name in counted):
            outcomes += [(job.name, "span counts differ between traced passes") for job in jobs]
    attempted, failed, reasons = summary(outcomes)
    fastest = min(range(len(traced)), key=lambda k: traced[k].wall)
    metrics = {name: aggregates[fastest][name] for name, _ in tracing.metric_names() if name in aggregates[fastest]}
    metrics["trace.untraced_wall_s"] = min(p.wall for p in untraced)
    metrics["trace.traced_wall_s"] = traced[fastest].wall
    metrics["trace_overhead"] = metrics["trace.traced_wall_s"] / metrics["trace.untraced_wall_s"]
    notes = {"passes": f"{len(untraced)} untraced + {len(traced)} traced",
             "self_s_sum": sum(metrics[f"layer.{layer}.self_s"] for layer in tracing.LAYERS),
             "failures": reasons}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def provenance(workload: str, seed: int) -> dict:
    import scipy

    sha = "unavailable"  # a checkout without .git, or without git installed
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                 timeout=30).stdout.strip() or sha
        except OSError:
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "rankrobust").glob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "src_rankrobust_lines": src_lines,
        "src_rankrobust_net_lines": src_lines - SEED_SRC_LINES,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rankrobust" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no rankrobust sources under {SRC} (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rankrobust.cli

    if Path(rankrobust.cli.__file__).resolve().parent != SRC / "rankrobust":
        print(f"error: imported rankrobust from {rankrobust.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / "perfbench" / "_work" / args.workload
    jobs = workloads.build(args.workload, args.seed, workdir, ROOT / "fixtures")
    if args.trace:
        result = traced_run(rankrobust.cli.main, jobs, args.seconds, workdir / "spans.npz")
        units = dict(tracing.metric_names())
    else:
        result = timed_run(rankrobust.cli.main, jobs, args.seconds)
        units = end_to_end_units()

    print(f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)}  passes {result['notes']['passes']}")
    for name, value in result["metrics"].items():
        print(f"  {name:52s} {value:>16.6g} {units[name]}")
    for key, value in result["notes"].items():
        if key not in ("passes", "job_ms"):
            print(f"  {key}: {value}")
    print(json.dumps({"provenance": provenance(args.workload, args.seed),
                      "job_ms": result["notes"].get("job_ms")}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

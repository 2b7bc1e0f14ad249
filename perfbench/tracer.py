"""Benchmark-side tracing of rankrobust's public functions.

``Tracer.install`` wraps each function in ``SPANS`` with a span recorder
and ``Tracer.uninstall`` puts the originals back, so untraced passes run
the unmodified package.  Spans are kept in memory as flat arrays (name,
parent span, job, start, end) and aggregated once a pass is over:

* ``<span>.calls``   -- number of calls;
* ``<span>.total_s`` -- summed wall time of the calls;
* ``<span>.self_s``  -- summed wall time minus the time of child spans.

Every job runs under a ``cli.main`` root span, so the self times of all
spans add up to the traced job time.  Two counts are taken at the same
boundaries: ``evaluator.inner_rdu.cells`` (states x outcomes handed to
the inner layer) and ``ambiguity.c_min_bruteforce.rows`` (lattice rows
passed to ``robust_values``).
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

ROOT_SPAN = "cli.main"
SPANS = (
    ROOT_SPAN,
    "cli.parse_scenario",
    "cli.parse_panel",
    "ambiguity.parse_penalty",
    "distribution.DiscreteDistribution.__init__",
    "distribution.DiscreteDistribution.survival",
    "utility.UtilityFn.__call__",
    "utility.UtilityFn.inverse",
    "distortion.choquet",
    "distortion.Distortion.__call__",
    "ambiguity.MaxminSet.robust_min",
    "ambiguity.MaxminSet.robust_values",
    "ambiguity.Entropic.robust_min",
    "ambiguity.Entropic.robust_values",
    "ambiguity.Gini.robust_min",
    "ambiguity.Gini.robust_values",
    "ambiguity.Tabulated.robust_min",
    "ambiguity.Tabulated.robust_values",
    "ambiguity.c_min_bruteforce",
    "evaluator.evaluate",
    "evaluator.inner_rdu",
    "evaluator.prefer",
    "evaluator.reduction_suite",
    "evaluator.ambiguity_aversion_check",
    "evaluator.generate_battery",
    "portfolio.optimize",
    "portfolio.mean_risk_objective",
    "portfolio.portfolio_variable",
)
COUNTS = ("evaluator.inner_rdu.cells", "ambiguity.c_min_bruteforce.rows")
LAYERS = ("cli", "distribution", "utility", "distortion", "ambiguity", "evaluator", "portfolio")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for span in SPANS:
        names += [(f"{span}.calls", "count"), (f"{span}.total_s", "s"), (f"{span}.self_s", "s")]
    names += [(count, "count") for count in COUNTS]
    for layer in LAYERS:
        names += [(f"layer.{layer}.self_s", "s"), (f"layer.{layer}.self_share", "ratio")]
    names += [("trace.job_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
              ("trace_overhead", "ratio")]
    return names


class Tracer:
    """Records nested spans around the package's public functions."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts.update(dict.fromkeys(COUNTS, 0))
        self.job_index = -1
        self._stack = [-1]

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_index)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, nid: int, fn):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        if name == "evaluator.inner_rdu":
            @functools.wraps(fn)
            def counted(v, *args, **kwargs):
                counts["evaluator.inner_rdu.cells"] += int(np.size(v.payoffs))
                return fn(v, *args, **kwargs)
        elif name == "ambiguity.c_min_bruteforce":
            @functools.wraps(fn)
            def counted(eval_ce, *args, **kwargs):
                def rows(block):
                    counts["ambiguity.c_min_bruteforce.rows"] += len(block)
                    return eval_ce(block)
                return fn(rows, *args, **kwargs)
        else:
            return fn
        return counted

    def run_root(self, job_index: int, fn, *args):
        """Call ``fn(*args)`` as the root span of one job."""
        self.job_index = job_index
        idx = self._enter(0)
        try:
            return fn(*args)
        finally:
            self._exit(idx)

    def install(self) -> None:
        """Wrap every span target that exists in the imported package."""
        modules = [m for name, m in list(sys.modules.items()) if name == "rankrobust" or name.startswith("rankrobust.")]
        for nid, name in enumerate(SPANS):
            if name == ROOT_SPAN:
                continue
            module_name, *attrs = name.split(".")
            module = importlib.import_module(f"rankrobust.{module_name}")
            if len(attrs) == 2:
                cls = getattr(module, attrs[0], None)
                if cls is None or attrs[1] not in vars(cls):
                    continue
                original = vars(cls)[attrs[1]]
                self._patches.append((cls, attrs[1], original))
                setattr(cls, attrs[1], self._wrap(nid, self._counted(name, original)))
                continue
            original = getattr(module, attrs[0], None)
            if original is None:
                continue
            wrapped = self._wrap(nid, self._counted(name, original))
            # Callers bind the function by name at import; rebind each one.
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def aggregate(self) -> dict[str, float]:
        """Per-span calls/total/self, per-layer self time, counts and job time."""
        a = self.arrays()
        n_names = len(SPANS)
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=duration[has_parent], minlength=duration.size)
        own = duration - child
        calls = np.bincount(a["name_id"], minlength=n_names)
        total = np.bincount(a["name_id"], weights=duration, minlength=n_names)
        self_s = np.bincount(a["name_id"], weights=own, minlength=n_names)
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, name in enumerate(SPANS):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.total_s"] = float(total[nid])
            out[f"{name}.self_s"] = float(self_s[nid])
            layer_self[name.split(".")[0]] += float(self_s[nid])
        out.update(self.counts)
        job_s = float(total[0])
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_self[layer]
            out[f"layer.{layer}.self_share"] = layer_self[layer] / job_s if job_s > 0 else 0.0
        out["trace.job_s"] = job_s
        return out

"""Fixed reference computations that gauge the host's current speed.

The benchmark runs on a few cores of a shared host.  Other tenants slow
it in phases that switch every few seconds and last up to minutes, by
up to 1.7x; the same code then reads 30% apart between runs.  A probe is
a fixed computation that never changes with the program under test.
Timing one right before and right after each job, and dividing the
job's time by theirs, cancels most of the phase's slowdown.  Multiplying
by the probe's time on a quiet host (``*_REFERENCE_S``) keeps the result
in seconds: "this job's time on the host at reference speed".

This file imports nothing at module level but ``time``, so a set-up
interpreter can load it before it times importing the package.
"""

from __future__ import annotations

from time import perf_counter

#: About the seconds ``ArrayProbe`` and ``interpreter_probe`` take on a
#: quiet 2-vCPU host.  They only scale the normalised times; keep them fixed.
ARRAY_REFERENCE_S = 0.004
INTERPRETER_REFERENCE_S = 0.004

_WORDS = [f"k{i:03d}" for i in range(64)]


def interpreter_probe() -> float:
    """Seconds of a pure-Python mix of dict, sort, string and integer work."""
    start = perf_counter()
    for _ in range(72):
        table: dict[str, float] = {}
        for i, word in enumerate(_WORDS):
            table[word] = table.get(word, 0.0) + i * 0.5
        ranked = sorted(table.items(), key=lambda kv: -kv[1])
        acc = 0
        for i in range(400):
            acc += (i * i) % 7
        text = ",".join(f"{k}={v:.3f}" for k, v in ranked[:16])
        [part.split("=") for part in text.split(",")]
    return perf_counter() - start


class ArrayProbe:
    """Times a mix like a small evaluation: JSON parsing, tiny numpy sorts and sums, a Python loop."""

    def __init__(self):
        import json

        import numpy as np

        rng = np.random.default_rng(0)
        self._json, self._np = json, np
        self._doc = json.dumps({f"s{i}": {"p": list(rng.random(8)), "x": list(rng.random(8))} for i in range(6)})

    def __call__(self) -> float:
        json, np = self._json, self._np
        start = perf_counter()
        acc = 0.0
        for _ in range(40):
            for state in json.loads(self._doc).values():
                x, p = np.asarray(state["x"]), np.asarray(state["p"])
                acc += float(np.cumsum(p[np.argsort(x)][::-1])[-1]) + float(np.dot(x, p))
            total = 0
            for i in range(300):
                total += (i * i) % 7
        return perf_counter() - start

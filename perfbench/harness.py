"""Shared pieces of the workloads: statistics, digests, timing, results."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); the maximum for q=100."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def op_seed(seed: int, k: int) -> int:
    """The sampling seed of op ``k`` of a run with workload seed ``seed``."""
    return int(np.random.default_rng([seed, k]).integers(2**31))


def report_digest(report) -> str:
    """SHA-256 of a report's full JSON form (samples included).

    A design report's sizing trace records each step's wall time
    (``seconds``); that is a measurement, not a result, so it is left out.
    """
    payload = report.to_dict()
    for step in payload.get("trace", ()):
        step.pop("seconds", None)
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(tracer):
    """Context in which ``tracer`` (if any) records nothing."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def timed_setups(reps: int, setup):
    """Run ``setup`` ``reps`` times; returns (median seconds, every result).

    Each repetition starts from a collected heap, so one repetition's
    garbage is not charged to the next.
    """
    seconds = []
    results = []
    for _ in range(reps):
        gc.collect()
        start = time.perf_counter()
        results.append(setup())
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), results


def run_ops(seconds: float, min_ops: int, op, prepare=None) -> list[float]:
    """Call ``op(k)`` until ``seconds`` have passed and ``min_ops`` ran.

    Returns each call's wall time.  An op started before the deadline
    runs to completion.  ``prepare(k)``, if given, runs before each op,
    outside its timing.
    """
    times = []
    start = time.perf_counter()
    k = 0
    while k < min_ops or time.perf_counter() - start < seconds:
        if prepare is not None:
            prepare(k)
        begin = time.perf_counter()
        op(k)
        times.append(time.perf_counter() - begin)
        k += 1
    return times


@dataclass
class Measurement:
    """What one workload measured: end-to-end numbers plus op accounting.

    ``named`` holds the workload's own end-to-end figures under their
    descriptive names (``mc.gate_samples_per_s`` ...), printed but not
    among the benchmark's metrics; ``layer`` the
    non-span layer figures (counters the workload reads from results and
    ``/v1/stats``).
    """

    setup_s: float
    peak_rss_mb: float
    op_p50_ms: float
    attempted: int
    failed: int
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)

    def end_to_end(self) -> dict[str, dict]:
        return {
            "setup_s": {"value": self.setup_s, "unit": "s"},
            "peak_rss_mb": {"value": self.peak_rss_mb, "unit": "MB"},
            "op_p50_ms": {"value": self.op_p50_ms, "unit": "ms"},
        }


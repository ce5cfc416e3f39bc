"""Repository benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload mc_scale --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice on half the time each, first
untraced and then with every layer function wrapped (see ``tracer.py``),
and reports the per-layer metrics of ``layers.py`` plus the tracing
overhead (traced minus untraced end-to-end numbers).  ``--workload all``
runs every workload in its own process and prints each one's result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the host, the workload's named figures and its error fraction.
The program under test is imported from ``src/`` of the checkout this
file sits in; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("mc_scale", "design_table2", "sweep_resume", "serve_zipf")

#: Set-up repetitions of an untraced run (its ``setup_s`` is their median).
SETUP_REPS = 3

#: Environment knobs that would override the default timing-kernel tier.
KERNEL_ENV = ("REPRO_TIMING_KERNEL", "REPRO_TIMING_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_block() -> dict:
    import numpy

    from repro.timing.kernels import resolve_config

    config = resolve_config(None)
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": config.to_dict(),
        "kernel_threads": config.resolved_threads(),
    }


def run_all(args) -> int:
    """Every workload in its own interpreter; prints each result line."""
    status = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        print(f"== {name} (exit {completed.returncode})")
        print("\n".join(lines))
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            status = 1
    return status


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir):
    """(measurement, layer metrics or None) of one workload run."""
    import layers
    import tracer as tracing

    module = importlib.import_module(workload)
    if not trace:
        return module.measure(seed, seconds, SETUP_REPS, None, workdir), None

    base = module.measure(seed, seconds / 2, 1, None, workdir / "untraced")
    spans_dir = workdir / "spans"
    spans_dir.mkdir(parents=True)
    recorder = tracing.Tracer(flush_dir=str(spans_dir))
    missing = tracing.install(recorder)
    for target in missing:
        print(f"perfbench: trace target not found: {target}", file=sys.stderr)
    traced = module.measure(seed, seconds / 2, 1, recorder, workdir / "traced")
    spans = recorder.spans + tracing.read_span_files(str(spans_dir))

    values = layers.span_metrics(layers.SpanIndex(spans))
    values.update(traced.layer)
    values["trace.missing_targets"] = len(missing)
    base_e2e, traced_e2e = base.end_to_end(), traced.end_to_end()
    for name in ("setup_s", "op_p50_ms"):
        values[f"trace.overhead_{name}"] = (
            traced_e2e[name]["value"] - base_e2e[name]["value"]
        )
    traced.attempted += base.attempted
    traced.failed += base.failed
    return traced, layers.layer_report(values)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be positive, --seed not negative",
              file=sys.stderr)
        return 2
    for name in KERNEL_ENV:
        os.environ.pop(name, None)
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(HERE)]
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        measurement, layer_metrics = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("host " + json.dumps(host_block(), sort_keys=True))
    for name, (value, unit) in measurement.named.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(
        f"{args.workload} error_fraction = "
        f"{measurement.failed / measurement.attempted:.6g} "
        f"({measurement.failed} of {measurement.attempted} ops)"
    )
    metrics = layer_metrics if args.trace else measurement.end_to_end()
    print(json.dumps({
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

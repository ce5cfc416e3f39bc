"""sweep_resume: a checkpointed 48-point sweep resumed over a process pool.

The grid is inverter-chain studies, ``n_stages`` x ``logic_depth`` x
backend (``montecarlo``/``ssta``) with 20k samples, run with
``run_sweep(n_jobs=2)`` and a checkpoint store.  Set-up computes half of
the points into a store; each op resumes the sweep on a fresh copy of that
half-warm store, so it reads the stored half and computes and writes the
rest.  The ``robust`` executor, its pool and the checkpoint store do the
work here, and no other workload exercises them.

Every op's points must be bit-identical to a serial sweep without a
store, computed once after the timed ops.
"""

from __future__ import annotations

import multiprocessing
import shutil
import statistics

import numpy as np

from harness import (
    Measurement,
    peak_rss_mb,
    run_ops,
    timed_setups,
    untraced,
)
from tracer import read_span_files

N_STAGES = (2, 3, 4, 5)
LOGIC_DEPTHS = (3, 4, 5, 6, 7, 8)
BACKENDS = ("montecarlo", "ssta")
N_SAMPLES = 20_000
N_JOBS = 2
MIN_OPS = 2


def measure(seed, seconds, setup_reps, tracer, workdir) -> Measurement:
    from repro.api import (
        AnalysisSpec,
        ExecutionPolicy,
        PipelineSpec,
        ScenarioSweep,
        Session,
        StudySpec,
        VariationSpec,
        run_sweep,
    )
    from repro.robust.checkpoint import CheckpointStore

    rng = np.random.default_rng(seed)
    base = StudySpec(
        pipeline=PipelineSpec(kind="inverter_chain"),
        variation=VariationSpec.combined(),
        analysis=AnalysisSpec(
            backend="montecarlo", n_samples=N_SAMPLES, seed=int(rng.integers(2**31))
        ),
    )
    axes = {
        "pipeline.n_stages": list(N_STAGES),
        "pipeline.logic_depth": list(LOGIC_DEPTHS),
        "analysis.backend": list(BACKENDS),
    }
    n_points = len(N_STAGES) * len(LOGIC_DEPTHS) * len(BACKENDS)
    tasks = ScenarioSweep(base, axes).tasks(Session())
    # Alternate (n_stages, logic_depth) cells, both backends of each, so
    # the stored half and the computed half cost the same.
    warm = [task.spec for task in tasks if task.index // len(BACKENDS) % 2 == 0]
    workdir.mkdir(parents=True, exist_ok=True)

    def populate(store_dir):
        def setup():
            shutil.rmtree(store_dir, ignore_errors=True)
            session = Session(store=CheckpointStore(store_dir))
            for spec in warm:
                session.run(spec)
        return setup

    setup_s, _ = timed_setups(setup_reps, populate(workdir / "warm"))

    results = []

    def prepare(k: int) -> None:
        # The executor shuts its pool down without waiting; reap the last
        # op's workers so they do not run into this op.
        for child in multiprocessing.active_children():
            child.join()
        with untraced(tracer):
            shutil.copytree(workdir / "warm", workdir / f"op{k}")

    def op(k: int) -> None:
        policy = ExecutionPolicy(checkpoint_dir=str(workdir / f"op{k}"))
        results.append(run_sweep(base, axes, n_jobs=N_JOBS, policy=policy))

    times = run_ops(seconds, MIN_OPS, op, prepare)
    for child in multiprocessing.active_children():
        child.join()

    with untraced(tracer):
        serial = run_sweep(base, axes, session=Session())
    expected = [point.to_dict() for point in serial.points]
    failed = 0
    retries = respawns = resumed = 0
    for result in results:
        got = [point.to_dict() for point in result.points]
        failed += sum(1 for a, b in zip(got, expected) if a != b)
        failed += n_points - min(len(got), n_points)
        retries += result.trace.n_retries
        respawns += result.trace.n_worker_respawns
        resumed += result.trace.checkpoint_hits

    sweep_s = statistics.median(times)
    layer = {
        "robust.retries": retries,
        "robust.respawns": respawns,
        "robust.parallel_base_s": N_JOBS * sum(times),
    }
    if tracer is not None:
        # Pool workers flushed their spans; their top-level session calls
        # are the compute the pool did.
        layer["robust.worker_compute_s"] = sum(
            span["end"] - span["start"]
            for span in read_span_files(tracer.flush_dir)
            if span["pid"] != tracer.main_pid and span["parent"] is None
            and span["name"] == "api.session"
        )
        layer["robust.parallel_efficiency"] = (
            layer["robust.worker_compute_s"] / layer["robust.parallel_base_s"]
        )
    return Measurement(
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb(),
        op_p50_ms=1000.0 * sweep_s,
        attempted=n_points * len(times),
        failed=failed,
        named={
            "sweep.points_per_s": (n_points / sweep_s, "1/s"),
            "sweep.resumed_share": (resumed / (n_points * len(times)), "ratio"),
        },
        layer=layer,
    )

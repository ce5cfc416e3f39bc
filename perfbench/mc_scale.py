"""mc_scale: Monte-Carlo studies of one large Rent's-rule logic stage.

Each op is one ``montecarlo`` study of a single 50k-gate ``scale_logic``
stage (240 samples in chunks of 60) on a warm ``Session`` whose pipeline
and timing schedule are already built; every op uses a new sampling seed,
so no op is answered from the session's report cache.  Netlist
marshalling, sampling, the delay model and level propagation do almost
all the work.

Set-up is building the stage netlist and compiling its timing schedule.
Each op's report is checked against a reference computed after the timed
ops by driving ``MonteCarloEngine`` directly on a separately built copy
of the same netlist.
"""

from __future__ import annotations

import statistics

import numpy as np

from harness import (
    Measurement,
    op_seed,
    peak_rss_mb,
    report_digest,
    run_ops,
    timed_setups,
    untraced,
)

N_GATES = 50_000
N_SAMPLES = 240
CHUNK_SIZE = 60
MIN_OPS = 3
#: Op index of the untimed warm-up study (its seed differs from every op's).
WARMUP_OP = 1_000_000


def measure(seed, seconds, setup_reps, tracer, workdir) -> Measurement:
    from repro.api import AnalysisSpec, PipelineSpec, Session, StudySpec, VariationSpec
    from repro.api.backends import delay_report_from_pipeline_run
    from repro.montecarlo.engine import MonteCarloEngine

    rng = np.random.default_rng(seed)
    pipeline_spec = PipelineSpec(
        kind="scale_logic",
        n_stages=1,
        options={"n_gates": N_GATES, "seed": int(rng.integers(2**31))},
    )
    variation = VariationSpec.combined()

    def setup():
        session = Session()
        session.pipeline(pipeline_spec)
        return session

    # At least two builds, so the reference runs on its own netlist.
    setup_s, sessions = timed_setups(max(setup_reps, 2), setup)
    session, reference_pipeline = sessions[-1], sessions[0].pipeline(pipeline_spec)
    del sessions

    def spec(k: int) -> StudySpec:
        return StudySpec(
            pipeline=pipeline_spec,
            variation=variation,
            analysis=AnalysisSpec(
                backend="montecarlo",
                n_samples=N_SAMPLES,
                seed=op_seed(seed, k),
                chunk_size=CHUNK_SIZE,
            ),
        )

    # One untimed study first: the first run on a session allocates its
    # sample workspaces, which no later op pays again.
    session.analyze(spec(WARMUP_OP))
    reports = []
    times = run_ops(seconds, MIN_OPS, lambda k: reports.append(session.analyze(spec(k))))

    failed = 0
    with untraced(tracer):
        for k, report in enumerate(reports):
            engine = MonteCarloEngine(
                variation.build(),
                technology=session.technology,
                n_samples=N_SAMPLES,
                seed=op_seed(seed, k),
                chunk_size=CHUNK_SIZE,
            )
            reference = delay_report_from_pipeline_run(
                engine.run_pipeline(reference_pipeline)
            )
            failed += report_digest(report) != report_digest(reference)

    study_s = statistics.median(times)
    gate_samples = reference_pipeline.stages[0].netlist.n_gates * N_SAMPLES
    return Measurement(
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb(),
        op_p50_ms=1000.0 * study_s,
        attempted=len(times),
        failed=failed,
        named={
            "mc.gate_samples_per_s": (gate_samples / study_s, "1/s"),
            "mc.study_s_p50": (study_s, "s"),
        },
    )

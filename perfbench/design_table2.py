"""design_table2: the paper's Table II yield-driven design flow.

Each op answers the Table II ``DesignStudySpec`` (``iscas`` pipeline,
``global`` optimizer, ``lagrangian`` sizer with ``max_outer=30``,
``sized`` delay policy, Monte-Carlo validation with 1500 samples) on a
fresh ``Session``, so the sizer, baseline and curve caches start cold as
in a one-shot ``run_study``.  The seed picks the run's pipeline yield
target and a new validation seed for every op.  SSTA, the sizers and
incremental timing do almost all the work; the netlist is written
(``set_sizes``) as well as read.

Set-up is building the pipeline.  Each op's report is checked against a
reference answered after the timed ops by one shared session, which
computes the first reference cold and the rest from its cached baseline
and curves -- a second path to the same numbers.
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

YIELD_TARGETS = (0.79, 0.80, 0.81)
MIN_OPS = 1


def measure(seed, seconds, setup_reps, tracer, workdir) -> Measurement:
    from repro.api import (
        AnalysisSpec,
        DesignSpec,
        DesignStudySpec,
        PipelineSpec,
        Session,
        VariationSpec,
    )

    rng = np.random.default_rng(seed)
    yield_target = YIELD_TARGETS[int(rng.integers(len(YIELD_TARGETS)))]
    pipeline_spec = PipelineSpec(kind="iscas")
    design = DesignSpec(
        optimizer="global",
        sizer="lagrangian",
        sizer_options={"max_outer": 30},
        yield_target=yield_target,
        stage_yield=0.95,
        delay_policy="sized",
        delay_probe=0.6,
        delay_scale=0.92,
        curve_points=4,
        ordering="ri_ascending",
    )

    def spec(k: int) -> DesignStudySpec:
        return DesignStudySpec(
            pipeline=pipeline_spec,
            variation=VariationSpec.combined(),
            design=design,
            validation=AnalysisSpec(
                backend="montecarlo", n_samples=1500, seed=op_seed(seed, k)
            ),
        )

    setup_s, _ = timed_setups(setup_reps, lambda: Session().pipeline(pipeline_spec))

    reports = []
    times = run_ops(seconds, MIN_OPS, lambda k: reports.append(Session().design(spec(k))))

    failed = 0
    with untraced(tracer):
        reference_session = Session()
        for k, report in enumerate(reports):
            reference = reference_session.design(spec(k))
            failed += report_digest(report) != report_digest(reference)

    study_s = statistics.median(times)
    return Measurement(
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb(),
        op_p50_ms=1000.0 * study_s,
        attempted=len(times),
        failed=failed,
        named={
            "design.study_s_p50": (study_s, "s"),
            "design.yield_target": (yield_target, "ratio"),
        },
    )

"""Shared helpers for the benchmark harness.

Every benchmark module reproduces one table or figure of the paper.  The
convention is:

* the workload runs exactly once per benchmark (``run_once``) -- these are
  experiments, not micro-benchmarks, so repeating them only wastes time,
* the reproduced rows/series are written to ``benchmarks/results/<name>.txt``
  (and echoed to stdout), so they survive pytest's output capturing and can
  be diffed against EXPERIMENTS.md,
* characterisation goes through the Study API (:mod:`repro.api`) on one
  module-shared :class:`~repro.api.session.Session`, so benchmarks that ask
  for both the Monte-Carlo truth and the analytical model of the same
  configuration sample the circuit exactly once.
"""

from __future__ import annotations

import os
import pathlib
import platform
import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.api import (
    AnalysisSpec,
    DelayReport,
    DesignReport,
    DesignSpec,
    DesignStudySpec,
    PipelineSpec,
    Session,
    Study,
    StudySpec,
    VariationSpec,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_SESSION: Session | None = None


def host_info() -> dict:
    """The machine a perf benchmark's numbers were measured on."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_once(benchmark, workload):
    """Run ``workload`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(workload, rounds=1, iterations=1, warmup_rounds=0)


def timed_seconds(fn, *args, **kwargs):
    """(wall seconds, result) of one call -- the perf benches' stopwatch."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def best_of_seconds(repeats, fn, *args, **kwargs):
    """Best wall-clock of ``repeats`` calls (the first pays cache compile)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        seconds, result = timed_seconds(fn, *args, **kwargs)
        best = min(best, seconds)
    return best, result


def save_report(name: str, text: str) -> pathlib.Path:
    """Write a reproduced table/series to the results directory and stdout."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)
    return path


# ----------------------------------------------------------------------
# Study-API helpers (the boilerplate formerly copy-pasted per benchmark)
# ----------------------------------------------------------------------
def study_session() -> Session:
    """The session shared by every benchmark of one pytest run."""
    global _SESSION
    if _SESSION is None:
        _SESSION = Session()
    return _SESSION


def inverter_chain_spec(
    n_stages: int, logic_depth, size: float = 1.0
) -> PipelineSpec:
    """Spec for the paper's ``N_S x N_L`` inverter-chain pipelines."""
    return PipelineSpec(
        kind="inverter_chain", n_stages=n_stages, logic_depth=logic_depth, size=size
    )


def study_spec(
    pipeline: PipelineSpec,
    variation: VariationSpec,
    n_samples: int,
    seed: int,
    **spec_kwargs,
) -> StudySpec:
    """A Monte-Carlo study spec for one pipeline configuration."""
    return StudySpec(
        pipeline=pipeline,
        variation=variation,
        analysis=AnalysisSpec(backend="montecarlo", n_samples=n_samples, seed=seed),
        **spec_kwargs,
    )


def pipeline_study(
    pipeline: PipelineSpec,
    variation: VariationSpec,
    n_samples: int,
    seed: int,
    **spec_kwargs,
) -> Study:
    """A Monte-Carlo study of one configuration on the shared session."""
    return Study(
        study_spec(pipeline, variation, n_samples, seed, **spec_kwargs),
        session=study_session(),
    )


def characterize(
    pipeline: PipelineSpec,
    variation: VariationSpec,
    n_samples: int,
    seed: int,
) -> tuple[DelayReport, DelayReport]:
    """(Monte-Carlo, analytical-model) report pair from one sampling run.

    This is the comparison every model-verification benchmark makes: the
    two reports share the cached characterisation, so the analytical
    columns are Clark's method applied to exactly the samples the
    Monte-Carlo columns summarise -- the paper's Table I / Fig. 2 setup.
    """
    study = pipeline_study(pipeline, variation, n_samples, seed)
    return study.run(), study.run(backend="analytic")


# ----------------------------------------------------------------------
# Design-API helpers (the design-flow mirror of the study helpers)
# ----------------------------------------------------------------------
def design_study(
    pipeline: PipelineSpec,
    variation: VariationSpec,
    design: DesignSpec,
    n_samples: int | None = None,
    seed: int | None = None,
    **spec_kwargs,
) -> DesignStudySpec:
    """A design study spec, with Monte-Carlo validation when sampled."""
    validation = (
        None
        if n_samples is None
        else AnalysisSpec(backend="montecarlo", n_samples=n_samples, seed=seed)
    )
    return DesignStudySpec(
        pipeline=pipeline,
        variation=variation,
        design=design,
        validation=validation,
        **spec_kwargs,
    )


def run_design(spec: DesignStudySpec) -> DesignReport:
    """Run a design study on the shared session (cached baselines/curves)."""
    return study_session().design(spec)


def design_area_yield_table(report: DesignReport, title: str) -> str:
    """The Tables II/III before/after area-and-yield table of one report.

    Per-stage rows show area (as a percentage of the baseline total) and
    model stage yield before and after the optimization, followed by the
    pipeline totals row.  The rendering is shared by ``bench_table2`` and
    ``bench_table3`` and is pinned byte for byte by the golden snapshots.
    """
    before = report.baseline
    after = report.after
    total_before = before.total_area
    rows = []
    for index, name in enumerate(before.stage_names):
        rows.append([
            name,
            round(100.0 * before.stage_areas[index] / total_before, 1),
            round(100.0 * before.stage_yields[index], 1),
            round(100.0 * after.stage_areas[index] / total_before, 1),
            round(100.0 * after.stage_yields[index], 1),
        ])
    rows.append([
        "Pipeline",
        round(100.0 * before.total_area / total_before, 1),
        round(100.0 * before.pipeline_yield, 1),
        round(100.0 * after.total_area / total_before, 1),
        round(100.0 * after.pipeline_yield, 1),
    ])
    return format_table(
        ["stage", "area before (%)", "yield before (%)", "area after (%)", "yield after (%)"],
        rows,
        title=title,
    )

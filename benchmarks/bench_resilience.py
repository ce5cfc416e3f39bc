"""Resilience benchmark: robust-executor overhead and kill-recovery latency.

Measures what the fault-tolerant sweep path (``repro.robust``) costs when
nothing goes wrong -- the retry/timeout/trace bookkeeping wrapped around a
clean 200-point sweep, serial and parallel -- and what it buys when
something does: the wall-clock penalty of losing a worker process mid-sweep
(kill fault -> ``BrokenProcessPool`` -> pool respawn -> retry) versus the
same sweep undisturbed.  Results go to
``benchmarks/results/perf_resilience.json`` so future PRs can track the
overhead trajectory.

Run directly::

    PYTHONPATH=src python benchmarks/bench_resilience.py

or through pytest (the assertions enforce the PR's overhead ceiling)::

    PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py -q
"""

from __future__ import annotations

import functools
import json
import pathlib

from bench_utils import best_of_seconds, timed_seconds

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# 4 x 5 x 10 grid = 200 clean points, each cheap enough that executor
# bookkeeping would show up in the total if it cost anything per point.
CLEAN_AXES = {
    "pipeline.n_stages": [2, 3, 4, 5],
    "pipeline.logic_depth": [2, 3, 4, 5, 6],
    "variation.sigma_scale": [round(0.5 + 0.1 * i, 1) for i in range(10)],
}
N_SAMPLES = 120
RECOVERY_POINTS = 8
N_JOBS = 2


def _base_spec():
    from repro.api import AnalysisSpec, PipelineSpec, StudySpec, VariationSpec

    return StudySpec(
        pipeline=PipelineSpec(n_stages=2, logic_depth=3),
        variation=VariationSpec.combined(),
        analysis=AnalysisSpec(backend="montecarlo", n_samples=N_SAMPLES, seed=2005),
    )


def _tasks(axes):
    """Resolved sweep tasks on a throwaway session (seeds are concrete)."""
    from repro.api import Session
    from repro.api.sweep import ScenarioSweep

    return ScenarioSweep(_base_spec(), axes).tasks(Session())


def _bare_serial(tasks):
    """The minimal serial evaluation: a loop of ``session.run`` calls."""
    from repro.api import Session

    session = Session()
    return [session.run(task.spec) for task in tasks]


def _robust_serial(tasks, policy):
    from repro.api import Session
    from repro.robust import execute_tasks

    points, failures, trace = execute_tasks(tasks, Session(), policy=policy)
    assert not failures, failures
    return points


_BARE_SESSION = None


def _bare_evaluate(payload):
    """Pool entrypoint of the bare baseline: one ``session.run`` per point.

    Like the robust worker, each worker process builds one session and
    reuses it, so both sides share cached structure across points.
    """
    global _BARE_SESSION
    spec, technology, root_seed = payload
    if _BARE_SESSION is None:
        from repro.api import Session

        _BARE_SESSION = Session(technology=technology, root_seed=root_seed)
    return _BARE_SESSION.run(spec)


def _bare_pool_map(tasks):
    """The minimal parallel evaluation: ``pool.map`` over a bare pool.

    The pool uses the default start method, as ``create_pool`` does, so
    both contenders pay the same worker spin-up.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.api import Session

    session = Session()
    payloads = [
        (task.spec, session.technology, session.root_seed) for task in tasks
    ]
    with ProcessPoolExecutor(max_workers=N_JOBS) as pool:
        return list(pool.map(_bare_evaluate, payloads))


def _robust_parallel(tasks, policy, fault_plan=None):
    from repro.api import Session
    from repro.robust import execute_tasks

    return execute_tasks(
        tasks, Session(), policy=policy, n_jobs=N_JOBS, fault_plan=fault_plan
    )


@functools.lru_cache(maxsize=1)
def run_benchmark() -> dict:
    from repro.robust import ExecutionPolicy, FaultPlan, FaultSpec

    policy = ExecutionPolicy(max_retries=2, backoff_base=0.0)
    clean_tasks = _tasks(CLEAN_AXES)
    report: dict = {
        "sweep": {
            "n_points": len(clean_tasks),
            "n_samples": N_SAMPLES,
            "n_jobs": N_JOBS,
        },
    }

    # -- clean-path overhead, serial ----------------------------------
    # Fresh sessions per run keep the characterisation cache from turning
    # the second contender's sweep into a no-op.
    t_bare, bare_reports = best_of_seconds(3, _bare_serial, clean_tasks)
    t_robust, robust_points = best_of_seconds(3, _robust_serial, clean_tasks, policy)
    assert [p.report for p in robust_points] == bare_reports
    report["clean_serial"] = {
        "bare_s": t_bare,
        "robust_s": t_robust,
        "overhead_fraction": t_robust / t_bare - 1.0,
    }

    # -- clean-path overhead, parallel (vs bare pool.map) -------------
    # Pool spin-up dominates and is paid by both sides, so this number is
    # informational; the enforced ceiling is the serial one above.
    t_map, mapped = best_of_seconds(2, _bare_pool_map, clean_tasks)
    t_rpar, (par_points, par_failures, _) = best_of_seconds(
        2, _robust_parallel, clean_tasks, policy
    )
    assert not par_failures, par_failures
    assert [p.report for p in par_points] == mapped
    report["clean_parallel"] = {
        "bare_map_s": t_map,
        "robust_s": t_rpar,
        "overhead_fraction": t_rpar / t_map - 1.0,
    }

    # -- recovery latency under an injected worker kill ---------------
    recovery_tasks = _tasks(
        {"pipeline.n_stages": [2], "variation.sigma_scale":
         [round(0.6 + 0.1 * i, 1) for i in range(RECOVERY_POINTS)]}
    )
    kill_plan = FaultPlan((FaultSpec(point=0, kind="kill", attempts=1),))
    t_clean, (clean_points, clean_failures, _) = timed_seconds(
        _robust_parallel, recovery_tasks, policy
    )
    assert not clean_failures, clean_failures
    t_faulted, (faulted_points, faulted_failures, trace) = timed_seconds(
        _robust_parallel, recovery_tasks, policy, kill_plan
    )
    assert not faulted_failures, faulted_failures
    assert [p.report for p in faulted_points] == [p.report for p in clean_points]
    report["recovery"] = {
        "n_points": len(recovery_tasks),
        "clean_s": t_clean,
        "faulted_s": t_faulted,
        "recovery_latency_s": t_faulted - t_clean,
        "n_worker_respawns": trace.n_worker_respawns,
        "n_retries": trace.n_retries,
        "n_failures": len(faulted_failures),
    }

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "perf_resilience.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_clean_overhead_is_under_five_percent():
    """The PR's acceptance ceiling: robust serial path costs <5% on a
    clean 200-point sweep."""
    clean = run_benchmark()["clean_serial"]
    assert clean["overhead_fraction"] < 0.05, clean


def test_kill_recovery_loses_no_points():
    """A killed worker costs one pool respawn, never a result."""
    recovery = run_benchmark()["recovery"]
    assert recovery["n_failures"] == 0, recovery
    assert recovery["n_worker_respawns"] >= 1, recovery
    assert recovery["recovery_latency_s"] < 30.0, recovery


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2))

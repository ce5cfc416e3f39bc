"""The resilient execution engine: isolation, retry, timeout, resume, chaos.

Every recovery path is driven by deterministic injected faults
(:class:`repro.robust.faults.FaultPlan`), never by real flakiness, so these
tests replay bit-identically.  The process-pool tests spawn real worker
processes (including genuinely killed ones); the slowest of them carry the
strict ``slow`` marker.
"""

from __future__ import annotations

import pytest

from repro.api.session import Session
from repro.api.spec import AnalysisSpec, PipelineSpec, StudySpec, VariationSpec
from repro.api.sweep import ScenarioSweep
from repro.robust import (
    CORRUPTED_RESULT,
    CheckpointStore,
    ExecutionPolicy,
    FaultPlan,
    FaultSpec,
    SweepExecutionError,
    execute_tasks,
    resolved_store_spec,
)
from repro.robust.executor import SweepTask
from repro.verify.scenarios import builtin_corpus

AXES = {"pipeline.n_stages": [2, 3], "variation.sigma_scale": [0.5, 1.0]}
FAST_RETRY = ExecutionPolicy(max_retries=2, backoff_base=0.0)


@pytest.fixture(scope="module")
def base_spec() -> StudySpec:
    return StudySpec(
        pipeline=PipelineSpec(n_stages=2, logic_depth=3),
        variation=VariationSpec.combined(),
        analysis=AnalysisSpec(backend="montecarlo", n_samples=200, seed=11),
    )


@pytest.fixture(scope="module")
def reference(base_spec):
    """Uninterrupted serial run under the legacy (no-policy) contract."""
    return ScenarioSweep(base_spec, AXES).run()


def point_identity(result):
    """Everything about a result's points except wall-clock trace fields."""
    return [(p.index, p.coords, p.spec, p.report) for p in result]


class TestSerialEngine:
    def test_failure_is_isolated_not_fatal(self, base_spec, reference):
        plan = FaultPlan((FaultSpec(point=2, kind="raise", attempts=-1),))
        result = ScenarioSweep(base_spec, AXES).run(
            policy=ExecutionPolicy(), fault_plan=plan
        )
        assert [p.index for p in result.ok] == [0, 1, 3]
        assert result.reports() == [
            reference[0].report, reference[1].report, reference[3].report,
        ]
        (failure,) = result.failures
        assert failure.index == 2
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 1 and failure.elapsed >= 0.0
        assert "InjectedFault" in failure.traceback
        assert failure.exception is not None  # serial keeps the live object

    def test_flaky_point_recovers_via_retry(self, base_spec, reference):
        plan = FaultPlan((FaultSpec(point=0, kind="raise", attempts=2),))
        result = ScenarioSweep(base_spec, AXES).run(
            policy=FAST_RETRY, fault_plan=plan
        )
        assert not result.failures
        assert result.reports() == reference.reports()
        assert result.trace.n_retries == 2

    def test_retries_exhausted_becomes_structured_failure(self, base_spec):
        plan = FaultPlan((FaultSpec(point=1, kind="raise", attempts=-1),))
        result = ScenarioSweep(base_spec, AXES).run(
            policy=FAST_RETRY, fault_plan=plan
        )
        (failure,) = result.failures
        assert failure.attempts == FAST_RETRY.max_attempts

    def test_strict_contract_raises_with_cause(self, base_spec):
        plan = FaultPlan((FaultSpec(point=0, kind="raise", attempts=-1),))
        sweep = ScenarioSweep(base_spec, AXES)
        result = sweep.run(policy=ExecutionPolicy(), fault_plan=plan)
        with pytest.raises(SweepExecutionError) as excinfo:
            result.raise_on_failure()
        assert excinfo.value.failures[0].index == 0
        assert type(excinfo.value.__cause__).__name__ == "InjectedFault"

    def test_serial_kill_surrogate_and_corrupt_are_recoverable(
        self, base_spec, reference
    ):
        plan = FaultPlan(
            (
                FaultSpec(point=0, kind="kill", attempts=1),
                FaultSpec(point=3, kind="corrupt", attempts=1),
            )
        )
        result = ScenarioSweep(base_spec, AXES).run(
            policy=FAST_RETRY, fault_plan=plan
        )
        assert not result.failures
        assert result.reports() == reference.reports()

    def test_serial_timeout_is_post_hoc(self, base_spec):
        """Serial timeouts cannot preempt, but they consume the attempt."""
        plan = FaultPlan((FaultSpec(point=0, kind="timeout", attempts=-1, delay=0.3),))
        policy = ExecutionPolicy(point_timeout=0.05, backoff_base=0.0)
        result = ScenarioSweep(base_spec, AXES).run(policy=policy, fault_plan=plan)
        (failure,) = result.failures
        assert failure.is_timeout and failure.index == 0
        assert result.trace.n_timeouts == 1
        assert [p.index for p in result.ok] == [1, 2, 3]

    def test_sweep_deadline_returns_partial_results(self, base_spec):
        plan = FaultPlan(
            tuple(
                FaultSpec(point=i, kind="timeout", attempts=-1, delay=0.4)
                for i in range(4)
            )
        )
        policy = ExecutionPolicy(sweep_deadline=0.7)
        result = ScenarioSweep(base_spec, AXES).run(policy=policy, fault_plan=plan)
        assert result.trace.deadline_hit
        assert 0 < len(result.ok) < 4
        assert all(f.is_deadline and f.attempts == 0 for f in result.failures)
        assert len(result.ok) + len(result.failures) == 4

    def test_trace_records_serial_execution(self, base_spec):
        result = ScenarioSweep(base_spec, AXES).run(policy=ExecutionPolicy())
        trace = result.trace
        assert trace.pool_kind == "serial"
        assert trace.fallback_reason is None
        assert (trace.n_points, trace.n_completed, trace.n_failed) == (4, 4, 0)
        assert trace.elapsed > 0.0
        assert "elapsed" not in trace.deterministic_dict()
        assert trace.deterministic_dict() == {
            k: v for k, v in trace.to_dict().items() if k != "elapsed"
        }


class TestParallelEngine:
    def test_worker_crash_is_retried(self, base_spec, reference):
        plan = FaultPlan((FaultSpec(point=1, kind="raise", attempts=1),))
        result = ScenarioSweep(base_spec, AXES).run(
            n_jobs=2, policy=FAST_RETRY, fault_plan=plan
        )
        assert not result.failures
        assert result.reports() == reference.reports()
        assert result.trace.pool_kind == "process"
        assert result.trace.n_retries >= 1

    def test_corrupt_result_caught_by_validation(
        self, base_spec, reference, tmp_path
    ):
        plan = FaultPlan((FaultSpec(point=3, kind="corrupt", attempts=1),))
        store_dir = tmp_path / "store"
        for checkpoint_dir in (None, str(store_dir)):
            result = ScenarioSweep(base_spec, AXES).run(
                n_jobs=2,
                policy=FAST_RETRY.replace(checkpoint_dir=checkpoint_dir),
                fault_plan=plan,
            )
            assert not result.failures
            assert result.reports() == reference.reports()
            if checkpoint_dir is None:
                continue
            # Workers write their own checkpoints, but only after validation:
            # the corrupted first attempt never reaches the store.
            files = list(store_dir.rglob("*.json"))
            assert len(files) == len(reference)
            assert not any(CORRUPTED_RESULT in f.read_text() for f in files)
            store = CheckpointStore(store_dir)
            for point in reference:
                stored = store.get(resolved_store_spec(point.spec, Session()))
                assert stored == point.report
            assert result.trace.checkpoint_hits == 0
            assert result.trace.checkpoint_writes == len(reference)

    @pytest.mark.slow
    def test_killed_worker_respawns_pool_and_recovers(self, base_spec, reference):
        plan = FaultPlan((FaultSpec(point=1, kind="kill", attempts=1),))
        result = ScenarioSweep(base_spec, AXES).run(
            n_jobs=2, policy=FAST_RETRY, fault_plan=plan
        )
        assert not result.failures
        assert result.reports() == reference.reports()
        assert result.trace.n_worker_respawns >= 1

    @pytest.mark.slow
    def test_preemptive_timeout_spares_innocent_points(self, base_spec, reference):
        plan = FaultPlan((FaultSpec(point=0, kind="timeout", attempts=-1, delay=5.0),))
        policy = ExecutionPolicy(point_timeout=0.8, backoff_base=0.0)
        result = ScenarioSweep(base_spec, AXES).run(
            n_jobs=2, policy=policy, fault_plan=plan
        )
        (failure,) = result.failures
        assert failure.is_timeout and failure.index == 0
        assert [p.index for p in result.ok] == [1, 2, 3]
        assert result.reports() == [
            reference[1].report, reference[2].report, reference[3].report,
        ]
        assert result.trace.n_timeouts == 1
        assert result.trace.n_worker_respawns >= 1

    def test_parallel_matches_serial_under_faults(self, base_spec):
        plan = FaultPlan(
            (
                FaultSpec(point=0, kind="raise", attempts=1),
                FaultSpec(point=2, kind="raise", attempts=-1),
            )
        )
        serial = ScenarioSweep(base_spec, AXES).run(
            policy=FAST_RETRY, fault_plan=plan
        )
        parallel = ScenarioSweep(base_spec, AXES).run(
            n_jobs=2, policy=FAST_RETRY, fault_plan=plan
        )
        assert point_identity(serial) == point_identity(parallel)
        assert [f.index for f in serial.failures] == [
            f.index for f in parallel.failures
        ] == [2]

    def test_parallel_failures_match_serial(self, base_spec):
        # A failure finalised in a pool worker is rebuilt from the strings
        # it shipped back; it must match the serial record field for field.
        plan = FaultPlan((FaultSpec(point=1, kind="raise", attempts=-1),))
        serial = ScenarioSweep(base_spec, AXES).run(
            session=Session(), policy=ExecutionPolicy(), fault_plan=plan
        )
        parallel = ScenarioSweep(base_spec, AXES).run(
            session=Session(), n_jobs=2, policy=ExecutionPolicy(), fault_plan=plan
        )
        assert point_identity(parallel) == point_identity(serial)

        def failure_identity(result):
            # everything except the wall-clock elapsed and the traceback,
            # whose frames differ between the serial and worker call stacks
            records = [f.to_dict() for f in result.failures]
            for record in records:
                record.pop("elapsed")
                record.pop("traceback")
            return records

        assert failure_identity(parallel) == failure_identity(serial)
        assert parallel.trace.n_failed == serial.trace.n_failed == 1


class TestCheckpointResume:
    def test_killed_then_resumed_is_bit_identical(
        self, tmp_path, base_spec, reference
    ):
        """Interrupt after K points; the resumed sweep must equal the
        uninterrupted serial reference exactly (modulo wall-clock trace)."""
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        sweep = ScenarioSweep(base_spec, AXES)
        tasks = sweep.tasks(Session())
        # "kill" the first run after two points: only they reach the store
        execute_tasks(tasks[:2], Session(), policy=policy)
        resumed = ScenarioSweep(base_spec, AXES).run(
            session=Session(), policy=policy
        )
        assert resumed.trace.checkpoint_hits == 2
        assert resumed.trace.checkpoint_writes == 2
        assert not resumed.failures
        assert point_identity(resumed) == point_identity(reference)

    def test_deadline_interrupted_run_resumes_exactly(
        self, tmp_path, base_spec, reference
    ):
        """A deadline-truncated checkpointed run + a resume = the full answer."""
        slow_plan = FaultPlan(
            tuple(
                FaultSpec(point=i, kind="timeout", attempts=-1, delay=0.25)
                for i in range(4)
            )
        )
        interrupted = ScenarioSweep(base_spec, AXES).run(
            policy=ExecutionPolicy(
                checkpoint_dir=str(tmp_path), sweep_deadline=0.4
            ),
            fault_plan=slow_plan,
        )
        assert interrupted.trace.deadline_hit
        resumed = ScenarioSweep(base_spec, AXES).run(
            session=Session(),
            policy=ExecutionPolicy(checkpoint_dir=str(tmp_path)),
        )
        assert resumed.trace.checkpoint_hits == len(interrupted.ok)
        assert point_identity(resumed) == point_identity(reference)

    @pytest.mark.slow
    def test_parallel_resume_matches_serial_reference(
        self, tmp_path, base_spec, reference
    ):
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        sweep = ScenarioSweep(base_spec, AXES)
        execute_tasks(sweep.tasks(Session())[:2], Session(), policy=policy)
        resumed = ScenarioSweep(base_spec, AXES).run(
            session=Session(), n_jobs=2, policy=policy
        )
        assert resumed.trace.checkpoint_hits == 2
        assert resumed.trace.checkpoint_writes == 2  # written by the workers
        assert point_identity(resumed) == point_identity(reference)

    def test_deferred_seeds_resolve_before_keying(self, tmp_path, base_spec):
        """None-seed sweeps under different session roots must not collide."""
        spec = base_spec.replace(analysis=base_spec.analysis.with_seed(None))
        axes = {"pipeline.n_stages": [2, 3]}
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        seven = ScenarioSweep(spec, axes).run(
            session=Session(root_seed=7), policy=policy
        )
        eight = ScenarioSweep(spec, axes).run(
            session=Session(root_seed=8), policy=policy
        )
        assert eight.trace.checkpoint_hits == 0  # no cross-session poisoning
        assert seven.reports() != eight.reports()


@pytest.mark.slow
@pytest.mark.conformance
class TestCorpusChaos:
    """Acceptance gate: seeded faults over the 27-scenario corpus sweep.

    Crash, slow-point and corrupt faults are injected flakily (first
    attempt) across the committed conformance corpus plus one persistent
    crash; the sweep must finish with zero lost successful points and
    exactly the persistent point as a structured failure, every surviving
    report agreeing exactly with the session's direct answer.
    """

    PERSISTENT_POINT = 5
    SEED = 20050307

    def test_zero_lost_successful_points(self):
        corpus = builtin_corpus()
        session = Session()
        tasks = [
            SweepTask(index=i, coords=(("scenario", s.name),), spec=s.spec)
            for i, s in enumerate(corpus)
        ]
        flaky = FaultPlan.seeded(
            self.SEED,
            len(tasks),
            rate=0.5,
            kinds=("raise", "timeout", "corrupt"),
            attempts=1,
            delay=0.02,
        )
        assert len(flaky) > 0
        plan = FaultPlan(
            (FaultSpec(point=self.PERSISTENT_POINT, kind="raise", attempts=-1),)
            + flaky.faults,
            seed=self.SEED,
        )
        points, failures, trace = execute_tasks(
            tasks, session, policy=FAST_RETRY, fault_plan=plan
        )
        assert [f.index for f in failures] == [self.PERSISTENT_POINT]
        assert failures[0].error_type == "InjectedFault"
        expected_ok = [i for i in range(len(tasks)) if i != self.PERSISTENT_POINT]
        assert [p.index for p in points] == expected_ok
        # zero lost successes: every surviving report is the session's answer
        for point in points:
            assert point.report == session.run(point.spec)
        # raise/corrupt flaky faults fail their first attempt and must have
        # retried; timeout faults (no point_timeout set) just run slow and
        # succeed first try
        retried = {
            f.point
            for f in flaky.faults
            if f.kind in ("raise", "corrupt") and f.point != self.PERSISTENT_POINT
        }
        assert trace.n_retries >= len(retried)
        assert trace.fault_plan_seed == self.SEED


class TestTimeoutExcludesStoreIO:
    """The serial-timeout accounting bugfix.

    The serial engine cannot preempt an attempt, so it checks
    ``point_timeout`` after the attempt returns -- but before the fix the
    clock included the session's checkpoint-store read-through I/O, so a
    healthy point in front of a slow (network, cold-cache) store timed out
    spuriously.  The attempt clock now subtracts ``Session.store_io_seconds``
    spent inside the attempt.
    """

    def test_slow_session_store_does_not_trip_point_timeout(
        self, base_spec, tmp_path
    ):
        import time as time_module

        from repro.robust import CheckpointStore

        class SlowStore(CheckpointStore):
            """A store whose every get/put stalls longer than the timeout."""

            def __init__(self, root, delay):
                super().__init__(root)
                self.delay = delay

            def get(self, spec):
                time_module.sleep(self.delay)
                return super().get(spec)

            def put(self, spec, report):
                time_module.sleep(self.delay)
                return super().put(spec, report)

        # evaluation takes ~10ms; each point pays ~0.8s of store I/O
        # (one miss + one write), far beyond the 0.4s point budget
        session = Session(store=SlowStore(tmp_path, delay=0.4))
        policy = ExecutionPolicy(point_timeout=0.4)
        result = ScenarioSweep(base_spec, AXES).run(
            session=session, policy=policy
        )
        assert not result.failures
        assert result.trace.n_timeouts == 0
        assert len(result) == 4
        assert session.store_io_seconds > 0.4  # the I/O genuinely happened

    def test_genuinely_slow_evaluation_still_times_out(self, base_spec):
        plan = FaultPlan((FaultSpec(point=0, kind="timeout", attempts=-1, delay=0.3),))
        policy = ExecutionPolicy(point_timeout=0.1)
        result = ScenarioSweep(base_spec, AXES).run(policy=policy, fault_plan=plan)
        assert [f.index for f in result.failures] == [0]
        assert result.failures[0].is_timeout
        assert result.trace.n_timeouts >= 1

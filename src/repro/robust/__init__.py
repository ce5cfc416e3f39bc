"""Resilient sweep execution: retries, timeouts, checkpoint/resume, chaos.

The layer between :class:`~repro.api.sweep.ScenarioSweep` and the process
pool.  :class:`ExecutionPolicy` says how points run (attempts, backoff,
timeouts, deadline, checkpoint directory); :func:`execute_tasks` runs them,
turning each failing point into a structured :class:`PointFailure` inside a
partial result instead of an aborted sweep, and recording what actually
happened in an :class:`ExecutionTrace`.  :class:`CheckpointStore` persists
completed points content-addressed on disk so interrupted sweeps resume
bit-identically, and :class:`FaultPlan` injects deterministic, replayable
failures (crash / slow / kill / corrupt) to prove every recovery path
works -- see ``repro.verify``'s ``sweep-fault-recovery`` oracle and the
chaos tests.
"""

from repro.robust.checkpoint import (
    CheckpointStore,
    resolved_store_spec,
    spec_digest,
)
from repro.robust.executor import SweepTask, create_pool, execute_tasks
from repro.robust.failures import (
    ExecutionTrace,
    PointFailure,
    PointTimeout,
    SweepExecutionError,
)
from repro.robust.faults import (
    CORRUPTED_RESULT,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    apply_fault,
)
from repro.robust.policy import ExecutionPolicy

_SHARD_EXPORTS = (
    "merge_shard_results",
    "partition_tasks",
    "shard_for_digest",
)


def __getattr__(name: str):
    # Lazy so `python -m repro.robust.shard` does not import the module
    # twice (once here, once as __main__) and warn about it.
    if name in _SHARD_EXPORTS:
        from repro.robust import shard

        return getattr(shard, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CORRUPTED_RESULT",
    "FAULT_KINDS",
    "CheckpointStore",
    "ExecutionPolicy",
    "ExecutionTrace",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "PointFailure",
    "PointTimeout",
    "SweepExecutionError",
    "SweepTask",
    "apply_fault",
    "create_pool",
    "execute_tasks",
    "merge_shard_results",
    "partition_tasks",
    "resolved_store_spec",
    "shard_for_digest",
    "spec_digest",
]

"""Structured failure records: what a resilient sweep reports instead of dying.

A failing sweep point becomes a :class:`PointFailure` -- exception type,
message, traceback, attempt count, elapsed seconds -- inside a *partial*
:class:`~repro.api.sweep.SweepResult`; the execution layer itself leaves a
:class:`ExecutionTrace` (pool kind, fallback reason, retries, worker
respawns, checkpoint traffic) attached to the result, so "the pool silently
fell back to serial" is a recorded fact rather than a mystery.
:class:`SweepExecutionError` is what ``SweepResult.raise_on_failure`` turns
the failure list into when the caller wants the old all-or-nothing
semantics back.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class PointFailure:
    """One sweep point that exhausted its attempts (or never got one).

    Attributes
    ----------
    index / coords:
        The point's position and axis coordinates in the sweep.
    error_type / message / traceback:
        The final attempt's exception, as strings (structured, so failures
        survive pickling across process boundaries and JSON serialisation).
    attempts:
        Attempts actually made; 0 means the point was never submitted
        (sweep deadline expired first).
    elapsed:
        Wall-clock seconds spent on the final attempt.
    exception:
        The original exception object when it is available (serial
        execution in the calling process); ``None`` for failures imported
        from worker processes.  Excluded from equality.
    """

    index: int
    coords: tuple[tuple[str, Any], ...]
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 0
    elapsed: float = 0.0
    exception: BaseException | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def is_timeout(self) -> bool:
        """Whether the point died to the per-point timeout."""
        return self.error_type == "PointTimeout"

    @property
    def is_deadline(self) -> bool:
        """Whether the point was never run because the sweep deadline hit."""
        return self.error_type == "SweepDeadlineExceeded"

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe view (the live exception object is dropped)."""
        return {
            "index": self.index,
            "coords": [list(pair) for pair in self.coords],
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PointFailure":
        """Rebuild a failure from :meth:`to_dict` output (exception stays lost).

        The live exception object never crosses a serialisation boundary;
        everything observable (type, message, traceback, attempts, elapsed)
        round-trips, so ``to_dict -> from_dict`` compares equal
        (``exception`` is excluded from equality).
        """
        return cls(
            index=int(data["index"]),
            coords=tuple((str(k), v) for k, v in data.get("coords", [])),
            error_type=str(data["error_type"]),
            message=str(data["message"]),
            traceback=str(data.get("traceback", "")),
            attempts=int(data.get("attempts", 0)),
            elapsed=float(data.get("elapsed", 0.0)),
        )

    def __str__(self) -> str:
        return (
            f"point {self.index} failed after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.message}"
        )


class PointTimeout(Exception):
    """Raised (or recorded) when one attempt exceeds ``policy.point_timeout``."""


class SweepExecutionError(RuntimeError):
    """A sweep had failing points and the caller asked for strict semantics.

    Carries the full failure list; ``__cause__`` is set to the first
    original exception when one is available, so tracebacks stay useful.
    """

    def __init__(self, failures: tuple[PointFailure, ...]) -> None:
        self.failures = tuple(failures)
        preview = "; ".join(str(f) for f in self.failures[:3])
        more = len(self.failures) - 3
        if more > 0:
            preview += f"; ... and {more} more"
        super().__init__(
            f"{len(self.failures)} sweep point(s) failed: {preview}"
        )


@dataclass
class ExecutionTrace:
    """What the execution layer actually did to produce a sweep result.

    Mutable by design: the executor accumulates it while running, then
    attaches it to the :class:`~repro.api.sweep.SweepResult`.  Timing
    fields (``elapsed``) are wall-clock and therefore excluded from any
    determinism comparison -- compare :meth:`deterministic_dict` instead.
    """

    #: ``"process"`` (``n_jobs`` pool), ``"serial"``, or ``"shard"`` for a
    #: result merged from ``python -m repro.robust.shard`` outputs
    pool_kind: str = "serial"
    fallback_reason: str | None = None  #: why a requested pool degraded to serial
    n_jobs: int | None = None
    #: shard count of a ``python -m repro.robust.shard`` run or merge
    n_shards: int | None = None
    n_points: int = 0
    n_completed: int = 0
    n_failed: int = 0
    n_retries: int = 0
    n_timeouts: int = 0
    n_worker_respawns: int = 0
    checkpoint_hits: int = 0
    checkpoint_writes: int = 0
    deadline_hit: bool = False
    fault_plan_seed: int | None = None
    elapsed: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionTrace":
        """Rebuild a trace from :meth:`to_dict` output (loss-free)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ExecutionTrace field(s): {sorted(unknown)}")
        return cls(**data)

    def deterministic_dict(self) -> dict[str, Any]:
        """The trace minus wall-clock fields (for replay comparisons)."""
        data = self.to_dict()
        data.pop("elapsed")
        return data

    def merge(self, part: "ExecutionTrace") -> None:
        """Fold another trace's counters into this one.

        This is how the study server folds per-batch traces into one
        stream-level trace and how the shard CLI's ``merge`` folds
        per-shard traces into the merged result's: additive counters
        accumulate, flags OR, and the first recorded fallback reason wins.
        ``pool_kind`` tracks the most recent part (``merge`` overwrites it
        with ``"shard"`` afterwards).
        """
        self.pool_kind = part.pool_kind
        if part.fallback_reason and not self.fallback_reason:
            self.fallback_reason = part.fallback_reason
        self.n_completed += part.n_completed
        self.n_failed += part.n_failed
        self.n_retries += part.n_retries
        self.n_timeouts += part.n_timeouts
        self.n_worker_respawns += part.n_worker_respawns
        self.checkpoint_hits += part.checkpoint_hits
        self.checkpoint_writes += part.checkpoint_writes
        self.deadline_hit = self.deadline_hit or part.deadline_hit

    def __str__(self) -> str:
        parts = [
            f"pool={self.pool_kind}",
            f"points={self.n_completed}/{self.n_points} ok",
            f"failed={self.n_failed}",
            f"retries={self.n_retries}",
        ]
        if self.n_shards:
            parts.insert(1, f"shards={self.n_shards}")
        if self.fallback_reason:
            parts.append(f"fallback={self.fallback_reason!r}")
        if self.n_worker_respawns:
            parts.append(f"respawns={self.n_worker_respawns}")
        if self.n_timeouts:
            parts.append(f"timeouts={self.n_timeouts}")
        if self.checkpoint_hits or self.checkpoint_writes:
            parts.append(
                f"checkpoint={self.checkpoint_hits} hits/"
                f"{self.checkpoint_writes} writes"
            )
        if self.deadline_hit:
            parts.append("deadline hit")
        return "ExecutionTrace(" + ", ".join(parts) + ")"

"""Vectorized scenario sweeps over study-spec axes.

A sweep is "this base study, but vary these knobs": stage count, logic
depth, variation mix, sigma scaling, sample count, backend, yield target --
any field of the nested :class:`~repro.api.spec.StudySpec` or
:class:`~repro.api.spec.DesignStudySpec` addressed by a dotted path::

    sweep = ScenarioSweep(
        base_spec,
        axes={
            "pipeline.n_stages": [4, 8, 12, 16],
            "variation.sigma_vth_inter": [0.0, 0.020, 0.040],
        },
    )
    for point in sweep.iter_results():          # streams as computed
        print(point.coords, point.report.variability)
    result = sweep.run(n_jobs=4)                # optional process fan-out

Design axes compose with analysis axes the same way: a
``DesignStudySpec`` base sweeps over ``design.yield_target``,
``design.optimizer``, ``variation.sigma_scale``... and each point returns a
:class:`~repro.api.design.DesignReport`.

``mode="grid"`` takes the Cartesian product of the axes (the default);
``mode="zip"`` pairs them elementwise like :func:`zip`.  Points reuse the
session's cached pipelines, schedules, engines, balanced baselines and
area--delay curves wherever specs coincide, and each sampled point gets an
independent child seed via ``numpy.random.SeedSequence`` spawning (see
:func:`repro.api.session.derive_seed`) unless ``seed_policy="fixed"`` pins
the base seed everywhere -- reproducible either way, independent of
execution order and parallelism.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from typing import Any, Iterator, Mapping, Sequence, Union

from repro.analysis.reporting import format_table
from repro.api.backends import DelayReport
from repro.api.session import Session, derive_seed
from repro.api.spec import AnalysisSpec, DesignStudySpec, StudySpec
from repro.robust.executor import SweepPoint, SweepTask, execute_tasks
from repro.robust.failures import (
    ExecutionTrace,
    PointFailure,
    SweepExecutionError,
)
from repro.robust.faults import FaultPlan
from repro.robust.policy import ExecutionPolicy

_SECTIONS = {
    StudySpec: ("pipeline", "variation", "analysis"),
    DesignStudySpec: ("pipeline", "variation", "design", "validation"),
}
_SEED_POLICIES = ("spawn", "fixed")
# Axes that compare engines rather than change the experiment: points
# differing only along these keep one RNG stream, so backend comparisons
# reuse the cached characterisation and optimizer/sizer comparisons reuse
# the cached balanced baseline and area-delay curves.  ``sizer_options``
# rides along with ``sizer`` so zip-mode sizer sweeps (which pair the two)
# validate every sizer on the same sample stream.
_COMPARISON_AXES = frozenset(
    {"analysis.backend", "analysis.seed", "validation.seed",
     "design.optimizer", "design.sizer", "design.sizer_options"}
)

AnySpec = Union[StudySpec, DesignStudySpec]


def apply_axis(spec: AnySpec, path: str, value: Any) -> AnySpec:
    """Return ``spec`` with the field addressed by ``path`` set to ``value``.

    Paths are ``"section.field"`` for the nested specs (``pipeline.n_stages``,
    ``variation.sigma_scale``, ``analysis.backend``, ``design.yield_target``,
    ``validation.n_samples``...) or a bare top-level spec field name
    (``target_yield``, ``name``).
    """
    sections = _SECTIONS[type(spec)]
    section, _, field_name = path.partition(".")
    if not field_name:
        return spec.replace(**{section: value})
    if section == "study":
        return spec.replace(**{field_name: value})
    if section not in sections:
        raise ValueError(
            f"axis path {path!r} must start with one of {sections + ('study',)} "
            f"or name a top-level {type(spec).__name__} field"
        )
    part = getattr(spec, section)
    if part is None and section == "validation":
        part = AnalysisSpec()
    part = dataclasses.replace(part, **{field_name: value})
    return spec.replace(**{section: part})


def _point_seed(spec: AnySpec) -> int | None:
    """The seed field a sweep point's sampling derives from, if any."""
    if isinstance(spec, DesignStudySpec):
        return spec.validation.seed if spec.validation is not None else None
    return spec.analysis.seed


def _with_point_seed(spec: AnySpec, seed: int) -> AnySpec:
    """Copy of ``spec`` with its sampling seed replaced."""
    if isinstance(spec, DesignStudySpec):
        if spec.validation is None:
            return spec
        return spec.replace(validation=spec.validation.with_seed(seed))
    return spec.replace(analysis=spec.analysis.with_seed(seed))


def _seed_axis(spec: AnySpec) -> str:
    """The dotted path of the spec's sampling-seed field."""
    return "validation.seed" if isinstance(spec, DesignStudySpec) else "analysis.seed"


class SweepResult:
    """Ordered collection of sweep points with tabular conveniences.

    A result may be *partial*: points that exhausted their attempts under
    the executing :class:`~repro.robust.policy.ExecutionPolicy` appear as
    structured :class:`~repro.robust.failures.PointFailure` records in
    :attr:`failures` rather than aborting the sweep, and :attr:`trace`
    records what the execution layer actually did (pool kind, serial
    fallback and its reason, retries, worker respawns, checkpoint traffic).
    Iteration, indexing and the tabular views cover the successful points
    only; call :meth:`raise_on_failure` to get all-or-nothing semantics.
    """

    def __init__(
        self,
        points: Sequence[SweepPoint],
        failures: Sequence[PointFailure] = (),
        trace: ExecutionTrace | None = None,
    ) -> None:
        self.points = sorted(points, key=lambda point: point.index)
        self.failures = tuple(
            sorted(failures, key=lambda failure: failure.index)
        )
        self.trace = trace if trace is not None else ExecutionTrace(
            n_points=len(self.points) + len(self.failures),
            n_completed=len(self.points),
            n_failed=len(self.failures),
        )

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index: int) -> SweepPoint:
        return self.points[index]

    @property
    def ok(self) -> list[SweepPoint]:
        """The successful points, in sweep order (alias of ``list(self)``)."""
        return list(self.points)

    def raise_on_failure(self) -> "SweepResult":
        """Return ``self`` if fully successful, else raise.

        Raises :class:`~repro.robust.failures.SweepExecutionError` carrying
        the structured failure list; when an original exception object is
        available (serial execution) it becomes the ``__cause__`` so the
        underlying traceback stays visible.
        """
        if not self.failures:
            return self
        error = SweepExecutionError(self.failures)
        cause = next(
            (f.exception for f in self.failures if f.exception is not None),
            None,
        )
        if cause is not None:
            raise error from cause
        raise error

    def reports(self) -> list[DelayReport]:
        """The per-point reports in sweep order."""
        return [point.report for point in self.points]

    def to_records(self) -> list[dict[str, Any]]:
        """Flat records (coords + summary stats), one per point."""
        return [point.record() for point in self.points]

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Loss-free JSON-safe view of the (possibly partial) result.

        Successful points, structured failures and the execution trace all
        round-trip; the live exception objects inside failures are the only
        thing dropped (they never serialise, and are excluded from
        equality).
        """
        return {
            "points": [point.to_dict() for point in self.points],
            "failures": [failure.to_dict() for failure in self.failures],
            "trace": self.trace.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        """Rehydrate a result from :meth:`to_dict` output."""
        return cls(
            [SweepPoint.from_dict(point) for point in data.get("points", [])],
            failures=[
                PointFailure.from_dict(failure)
                for failure in data.get("failures", [])
            ],
            trace=ExecutionTrace.from_dict(data["trace"])
            if data.get("trace") is not None
            else None,
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialise the full (partial) result, report samples included."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        return cls.from_dict(json.loads(text))

    def format(self, title: str | None = None) -> str:
        """Plain-text table of the sweep, via the shared report formatter."""
        records = self.to_records()
        if not records:
            return "(empty sweep)"
        headers: list[str] = []
        for record in records:
            headers.extend(key for key in record if key not in headers)
        rows = [[record.get(h, "-") for h in headers] for record in records]
        return format_table(headers, rows, title=title)


class ScenarioSweep:
    """Grid or zip sweep of a base study spec over named axes.

    Parameters
    ----------
    base:
        The study every point derives from.
    axes:
        Mapping of dotted field path -> values (insertion order defines the
        grid's axis order).
    mode:
        ``"grid"`` for the Cartesian product, ``"zip"`` for elementwise
        pairing (all axes must then have equal length).
    seed_policy:
        ``"spawn"`` (default) derives an independent seed per point from the
        base seed via ``SeedSequence`` spawning, branching on the point's
        position along every *non-backend* axis -- so points that differ
        only in ``analysis.backend`` keep the same seed and share one cached
        characterisation (the model-vs-Monte-Carlo comparison), while every
        other point gets its own stream.  ``"fixed"`` keeps the base
        analysis seed everywhere, which is what paper-reproduction sweeps
        use so a point's samples match a standalone run.  An explicit
        ``analysis.seed`` axis always wins over either policy.
    session:
        Default session for :meth:`run` / :meth:`iter_results`; a sweep
        created via :meth:`Study.sweep` is bound to the study's session.
    """

    def __init__(
        self,
        base: AnySpec,
        axes: Mapping[str, Sequence[Any]],
        mode: str = "grid",
        seed_policy: str = "spawn",
        session: Session | None = None,
    ) -> None:
        if not axes:
            raise ValueError("a sweep needs at least one axis")
        if mode not in ("grid", "zip"):
            raise ValueError(f"mode must be 'grid' or 'zip', got {mode!r}")
        if seed_policy not in _SEED_POLICIES:
            raise ValueError(
                f"seed_policy must be one of {_SEED_POLICIES}, got {seed_policy!r}"
            )
        self.base = base
        self.axes = {str(path): list(values) for path, values in axes.items()}
        for path, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {path!r} has no values")
        if mode == "zip":
            lengths = {len(values) for values in self.axes.values()}
            if len(lengths) > 1:
                raise ValueError(
                    f"zip mode needs equal-length axes, got lengths "
                    f"{ {p: len(v) for p, v in self.axes.items()} }"
                )
        self.mode = mode
        self.seed_policy = seed_policy
        self.session = session
        self._points = self._build_specs()

    # ------------------------------------------------------------------
    # Spec derivation
    # ------------------------------------------------------------------
    def _combinations(self) -> Iterator[tuple[tuple[int, Any], ...]]:
        """Per-point combinations of ``(value_index, value)`` per axis."""
        indexed = [list(enumerate(values)) for values in self.axes.values()]
        if self.mode == "zip":
            return iter(zip(*indexed))
        return itertools.product(*indexed)

    def _build_specs(
        self,
    ) -> list[tuple[tuple[tuple[str, Any], ...], AnySpec, tuple[int, ...]]]:
        paths = list(self.axes)
        points = []
        for combo in self._combinations():
            coords = tuple(
                (path, value) for path, (_, value) in zip(paths, combo)
            )
            branch = tuple(
                value_index
                for path, (value_index, _) in zip(paths, combo)
                if path not in _COMPARISON_AXES
            )
            spec = self.base
            for path, value in coords:
                spec = apply_axis(spec, path, value)
            spec = self._reseed(spec, branch)
            points.append((coords, spec, branch))
        return points

    def _spawning(self, spec: AnySpec) -> bool:
        return self.seed_policy == "spawn" and _seed_axis(spec) not in self.axes

    def _reseed(self, spec: AnySpec, branch: tuple[int, ...]) -> AnySpec:
        """Spawn this point's seed from the base seed (construction time).

        The branch path excludes the comparison axes (backend, optimizer,
        sizer), so points differing only along those share a seed -- and
        therefore the cached Monte-Carlo characterisation or design
        baseline.  A ``None`` base seed means "let the session choose" and
        is resolved against the executing session's root seed in
        :meth:`_final_spec` instead.
        """
        if not self._spawning(spec) or _point_seed(spec) is None:
            return spec
        return _with_point_seed(spec, derive_seed(_point_seed(spec), *branch))

    def _final_spec(
        self, spec: AnySpec, branch: tuple[int, ...], root_seed: int
    ) -> AnySpec:
        """Resolve a deferred (None-seed) spawn against the executing session."""
        if not self._spawning(spec) or _point_seed(spec) is not None:
            return spec
        if isinstance(spec, DesignStudySpec) and spec.validation is None:
            return spec
        return _with_point_seed(spec, derive_seed(root_seed, *branch))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    def specs(self) -> list[AnySpec]:
        """The derived per-point study specs, in sweep order.

        Points whose base seed is ``None`` still show ``seed=None`` here;
        their concrete seed is spawned from the executing session's root
        seed when the sweep runs (see the finalized ``SweepPoint.spec``).
        """
        return [spec for _, spec, _ in self._points]

    def coords(self) -> list[tuple[tuple[str, Any], ...]]:
        """The per-point axis coordinates, in sweep order."""
        return [coords for coords, _, _ in self._points]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def iter_results(self, session: Session | None = None) -> Iterator[SweepPoint]:
        """Stream sweep points as they are computed (serial, cache-shared).

        Uses the sweep's bound session (``Study.sweep`` binds the study's)
        when ``session`` is omitted, so points reuse previously cached
        structure; a fresh session is created only if neither is set.
        """
        if session is None:
            session = self.session if self.session is not None else Session()
        for index, (coords, spec, branch) in enumerate(self._points):
            spec = self._final_spec(spec, branch, session.root_seed)
            yield SweepPoint(index, coords, spec, session.run(spec))

    def tasks(self, session: Session) -> list[SweepTask]:
        """The sweep as resolved execution tasks (seeds made concrete)."""
        return [
            SweepTask(
                index=index,
                coords=coords,
                spec=self._final_spec(spec, branch, session.root_seed),
            )
            for index, (coords, spec, branch) in enumerate(self._points)
        ]

    def run(
        self,
        session: Session | None = None,
        n_jobs: int | None = None,
        policy: ExecutionPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> SweepResult:
        """Evaluate every point; ``n_jobs > 1`` fans out across processes.

        Parallel workers each hold their own session, constructed with the
        caller session's technology and root seed so serial and parallel
        runs compute identical numbers (caches do not cross process
        boundaries); results always come back in sweep order.  If a process
        pool cannot be created the sweep falls back to the serial path and
        records why in ``result.trace.fallback_reason``.

        ``policy`` opts into resilient execution (retries with
        deterministic backoff, per-point timeouts, a sweep deadline,
        checkpoint/resume -- see
        :class:`~repro.robust.policy.ExecutionPolicy`) and switches the
        failure contract to *partial results*: failing points come back as
        ``result.failures`` instead of raising.  Without a policy the
        legacy contract holds -- any point failure raises (a
        :class:`~repro.robust.failures.SweepExecutionError` wrapping the
        structured failures, with the original exception as its cause).
        ``fault_plan`` injects deterministic faults for chaos testing (and
        implies the partial-result contract).

        ``n_jobs`` is the only in-process fan-out.  To split one sweep
        across machines, run its shards with ``python -m
        repro.robust.shard`` (see :mod:`repro.robust.shard`); each shard
        is a serial run of this same engine.
        """
        # Default the session before branching so serial and parallel runs
        # resolve ``self.session`` identically.
        if session is None:
            session = self.session if self.session is not None else Session()
        strict = policy is None and fault_plan is None
        points, failures, trace = execute_tasks(
            self.tasks(session),
            session,
            policy=policy,
            n_jobs=n_jobs,
            fault_plan=fault_plan,
        )
        result = SweepResult(points, failures=failures, trace=trace)
        if strict:
            result.raise_on_failure()
        return result


def run_sweep(
    base: AnySpec,
    axes: Mapping[str, Sequence[Any]],
    mode: str = "grid",
    session: Session | None = None,
    n_jobs: int | None = None,
    seed_policy: str = "spawn",
    policy: ExecutionPolicy | None = None,
    fault_plan: FaultPlan | None = None,
) -> SweepResult:
    """One-shot facade: build a :class:`ScenarioSweep` and run it."""
    return ScenarioSweep(base, axes, mode=mode, seed_policy=seed_policy).run(
        session=session,
        n_jobs=n_jobs,
        policy=policy,
        fault_plan=fault_plan,
    )

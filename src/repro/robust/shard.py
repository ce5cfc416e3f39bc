"""Split one sweep across machines: digest partition, shard CLI, exact merge.

Inside one process a sweep fans out with ``n_jobs`` (the executor's
process pool).  This module is for the other case: one sweep split across
independently-launched processes -- typically on several machines sharing
a filesystem -- that merge into one :class:`~repro.api.sweep.SweepResult`
bit-identical to serial execution:

* **Partitioning is by content-addressed cache key.**  Every task is
  assigned to ``int(spec_digest, 16) % n_shards`` -- the same SHA-256 digest
  the :class:`~repro.robust.checkpoint.CheckpointStore` and the serving
  layer's request coalescing use -- so duplicate points (equal digests)
  always land on one shard, where the engine's per-point checkpoint lookup
  coalesces them into a single computation.  The assignment depends only on
  the spec bytes, never on worker count ordering or timing, so every
  launcher of the same sweep computes the same partition.

* **The checkpoint store is the only rendezvous.**  Each shard runs its
  tasks serially through :func:`~repro.robust.executor.execute_tasks` with
  ``policy.checkpoint_dir`` pointing at one shared store directory.
  Completed points are persisted as they finish; a shard that is killed and
  relaunched serves every already-stored point from disk (checkpoint hits)
  and recomputes nothing::

      python -m repro.robust.shard run   sweep.json --store DIR --shard 0 --shards 2
      python -m repro.robust.shard run   sweep.json --store DIR --shard 1 --shards 2
      python -m repro.robust.shard merge sweep.json --store DIR --shards 2 --out result.json

* **Merging is exact.**  Per-shard points and structured failures are
  reassembled in sweep-index order; per-point seeds are baked into the task
  specs before partitioning (SeedSequence spawning is execution-order
  independent), so the merged result's points, reports and failures are
  bit-identical to an uninterrupted serial run.  Per-shard
  :class:`~repro.robust.failures.ExecutionTrace` s fold into one merged
  trace (``pool_kind="shard"``, ``n_shards=N``) whose checkpoint counters
  carry the exact resume accounting.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import TYPE_CHECKING, Any, Sequence

from repro.api.canonical import resolved_store_spec, spec_digest, spec_from_wire
from repro.robust.executor import SweepPoint, SweepTask, execute_tasks
from repro.robust.failures import ExecutionTrace, PointFailure
from repro.robust.policy import ExecutionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session


def shard_for_digest(digest: str, n_shards: int) -> int:
    """The shard a content digest belongs to: ``int(digest, 16) % n_shards``.

    Pure data -> data, shared by every launcher: every CLI process on every
    machine agrees on the partition because it depends only on the spec's
    canonical bytes.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be at least 1, got {n_shards}")
    return int(digest, 16) % n_shards


def partition_tasks(
    tasks: Sequence[SweepTask], session: "Session", n_shards: int
) -> list[list[SweepTask]]:
    """Partition sweep tasks across ``n_shards`` by content-addressed key.

    Tasks with equal digests (duplicate points -- e.g. comparison axes that
    coalesce, or a zip sweep revisiting a spec) always land on the same
    shard, so the shard's per-point checkpoint lookup computes them once.
    Seeds must already be concrete (``ScenarioSweep.tasks`` resolves them);
    deferred seeds are resolved against ``session`` before digesting, the
    same way the store and the serving layer key them.
    """
    shards: list[list[SweepTask]] = [[] for _ in range(n_shards)]
    for task in tasks:
        digest = spec_digest(resolved_store_spec(task.spec, session))
        shards[shard_for_digest(digest, n_shards)].append(task)
    return shards


def merge_shard_results(
    parts: Sequence[tuple[list, list, ExecutionTrace]],
    n_points: int,
    n_shards: int,
) -> tuple[list, list, ExecutionTrace]:
    """Merge per-shard ``(points, failures, trace)`` into one sweep result.

    Points and failures reassemble in sweep-index order (bit-identical to a
    serial run -- per-point seeds are baked into the specs); traces fold
    additively into one ``pool_kind="shard"`` trace.
    """
    points: list[SweepPoint] = []
    failures: list[PointFailure] = []
    merged = ExecutionTrace(n_shards=n_shards, n_points=n_points)
    for part_points, part_failures, part_trace in parts:
        points.extend(part_points)
        failures.extend(part_failures)
        merged.merge(part_trace)
    merged.pool_kind = "shard"
    points.sort(key=lambda point: point.index)
    failures.sort(key=lambda failure: failure.index)
    merged.n_completed = len(points)
    merged.n_failed = len(failures)
    return points, failures, merged


# ----------------------------------------------------------------------
# Standalone CLI: split one sweep across independently-launched processes
# ----------------------------------------------------------------------
def _load_sweep_request(path: str) -> dict[str, Any]:
    payload = json.loads(pathlib.Path(path).read_text())
    if not isinstance(payload, dict) or "base" not in payload:
        raise SystemExit(
            f"{path}: a sweep request is "
            '{"base": <tagged spec>, "axes": {...}, "mode"?, "seed_policy"?, '
            '"policy"?}'
        )
    return payload


def _build_tasks(payload: dict[str, Any], root_seed: int | None):
    """Materialise the sweep request into resolved tasks + a session.

    Every launcher of the same request file with the same root seed builds
    the identical task list (specs, seeds, indices) -- which is what lets
    shard processes that never talk to each other agree on the partition.
    """
    from repro.api.session import Session
    from repro.api.sweep import ScenarioSweep

    sweep = ScenarioSweep(
        spec_from_wire(payload["base"]),
        payload.get("axes") or {},
        mode=payload.get("mode", "grid"),
        seed_policy=payload.get("seed_policy", "spawn"),
    )
    session = Session() if root_seed is None else Session(root_seed=root_seed)
    return sweep.tasks(session), session


def _policy_from(payload: dict[str, Any], store: str) -> ExecutionPolicy:
    policy = (
        ExecutionPolicy.from_dict(payload["policy"])
        if payload.get("policy")
        else ExecutionPolicy()
    )
    return policy.replace(checkpoint_dir=store)


def _shard_out_path(store: str, shard: int, n_shards: int) -> pathlib.Path:
    return pathlib.Path(store) / "shards" / f"shard-{shard}-of-{n_shards}.json"


def _cmd_plan(args: argparse.Namespace) -> int:
    tasks, session = _build_tasks(_load_sweep_request(args.sweep), args.seed)
    partition = partition_tasks(tasks, session, args.shards)
    print(
        json.dumps(
            {
                "n_points": len(tasks),
                "n_shards": args.shards,
                "shards": [
                    {
                        "shard": shard_id,
                        "n_tasks": len(shard_tasks),
                        "indices": [task.index for task in shard_tasks],
                    }
                    for shard_id, shard_tasks in enumerate(partition)
                ],
            },
            indent=2,
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api.sweep import SweepResult

    payload = _load_sweep_request(args.sweep)
    tasks, session = _build_tasks(payload, args.seed)
    if not 0 <= args.shard < args.shards:
        raise SystemExit(f"--shard must be in [0, {args.shards}), got {args.shard}")
    shard_tasks = partition_tasks(tasks, session, args.shards)[args.shard]
    policy = _policy_from(payload, args.store)
    points, failures, trace = execute_tasks(shard_tasks, session, policy=policy)
    trace.n_shards = args.shards
    result = SweepResult(points, failures=failures, trace=trace)
    out = (
        pathlib.Path(args.out)
        if args.out is not None
        else _shard_out_path(args.store, args.shard, args.shards)
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(result.to_json())
    print(
        f"shard {args.shard}/{args.shards}: {len(points)} point(s), "
        f"{len(failures)} failure(s), {trace.checkpoint_hits} resumed from "
        f"store, {trace.checkpoint_writes} written -> {out}",
        file=sys.stderr,
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.api.sweep import SweepResult

    payload = _load_sweep_request(args.sweep)
    tasks, _ = _build_tasks(payload, args.seed)
    parts: list[tuple[list, list, ExecutionTrace]] = []
    missing: list[int] = []
    for shard_id in range(args.shards):
        path = _shard_out_path(args.store, shard_id, args.shards)
        if not path.exists():
            missing.append(shard_id)
            continue
        part = SweepResult.from_json(path.read_text())
        parts.append((list(part.points), list(part.failures), part.trace))
    if missing:
        print(
            f"merge: missing shard output(s) {missing}; run "
            f"`python -m repro.robust.shard run {args.sweep} --store "
            f"{args.store} --shards {args.shards} --shard <id>` for each",
            file=sys.stderr,
        )
        return 2
    points, failures, trace = merge_shard_results(
        parts, n_points=len(tasks), n_shards=args.shards
    )
    covered = {point.index for point in points} | {f.index for f in failures}
    uncovered = sorted(set(task.index for task in tasks) - covered)
    if uncovered:
        print(
            f"merge: shard outputs do not cover point(s) {uncovered}; "
            f"was the request file identical for every shard?",
            file=sys.stderr,
        )
        return 2
    result = SweepResult(points, failures=failures, trace=trace)
    out_text = result.to_json()
    if args.out is not None:
        pathlib.Path(args.out).write_text(out_text)
        print(f"merged {len(points)} point(s) -> {args.out}", file=sys.stderr)
    else:
        print(out_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.robust.shard",
        description=(
            "Split one scenario sweep across independently-launched shard "
            "processes that rendezvous only through a shared checkpoint "
            "store directory; merge their outputs into one SweepResult "
            "bit-identical to a serial run."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, store: bool = True) -> None:
        p.add_argument(
            "sweep",
            help='sweep request JSON file: {"base": <tagged spec>, "axes": '
            '{...}, "mode"?, "seed_policy"?, "policy"?}',
        )
        p.add_argument("--shards", type=int, required=True, help="total shard count")
        p.add_argument(
            "--seed", type=int, default=None,
            help="session root seed (must match across every shard)",
        )
        if store:
            p.add_argument(
                "--store", required=True,
                help="shared checkpoint store directory (the rendezvous)",
            )

    plan = sub.add_parser("plan", help="print the digest-keyed partition")
    common(plan, store=False)
    plan.set_defaults(func=_cmd_plan)

    run = sub.add_parser("run", help="run one shard against the shared store")
    common(run)
    run.add_argument("--shard", type=int, required=True, help="this shard's id")
    run.add_argument(
        "--out", default=None,
        help="shard result JSON path (default <store>/shards/shard-K-of-N.json)",
    )
    run.set_defaults(func=_cmd_run)

    merge = sub.add_parser(
        "merge", help="merge every shard's output into one SweepResult JSON"
    )
    common(merge)
    merge.add_argument(
        "--out", default=None, help="merged result path (default: stdout)"
    )
    merge.set_defaults(func=_cmd_merge)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

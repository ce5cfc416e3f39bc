"""Kernel-tier selection for the timing engines.

The vectorized STA/SSTA kernels are single-core NumPy.  Their hot loops are
embarrassingly parallel along one axis -- Monte-Carlo sample rows for the
2-D arrival propagation, gates-within-a-level for the SSTA component fold --
and the underlying ufuncs (fancy gather, ``maximum``, ``einsum``,
``ndtr``) all release the GIL, so a plain ``ThreadPoolExecutor`` over
row spans scales them across cores with zero extra allocation.

This module owns the *selection* of that tier:

* :class:`KernelConfig` -- a frozen, JSON-round-trippable description of
  which kernel to use (``"auto"`` / ``"vectorized"`` / ``"threaded"``) and
  with how many threads.  Like :class:`~repro.robust.ExecutionPolicy` it is
  execution-side configuration: it never changes results beyond float noise
  (the row chunking is bit-identical for STA) and never enters a cache key.
* :func:`resolve_config` -- coercion from ``None`` / name / config, with the
  ``REPRO_TIMING_KERNEL`` and ``REPRO_TIMING_THREADS`` environment knobs.
* :func:`shared_executor` -- one process-wide thread pool shared by every
  timing kernel, grown on demand and reused across calls.

Auto-selection is deliberately conservative: threading only pays once the
per-call working set dwarfs the pool hand-off cost, so ``"auto"`` stays on
the vectorized tier below :attr:`KernelConfig.min_bytes` (or when only one
worker is available) and small problems never regress.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

#: Environment override for the default kernel name (``auto`` when unset).
ENV_KERNEL = "REPRO_TIMING_KERNEL"
#: Environment override for the worker count (``os.cpu_count()`` when unset).
ENV_THREADS = "REPRO_TIMING_THREADS"

KERNELS = ("auto", "vectorized", "threaded")

_LOCK = threading.Lock()
_EXECUTOR: ThreadPoolExecutor | None = None
_EXECUTOR_WORKERS = 0


def worker_count() -> int:
    """Default worker count: ``REPRO_TIMING_THREADS`` or the CPU count."""
    env = os.environ.get(ENV_THREADS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


@dataclass(frozen=True)
class KernelConfig:
    """Which timing-kernel tier to run, and how wide.

    Parameters
    ----------
    kernel:
        ``"vectorized"`` forces the single-core NumPy tier, ``"threaded"``
        forces the row-chunked thread-pool tier, ``"auto"`` (default) picks
        per call based on problem size and available workers.
    threads:
        Worker count for the threaded tier; ``None`` uses
        ``REPRO_TIMING_THREADS`` or ``os.cpu_count()``.
    min_bytes:
        ``auto`` threshold: minimum per-call working set (rows x row bytes)
        before the threaded tier is considered.
    min_rows:
        ``auto`` threshold: minimum number of independent rows before the
        threaded tier is considered.
    """

    kernel: str = "auto"
    threads: int | None = None
    min_bytes: int = 4 << 20
    min_rows: int = 64

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ValueError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if self.min_bytes < 0:
            raise ValueError(f"min_bytes must be non-negative, got {self.min_bytes}")
        if self.min_rows < 1:
            raise ValueError(f"min_rows must be at least 1, got {self.min_rows}")

    def resolved_threads(self) -> int:
        """Concrete worker count (environment / CPU default applied)."""
        return self.threads if self.threads is not None else worker_count()

    def resolve(self, n_rows: int, row_bytes: int) -> int:
        """Worker count for a propagation over ``n_rows`` independent rows.

        Returns 1 when the vectorized tier should run (always for a single
        row); a forced ``"threaded"`` kernel is only capped by the row count,
        while ``"auto"`` additionally requires at least two workers and the
        ``min_rows`` / ``min_bytes`` floors.
        """
        if self.kernel == "vectorized" or n_rows <= 1:
            return 1
        # Test the cheap ``auto`` floors before the worker count: most SSTA
        # levels fail them, and the count may query ``os.cpu_count()``.
        if self.kernel == "auto" and (
            n_rows < self.min_rows or n_rows * row_bytes < self.min_bytes
        ):
            return 1
        return max(1, min(self.resolved_threads(), int(n_rows)))

    def to_dict(self) -> dict:
        """JSON-safe representation (storage / RPC, like the other specs)."""
        return {
            "kernel": self.kernel,
            "threads": self.threads,
            "min_bytes": self.min_bytes,
            "min_rows": self.min_rows,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "KernelConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        known = {name for name in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown KernelConfig fields: {sorted(unknown)}")
        return cls(**payload)


def default_config() -> KernelConfig:
    """The process default: ``REPRO_TIMING_KERNEL`` or plain ``auto``."""
    env = os.environ.get(ENV_KERNEL)
    if env:
        return KernelConfig(kernel=env)
    return KernelConfig()


def resolve_config(kernel: "KernelConfig | str | None") -> KernelConfig:
    """Coerce a kernel knob (None / tier name / config) into a config."""
    if kernel is None:
        return default_config()
    if isinstance(kernel, KernelConfig):
        return kernel
    if isinstance(kernel, str):
        return KernelConfig(kernel=kernel)
    raise TypeError(
        f"kernel must be a KernelConfig, a tier name or None, got {kernel!r}"
    )


def shared_executor(workers: int) -> ThreadPoolExecutor:
    """The process-wide timing thread pool, grown to at least ``workers``.

    One pool serves every threaded kernel call; growing replaces it (the old
    pool finishes its in-flight work and is shut down without blocking).
    """
    global _EXECUTOR, _EXECUTOR_WORKERS
    with _LOCK:
        if _EXECUTOR is None or _EXECUTOR_WORKERS < workers:
            previous = _EXECUTOR
            _EXECUTOR = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-timing"
            )
            _EXECUTOR_WORKERS = workers
            if previous is not None:
                previous.shutdown(wait=False)
        return _EXECUTOR


def split_rows(n_rows: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal ``(start, stop)`` row spans for ``workers``."""
    workers = max(1, min(int(workers), int(n_rows))) if n_rows else 1
    base, extra = divmod(int(n_rows), workers)
    spans: list[tuple[int, int]] = []
    start = 0
    for index in range(workers):
        stop = start + base + (1 if index < extra else 0)
        if stop > start:
            spans.append((start, stop))
        start = stop
    return spans

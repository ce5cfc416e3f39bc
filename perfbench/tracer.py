"""In-memory span recorder that wraps the program's public functions.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each target function or method with a wrapper that records one span
``(name, start, end, parent, pid, thread)`` per call, plus an optional
number ``n`` computed from the call (bytes moved, or whether a store read
hit).  Spans stay in memory.  The benchmark process aggregates its own at
the end of a run; the study server writes its spans to a file when it
exits, and sweep pool workers append theirs after every top-level call
(a forked worker never runs an exit hook).

Times are ``time.monotonic()`` readings, which share one clock across the
processes of a host, so server and worker spans line up with the load
generator's timestamps.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from contextlib import contextmanager


def _array_bytes(*arrays) -> int:
    return int(sum(getattr(array, "nbytes", 0) for array in arrays))


def _sample_bytes(args, kwargs, result) -> int:
    """Bytes of the drawn Vth and channel-length sample matrices."""
    return _array_bytes(result.vth, result.length)


def _propagate_bytes(args, kwargs, result) -> int:
    """Gate delays read plus arrival times written (one pass over each)."""
    delays = args[1] if len(args) > 1 else kwargs["gate_delays"]
    return _array_bytes(delays, result)


def _store_put_bytes(args, kwargs, result) -> int:
    """Size of the checkpoint file one ``CheckpointStore.put`` wrote."""
    store = args[0]
    try:
        return store.path_for(result).stat().st_size
    except OSError:
        return 0


def _store_hit(args, kwargs, result) -> int:
    """1 when ``CheckpointStore.get`` found the report, else 0."""
    return int(result is not None)


#: (module, attribute path, span name, measure) for every wrapped callable.
#: ``measure`` computes the span's ``n`` field from the call.
TARGETS = (
    # circuit: netlist construction, schedule compile, per-gate marshalling
    ("repro.circuit.ingest", "scale_logic_block", "circuit.build", None),
    ("repro.pipeline.builder", "iscas_pipeline", "circuit.build", None),
    ("repro.pipeline.builder", "inverter_chain_pipeline", "circuit.build", None),
    ("repro.circuit.schedule", "compile_schedule", "circuit.compile", None),
    ("repro.circuit.netlist", "Netlist.cell_coefficients", "circuit.marshal", None),
    ("repro.circuit.netlist", "Netlist.load_capacitances", "circuit.marshal", None),
    ("repro.circuit.netlist", "Netlist.sizes", "circuit.marshal", None),
    ("repro.circuit.netlist", "Netlist.positions", "circuit.marshal", None),
    ("repro.circuit.netlist", "Netlist.set_sizes", "circuit.marshal", None),
    ("repro.circuit.netlist", "Netlist.copy", "circuit.copy", None),
    # process: parameter sampling
    ("repro.process.sampling", "ParameterSampler.sample", "process.sample", _sample_bytes),
    # timing: delay model, level propagation, SSTA, incremental timing
    ("repro.timing.delay_model", "GateDelayModel.delay_samples", "timing.delay", None),
    ("repro.timing.delay_model", "GateDelayModel.nominal_delays", "timing.delay", None),
    ("repro.timing.delay_model", "GateDelayModel.sensitivity_coefficients", "timing.delay", None),
    ("repro.timing.sta", "arrival_times", "timing.propagate", _propagate_bytes),
    ("repro.timing.sta", "required_times", "timing.propagate", None),
    ("repro.timing.ssta", "StatisticalTimingAnalyzer.arrival_components", "timing.ssta", None),
    ("repro.timing.ssta", "StatisticalTimingAnalyzer.combinational_delay", "timing.ssta", None),
    ("repro.timing.ssta", "StatisticalTimingAnalyzer.stage_delay", "timing.ssta", None),
    ("repro.timing.ssta", "StatisticalTimingAnalyzer.pipeline_stage_forms", "timing.ssta", None),
    ("repro.timing.incremental", "IncrementalTimer.set_delays", "timing.incremental", None),
    ("repro.timing.incremental", "IncrementalTimer.update_delays", "timing.incremental", None),
    ("repro.timing.incremental", "IncrementalTimer.arrivals", "timing.incremental", None),
    ("repro.timing.incremental", "IncrementalTimer.required", "timing.incremental", None),
    ("repro.timing.incremental", "SizingState.resize", "timing.incremental", None),
    ("repro.timing.incremental", "SizingState.set_sizes", "timing.incremental", None),
    # montecarlo: the sampling engine
    ("repro.montecarlo.engine", "MonteCarloEngine.run_pipeline", "montecarlo.run", None),
    ("repro.montecarlo.engine", "MonteCarloEngine.run_stage", "montecarlo.run", None),
    # optimize: sizers, area-delay curves, balancing, global optimization
    ("repro.optimize.lagrangian", "LagrangianSizer.size_stage", "optimize.size_stage", None),
    ("repro.optimize.greedy", "GreedySizer.size_stage", "optimize.size_stage", None),
    ("repro.optimize.area_delay", "characterize_stage", "optimize.curves", None),
    ("repro.optimize.balance", "design_balanced_pipeline", "optimize.balance", None),
    ("repro.optimize.global_opt", "GlobalPipelineOptimizer.optimize", "optimize.global", None),
    # api: session queries, report reduction and encoding, spec digests
    ("repro.api.session", "Session.run", "api.session", None),
    ("repro.api.session", "Session.analyze", "api.session", None),
    ("repro.api.session", "Session.design", "api.session", None),
    ("repro.api.backends", "delay_report_from_pipeline_run", "api.report", None),
    ("repro.api.backends", "DelayReport.to_dict", "api.encode", None),
    ("repro.api.design", "DesignReport.to_dict", "api.encode", None),
    ("repro.api.canonical", "spec_digest", "api.digest", None),
    ("repro.api.canonical", "resolved_store_spec", "api.digest", None),
    # robust: pool start-up and the checkpoint store
    ("repro.robust.executor", "create_pool", "robust.pool_start", None),
    ("repro.robust.checkpoint", "CheckpointStore.get", "robust.store_get", _store_hit),
    ("repro.robust.checkpoint", "CheckpointStore.put", "robust.store_put", _store_put_bytes),
    # serve: response framing
    ("repro.serve.protocol", "json_response", "serve.encode", None),
)


class Tracer:
    """Collects spans for one process; see the module docstring."""

    def __init__(self, flush_dir: str | None = None) -> None:
        self.main_pid = os.getpid()
        self.owner_pid = self.main_pid
        self.flush_dir = flush_dir
        self.enabled = True
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        """In a forked child, drop the spans and locks copied from the parent."""
        if os.getpid() == self.owner_pid:
            return
        self.owner_pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, function, name: str, measure=None):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            tracer._after_fork()
            in_child = os.getpid() != tracer.main_pid
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            span = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "pid": os.getpid(),
                "thread": threading.get_ident(),
            }
            if measure is not None:
                span["n"] = measure(args, kwargs, result)
            with tracer._lock:
                tracer.spans.append(span)
            if in_child and not stack and tracer.flush_dir is not None:
                tracer.flush()
            return result

        return traced

    @contextmanager
    def paused(self):
        """Run a block (reference computations) without recording spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def flush(self) -> None:
        """Append this process's spans to ``<flush_dir>/spans-<pid>.jsonl``."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans or self.flush_dir is None:
            return
        path = os.path.join(self.flush_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as stream:
            for span in spans:
                stream.write(json.dumps(span) + "\n")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute


def install(tracer: Tracer) -> list[str]:
    """Wrap every target in memory; returns the targets that are missing.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name, so ``from x import f`` call sites
    record spans too.  A target that no longer exists as a plain function
    (renamed or removed by a later change) is skipped and returned, and
    the run reports how many there were, so its layer reads 0 visibly
    instead of the traced run failing.
    """
    import repro  # noqa: F401  (loads every public module first)

    missing = []
    for module_name, path, name, measure in TARGETS:
        try:
            owner, attribute = _resolve(module_name, path)
            original = inspect.getattr_static(owner, attribute)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        if not inspect.isfunction(original):
            missing.append(f"{module_name}.{path}")
            continue
        traced = tracer.wrap(original, name, measure)
        setattr(owner, attribute, traced)
        if inspect.isclass(owner):
            continue
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    return missing


def read_span_files(directory: str) -> list[dict]:
    """Every span flushed to ``directory`` by other processes."""
    spans: list[dict] = []
    if not os.path.isdir(directory):
        return spans
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(directory, entry), encoding="utf-8") as stream:
                spans.extend(json.loads(line) for line in stream if line.strip())
    return spans

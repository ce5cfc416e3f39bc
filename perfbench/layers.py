"""Per-layer metrics: their definitions, and their computation from spans.

Each metric names the end-to-end metric it should move and the workload
it moves it on (``moves``), so a change that claims a layer got faster can
be checked against the end-to-end number it should have changed.

Time metrics follow one rule: a name ending in ``_self_s`` is self time
(the span's duration minus its direct child spans, summed over every span
of the group); any other ``_s`` metric is inclusive time of the group's
outermost spans (nested spans of the same group are not counted twice).
``_calls`` counts those outermost spans.  Spans recorded while computing
reference answers are not included; set-up and the timed ops are.
"""

from __future__ import annotations

#: (name, unit, better, moves).  The order is the order of the report.
LAYER_METRICS = (
    ("circuit.build_s", "s", "lower", "setup_s on mc_scale and design_table2"),
    ("circuit.compile_s", "s", "lower", "setup_s on mc_scale and design_table2"),
    ("circuit.marshal_s", "s", "lower", "op_p50_ms on mc_scale and design_table2"),
    ("circuit.marshal_calls", "count", "lower", "op_p50_ms on mc_scale and design_table2"),
    ("process.sample_s", "s", "lower", "op_p50_ms on mc_scale"),
    ("process.sample_bytes", "bytes", "lower", "op_p50_ms on mc_scale"),
    ("timing.delay_self_s", "s", "lower", "op_p50_ms on mc_scale"),
    ("timing.propagate_s", "s", "lower", "op_p50_ms on mc_scale"),
    ("timing.propagate_bytes", "bytes", "lower", "op_p50_ms on mc_scale"),
    ("timing.ssta_s", "s", "lower", "op_p50_ms on design_table2"),
    ("timing.ssta_calls", "count", "lower", "op_p50_ms on design_table2"),
    ("timing.incremental_s", "s", "lower", "op_p50_ms on design_table2"),
    ("timing.incremental_calls", "count", "lower", "op_p50_ms on design_table2"),
    ("montecarlo.self_s", "s", "lower", "op_p50_ms on mc_scale (and design_table2 validation)"),
    ("api.report_s", "s", "lower", "op_p50_ms on mc_scale"),
    ("api.digest_s", "s", "lower", "op_p50_ms on serve_zipf and sweep_resume"),
    ("api.digest_calls", "count", "lower", "op_p50_ms on serve_zipf and sweep_resume"),
    ("api.report_cache_hit_ratio", "ratio", "higher", "op_p50_ms on serve_zipf"),
    ("api.report_cache_hit_base", "count", "higher", "base of api.report_cache_hit_ratio"),
    ("optimize.size_stage_self_s", "s", "lower", "op_p50_ms on design_table2"),
    ("optimize.size_stage_calls", "count", "lower", "op_p50_ms on design_table2"),
    ("optimize.curves_s", "s", "lower", "op_p50_ms on design_table2"),
    ("optimize.balance_s", "s", "lower", "op_p50_ms on design_table2"),
    ("optimize.global_self_s", "s", "lower", "op_p50_ms on design_table2"),
    ("robust.pool_start_s", "s", "lower", "op_p50_ms on sweep_resume"),
    ("robust.store_get_s", "s", "lower", "op_p50_ms on sweep_resume, serve.latency_p99_ms on serve_zipf"),
    ("robust.store_put_s", "s", "lower", "op_p50_ms on sweep_resume, serve.latency_p99_ms on serve_zipf"),
    ("robust.store_hits", "count", "higher", "op_p50_ms on sweep_resume"),
    ("robust.store_writes", "count", "lower", "op_p50_ms on sweep_resume"),
    ("robust.store_bytes_written", "bytes", "lower", "op_p50_ms on sweep_resume"),
    ("robust.worker_compute_s", "s", "lower", "op_p50_ms on sweep_resume"),
    ("robust.parallel_efficiency", "ratio", "higher", "op_p50_ms on sweep_resume"),
    ("robust.parallel_base_s", "s", "lower", "base of robust.parallel_efficiency (2 x sweep wall)"),
    ("robust.retries", "count", "lower", "error fraction on sweep_resume"),
    ("robust.respawns", "count", "lower", "error fraction on sweep_resume"),
    ("serve.compute_s", "s", "lower", "op_p50_ms and serve.latency_p99_ms on serve_zipf"),
    ("serve.encode_s", "s", "lower", "op_p50_ms and serve.latency_p99_ms on serve_zipf"),
    ("serve.queue_s", "s", "lower", "op_p50_ms and serve.latency_p99_ms on serve_zipf"),
    ("serve.computed", "count", "lower", "serve.goodput_rps on serve_zipf"),
    ("serve.coalesced", "count", "higher", "serve.goodput_rps on serve_zipf"),
    ("serve.rejected", "count", "lower", "serve.goodput_rps on serve_zipf"),
    ("serve.errors", "count", "lower", "serve.goodput_rps on serve_zipf"),
    ("serve.gen_late_ms", "ms", "lower", "load-generator lateness on serve_zipf (p99)"),
    ("trace.overhead_setup_s", "s", "lower", "traced minus untraced setup_s"),
    ("trace.overhead_op_p50_ms", "ms", "lower", "traced minus untraced op_p50_ms"),
    ("trace.missing_targets", "count", "lower", "wrapped functions not found; their layers read 0"),
)

#: Span groups whose time is reported, and how: (metric, group, mode).
_TIME_METRICS = (
    ("circuit.build_s", "circuit.build", "inclusive"),
    ("circuit.compile_s", "circuit.compile", "inclusive"),
    ("circuit.marshal_s", "circuit.marshal", "inclusive"),
    ("process.sample_s", "process.sample", "inclusive"),
    ("timing.delay_self_s", "timing.delay", "self"),
    ("timing.propagate_s", "timing.propagate", "inclusive"),
    ("timing.ssta_s", "timing.ssta", "inclusive"),
    ("timing.incremental_s", "timing.incremental", "inclusive"),
    ("montecarlo.self_s", "montecarlo.run", "self"),
    ("api.report_s", "api.report", "inclusive"),
    ("api.digest_s", "api.digest", "inclusive"),
    ("optimize.size_stage_self_s", "optimize.size_stage", "self"),
    ("optimize.curves_s", "optimize.curves", "inclusive"),
    ("optimize.balance_s", "optimize.balance", "inclusive"),
    ("optimize.global_self_s", "optimize.global", "self"),
    ("robust.pool_start_s", "robust.pool_start", "inclusive"),
    ("robust.store_get_s", "robust.store_get", "inclusive"),
    ("robust.store_put_s", "robust.store_put", "inclusive"),
)

_CALL_METRICS = (
    ("circuit.marshal_calls", "circuit.marshal"),
    ("timing.ssta_calls", "timing.ssta"),
    ("timing.incremental_calls", "timing.incremental"),
    ("api.digest_calls", "api.digest"),
    ("optimize.size_stage_calls", "optimize.size_stage"),
    ("robust.store_writes", "robust.store_put"),
)

_SUM_METRICS = (
    ("process.sample_bytes", "process.sample"),
    ("timing.propagate_bytes", "timing.propagate"),
    ("robust.store_hits", "robust.store_get"),
    ("robust.store_bytes_written", "robust.store_put"),
)


class SpanIndex:
    """Spans of every process of a run, with parent links resolved."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self._by_key = {(span["pid"], span["id"]): span for span in spans}
        self._child_time: dict[tuple, float] = {}
        for span in spans:
            if span["parent"] is not None:
                key = (span["pid"], span["parent"])
                self._child_time[key] = (
                    self._child_time.get(key, 0.0) + span["end"] - span["start"]
                )

    def parent(self, span: dict) -> dict | None:
        if span["parent"] is None:
            return None
        return self._by_key.get((span["pid"], span["parent"]))

    def _nested_in(self, span: dict, group: str) -> bool:
        ancestor = self.parent(span)
        while ancestor is not None:
            if ancestor["name"] == group:
                return True
            ancestor = self.parent(ancestor)
        return False

    def outermost(self, group: str) -> list[dict]:
        return [
            span for span in self.spans
            if span["name"] == group and not self._nested_in(span, group)
        ]

    def inclusive_s(self, group: str) -> float:
        return sum(span["end"] - span["start"] for span in self.outermost(group))

    def self_s(self, group: str) -> float:
        return sum(
            span["end"] - span["start"]
            - self._child_time.get((span["pid"], span["id"]), 0.0)
            for span in self.spans
            if span["name"] == group
        )

    def total_n(self, group: str) -> int:
        return sum(span.get("n", 0) for span in self.spans if span["name"] == group)


def span_metrics(index: SpanIndex) -> dict[str, float]:
    """Every span-derived layer metric of one traced run."""
    metrics: dict[str, float] = {}
    for name, group, mode in _TIME_METRICS:
        metrics[name] = (
            index.self_s(group) if mode == "self" else index.inclusive_s(group)
        )
    for name, group in _CALL_METRICS:
        metrics[name] = len(index.outermost(group))
    for name, group in _SUM_METRICS:
        metrics[name] = index.total_n(group)
    return metrics


def layer_report(values: dict[str, float]) -> dict[str, dict]:
    """Every declared layer metric, with its unit (0 where not exercised)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _, _ in LAYER_METRICS
    }

"""Per-layer metrics computed from a traced run's spans.

Spans are classified by their nearest enclosing context:

* ``fit`` — inside ``resolver.fit`` or ``pipeline.fit_model`` (a fit or a
  compaction refit); fit-side metrics are totals per fit;
* ``online`` — inside ``model.query`` (``QuerySession.query``); online
  times are means per call and online counts are per query record;
* anything else (update, save, serving) is read from its own span.

Only spans that start inside a measured window count; the server
process's spans count when they belong to a measured request id.  A
layer that does no work on a workload reports 0.
"""

from __future__ import annotations

import time

from .spans import Span, Tracer, wrap_callable, children_of, self_time
from .stats import percentile

#: Per-layer metrics: (name, unit, better).  See README.md for what each should move.
PER_LAYER = (
    ("blocking.block_s", "s", "lower"),
    ("blocking.pairs", "count", "lower"),
    ("matching.encode_s", "s", "lower"),
    ("matching.encode_pairs", "count", "lower"),
    ("matching.represent_ms", "ms", "lower"),
    ("matching.represent_calls", "count", "lower"),
    ("pipeline.matcher_fit_s", "s", "lower"),
    ("pipeline.representation_s", "s", "lower"),
    ("pipeline.graph_build_s", "s", "lower"),
    ("pipeline.gnn_s", "s", "lower"),
    ("pipeline.model_build_s", "s", "lower"),
    ("pipeline.graph_build_peak_mb", "MB", "lower"),
    ("ann.knn_search_s", "s", "lower"),
    ("ann.knn_distance_cells", "count", "lower"),
    ("ann.knn_search_ms", "ms", "lower"),
    ("ann.knn_probes", "count", "lower"),
    ("ann.knn_fit_ms", "ms", "lower"),
    ("graph.convolve_ms", "ms", "lower"),
    ("graph.convolve_calls", "count", "lower"),
    ("retrieval.fit_s", "s", "lower"),
    ("retrieval.retrieve_ms", "ms", "lower"),
    ("retrieval.unique_share", "ratio", "lower"),
    ("retrieval.apply_delta_ms", "ms", "lower"),
    ("model.query_ms", "ms", "lower"),
    ("model.query_ms_per_record", "ms", "lower"),
    ("model.query_self_ms", "ms", "lower"),
    ("serve.request_ms", "ms", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.wire_ms", "ms", "lower"),
    ("serve.batch_records_mean", "count", "higher"),
    ("serve.batch_records_p95", "count", "higher"),
    ("serve.flushes_on_size", "count", "higher"),
    ("serve.flushes_on_timer", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.timed_out", "count", "lower"),
    ("update.build_delta_ms", "ms", "lower"),
    ("update.apply_ms", "ms", "lower"),
    ("update.new_pairs", "count", "lower"),
    ("update.refreshed_pairs", "count", "lower"),
    ("update.compactions", "count", "lower"),
    ("update.compact_s", "s", "lower"),
    ("data.save_ms", "ms", "lower"),
    ("data.load_s", "s", "lower"),
    ("trace.spans_per_op", "count", "lower"),
    ("trace.span_cost_us", "us", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.p50_ms", "ms", "lower"),
)

FIT_ROOTS = ("resolver.fit", "pipeline.fit_model")
STAGES = {
    "matcher-fit": "pipeline.matcher_fit_s",
    "representation": "pipeline.representation_s",
    "graph-build": "pipeline.graph_build_s",
    "gnn": "pipeline.gnn_s",
    "model-build": "pipeline.model_build_s",
}


def _mean(values: list[float]) -> float:
    """Arithmetic mean, 0 for no values."""
    return sum(values) / len(values) if values else 0.0


def _ms(spans: list[Span]) -> float:
    """Mean span duration in milliseconds, 0 for no spans."""
    return _mean([span.duration for span in spans]) * 1e3


def _total(spans: list[Span], attribute: str | None = None) -> float:
    """Summed durations of ``spans``, or the sum of one of their count attributes."""
    if attribute is None:
        return sum(span.duration for span in spans)
    return sum(span.attrs.get(attribute, 0) for span in spans)


def _context(span: Span, by_id: dict[int, Span]) -> str:
    """``fit``, ``online`` or ``other``: the nearest enclosing context of ``span``."""
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        if parent.name in FIT_ROOTS:
            return "fit"
        if parent.name == "model.query":
            return "online"
        parent = by_id.get(parent.parent) if parent.parent is not None else None
    return "other"


class _Spans:
    """Spans grouped by name and context."""

    def __init__(self, spans: list[Span]) -> None:
        by_id = {span.id: span for span in spans}
        self.spans = spans
        self.children = children_of(spans)
        self.groups: dict[tuple[str, str], list[Span]] = {}
        for span in spans:
            self.groups.setdefault((span.name, _context(span, by_id)), []).append(span)

    def get(self, name: str, context: str | None = None) -> list[Span]:
        """The spans called ``name``, optionally only those in ``context``."""
        if context is not None:
            return self.groups.get((name, context), [])
        return [s for (key, _), group in self.groups.items() if key == name for s in group]


def per_layer_metrics(result, spans: list[Span], span_cost_s: float, traced_p50_ms: float):
    """Every per-layer metric of one traced run (0 where the layer did no work)."""
    windows = result.windows
    local = _Spans([s for s in spans if any(a <= s.start <= b for a, b in windows)])
    server = _server_spans(result.server_spans, set(result.client_latencies))
    metrics: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

    # Fit side: totals per outermost fit (a Resolver.fit or a compaction refit).
    fit_count = len(local.get("resolver.fit") + local.get("pipeline.fit_model", "other"))
    if fit_count:
        encodes = local.get("matching.encode", "fit")
        searches = local.get("ann.knn_search", "fit")
        metrics["blocking.block_s"] = _total(local.get("blocking.block")) / fit_count
        metrics["matching.encode_s"] = _total(encodes) / fit_count
        metrics["matching.encode_pairs"] = _total(encodes, "pairs") / fit_count
        metrics["ann.knn_search_s"] = _total(searches) / fit_count
        metrics["ann.knn_distance_cells"] = _total(searches, "cells") / fit_count
        metrics["retrieval.fit_s"] = _total(local.get("retrieval.fit", "fit")) / fit_count
        for span in local.get("pipeline.fit_model"):
            for stage, seconds in span.attrs.get("stages", {}).items():
                key = STAGES.get(stage.split(":", 1)[0])
                if key:
                    metrics[key] += seconds / fit_count
        peaks = [s.attrs.get("peak_mb", 0.0) for s in local.get("graph.build")]
        metrics["pipeline.graph_build_peak_mb"] = max(peaks, default=0.0)
    blocks = local.get("blocking.block")
    metrics["blocking.pairs"] = _total(blocks, "pairs") / len(blocks) if blocks else 0.0

    # Online query path: the benchmark process's sessions, or the server's.
    online = server if server is not None else local
    queries = online.get("model.query")
    records = sum(len(s.attrs.get("ids", ())) for s in queries)
    if queries:
        metrics["model.query_ms"] = _ms(queries)
        metrics["model.query_ms_per_record"] = _total(queries) / records * 1e3
        self_times = [self_time(s, online.children.get(s.id, [])) for s in queries]
        metrics["model.query_self_ms"] = _mean(self_times) * 1e3
    for name, ms_key, count_key in (
        ("matching.represent", "matching.represent_ms", "matching.represent_calls"),
        ("ann.knn_search", "ann.knn_search_ms", "ann.knn_probes"),
        ("graph.convolve", "graph.convolve_ms", "graph.convolve_calls"),
    ):
        calls = online.get(name, "online")
        metrics[ms_key] = _ms(calls)
        metrics[count_key] = len(calls) / records if records else 0.0
    metrics["ann.knn_fit_ms"] = _ms(online.get("ann.knn_fit", "online"))
    retrieves = online.get("retrieval.retrieve", "online")
    metrics["retrieval.retrieve_ms"] = _ms(retrieves)
    if records:
        metrics["retrieval.unique_share"] = _total(retrieves, "records") / records

    # Serving layer (server-side spans plus the client's latencies).
    if server is not None:
        batch_of = {rid: s for s in queries for rid in s.attrs.get("ids", ())}
        requests = [s for s in server.get("serve.request") if s.attrs.get("ids")]
        waits, wires = [], []
        for span in requests:
            rid = span.attrs["ids"][0]
            if rid in batch_of:
                waits.append(span.duration - batch_of[rid].duration)
            if rid in result.client_latencies:
                wires.append(result.client_latencies[rid] - span.duration)
        metrics["serve.request_ms"] = _ms(requests)
        metrics["serve.queue_wait_ms"] = _mean(waits) * 1e3
        metrics["serve.wire_ms"] = _mean(wires) * 1e3
        sizes = [float(len(s.attrs.get("ids", ()))) for s in queries]
        metrics["serve.batch_records_mean"] = _mean(sizes)
        metrics["serve.batch_records_p95"] = percentile(sizes, 95.0) if sizes else 0.0
        stats = result.report.get("server_stats", {})
        metrics["serve.flushes_on_size"] = float(stats.get("flushes_on_size", 0))
        metrics["serve.flushes_on_timer"] = float(stats.get("flushes_on_timer", 0))
        metrics["serve.rejected"] = float(stats.get("requests_rejected", 0))
        metrics["serve.timed_out"] = float(stats.get("requests_timed_out", 0))
        metrics["data.load_s"] = _total(_Spans(result.server_spans).get("data.load"))

    # Update engine, retriever delta and segment writes.
    applies = local.get("update.apply")
    compactions = local.get("update.compact")
    metrics["update.build_delta_ms"] = _ms(local.get("update.build_delta"))
    metrics["update.apply_ms"] = _ms(applies)
    metrics["update.new_pairs"] = _total(applies, "new_pairs") / max(len(applies), 1)
    metrics["update.refreshed_pairs"] = _total(applies, "refreshed_pairs") / max(len(applies), 1)
    metrics["update.compactions"] = float(len(compactions))
    metrics["update.compact_s"] = _ms(compactions) / 1e3
    metrics["retrieval.apply_delta_ms"] = _ms(local.get("retrieval.apply_delta"))
    metrics["data.save_ms"] = _ms(local.get("data.save"))

    # The tracing itself.
    span_count = len(local.spans) + (len(server.spans) if server is not None else 0)
    measured = sum(b - a for a, b in windows)
    metrics["trace.spans_per_op"] = span_count / max(result.operations, 1)
    metrics["trace.span_cost_us"] = span_cost_s * 1e6
    metrics["trace.overhead_share"] = span_count * span_cost_s / measured if measured else 0.0
    metrics["trace.p50_ms"] = traced_p50_ms
    return {name: float(value) for name, value in metrics.items()}


def _server_spans(spans: list[Span], measured_ids: set[str]) -> _Spans | None:
    """The server's spans of measured requests (their batches and everything inside)."""
    if not spans:
        return None
    by_id = {span.id: span for span in spans}
    keep_roots = {
        span.id
        for span in spans
        if span.name in ("model.query", "serve.request")
        and any(rid in measured_ids for rid in span.attrs.get("ids", ()))
    }

    def kept(span: Span) -> bool:
        while span is not None:
            if span.id in keep_roots:
                return True
            span = by_id.get(span.parent) if span.parent is not None else None
        return False

    return _Spans([span for span in spans if kept(span)])


def span_cost_seconds(calls: int = 20000) -> float:
    """Calibrated cost of one traced call: a wrapped no-op minus a plain one."""
    tracer = Tracer()

    def noop():
        return None

    traced = wrap_callable(tracer, noop, "calibrate", None)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - start
    return max(wrapped - plain, 0.0) / calls

"""In-memory span tracing and the layer wrappers the benchmark installs.

A :class:`Tracer` keeps every span in a list and writes them out only
when asked (:meth:`Tracer.dump`), so tracing costs one clock read pair
and one list append per wrapped call.  :func:`install_layer_wrappers`
wraps the public entry points of each layer of the ``repro`` stack; the
program itself carries no tracing code.

A span's parent is the span open in the same thread or asyncio task
when it started.  Work handed to an executor thread starts without a
parent; the serving layer's batch spans therefore list the record ids
they served instead (``attrs["ids"]``).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One timed call: name, wall interval (seconds), parent span id, attributes."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds from start to end."""
        return self.end - self.start


class Tracer:
    """Collects spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def open(self, name: str) -> tuple[Span, contextvars.Token]:
        """Start a span; it becomes the parent of spans started inside it."""
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, self._current.get())
        return span, self._current.set(span.id)

    def close(self, span: Span, token: contextvars.Token, **attrs) -> None:
        """End ``span`` and record it."""
        span.end = time.perf_counter()
        self._current.reset(token)
        span.attrs.update(attrs)
        self.spans.append(span)

    def dump(self, path: str | Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__, separators=(",", ":")) + "\n")


def load_spans(path: str | Path) -> list[Span]:
    """Read spans written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


def self_time(span: Span, children: list[Span]) -> float:
    """``span``'s duration minus the part of it that its children cover.

    Children may overlap each other (concurrent tasks); the covered part
    is the length of the union of their intervals, clipped to the span.
    """
    intervals = sorted(
        (max(child.start, span.start), min(child.end, span.end)) for child in children
    )
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    """Map each span id to its direct child spans."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


# --------------------------------------------------------------- wrappers


def wrap_callable(tracer: Tracer, function, name: str, describe=None):
    """A traced version of ``function``.

    ``describe(args, kwargs, result)`` returns the span's attributes; it
    runs only when the call returns.
    """
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def traced_async(*args, **kwargs):
            span, token = tracer.open(name)
            attrs = {}
            try:
                result = await function(*args, **kwargs)
                if describe is not None:
                    attrs = describe(args, kwargs, result)
                return result
            finally:
                tracer.close(span, token, **attrs)

        return traced_async

    @functools.wraps(function)
    def traced(*args, **kwargs):
        span, token = tracer.open(name)
        attrs = {}
        try:
            result = function(*args, **kwargs)
            if describe is not None:
                attrs = describe(args, kwargs, result)
            return result
        finally:
            tracer.close(span, token, **attrs)

    return traced


def wrap_method(tracer: Tracer, cls: type, attribute: str, name: str, describe=None) -> None:
    """Replace ``cls.attribute`` (plain or class method) with a traced version."""
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        traced = wrap_callable(tracer, raw.__func__, name, describe)
        setattr(cls, attribute, classmethod(traced))
    else:
        setattr(cls, attribute, wrap_callable(tracer, raw, name, describe))


def wrap_function(tracer: Tracer, function, name: str, describe=None) -> None:
    """Rebind a public ``repro`` function to a traced version in every module binding it."""
    traced = wrap_callable(tracer, function, name, describe)
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                setattr(module, attribute, traced)


def _peak_alloc_mb(tracer: Tracer, cls: type, attribute: str, name: str) -> None:
    """Trace ``cls.attribute`` and record its peak traced allocation in MB."""
    import tracemalloc

    function = cls.__dict__[attribute]

    @functools.wraps(function)
    def traced(*args, **kwargs):
        tracemalloc.start()
        span, token = tracer.open(name)
        try:
            return function(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.close(span, token, peak_mb=peak / 2**20)

    setattr(cls, attribute, traced)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    """The positional argument at ``index`` (``self`` is 0) or the one named ``name``."""
    return args[index] if len(args) > index else kwargs[name]


def _count(index: int, name: str, key: str):
    """A describer recording the length of one argument as ``key``."""

    def describe(args: tuple, kwargs: dict, result) -> dict:
        return {key: len(_arg(args, kwargs, index, name))}

    return describe


def _ids(args: tuple, kwargs: dict, result) -> dict:
    """The record ids of a query call (its ``records`` argument)."""
    return {"ids": [record.record_id for record in _arg(args, kwargs, 1, "records")]}


def _result_pairs(args: tuple, kwargs: dict, result) -> dict:
    """The number of pairs a blocking call returned."""
    return {"pairs": len(result)}


def _stages(args: tuple, kwargs: dict, result) -> dict:
    """The stage times of a ``PipelineRunner.fit_model`` result."""
    return {"stages": {e.stage: e.elapsed_seconds for e in result.pipeline.events}}


def _update_pairs(args: tuple, kwargs: dict, result) -> dict:
    """Pair counts of an ``apply_delta_to_model`` result."""
    return {"new_pairs": len(result.new_pairs), "refreshed_pairs": len(result.refreshed_pairs)}


def _distance_cells(args: tuple, kwargs: dict, result) -> dict:
    """Query rows times indexed rows of an ``ExactNearestNeighbors.search`` call."""
    return {"cells": len(_arg(args, kwargs, 1, "queries")) * args[0].num_indexed}


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points so every call records a span.

    Span names are ``<layer>.<operation>``; the attributes are the work
    counts the per-layer metrics need.
    """
    import repro
    import repro.serve
    import repro.update
    from repro.ann import ExactNearestNeighbors
    from repro.core import compute_representations
    from repro.graph.sage import FrozenSAGE

    wrap_method(tracer, repro.Resolver, "fit", "resolver.fit")
    wrap_method(tracer, repro.PipelineRunner, "fit_model", "pipeline.fit_model", _stages)
    wrap_method(tracer, repro.Resolver, "block", "blocking.block", _result_pairs)
    encoded = _count(2, "pairs", "pairs")
    wrap_method(tracer, repro.PairFeatureEncoder, "encode", "matching.encode", encoded)
    represented = _count(1, "candidates", "pairs")
    wrap_function(tracer, compute_representations, "matching.represent", represented)
    wrap_method(tracer, ExactNearestNeighbors, "search", "ann.knn_search", _distance_cells)
    wrap_method(tracer, ExactNearestNeighbors, "fit", "ann.knn_fit")
    _peak_alloc_mb(tracer, repro.IntentGraphBuilder, "build", "graph.build")
    wrap_method(tracer, FrozenSAGE, "convolve", "graph.convolve")
    retriever = repro.AnnKnnRetriever
    wrap_method(tracer, retriever, "fit", "retrieval.fit")
    retrieved = _count(1, "records", "records")
    wrap_method(tracer, retriever, "retrieve", "retrieval.retrieve", retrieved)
    wrap_method(tracer, retriever, "apply_delta", "retrieval.apply_delta")
    wrap_method(tracer, repro.QuerySession, "query", "model.query", _ids)
    wrap_method(tracer, repro.serve.AsyncResolverServer, "query", "serve.request", _ids)
    wrap_function(tracer, repro.update.build_delta, "update.build_delta")
    wrap_function(tracer, repro.update.apply_delta_to_model, "update.apply", _update_pairs)
    wrap_function(tracer, repro.update.compact_model, "update.compact")
    wrap_method(tracer, repro.ResolverModel, "save", "data.save")
    wrap_method(tracer, repro.ResolverModel, "load", "data.load")

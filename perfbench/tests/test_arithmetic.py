"""Tests of the benchmark's own arithmetic.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from perfbench.spans import Span, Tracer, wrap_callable, children_of, self_time
from perfbench.stats import (
    MAX_LATENESS_S,
    OpenLoopRecord,
    Tally,
    open_loop_summary,
    percentile,
    poisson_schedule,
    summarize_latencies,
    tail_percentile,
)


# ------------------------------------------------------------ percentile rule


@pytest.mark.parametrize(
    ("count", "expected"),
    [
        (9, None),
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(count, expected):
    """The rule picks the highest listed percentile with ten samples beyond it."""
    assert tail_percentile(count) == expected


def test_tail_percentile_leaves_at_least_ten_samples_beyond():
    """No higher listed percentile would still leave ten samples beyond it."""
    for count in range(20, 3000, 7):
        chosen = tail_percentile(count)
        assert count * (1 - chosen / 100) >= 10 - 1e-9
        higher = [p for p in (99.9, 99.0, 95.0, 90.0, 75.0) if p > chosen]
        assert all(count * (1 - p / 100) < 10 for p in higher)


def test_summary_names_the_percentile_it_could_report():
    """Too few samples for p95 report the rule's percentile instead."""
    samples = [i / 1000 for i in range(1, 121)]  # 120 samples: p95 has only 6 beyond
    summary = summarize_latencies(samples, 95.0)
    assert summary["tail_percentile"] == 90.0
    assert summary["tail_ms"] == pytest.approx(108.0)
    assert summary["p50_ms"] == pytest.approx(60.0)
    many = summarize_latencies([i / 1000 for i in range(1, 401)], 95.0)
    assert many["tail_percentile"] == 95.0
    assert many["tail_ms"] == pytest.approx(380.0)


def test_too_few_samples_fall_back_to_the_maximum():
    """Under twenty samples the tail is the maximum."""
    summary = summarize_latencies([0.010, 0.030], 95.0)
    assert summary["tail_percentile"] == 100.0
    assert summary["tail_ms"] == pytest.approx(30.0)


# --------------------------------------------------------- failures count as +inf


def test_failed_requests_enter_percentiles_as_infinite():
    """Failed requests sort last and miss every latency limit."""
    latencies = [0.01] * 90 + [math.inf] * 10
    assert percentile(latencies, 50.0) == 0.01
    assert percentile(latencies, 90.0) == 0.01
    assert percentile(latencies, 91.0) == math.inf
    summary = summarize_latencies(latencies, 95.0)
    assert summary["tail_percentile"] == 90.0
    assert summary["tail_ms"] == pytest.approx(10.0)
    worse = summarize_latencies([0.01] * 89 + [math.inf] * 11, 95.0)
    assert worse["tail_ms"] == math.inf


def test_a_failed_open_loop_request_misses_every_limit():
    """A failed open-loop request has infinite latency."""
    record = OpenLoopRecord(due=1.0, sent=1.0, done=None)
    assert record.latency == math.inf


def test_tally_counts_every_bad_outcome():
    """Failed, rejected, timed-out and wrong answers all count as bad."""
    tally = Tally(sent=100, succeeded=90, failed=3, rejected=2, timed_out=4, wrong=1)
    assert tally.bad == 10
    assert Tally().bad == 0


# --------------------------------------------- open loop: due time and lateness


def test_latency_is_timed_from_the_due_time():
    """Latency starts when the request was due, not when it left."""
    record = OpenLoopRecord(due=10.0, sent=10.25, done=10.5)
    assert record.latency == pytest.approx(0.5)
    assert record.lateness == pytest.approx(0.25)


def test_early_send_has_no_lateness():
    """Sending early is not lateness."""
    assert OpenLoopRecord(due=2.0, sent=1.999, done=2.1).lateness == 0.0


def test_a_stall_charges_every_request_queued_behind_it():
    """A generator stall adds its delay to every request due during it."""
    # The generator stalls 0.3 s at t=1.0: requests due at 1.0, 1.1 and 1.2
    # all leave at 1.3 and are answered 10 ms later.
    records = [OpenLoopRecord(due=d, sent=1.3, done=1.31) for d in (1.0, 1.1, 1.2)]
    assert [round(r.latency, 3) for r in records] == [0.31, 0.21, 0.11]
    summary = open_loop_summary(records)
    assert summary["late_max_ms"] == pytest.approx(300.0)
    assert summary["valid"] is False


def test_an_on_time_generator_is_valid():
    """A generator that keeps its schedule is valid."""
    records = [OpenLoopRecord(due=i, sent=i + 0.001, done=i + 0.02) for i in range(50)]
    summary = open_loop_summary(records)
    assert summary["valid"] is True
    assert summary["late_p50_ms"] == pytest.approx(1.0)
    assert summary["late_p95_ms"] <= MAX_LATENESS_S * 1e3


def test_one_stall_is_charged_but_is_not_falling_behind():
    """One stall is charged to its request but does not invalidate the run."""
    records = [OpenLoopRecord(due=i, sent=i + 0.001, done=i + 0.02) for i in range(100)]
    records[40] = OpenLoopRecord(due=40.0, sent=40.2, done=40.22)
    summary = open_loop_summary(records)
    assert summary["valid"] is True
    assert summary["late_max_ms"] == pytest.approx(200.0)
    assert max(summary["latencies"]) == pytest.approx(0.22)


def test_falling_behind_on_many_requests_is_invalid():
    """Lateness on more than 5% of requests invalidates the open loop."""
    records = [OpenLoopRecord(due=i, sent=i + 0.001, done=i + 0.02) for i in range(100)]
    for i in range(90, 100):
        records[i] = OpenLoopRecord(due=i, sent=i + 0.03 * (i - 89), done=i + 0.05 * (i - 89))
    assert open_loop_summary(records)["valid"] is False


def test_poisson_schedule_is_seeded_and_has_the_offered_rate():
    """The arrival schedule repeats for a seed and offers the stated rate."""
    first = poisson_schedule(20.0, 4000, np.random.default_rng([3, 7]))
    again = poisson_schedule(20.0, 4000, np.random.default_rng([3, 7]))
    assert first == again
    assert all(b > a for a, b in zip(first, first[1:]))
    assert len(first) / first[-1] == pytest.approx(20.0, rel=0.05)


# --------------------------------------------------------------- span self time


def _span(span_id, start, end, parent=None, name="s"):
    return Span(id=span_id, name=name, start=start, end=end, parent=parent)


def test_self_time_subtracts_disjoint_children():
    """Self time removes the time of each child."""
    parent = _span(1, 0.0, 10.0)
    children = [_span(2, 1.0, 3.0, 1), _span(3, 5.0, 6.0, 1)]
    assert self_time(parent, children) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    """Overlapping children are subtracted once, as a union."""
    parent = _span(1, 0.0, 10.0)
    children = [_span(2, 1.0, 5.0, 1), _span(3, 3.0, 7.0, 1), _span(4, 4.0, 6.0, 1)]
    assert self_time(parent, children) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    """Child time outside the parent's interval is not subtracted."""
    parent = _span(1, 2.0, 8.0)
    children = [_span(2, 0.0, 3.0, 1), _span(3, 7.0, 12.0, 1)]
    assert self_time(parent, children) == pytest.approx(4.0)


def test_self_time_without_children_is_the_duration():
    """Without children, self time is the whole duration."""
    assert self_time(_span(1, 1.0, 4.5), []) == pytest.approx(3.5)


def test_children_of_groups_by_parent():
    """Spans are grouped under their parent ids."""
    spans = [_span(1, 0, 9), _span(2, 1, 2, 1), _span(3, 3, 4, 1), _span(4, 5, 6, 3)]
    children = children_of(spans)
    assert [s.id for s in children[1]] == [2, 3]
    assert [s.id for s in children[3]] == [4]


def test_wrapped_calls_nest_and_record_attributes():
    """Wrapped calls record their parent span and their attributes."""
    tracer = Tracer()

    def describe(args, kwargs, result):
        return {"out": result}

    inner = wrap_callable(tracer, lambda x: x * 2, "inner", describe)
    outer = wrap_callable(tracer, lambda: inner(3) + inner(4), "outer", None)
    assert outer() == 14
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["outer"]
    assert [s.parent for s in by_name["inner"]] == [root.id, root.id]
    assert [s.attrs["out"] for s in by_name["inner"]] == [6, 8]
    assert root.parent is None

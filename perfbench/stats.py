"""The benchmark's own arithmetic: percentiles, failure accounting, open-loop timing.

Latencies are lists of seconds in which a failed or refused request is
``math.inf``: it misses every latency limit, so it counts in every
percentile above the share of requests that succeeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Percentiles the tail rule chooses from, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_SAMPLES_BEYOND = 10


def tail_percentile(count: int) -> float | None:
    """The highest percentile with at least ten of ``count`` samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    for percentile in TAIL_PERCENTILES:
        if count * (1.0 - percentile / 100.0) >= MIN_SAMPLES_BEYOND - 1e-9:
            return percentile
    return None


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile, nearest-rank; ``inf`` entries sort last.

    Nearest-rank keeps an infinite sample from leaking into a percentile
    through interpolation: the result is always one of the samples.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def median(samples: list[float]) -> float:
    """The median (mean of the middle two for an even count)."""
    return float(np.median(np.asarray(samples, dtype=np.float64)))


@dataclass
class Tally:
    """Outcome counts of one phase of requests."""

    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    rejected: int = 0
    timed_out: int = 0
    wrong: int = 0

    @property
    def bad(self) -> int:
        """Requests that did not yield a correct answer: failed, rejected, timed out, wrong."""
        return self.failed + self.rejected + self.timed_out + self.wrong

    def as_dict(self) -> dict[str, int]:
        """The counts as a plain dict."""
        return {
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "rejected": self.rejected,
            "timed_out": self.timed_out,
            "wrong": self.wrong,
        }


def summarize_latencies(latencies: list[float], wanted: float) -> dict[str, float]:
    """Median and tail of ``latencies`` (seconds, ``inf`` = failed) in milliseconds.

    ``wanted`` is the tail percentile the metric is named for; when the
    samples are too few for it, the tail rule's percentile is used and
    reported as ``tail_percentile``.
    """
    rule = tail_percentile(len(latencies))
    tail = wanted if rule is not None and rule >= wanted else rule
    return {
        "count": len(latencies),
        "p50_ms": percentile(latencies, 50.0) * 1e3,
        "tail_ms": percentile(latencies, tail if tail is not None else 100.0) * 1e3,
        "tail_percentile": tail if tail is not None else 100.0,
    }


def poisson_schedule(rate: float, count: int, rng: np.random.Generator) -> list[float]:
    """Due times (seconds from the start) of ``count`` Poisson arrivals at ``rate``/s."""
    gaps = rng.exponential(1.0 / rate, size=count)
    return np.cumsum(gaps).tolist()


@dataclass
class OpenLoopRecord:
    """One open-loop request: when it was due, sent and finished (``None`` = failed)."""

    due: float
    sent: float
    done: float | None

    @property
    def lateness(self) -> float:
        """How late the generator sent it, in seconds."""
        return max(self.sent - self.due, 0.0)

    @property
    def latency(self) -> float:
        """Time from when the request was due to its answer; ``inf`` if it failed."""
        return math.inf if self.done is None else self.done - self.due


#: The generator fell behind, and the open loop is invalid, when more than
#: 5% of its requests left this late (seconds).  A single stall is not
#: falling behind: the requests it delays are charged from their due times.
MAX_LATENESS_S = 0.02


def open_loop_summary(records: list[OpenLoopRecord]) -> dict[str, object]:
    """Latency from due time plus the generator's lateness and validity."""
    lateness = sorted(record.lateness for record in records)
    late_p95 = percentile(lateness, 95.0)
    return {
        "latencies": [record.latency for record in records],
        "late_p50_ms": percentile(lateness, 50.0) * 1e3,
        "late_p95_ms": late_p95 * 1e3,
        "late_max_ms": lateness[-1] * 1e3,
        "valid": late_p95 <= MAX_LATENESS_S,
    }

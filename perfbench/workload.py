"""What a workload returns, and the measurements every workload shares."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field


@dataclass
class WorkloadResult:
    """One workload run.

    ``metrics`` holds the end-to-end metrics of ``BENCHMARK.json``;
    ``named`` the workload's metrics under their descriptive names as
    ``(value, unit)``; ``report`` the phase tallies and input properties;
    ``operations`` the count of measured operations; ``windows`` the
    measured intervals (``perf_counter`` seconds), outside which spans
    belong to set-up or checks and are not counted.
    """

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    named: dict[str, tuple[float, str]]
    report: dict[str, object]
    operations: int
    windows: list[tuple[float, float]]
    server_spans: list = field(default_factory=list)
    client_latencies: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB.

    Read from the kernel's high-water mark of this process image
    (``VmHWM``); ``getrusage`` would also count the parent's memory that
    a freshly spawned process inherits for a moment before ``exec``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

"""The ``serve`` workload: a TCP server subprocess under open- and closed-loop load.

Set-up fits the serve model, saves it and starts ``repro.serve``'s CLI
(through :mod:`perfbench.serve_boot`) with ``--port 0``; set-up ends at
the first answer.  One load generator then drives one multiplexed
:class:`~repro.serve.ServeClient` connection:

* an open loop of single-record requests with Poisson arrivals at a
  fixed absolute rate, each timed from when it was due;
* a closed loop keeping a fixed window of requests outstanding; the
  median of its rounds' completion rates is the capacity.

The two phases alternate in :data:`ROUNDS` rounds, each taking the next
slice of both request lists, so that both sample the whole run rather
than one stretch of a machine whose speed drifts.

Every request carries a fresh record id; its title is a seeded
perturbation of a held-out record.  A seeded sample of the answers is
replayed through a serial :class:`~repro.QuerySession` on the same
artifact and must match bit for bit.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.exceptions import QueryTimeoutError, ReproError, ServerOverloadedError
from repro.serve import ServeClient

from .inputs import HOLDOUT_RECORDS, SERVE_TARGET_PAIRS, VariantStream, make_corpus, smoke_config
from .spans import load_spans
from .stats import (
    OpenLoopRecord,
    Tally,
    median,
    open_loop_summary,
    poisson_schedule,
    summarize_latencies,
)
from .workload import WorkloadResult

#: Offered rate of the open loop (requests per second): about a quarter of capacity.
OPEN_LOOP_QPS = 10.0
#: Seed of the open loop's Poisson arrival trace (the same for every workload seed).
ARRIVAL_SEED = 20231
#: Requests kept outstanding by the closed loop.
CLOSED_LOOP_WINDOW = 16
#: The open and closed loops alternate in this many rounds, so both sample the whole run.
ROUNDS = 4
#: Closed-loop requests per second of run time (a fixed count per run).
CLOSED_LOOP_PER_SECOND = 20
#: Answers replayed serially for the bit-identity check.
REPLAY_SAMPLE = 24
QUERY_K = 5
SERVER_START_TIMEOUT_S = 60.0


def run(seed: int, seconds: int, workdir: Path, trace: bool) -> WorkloadResult:
    """Run the ``serve`` workload; ``trace`` also traces the server process."""
    setup_start = time.perf_counter()
    corpus = make_corpus(seed, 10, SERVE_TARGET_PAIRS, HOLDOUT_RECORDS)
    fit_start = time.perf_counter()
    model = corpus.fit(smoke_config())
    fit_s = time.perf_counter() - fit_start
    path = model.save(workdir / "serve-model.npz")
    del model

    open_count = int(round(OPEN_LOOP_QPS * seconds))
    closed_count = CLOSED_LOOP_PER_SECOND * seconds
    stream = VariantStream(corpus.held_out, seed, 2, "q")
    warmup = stream.next()
    open_records = stream.take(open_count)
    closed_records = stream.take(closed_count)
    # One fixed arrival trace for every seed: the seed varies the records,
    # not the burst pattern, so latency compares the same traffic shape.
    arrivals = np.random.default_rng(ARRIVAL_SEED)
    schedule = poisson_schedule(OPEN_LOOP_QPS, open_count, arrivals)

    rss_file = workdir / "server-rss.txt"
    trace_file = workdir / "server-spans.jsonl"
    boot = Path(__file__).with_name("serve_boot.py")
    command = [sys.executable, str(boot), "--rss-out", str(rss_file)]
    if trace:
        command += ["--trace-out", str(trace_file)]
    command += ["--", "--model", str(path), "--port", "0"]
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    server = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        port = _await_port(server)
        load = _drive(port, warmup, open_records, schedule, closed_records, setup_start)
        outcome = asyncio.run(load)
    finally:
        _stop(server)
    peak_rss = float(rss_file.read_text(encoding="utf-8"))
    server_spans = load_spans(trace_file) if trace else []

    served = outcome["answers"]
    rng = np.random.default_rng([seed, 8])
    sample = rng.choice(sorted(served), size=min(REPLAY_SAMPLE, len(served)), replace=False)
    session = repro.load_model(path, mmap=True).session()
    records = {record.record_id: record for record in open_records + closed_records}
    wrong = []
    for record_id in sorted(sample):
        serial = session.query([records[record_id]], k=QUERY_K, mode="online")
        if not _same_answer(served[record_id], serial):
            wrong.append(record_id)
    open_tally, closed_tally = outcome["open"], outcome["closed"]
    for record_id in wrong:
        (open_tally if record_id in outcome["open_ids"] else closed_tally).wrong += 1

    summary = open_loop_summary(outcome["open_records"])
    latency = summarize_latencies(summary["latencies"], 95.0)
    attempted = open_tally.sent + closed_tally.sent
    failed = open_tally.bad + closed_tally.bad
    titles = [record.values["title"] for record in open_records + closed_records]
    stats = outcome["stats"]
    tail_name = f"query_p{latency['tail_percentile']:g}_ms"
    return WorkloadResult(
        correct=summary["valid"] and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={
            "setup_s": outcome["setup_s"],
            "peak_rss_mb": peak_rss,
            "p50_ms": latency["p50_ms"],
            "rate_per_s": outcome["max_qps"],
        },
        named={
            "setup_s": (outcome["setup_s"], "s"),
            "fit_s": (fit_s, "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "query_p50_ms": (latency["p50_ms"], "ms"),
            tail_name: (latency["tail_ms"], "ms"),
            "max_qps": (outcome["max_qps"], "1/s"),
            "failed_share": (failed / attempted, "share"),
        },
        report={
            "phases": {"open_loop": open_tally.as_dict(), "closed_loop": closed_tally.as_dict()},
            "open_loop": {
                "offered_qps": OPEN_LOOP_QPS,
                "requests": open_count,
                "generator_late_p50_ms": summary["late_p50_ms"],
                "generator_late_p95_ms": summary["late_p95_ms"],
                "generator_late_max_ms": summary["late_max_ms"],
                "valid": summary["valid"],
                "tail_percentile": latency["tail_percentile"],
            },
            "closed_loop": {
                "window": CLOSED_LOOP_WINDOW,
                "requests": closed_count,
                "round_qps": outcome["round_qps"],
            },
            "replay_check": {"sampled": len(sample), "mismatched": wrong},
            "inputs": {
                "corpus_records": len(corpus.dataset),
                "candidate_pairs": corpus.candidate_pairs,
                "content_duplicate_share": 1.0 - len(set(titles)) / len(titles),
                "batch_fill_mean": stats["records_batched"] / max(stats["batches_flushed"], 1),
                "batch_fill_max": stats["max_batch_observed"],
            },
            "server_stats": stats,
        },
        operations=attempted,
        windows=[outcome["window"]],
        server_spans=server_spans,
        client_latencies=outcome["client_latencies"],
    )


def _await_port(server: subprocess.Popen) -> int:
    """Read the server's ``serving ... on HOST:PORT`` line; fail if it never comes."""
    lines: list[str] = []
    reader = threading.Thread(target=lambda: lines.append(server.stdout.readline()), daemon=True)
    reader.start()
    reader.join(SERVER_START_TIMEOUT_S)
    if not lines or " on " not in lines[0]:
        raise RuntimeError(f"server did not start: {lines!r}")
    return int(lines[0].split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])


def _stop(server: subprocess.Popen) -> None:
    """SIGINT the server (it writes its RSS and spans on the way out) and wait for it."""
    if server.poll() is None:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    server.stdout.close()


async def _drive(port, warmup, open_records, schedule, closed_records, setup_start) -> dict:
    async with ServeClient(port=port) as client:
        await client.query([warmup], k=QUERY_K)
        setup_s = time.perf_counter() - setup_start
        answers: dict[str, repro.QueryResult] = {}
        client_latencies: dict[str, float] = {}

        async def request(record, tally: Tally) -> float | None:
            """Send one request; returns its completion time, ``None`` if it failed."""
            tally.sent += 1
            sent = time.perf_counter()
            try:
                answer = await client.query([record], k=QUERY_K)
            except ServerOverloadedError:
                tally.rejected += 1
            except QueryTimeoutError:
                tally.timed_out += 1
            except ReproError:
                tally.failed += 1
            else:
                done = time.perf_counter()
                client_latencies[record.record_id] = done - sent
                answers[record.record_id] = answer
                if answer.record_ids == (record.record_id,) and answer.pairs:
                    tally.succeeded += 1
                else:
                    tally.wrong += 1
                return done
            return None

        open_tally, closed_tally = Tally(), Tally()
        open_log: list[OpenLoopRecord] = []

        async def offered(record, due: float, sent: float) -> None:
            done = await request(record, open_tally)
            open_log.append(OpenLoopRecord(due=due, sent=sent, done=done))

        async def open_loop(records, offsets) -> None:
            start = time.perf_counter() + 0.01 - offsets[0]
            tasks = []
            for record, offset in zip(records, offsets):
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.ensure_future(offered(record, due, time.perf_counter())))
            await asyncio.gather(*tasks)

        async def closed_loop(records) -> float:
            """Completions per second of one closed-loop round."""
            pending = iter(records)
            before = closed_tally.succeeded

            async def worker() -> None:
                for record in pending:
                    await request(record, closed_tally)

            began = time.perf_counter()
            await asyncio.gather(*(worker() for _ in range(CLOSED_LOOP_WINDOW)))
            return (closed_tally.succeeded - before) / (time.perf_counter() - began)

        start = time.perf_counter()
        round_qps = []
        for part in range(ROUNDS):
            await open_loop(_chunk(open_records, part), _chunk(schedule, part))
            round_qps.append(await closed_loop(_chunk(closed_records, part)))
        window = (start, time.perf_counter())
        stats = await client.stats()
    return {
        "setup_s": setup_s,
        "answers": answers,
        "client_latencies": client_latencies,
        "open": open_tally,
        "open_ids": {record.record_id for record in open_records},
        "open_records": open_log,
        "closed": closed_tally,
        "max_qps": median(round_qps),
        "round_qps": round_qps,
        "stats": stats,
        "window": window,
    }


def _chunk(items: list, part: int) -> list:
    """The ``part``-th of :data:`ROUNDS` contiguous, near-equal chunks of ``items``."""
    size = len(items)
    return items[part * size // ROUNDS : (part + 1) * size // ROUNDS]


def _same_answer(served: "repro.QueryResult", serial: "repro.QueryResult") -> bool:
    """Bit-for-bit equality of two query results' content."""
    served_arrays, served_meta = served.as_arrays()
    serial_arrays, serial_meta = serial.as_arrays()
    return (
        served_meta == serial_meta
        and set(served_arrays) == set(serial_arrays)
        and all(np.array_equal(served_arrays[key], serial_arrays[key]) for key in served_arrays)
    )

"""The ``update-churn`` workload: seeded deltas, segment saves and queries on one model.

Set-up fits the serve model.  Each delta then inserts one fresh record,
modifies one live record inserted since the last compaction, and on
every third delta deletes another; ``model.update()`` runs under the
default :class:`~repro.update.CompactionPolicy` and ``model.save()``
appends a segment.  One online query of a fresh record follows through
one long-lived :class:`~repro.QuerySession`, whose caches every update
invalidates.  Edits go to records inserted by the stream, never to the
labeled corpus, so the final exact-mode parity check against a fresh
union-corpus fit must hold.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro import CandidateSet, Dataset, DatasetSplit, Record

from .inputs import HOLDOUT_RECORDS, SERVE_TARGET_PAIRS, VariantStream, make_corpus, smoke_config
from .stats import Tally, summarize_latencies
from .workload import WorkloadResult, peak_rss_mb

#: Deltas per measured second of run time (fixed, so a seed always gives the same stream).
DELTAS_PER_SECOND = 7
#: Fresh records of the final exact-mode parity check.
PARITY_PROBES = 3
QUERY_K = 5


def run(seed: int, seconds: int, workdir) -> WorkloadResult:
    """Run the ``update-churn`` workload, saving the model under ``workdir``."""
    setup_start = time.perf_counter()
    corpus = make_corpus(seed, 10, SERVE_TARGET_PAIRS, HOLDOUT_RECORDS)
    fit_start = time.perf_counter()
    model = corpus.fit(smoke_config())
    fit_s = time.perf_counter() - fit_start
    macro_f1 = model.fit_result.evaluate().mi_f1
    path = workdir / "churn-model.npz"
    model.save(path)
    setup_s = time.perf_counter() - setup_start
    start_records = len(model.corpus)

    rng = np.random.default_rng([seed, 5])
    inserts = VariantStream(corpus.held_out, seed, 3, "u")
    edits = VariantStream(corpus.held_out, seed, 4, "e")
    queries = VariantStream(corpus.held_out, seed, 6, "q")
    session = model.session()
    pool: list[str] = []  # live records inserted since the last compaction
    update_latencies: list[float] = []
    query_latencies: list[float] = []
    absorbed = 0
    compactions: list[int] = []
    updates, reads = Tally(), Tally()

    stream_start = time.perf_counter()
    for index in range(DELTAS_PER_SECOND * seconds):
        insert = inserts.next()
        upserts = [insert]
        deletes: list[str] = []
        if pool:
            target = pool[int(rng.integers(len(pool)))]
            upserts.append(Record(record_id=target, values=edits.next().values))
            if index % 3 == 2 and len(pool) > 1:
                victim = pool[int(rng.integers(len(pool)))]
                while victim == target:
                    victim = pool[int(rng.integers(len(pool)))]
                deletes.append(victim)
        updates.sent += 1
        start = time.perf_counter()
        try:
            result = model.update(upserts, deletes, compact="auto")
            model.save(path)
        except repro.exceptions.ReproError as error:
            updates.failed += 1
            update_latencies.append(float("inf"))
            print(f"update {index} failed: {error!r}")
            continue
        update_latencies.append(time.perf_counter() - start)
        updates.succeeded += 1
        absorbed += len(upserts) + len(deletes)
        if result.compacted:
            compactions.append(index)
            pool = [insert.record_id]
        else:
            pool = [rid for rid in pool if rid not in deletes] + [insert.record_id]

        reads.sent += 1
        record = queries.next()
        start = time.perf_counter()
        try:
            answer = session.query([record], k=QUERY_K, mode="online")
        except repro.exceptions.ReproError as error:
            reads.failed += 1
            query_latencies.append(float("inf"))
            print(f"query {index} failed: {error!r}")
            continue
        query_latencies.append(time.perf_counter() - start)
        if answer.record_ids != (record.record_id,) or not answer.pairs:
            reads.wrong += 1
        else:
            reads.succeeded += 1

    window = (stream_start, time.perf_counter())
    peak_rss = peak_rss_mb()  # before the parity check's extra fit
    parity = exact_parity(model, queries.take(PARITY_PROBES))
    update_summary = summarize_latencies(update_latencies, 95.0)
    query_summary = summarize_latencies(query_latencies, 95.0)
    update_wall = sum(latency for latency in update_latencies if latency != float("inf"))
    attempted = updates.sent + reads.sent
    failed = updates.bad + reads.bad
    return WorkloadResult(
        correct=parity and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
            "p50_ms": update_summary["p50_ms"],
            "rate_per_s": absorbed / update_wall,
        },
        named={
            "setup_s": (setup_s, "s"),
            "fit_s": (fit_s, "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "macro_f1": (macro_f1, "ratio"),
            "query_p50_ms": (query_summary["p50_ms"], "ms"),
            f"query_p{query_summary['tail_percentile']:g}_ms": (query_summary["tail_ms"], "ms"),
            "failed_share": (failed / attempted, "share"),
            "update_p50_ms": (update_summary["p50_ms"], "ms"),
            f"update_p{update_summary['tail_percentile']:g}_ms": (update_summary["tail_ms"], "ms"),
            "update_records_per_s": (absorbed / update_wall, "1/s"),
        },
        report={
            "phases": {"update": updates.as_dict(), "query": reads.as_dict()},
            "tail_percentiles": {
                "update": update_summary["tail_percentile"],
                "query": query_summary["tail_percentile"],
            },
            "inputs": {
                "deltas": updates.sent,
                "records_absorbed": absorbed,
                "compactions": len(compactions),
                "compaction_positions": compactions,
                "compaction_share": len(compactions) / max(updates.sent, 1),
                "corpus_records_start": start_records,
                "corpus_records_end": len(model.corpus),
                "live_records_end": model.drift_metrics().live_records,
            },
            "exact_parity": parity,
        },
        operations=updates.sent,
        windows=[window],
    )


def exact_parity(model: "repro.ResolverModel", probes: list[Record]) -> bool:
    """Whether exact-mode answers equal those of a fresh fit on the live corpus.

    The fresh fit re-anchors the model's labeled split onto the live
    (union) corpus and refits with the same configuration; both models
    answer ``probes`` in exact mode and every array must match.
    """
    updated = model.query(probes, k=QUERY_K, mode="exact")
    live = Dataset(
        records=[record for record in model.corpus if record.record_id not in model.tombstones],
        name=model.corpus.name,
        attributes=model.corpus.attributes,
    )

    def reanchor(part):
        return CandidateSet(live, pairs=list(part), intents=model.intents)

    split = DatasetSplit(
        train=reanchor(model.split.train),
        valid=reanchor(model.split.valid),
        test=reanchor(model.split.test),
    )
    runner = repro.PipelineRunner(
        augment_with_scores=model.augment_with_scores, feature_config=model.feature_config
    )
    fresh = runner.fit_model(
        split, model.intents, config=model.config, retriever=model.retriever_spec
    ).model
    expected = fresh.query(probes, k=QUERY_K, mode="exact")
    updated_arrays, updated_meta = updated.as_arrays()
    fresh_arrays, fresh_meta = expected.as_arrays()
    return updated_meta == fresh_meta and all(
        key in fresh_arrays and np.array_equal(updated_arrays[key], fresh_arrays[key])
        for key in updated_arrays
    ) and set(updated_arrays) == set(fresh_arrays)

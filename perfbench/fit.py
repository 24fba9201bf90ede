"""The ``fit`` workload: ``Resolver.fit`` on an amazon_mi corpus of 2,764 candidate pairs.

Each fit runs blocking, labeling, the split, the staged pipeline
(matcher fit, representations, graph build, one GNN per intent) and the
model build, with the ``table9_amazon_mi`` hyper-parameters.  The
workload fits at least twice and keeps fitting until the run's seconds
are used.  Every fit must predict the test split identically (same
digest), and its macro F1 over intents must stay above a floor.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from .inputs import FIT_TARGET_PAIRS, make_corpus, table9_config
from .stats import median, summarize_latencies
from .workload import WorkloadResult, peak_rss_mb

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 25
MIN_FITS = 2
#: A fit whose test-split macro F1 falls below this is wrong.
MACRO_F1_FLOOR = 0.8


def run(seed: int, seconds: int) -> WorkloadResult:
    """Run the ``fit`` workload."""
    setups: list[float] = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        corpus = make_corpus(seed, 12, FIT_TARGET_PAIRS, 0)
        setups.append(time.perf_counter() - start)

    config = table9_config()
    walls: list[float] = []
    windows: list[tuple[float, float]] = []
    digests: set[str] = set()
    f1s: list[float] = []
    began = time.perf_counter()
    while len(walls) < MIN_FITS or time.perf_counter() - began < seconds:
        start = time.perf_counter()
        model = corpus.fit(config)
        end = time.perf_counter()
        walls.append(end - start)
        windows.append((start, end))
        result = model.fit_result
        f1s.append(result.evaluate().mi_f1)
        digests.add(prediction_digest(result.solution))
        del model, result

    fit_s = median(walls)
    latency = summarize_latencies(walls, 95.0)
    macro_f1 = min(f1s)
    deterministic = len(digests) == 1
    correct = deterministic and macro_f1 >= MACRO_F1_FLOOR
    return WorkloadResult(
        correct=correct,
        attempted=len(walls),
        failed=0 if correct else len(walls),
        metrics={
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "p50_ms": fit_s * 1e3,
            "rate_per_s": corpus.candidate_pairs / fit_s,
        },
        named={
            "setup_s": (median(setups), "s"),
            "fit_s": (fit_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "macro_f1": (macro_f1, "ratio"),
            "fit_max_s": (latency["tail_ms"] / 1e3, "s"),
        },
        report={
            "fits": len(walls),
            "fit_walls_s": walls,
            "macro_f1_per_fit": f1s,
            "test_prediction_digest": sorted(digests),
            "deterministic": deterministic,
            "macro_f1_floor": MACRO_F1_FLOOR,
            "inputs": {
                "corpus_records": len(corpus.dataset),
                "candidate_pairs": corpus.candidate_pairs,
            },
        },
        operations=len(walls),
        windows=windows,
    )


def prediction_digest(solution) -> str:
    """SHA-256 over the test-split pairs and each intent's predictions and probabilities."""
    digest = hashlib.sha256()
    for labeled in solution.candidates:
        digest.update("\t".join(labeled.pair.as_tuple()).encode())
    for intent in solution.intents:
        digest.update(intent.encode())
        digest.update(np.ascontiguousarray(solution.prediction(intent), dtype=np.int64).tobytes())
        probabilities = solution.probabilities.get(intent)
        if probabilities is not None:
            digest.update(np.ascontiguousarray(probabilities, dtype=np.float64).tobytes())
    return digest.hexdigest()

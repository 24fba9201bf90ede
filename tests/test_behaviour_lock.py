"""Behaviour lock: a seeded smoke-scale ``Resolver.fit`` keeps its exact output.

The pinned digest covers the test-split pairs and every intent's 0/1
predictions; the macro F1 is pinned to 1e-6.  Probabilities are left
out of the digest because their last bits depend on the BLAS build.
A change that alters what ``fit`` predicts must update these values and
say why.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import FlexERConfig, GNNConfig, GraphConfig, MatcherConfig, Resolver
from repro.datasets import BENCHMARK_LABELERS, load_benchmark

#: amazon_mi, products_per_domain 8, seed 7: 1,708 candidate pairs, 342 in test.
LOCKED_DIGEST = "d2a15af6e49cc7f45504e277429cfe647331f40bd0bb3fbbe2f5850dd4d92cdb"
LOCKED_MACRO_F1 = 0.7987593307593308


def prediction_digest(solution) -> str:
    """SHA-256 over the test-split pairs and each intent's 0/1 predictions."""
    digest = hashlib.sha256()
    for labeled in solution.candidates:
        digest.update("\t".join(labeled.pair.as_tuple()).encode())
    for intent in solution.intents:
        digest.update(intent.encode())
        digest.update(np.ascontiguousarray(solution.prediction(intent), dtype=np.int64).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def locked_fit():
    benchmark = load_benchmark("amazon_mi", num_pairs=80, products_per_domain=8, seed=7)
    labeler = BENCHMARK_LABELERS["amazon_mi"]
    products = benchmark.record_products

    def label(left, right):
        return labeler.label_pair(products[left.record_id], products[right.record_id])

    config = FlexERConfig(
        matcher=MatcherConfig(hidden_dims=(24, 12), n_features=96, epochs=2, seed=5),
        graph=GraphConfig(k_neighbors=6),
        gnn=GNNConfig(hidden_dim=16, epochs=6, seed=5),
    )
    model = Resolver(config=config).fit(
        benchmark.dataset, intents=labeler.intent_names, labeler=label
    )
    return model.fit_result


def test_test_split_predictions_are_locked(locked_fit):
    assert prediction_digest(locked_fit.solution) == LOCKED_DIGEST


def test_macro_f1_is_locked(locked_fit):
    assert locked_fit.evaluate().mi_f1 == pytest.approx(LOCKED_MACRO_F1, abs=1e-6)

"""Seeded inputs of the benchmark workloads.

Everything the program under test sees is built here from the workload
seed: the corpus records, their labeler, the model configuration, and
the streams of query and update records.  Corpora are cut to a fixed
number of candidate pairs, so that fit cost does not swing with the
seed: a prefix of the seeded record order is grown until blocking yields
the target pair count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro
from repro import Dataset, FlexERConfig, GNNConfig, GraphConfig, MatcherConfig, Record
from repro.datasets import BENCHMARK_LABELERS, TitlePerturber, load_benchmark

DATASET = "amazon_mi"

#: Candidate pairs of the ``fit`` corpus (amazon_mi at products_per_domain 12).
FIT_TARGET_PAIRS = 2764
#: Candidate pairs of the ``serve`` / ``update-churn`` corpus (products_per_domain 10).
SERVE_TARGET_PAIRS = 1903
#: Records kept out of the serve corpus; queries and inserts are variants of them.
HOLDOUT_RECORDS = 24


def table9_config() -> FlexERConfig:
    """The ``table9_amazon_mi`` hyper-parameters (matcher 5 epochs, GNN 20, k=6)."""
    return _config(matcher_epochs=5, gnn_epochs=20)


def smoke_config() -> FlexERConfig:
    """The ``table9_smoke_amazon_mi`` hyper-parameters (one epoch each, k=6)."""
    return _config(matcher_epochs=1, gnn_epochs=1)


def _config(matcher_epochs: int, gnn_epochs: int) -> FlexERConfig:
    return FlexERConfig(
        matcher=MatcherConfig(hidden_dims=(64, 32), n_features=256, epochs=matcher_epochs, seed=42),
        graph=GraphConfig(k_neighbors=6),
        gnn=GNNConfig(hidden_dim=48, epochs=gnn_epochs, seed=42),
    )


@dataclass
class Corpus:
    """A labeled corpus plus the records held out of it."""

    dataset: Dataset
    held_out: list[Record]
    intents: tuple[str, ...]
    labeler: object
    candidate_pairs: int

    def fit(self, config: FlexERConfig) -> "repro.ResolverModel":
        """``Resolver.fit`` over the corpus (blocking, labeling, split, pipeline)."""
        return repro.Resolver(config=config).fit(
            self.dataset, intents=self.intents, labeler=self.labeler
        )


def make_corpus(seed: int, products_per_domain: int, target_pairs: int, holdout: int) -> Corpus:
    """Generate amazon_mi records and cut a corpus of about ``target_pairs`` pairs.

    The records are shuffled with the seed; the last ``holdout`` are
    held out and the corpus is the longest prefix of the rest whose
    blocked pair count does not exceed ``target_pairs``.  When the
    generated records block fewer pairs than the target, one more
    product per domain is generated until they do.
    """
    for products in range(products_per_domain, products_per_domain + 8):
        corpus = _cut_corpus(seed, products, target_pairs, holdout)
        if corpus is not None:
            return corpus
    raise RuntimeError(f"seed {seed}: no corpus reaches {target_pairs} candidate pairs")


def _cut_corpus(
    seed: int, products_per_domain: int, target_pairs: int, holdout: int
) -> Corpus | None:
    benchmark = load_benchmark(DATASET, products_per_domain=products_per_domain, seed=seed)
    labeler = BENCHMARK_LABELERS[DATASET]
    products = benchmark.record_products

    def label_pair(left: Record, right: Record):
        return labeler.label_pair(products[left.record_id], products[right.record_id])

    records = list(benchmark.dataset.records)
    order = np.random.default_rng([seed, 0]).permutation(len(records))
    records = [records[index] for index in order]
    held_out = records[len(records) - holdout :] if holdout else []
    pool = records[: len(records) - holdout]
    resolver = repro.Resolver()  # blocks with the default blocker, as every fit here does
    attributes = benchmark.dataset.attributes

    def dataset_of(size: int) -> Dataset:
        return Dataset(records=pool[:size], name=benchmark.dataset.name, attributes=attributes)

    def pairs_of(size: int) -> int:
        return len(resolver.block(dataset_of(size)))

    low, high = 2, len(pool)
    if pairs_of(high) < target_pairs:
        return None
    while low < high:
        middle = (low + high + 1) // 2
        if pairs_of(middle) <= target_pairs:
            low = middle
        else:
            high = middle - 1
    return Corpus(
        dataset=dataset_of(low),
        held_out=held_out,
        intents=tuple(labeler.intent_names),
        labeler=label_pair,
        candidate_pairs=pairs_of(low),
    )


class VariantStream:
    """Fresh-id records whose titles are seeded perturbations of source records."""

    def __init__(self, sources: list[Record], seed: int, stream: int, prefix: str) -> None:
        self.sources = sources
        self.rng = np.random.default_rng([seed, stream])
        self.perturber = TitlePerturber(rng=np.random.default_rng([seed, stream, 1]))
        self.prefix = prefix
        self.count = 0

    def next(self) -> Record:
        """The next record: a fresh id and a perturbed title of a random source."""
        source = self.sources[int(self.rng.integers(len(self.sources)))]
        record = Record(
            record_id=f"{self.prefix}{self.count:06d}",
            values={"title": self.perturber.perturb(source.values["title"])},
            source=source.source,
        )
        self.count += 1
        return record

    def take(self, count: int) -> list[Record]:
        """The next ``count`` records."""
        return [self.next() for _ in range(count)]

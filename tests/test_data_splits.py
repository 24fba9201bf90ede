"""Tests for train/validation/test splitting."""

from __future__ import annotations

import pytest

from repro.data.records import Dataset, Record
from repro.data.splits import SplitRatio, split_candidates
from repro.exceptions import ConfigurationError, DataError


class TestSplitRatio:
    def test_default_is_paper_ratio(self):
        fractions = SplitRatio().fractions()
        assert fractions == pytest.approx((0.6, 0.2, 0.2))

    def test_negative_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            SplitRatio(train=-1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            SplitRatio(train=0, valid=0, test=0)


class TestSplitCandidates:
    def test_partition_is_complete_and_disjoint(self, tiny_benchmark):
        candidates = tiny_benchmark.candidates
        split = split_candidates(candidates, seed=1)
        total = len(split.train) + len(split.valid) + len(split.test)
        assert total == len(candidates)
        all_pairs = [p for part in split for p in part.pairs]
        assert len(set(all_pairs)) == len(all_pairs)

    def test_sizes_follow_ratio(self, tiny_benchmark):
        candidates = tiny_benchmark.candidates
        split = split_candidates(candidates, SplitRatio(1, 1, 1), seed=2)
        sizes = split.sizes()
        assert abs(sizes["train"] - sizes["test"]) <= 3
        assert abs(sizes["train"] - sizes["valid"]) <= 3

    def test_stratification_keeps_positive_rates_close(self, tiny_benchmark):
        candidates = tiny_benchmark.candidates
        intent = candidates.intents[0]
        split = split_candidates(candidates, stratify_intent=intent, seed=3)
        overall = candidates.positive_rate(intent)
        for part in split:
            if len(part) >= 10:
                assert abs(part.positive_rate(intent) - overall) < 0.2

    def test_deterministic_given_seed(self, tiny_benchmark):
        candidates = tiny_benchmark.candidates
        first = split_candidates(candidates, seed=11)
        second = split_candidates(candidates, seed=11)
        assert [p.as_tuple() for p in first.test.pairs] == [
            p.as_tuple() for p in second.test.pairs
        ]

    def test_different_seeds_differ(self, tiny_benchmark):
        candidates = tiny_benchmark.candidates
        first = split_candidates(candidates, seed=11)
        second = split_candidates(candidates, seed=12)
        assert [p.as_tuple() for p in first.test.pairs] != [
            p.as_tuple() for p in second.test.pairs
        ]

    def test_positive_rates_report_structure(self, tiny_benchmark):
        split = tiny_benchmark.split
        report = split.positive_rates()
        assert set(report) == {"train", "valid", "test"}
        for rates in report.values():
            assert set(rates) == set(tiny_benchmark.intents)
            assert all(0.0 <= value <= 1.0 for value in rates.values())


class TestDatasetSplit:
    def test_iteration_order(self, tiny_benchmark):
        parts = list(tiny_benchmark.split)
        assert parts[0] is tiny_benchmark.split.train
        assert parts[2] is tiny_benchmark.split.test

    def test_sizes_keys(self, tiny_benchmark):
        assert set(tiny_benchmark.split.sizes()) == {"train", "valid", "test"}

    def test_reanchor_keeps_pairs_and_labels_over_new_dataset(self, toy_candidates):
        split = split_candidates(toy_candidates, SplitRatio(2, 1, 1), seed=1)
        dataset = toy_candidates.dataset
        extended = Dataset(
            records=list(dataset) + [Record(record_id="r7", values={"title": "Nike Air"})],
            name=dataset.name,
            attributes=dataset.attributes,
        )
        moved = split.reanchor(extended)
        for before, after in zip(split, moved):
            assert after.dataset is extended
            assert after.pairs == before.pairs
            assert after.intents == before.intents
            assert (after.label_matrix() == before.label_matrix()).all()

    def test_reanchor_rejects_pairs_outside_the_dataset(self, toy_candidates):
        split = split_candidates(toy_candidates, SplitRatio(2, 1, 1), seed=1)
        dropped = split.train.pairs[0].left_id
        dataset = toy_candidates.dataset
        shrunk = Dataset(
            records=[record for record in dataset if record.record_id != dropped],
            name=dataset.name,
            attributes=dataset.attributes,
        )
        with pytest.raises(DataError, match="outside the dataset"):
            split.reanchor(shrunk)

"""Train/validation/test splitting of candidate sets.

The paper splits every benchmark into train/validation/test with a 3:1:1
ratio (Section 5.1).  Splits operate on candidate *pairs* (not records),
matching the published benchmark format, and support stratification on a
reference intent so positive rates stay comparable across splits
(Table 4 reports nearly identical rates per split).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from .pairs import CandidateSet
from .records import Dataset


@dataclass(frozen=True)
class SplitRatio:
    """Relative sizes of the train, validation, and test splits."""

    train: float = 3.0
    valid: float = 1.0
    test: float = 1.0

    def __post_init__(self) -> None:
        if min(self.train, self.valid, self.test) < 0:
            raise ConfigurationError("split ratios must be non-negative")
        if self.train + self.valid + self.test <= 0:
            raise ConfigurationError("at least one split ratio must be positive")

    def fractions(self) -> tuple[float, float, float]:
        """Normalized (train, valid, test) fractions summing to 1."""
        total = self.train + self.valid + self.test
        return self.train / total, self.valid / total, self.test / total


@dataclass
class DatasetSplit:
    """The three candidate subsets produced by :func:`split_candidates`."""

    train: CandidateSet
    valid: CandidateSet
    test: CandidateSet

    def __iter__(self):
        return iter((self.train, self.valid, self.test))

    def reanchor(self, dataset: Dataset) -> "DatasetSplit":
        """The same labeled pairs, in the same order, over ``dataset``.

        Used when a corpus is rewritten (records added, replaced, or
        extended with query records) while the supervision stays put.
        Raises :class:`~repro.exceptions.DataError` when a pair references
        a record missing from ``dataset``.
        """
        return DatasetSplit(
            *(CandidateSet(dataset, pairs=list(part), intents=part.intents) for part in self)
        )

    def sizes(self) -> dict[str, int]:
        """Number of pairs per split."""
        return {"train": len(self.train), "valid": len(self.valid), "test": len(self.test)}

    def positive_rates(self) -> dict[str, dict[str, float]]:
        """Per-split, per-intent positive rates (the Table 4 profile)."""
        return {
            name: {intent: part.positive_rate(intent) for intent in part.intents}
            for name, part in (("train", self.train), ("valid", self.valid), ("test", self.test))
        }


def split_candidates(
    candidates: CandidateSet,
    ratio: SplitRatio | None = None,
    stratify_intent: str | None = None,
    seed: int = 13,
) -> DatasetSplit:
    """Randomly split a candidate set into train/validation/test subsets.

    Parameters
    ----------
    candidates:
        The labeled candidate set to split.
    ratio:
        Relative split sizes; defaults to the paper's 3:1:1.
    stratify_intent:
        When given, positives and negatives of this intent are split
        separately so each subset keeps (approximately) the global
        positive rate.  Defaults to the first intent when available.
    seed:
        Seed of the shuffling RNG.
    """
    ratio = ratio or SplitRatio()
    rng = np.random.default_rng(seed)
    n = len(candidates)
    if stratify_intent is None and candidates.intents:
        stratify_intent = candidates.intents[0]

    if n == 0:
        empty = candidates.subset([])
        return DatasetSplit(train=empty, valid=candidates.subset([]), test=candidates.subset([]))

    if stratify_intent is not None:
        labels = candidates.labels(stratify_intent)
        groups = [np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)]
    else:
        groups = [np.arange(n)]

    train_idx: list[int] = []
    valid_idx: list[int] = []
    test_idx: list[int] = []
    train_frac, valid_frac, _ = ratio.fractions()
    for group in groups:
        permuted = rng.permutation(group)
        n_group = len(permuted)
        n_train = int(round(train_frac * n_group))
        n_valid = int(round(valid_frac * n_group))
        n_train = min(n_train, n_group)
        n_valid = min(n_valid, n_group - n_train)
        train_idx.extend(permuted[:n_train].tolist())
        valid_idx.extend(permuted[n_train : n_train + n_valid].tolist())
        test_idx.extend(permuted[n_train + n_valid :].tolist())

    train_idx.sort()
    valid_idx.sort()
    test_idx.sort()
    return DatasetSplit(
        train=candidates.subset(train_idx),
        valid=candidates.subset(valid_idx),
        test=candidates.subset(test_idx),
    )

"""Exact nearest-neighbour search (the Faiss substitute).

The paper connects every intent-layer node to its ``k`` nearest
neighbours computed with Faiss over L2 distance, using only the
exhaustive (exact) index.  This module provides the same computation in
numpy, for L2 and cosine distances, with optional self-exclusion and
chunked evaluation to bound memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError

#: Rows shorter than this are fully sorted: below it the fixed cost of
#: the partial selection (about 40 µs) exceeds the sort it avoids.
PARTIAL_SORT_MIN_COLUMNS = 1024


def stable_top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest entries of each row, ties by index.

    Returns exactly ``np.argsort(values, axis=-1, kind="stable")[..., :k]``
    for a 1-D or 2-D ``values``, NaN placement included, without sorting
    whole rows: ``np.partition`` finds each row's k-th smallest value,
    the columns not above it are gathered in index order, and only that
    candidate set — ``k`` entries, plus any tied with the k-th — is
    sorted stably.  Short rows, ``k`` above half the row length and rows
    whose k-th value is NaN are sorted whole.
    """
    if values.ndim == 1:
        return stable_top_k(values[np.newaxis, :], k)[0]
    num_rows, num_columns = values.shape
    if num_columns < PARTIAL_SORT_MIN_COLUMNS or not 0 < 2 * k <= num_columns:
        return np.argsort(values, axis=1, kind="stable")[:, :k]
    kth = np.partition(values, k - 1, axis=1)[:, k - 1]
    candidates = values <= kth[:, np.newaxis]
    # A NaN k-th value selects too little; such a row keeps all columns.
    candidates[np.isnan(kth)] = True
    rows, columns = np.nonzero(candidates)
    counts = np.bincount(rows, minlength=num_rows)
    top = np.empty((num_rows, k), dtype=np.int64)
    exact = counts == k
    exact_rows = np.flatnonzero(exact)
    exact_columns = columns[exact[rows]].reshape(-1, k)
    order = np.argsort(values[exact_rows[:, np.newaxis], exact_columns], axis=1, kind="stable")
    top[exact_rows] = np.take_along_axis(exact_columns, order, axis=1)
    # A row with values tied to its k-th (or a NaN row) has more than
    # k candidates; each such row sorts just its own candidate set.
    starts = np.cumsum(counts) - counts
    for row in np.flatnonzero(~exact):
        tied = columns[starts[row] : starts[row] + counts[row]]
        top[row] = tied[np.argsort(values[row, tied], kind="stable")[:k]]
    return top


@dataclass(frozen=True)
class NeighborResult:
    """Indices and distances of the nearest neighbours of each query row."""

    indices: np.ndarray
    distances: np.ndarray

    def neighbors_of(self, row: int) -> list[int]:
        """Neighbour indices of query ``row`` in increasing distance order."""
        return self.indices[row].tolist()

    def neighbor_lists(self) -> list[list[int]]:
        """All neighbour index lists at once (one ``tolist`` conversion)."""
        return self.indices.tolist()


class ExactNearestNeighbors:
    """Brute-force exact kNN index.

    Parameters
    ----------
    metric:
        ``"l2"`` (squared Euclidean, as in the paper) or ``"cosine"``
        (one minus cosine similarity).
    chunk_size:
        Number of query rows scored per block, bounding peak memory.
    """

    def __init__(self, metric: str = "l2", chunk_size: int = 1024) -> None:
        if metric not in ("l2", "cosine"):
            raise ConfigurationError(f"unsupported metric: {metric!r}")
        if chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        self.metric = metric
        self.chunk_size = chunk_size
        self._data: np.ndarray | None = None
        self._normalized: np.ndarray | None = None

    def fit(self, data: np.ndarray) -> "ExactNearestNeighbors":
        """Index the rows of ``data`` (shape ``(n, d)``)."""
        array = np.asarray(data, dtype=np.float64)
        if array.ndim != 2:
            raise ConfigurationError("index data must be a 2-D array")
        self._data = array
        if self.metric == "cosine":
            norms = np.linalg.norm(array, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            self._normalized = array / norms
        return self

    @property
    def num_indexed(self) -> int:
        """Number of indexed rows."""
        return 0 if self._data is None else self._data.shape[0]

    def _distances(self, queries: np.ndarray) -> np.ndarray:
        assert self._data is not None
        if self.metric == "l2":
            # ||q - x||^2 = ||q||^2 - 2 q.x + ||x||^2
            query_norms = (queries**2).sum(axis=1, keepdims=True)
            data_norms = (self._data**2).sum(axis=1)[np.newaxis, :]
            distances = query_norms - 2.0 * queries @ self._data.T + data_norms
            return np.maximum(distances, 0.0)
        assert self._normalized is not None
        norms = np.linalg.norm(queries, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        normalized_queries = queries / norms
        return 1.0 - normalized_queries @ self._normalized.T

    def search(
        self,
        queries: np.ndarray,
        k: int,
        exclude_self: bool = False,
        query_offset: int = 0,
    ) -> NeighborResult:
        """Find the ``k`` nearest indexed rows of each query row.

        Parameters
        ----------
        queries:
            Query matrix of shape ``(m, d)``.
        k:
            Number of neighbours to return per query.
        exclude_self:
            When true, the indexed row whose position equals
            ``query_offset + row`` is excluded — used when querying the
            index with its own rows.
        query_offset:
            Offset applied to query rows for self-exclusion.
        """
        if self._data is None:
            raise ConfigurationError("the index must be fitted before searching")
        if k <= 0:
            raise ConfigurationError("k must be positive")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self._data.shape[1]:
            raise ConfigurationError("queries must match the indexed dimensionality")

        n_indexed = self.num_indexed
        num_queries = queries.shape[0]
        effective_k = min(k, n_indexed - (1 if exclude_self else 0))
        effective_k = max(effective_k, 0)
        if effective_k == 0 or num_queries == 0:
            return NeighborResult(
                indices=np.zeros((num_queries, effective_k), dtype=np.int64),
                distances=np.zeros((num_queries, effective_k), dtype=np.float64),
            )

        index_blocks: list[np.ndarray] = []
        distance_blocks: list[np.ndarray] = []
        for start in range(0, num_queries, self.chunk_size):
            stop = min(start + self.chunk_size, num_queries)
            distances = self._distances(queries[start:stop])
            if exclude_self:
                rows = np.arange(start, stop, dtype=np.int64)
                self_indices = query_offset + rows
                in_range = (self_indices >= 0) & (self_indices < n_indexed)
                distances[rows[in_range] - start, self_indices[in_range]] = np.inf
            order = stable_top_k(distances, effective_k)
            index_blocks.append(order)
            distance_blocks.append(np.take_along_axis(distances, order, axis=1))

        # A single chunk (the common case when chunk_size >= the query
        # count) is returned as-is instead of being copied into a freshly
        # allocated full result matrix.
        if len(index_blocks) == 1:
            return NeighborResult(indices=index_blocks[0], distances=distance_blocks[0])
        return NeighborResult(
            indices=np.concatenate(index_blocks, axis=0),
            distances=np.concatenate(distance_blocks, axis=0),
        )

    def kneighbors_graph(self, k: int) -> list[list[int]]:
        """Adjacency list of the kNN graph of the indexed data (self excluded)."""
        if self._data is None:
            raise ConfigurationError("the index must be fitted before searching")
        result = self.search(self._data, k, exclude_self=True)
        return result.neighbor_lists()

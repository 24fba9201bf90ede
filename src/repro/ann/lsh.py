"""Banded signed-random-projection LSH for sub-linear candidate probing.

The second sub-linear alternative to
:class:`~repro.ann.knn.ExactNearestNeighbors`: each indexed vector is
signed against ``num_bands * rows_per_band`` random hyperplanes, the
sign bits of each band are packed into one integer key, and a query
retrieves the union of every band bucket its own key lands in.  Two
vectors with cosine similarity ``s`` agree on one hyperplane with
probability ``1 - arccos(s) / pi``, so a band of ``r`` rows collides
with probability ``p^r`` and ``b`` bands with ``1 - (1 - p^r)^b`` — the
classic banding curve: more rows sharpen the similarity threshold, more
bands raise recall.

Probed candidates are re-ranked by exact squared-L2 distance against
the query, so within the candidate set the ranking matches the exact
index bit-for-bit.  Buckets are kept as per-band key-sorted orderings
(rebuilt with stable sorts), which makes the whole structure
reconstructible from the ``(n, num_bands)`` signature matrix alone —
exactly what persists in the model artifact.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from .knn import NeighborResult, stable_top_k


class SrpBandIndex:
    """Signed-random-projection banding index over squared-L2 reranking.

    Parameters
    ----------
    num_bands:
        Number of independent hash bands; raises recall (and candidate
        volume) roughly linearly.
    rows_per_band:
        Hyperplane sign bits per band key; sharpens the similarity
        threshold exponentially.  Must stay below 63 so a band key fits
        a signed 64-bit integer.
    seed:
        Seed of the random hyperplane matrix; the projections are
        re-derived from it at load time, so only signatures and vectors
        need persisting.
    """

    def __init__(self, num_bands: int = 32, rows_per_band: int = 12, seed: int = 0) -> None:
        if num_bands <= 0:
            raise ConfigurationError("num_bands must be positive")
        if not 0 < rows_per_band < 63:
            raise ConfigurationError("rows_per_band must lie in [1, 62]")
        self.num_bands = int(num_bands)
        self.rows_per_band = int(rows_per_band)
        self.seed = int(seed)
        self._data: np.ndarray | None = None
        self._sq: np.ndarray | None = None
        self._signatures: np.ndarray | None = None
        self._projections: np.ndarray | None = None
        #: Per band: indexed rows in ascending key order, and their keys.
        self._band_order: np.ndarray | None = None
        self._band_keys: np.ndarray | None = None

    @property
    def num_indexed(self) -> int:
        """Number of indexed rows."""
        return 0 if self._data is None else self._data.shape[0]

    def _ensure_projections(self, dim: int) -> np.ndarray:
        if self._projections is None or self._projections.shape[0] != dim:
            rng = np.random.default_rng(self.seed)
            self._projections = rng.standard_normal(
                (dim, self.num_bands * self.rows_per_band)
            )
        return self._projections

    def signatures_of(self, vectors: np.ndarray) -> np.ndarray:
        """Packed ``(rows, num_bands)`` int64 band keys of ``vectors``."""
        vectors = np.asarray(vectors, dtype=np.float64)
        projections = self._ensure_projections(vectors.shape[1])
        bits = (vectors @ projections) > 0
        weights = 1 << np.arange(self.rows_per_band, dtype=np.int64)
        reshaped = bits.reshape(len(vectors), self.num_bands, self.rows_per_band)
        return reshaped @ weights

    def _rebuild_tables(self) -> None:
        """Derive the per-band sorted bucket tables from the signatures."""
        assert self._signatures is not None
        n = self._signatures.shape[0]
        self._band_order = np.empty((self.num_bands, n), dtype=np.int64)
        self._band_keys = np.empty((self.num_bands, n), dtype=np.int64)
        positions = np.arange(n)
        for band in range(self.num_bands):
            keys = self._signatures[:, band]
            order = np.lexsort((positions, keys))
            self._band_order[band] = order
            self._band_keys[band] = keys[order]

    def fit(self, data: np.ndarray) -> "SrpBandIndex":
        """Sign, band, and bucket every row of ``data``."""
        vectors = np.asarray(data, dtype=np.float64)
        if vectors.ndim != 2:
            raise ConfigurationError("index data must be a 2-D array")
        self._data = vectors
        self._sq = (vectors**2).sum(axis=1)
        self._signatures = self.signatures_of(vectors)
        self._rebuild_tables()
        return self

    def import_arrays(self, vectors: np.ndarray, signatures: np.ndarray) -> None:
        """Restore the index from persisted vectors and band signatures."""
        vectors = np.asarray(vectors, dtype=np.float64)
        signatures = np.asarray(signatures, dtype=np.int64)
        if signatures.shape != (vectors.shape[0], self.num_bands):
            raise ConfigurationError("signatures must be (rows, num_bands)")
        self._data = vectors
        self._sq = (vectors**2).sum(axis=1)
        self._signatures = signatures
        self._ensure_projections(vectors.shape[1])
        self._rebuild_tables()

    def export_arrays(self) -> dict[str, np.ndarray]:
        """Fitted state as plain arrays (vectors and band signatures)."""
        if self._data is None or self._signatures is None:
            raise ConfigurationError("the index must be fitted before exporting state")
        return {"vectors": self._data, "signatures": self._signatures}

    def insert(self, new_vectors: np.ndarray) -> None:
        """Append rows and re-derive the bucket tables."""
        if self._data is None or self._signatures is None:
            raise ConfigurationError("the index must be fitted before inserting")
        new_vectors = np.asarray(new_vectors, dtype=np.float64)
        if new_vectors.ndim != 2 or new_vectors.shape[1] != self._data.shape[1]:
            raise ConfigurationError("inserted rows must match the indexed dimensionality")
        self._data = np.concatenate([np.asarray(self._data), new_vectors], axis=0)
        self._sq = (self._data**2).sum(axis=1)
        self._signatures = np.concatenate(
            [np.asarray(self._signatures), self.signatures_of(new_vectors)], axis=0
        )
        self._rebuild_tables()

    def update_rows(self, rows: np.ndarray, new_vectors: np.ndarray) -> None:
        """Replace indexed rows in place and re-derive the bucket tables."""
        if self._data is None or self._signatures is None:
            raise ConfigurationError("the index must be fitted before updating")
        data = np.array(self._data, dtype=np.float64)
        signatures = np.array(self._signatures, dtype=np.int64)
        data[rows] = np.asarray(new_vectors, dtype=np.float64)
        signatures[rows] = self.signatures_of(data[rows])
        self._data = data
        self._sq = (data**2).sum(axis=1)
        self._signatures = signatures
        self._rebuild_tables()

    def probe(self, query: np.ndarray) -> np.ndarray:
        """Ascending indexed rows sharing at least one band bucket with ``query``."""
        if self._data is None or self._band_keys is None or self._band_order is None:
            raise ConfigurationError("the index must be fitted before probing")
        keys = self.signatures_of(np.asarray(query, dtype=np.float64)[None, :])[0]
        hits: list[np.ndarray] = []
        for band in range(self.num_bands):
            sorted_keys = self._band_keys[band]
            lo = int(np.searchsorted(sorted_keys, keys[band], side="left"))
            hi = int(np.searchsorted(sorted_keys, keys[band], side="right"))
            if hi > lo:
                hits.append(self._band_order[band][lo:hi])
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(hits))

    def search(self, queries: np.ndarray, k: int) -> NeighborResult:
        """Exact-reranked bucket candidates of each query row.

        Rows whose buckets supply fewer than ``k`` candidates are padded
        with index ``-1`` and distance ``inf``.  Each query probes and
        reranks independently of the rest of the batch.
        """
        if self._data is None or self._sq is None:
            raise ConfigurationError("the index must be fitted before searching")
        if k <= 0:
            raise ConfigurationError("k must be positive")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self._data.shape[1]:
            raise ConfigurationError("queries must match the indexed dimensionality")
        num_queries = queries.shape[0]
        effective_k = min(k, self.num_indexed)
        indices = np.full((num_queries, effective_k), -1, dtype=np.int64)
        distances = np.full((num_queries, effective_k), np.inf)
        for row in range(num_queries):
            candidates = self.probe(queries[row])
            if len(candidates) == 0:
                continue
            query = queries[row]
            dists = (
                self._sq[candidates]
                - 2.0 * (self._data[candidates] @ query)
                + float(query @ query)
            )
            # ``candidates`` is ascending, so the stable sort breaks
            # distance ties by index — same rule as the exact index.
            order = stable_top_k(dists, effective_k)
            indices[row, : len(order)] = candidates[order]
            distances[row, : len(order)] = dists[order]
        return NeighborResult(indices=indices, distances=distances)


__all__ = ["SrpBandIndex"]

"""HNSW-style layered neighbour graph for sub-linear nearest-neighbour search.

:class:`~repro.ann.knn.ExactNearestNeighbors` answers a query in time
linear in the corpus size, which caps the serve layer's sustainable QPS
once the corpus reaches six or seven figures of records.  This module
provides :class:`HnswGraphIndex`, an approximate index in the style of
Malkov & Yashunin's Hierarchical Navigable Small World graphs: records
are assigned geometric levels, every level holds a nearest-neighbour
graph over its members, and a query greedily descends from the sparse
top layer to the full bottom layer with a beam of width ``ef``.

Differences from the textbook algorithm, chosen for this repo's
constraints (single CPU, numpy only, deterministic artifacts):

* **Bulk construction** — instead of inserting records one at a time,
  each layer's graph is built with a vectorized pipeline: signed random
  projection (SRP) buckets provide initial neighbour candidates, a few
  rounds of NN-descent refine them, and the result is symmetrized so
  every forward edge gains its reverse.  Layers at or below
  ``exact_threshold`` members are built with an exact distance matrix.
* **Determinism** — levels come from :func:`seeded_levels` (a keyed
  blake2b hash of each record's identifier), so the hierarchy does not
  depend on insertion order; all graph construction uses a seeded
  generator and stable sorts with index tie-breaking, so fitting the
  same vectors twice yields byte-identical adjacency.
* **Squared-L2 only** — callers wanting cosine ranking normalize their
  vectors first (squared L2 on unit vectors is a monotone transform of
  cosine distance, so rankings agree).

The fitted state (vectors, levels, stacked adjacency) round-trips
through :meth:`HnswGraphIndex.export_arrays` /
:meth:`HnswGraphIndex.import_arrays` as plain numpy arrays.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections.abc import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from .knn import NeighborResult, stable_top_k

#: Hard ceiling on assigned levels; with ``level_p = 0.5`` the chance of
#: any record exceeding it is ~6e-8 per record.
MAX_LEVEL = 24


def seeded_levels(
    keys: Sequence[str],
    seed: int = 0,
    level_p: float = 0.5,
    max_level: int = MAX_LEVEL,
) -> np.ndarray:
    """Deterministic geometric level of each key, independent of order.

    Each key is hashed with blake2b keyed by ``seed``; the digest is
    mapped to a uniform in ``(0, 1)`` and converted into a geometric
    level ``floor(log(u) / log(level_p))``.  Because the level depends
    only on the key and seed, a record receives the same level whether
    it was present at fit time or inserted later by a delta — the graph
    hierarchy never depends on arrival order.
    """
    if not 0.0 < level_p < 1.0:
        raise ConfigurationError("level_p must lie strictly between 0 and 1")
    prefix = f"{seed}\x1f".encode()
    denominator = math.log(level_p)
    levels = np.empty(len(keys), dtype=np.int64)
    for row, key in enumerate(keys):
        digest = hashlib.blake2b(prefix + str(key).encode(), digest_size=8).digest()
        uniform = (int.from_bytes(digest, "big") + 0.5) / 2.0**64
        levels[row] = min(int(math.log(uniform) / denominator), max_level)
    return levels


def _merge_neighbors(
    nbr: np.ndarray,
    nbrd: np.ndarray,
    rows_idx: np.ndarray,
    cand_idx: np.ndarray,
    cand_d: np.ndarray,
) -> None:
    """Merge candidate columns into the running top-``M`` neighbour lists.

    ``nbr``/``nbrd`` hold the current best ``M`` neighbour ids and
    distances per row (``-1``/``inf`` padding).  Candidates are
    deduplicated against the current lists and the union re-ranked by
    ``(distance, id)`` with stable sorts, keeping the best ``M``.
    """
    top_m = nbr.shape[1]
    merged_idx = np.concatenate([nbr[rows_idx], cand_idx], axis=1)
    merged_d = np.concatenate([nbrd[rows_idx], cand_d], axis=1)
    by_id = np.argsort(merged_idx, axis=1, kind="stable")
    sorted_ids = np.take_along_axis(merged_idx, by_id, axis=1)
    dup_sorted = np.zeros_like(sorted_ids, dtype=bool)
    dup_sorted[:, 1:] = sorted_ids[:, 1:] == sorted_ids[:, :-1]
    duplicate = np.empty_like(dup_sorted)
    np.put_along_axis(duplicate, by_id, dup_sorted, axis=1)
    merged_d = merged_d.copy()
    merged_d[duplicate | (merged_idx < 0)] = np.inf
    order = stable_top_k(merged_d, top_m)
    nbr[rows_idx] = np.take_along_axis(merged_idx, order, axis=1)
    nbrd[rows_idx] = np.take_along_axis(merged_d, order, axis=1)


def _symmetrize(nbr: np.ndarray, nbrd: np.ndarray, cap: int) -> np.ndarray:
    """Undirected adjacency from a directed kNN list, ``cap`` nearest per node.

    Every forward edge contributes its reverse, duplicates are removed,
    and each node keeps its ``cap`` nearest partners (ties broken by
    id), yielding a fixed-width ``(n, cap)`` array padded with ``-1``.
    """
    n, top_m = nbr.shape
    src = np.repeat(np.arange(n, dtype=np.int64), top_m)
    dst = nbr.reshape(-1)
    dist = nbrd.reshape(-1)
    valid = dst >= 0
    src, dst, dist = src[valid], dst[valid], dist[valid]
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    all_dist = np.concatenate([dist, dist])
    order = np.lexsort((all_dist, all_dst, all_src))
    s_sorted, d_sorted = all_src[order], all_dst[order]
    keep = np.ones(len(s_sorted), dtype=bool)
    keep[1:] = (s_sorted[1:] != s_sorted[:-1]) | (d_sorted[1:] != d_sorted[:-1])
    all_src = s_sorted[keep]
    all_dst = d_sorted[keep]
    all_dist = all_dist[order][keep]
    rank_order = np.lexsort((all_dst, all_dist, all_src))
    all_src, all_dst = all_src[rank_order], all_dst[rank_order]
    counts = np.bincount(all_src, minlength=n)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    rank = np.arange(len(all_src)) - offsets[all_src]
    within_cap = rank < cap
    all_src = all_src[within_cap]
    all_dst = all_dst[within_cap]
    rank = rank[within_cap]
    adjacency = np.full((n, cap), -1, dtype=np.int64)
    adjacency[all_src, rank] = all_dst
    return adjacency


class HnswGraphIndex:
    """Layered approximate nearest-neighbour graph over squared-L2 distance.

    Parameters
    ----------
    m_neighbors:
        Directed out-degree of the per-layer kNN lists; the stored
        (symmetrized) adjacency keeps up to ``2 * m_neighbors`` edges
        per node.
    ef_search:
        Default beam width at the bottom layer; larger values trade
        latency for recall.  Overridable per query.
    ef_descent:
        Beam width while descending the upper layers.
    level_p:
        Geometric decay of the layer hierarchy (fraction of each
        layer's members promoted to the next).
    seed:
        Seed of the construction randomness (SRP projections and, when
        no explicit levels are supplied, level assignment).
    bands, rows:
        SRP bucketing shape used to seed the NN-descent candidate lists
        during bulk construction.
    rounds:
        NN-descent refinement rounds per layer.
    candidate_pool:
        Neighbours-of-neighbours pool width (``S``) examined by each
        NN-descent round.
    exact_threshold:
        Layers at or below this member count are built with an exact
        distance matrix instead of the approximate pipeline.
    """

    def __init__(
        self,
        m_neighbors: int = 8,
        ef_search: int = 96,
        ef_descent: int = 16,
        level_p: float = 0.5,
        seed: int = 0,
        bands: int = 6,
        rows: int = 10,
        rounds: int = 2,
        candidate_pool: int = 16,
        exact_threshold: int = 2048,
    ) -> None:
        if m_neighbors <= 0:
            raise ConfigurationError("m_neighbors must be positive")
        if ef_search <= 0 or ef_descent <= 0:
            raise ConfigurationError("ef_search and ef_descent must be positive")
        if not 0.0 < level_p < 1.0:
            raise ConfigurationError("level_p must lie strictly between 0 and 1")
        self.m_neighbors = int(m_neighbors)
        self.ef_search = int(ef_search)
        self.ef_descent = int(ef_descent)
        self.level_p = float(level_p)
        self.seed = int(seed)
        self.bands = int(bands)
        self.rows = int(rows)
        self.rounds = int(rounds)
        self.candidate_pool = int(candidate_pool)
        self.exact_threshold = int(exact_threshold)
        self.edge_cap = 2 * self.m_neighbors
        self._data: np.ndarray | None = None
        self._sq: np.ndarray | None = None
        self._levels: np.ndarray | None = None
        #: Per level ``l``: (ascending member ids, ``(len, cap)`` adjacency).
        self._layers: list[tuple[np.ndarray, np.ndarray]] = []

    @property
    def num_indexed(self) -> int:
        """Number of indexed rows."""
        return 0 if self._data is None else self._data.shape[0]

    # ------------------------------------------------------------------
    # Bulk construction
    # ------------------------------------------------------------------

    def _srp_init(self, vectors: np.ndarray, sq: np.ndarray, seed: int) -> tuple:
        """Initial directed kNN lists from SRP bucket blocks."""
        n, dim = vectors.shape
        top_m = self.m_neighbors
        rng = np.random.default_rng(seed)
        projections = rng.standard_normal((dim, self.bands * self.rows))
        bits = (vectors @ projections) > 0
        weights = 1 << np.arange(self.rows, dtype=np.int64)
        nbr = np.full((n, top_m), -1, dtype=np.int64)
        nbrd = np.full((n, top_m), np.inf)
        block = 64
        for band in range(self.bands):
            keys = bits[:, band * self.rows : (band + 1) * self.rows] @ weights
            order = np.lexsort((np.arange(n), keys))
            for start in range(0, n, block):
                idx = order[start : start + block]
                if len(idx) < 2:
                    continue
                tile = vectors[idx]
                dists = sq[idx][:, None] - 2.0 * (tile @ tile.T) + sq[idx][None, :]
                np.fill_diagonal(dists, np.inf)
                keep = min(top_m, len(idx) - 1)
                best = stable_top_k(dists, keep)
                _merge_neighbors(
                    nbr, nbrd, idx, idx[best], np.take_along_axis(dists, best, axis=1)
                )
        return nbr, nbrd

    def _nn_descent_round(
        self, vectors: np.ndarray, sq: np.ndarray, nbr: np.ndarray, nbrd: np.ndarray
    ) -> None:
        """One NN-descent round: try neighbours-of-neighbours (both directions)."""
        n = nbr.shape[0]
        pool = self.candidate_pool
        dim = vectors.shape[1]
        sym = _symmetrize(nbr, nbrd, pool)
        # The gather of candidate vectors is the peak temporary:
        # block * pool^2 * dim float64.  Hold it near 512 MB.
        block = int(np.clip((512 << 20) // max(pool * pool * dim * 8, 1), 256, 4096))
        for start in range(0, n, block):
            stop = min(start + block, n)
            direct = sym[start:stop]
            expanded = sym[direct.clip(0)].reshape(stop - start, -1)
            expanded = np.where(np.repeat(direct >= 0, pool, axis=1), expanded, -1)
            gathered = vectors[expanded.clip(0)]
            queries = vectors[start:stop]
            dists = (
                sq[expanded.clip(0)]
                - 2.0 * np.einsum("rd,rcd->rc", queries, gathered)
                + sq[start:stop][:, None]
            )
            dists[expanded < 0] = np.inf
            dists[expanded == np.arange(start, stop)[:, None]] = np.inf
            _merge_neighbors(nbr, nbrd, np.arange(start, stop), expanded, dists)

    def _build_layer(self, member_vectors: np.ndarray, seed: int) -> np.ndarray:
        """Symmetrized adjacency (local member indices) of one layer."""
        n = len(member_vectors)
        if n == 1:
            return np.full((1, self.edge_cap), -1, dtype=np.int64)
        sq = (member_vectors**2).sum(axis=1)
        if n <= self.exact_threshold:
            dists = sq[:, None] - 2.0 * (member_vectors @ member_vectors.T) + sq[None, :]
            np.fill_diagonal(dists, np.inf)
            keep = min(self.m_neighbors, n - 1)
            nbr = stable_top_k(dists, keep)
            nbrd = np.take_along_axis(dists, nbr, axis=1)
            return _symmetrize(nbr, nbrd, self.edge_cap)
        nbr, nbrd = self._srp_init(member_vectors, sq, seed)
        for _ in range(self.rounds):
            self._nn_descent_round(member_vectors, sq, nbr, nbrd)
        return _symmetrize(nbr, nbrd, self.edge_cap)

    def fit(self, data: np.ndarray, levels: np.ndarray | None = None) -> "HnswGraphIndex":
        """Build the layer hierarchy over the rows of ``data``.

        ``levels`` supplies each row's maximum layer (e.g. from
        :func:`seeded_levels` over stable record identifiers); when
        omitted, levels are drawn from the index seed, which is
        deterministic for a fixed row count but *not* stable under
        insertion, so persistent callers should pass explicit levels.
        """
        vectors = np.asarray(data, dtype=np.float64)
        if vectors.ndim != 2:
            raise ConfigurationError("index data must be a 2-D array")
        n = vectors.shape[0]
        if levels is None:
            rng = np.random.default_rng(self.seed)
            uniforms = rng.random(n) if n else np.empty(0)
            with np.errstate(divide="ignore"):
                levels = np.minimum(
                    np.floor(np.log(uniforms) / math.log(self.level_p)).astype(np.int64),
                    MAX_LEVEL,
                )
        levels = np.asarray(levels, dtype=np.int64)
        if levels.shape != (n,):
            raise ConfigurationError("levels must be a 1-D array matching the data rows")
        self._data = vectors
        self._sq = (vectors**2).sum(axis=1)
        self._levels = levels
        self._layers = []
        if n == 0:
            return self
        for level in range(int(levels.max()) + 1):
            members = np.nonzero(levels >= level)[0]
            adjacency_local = self._build_layer(vectors[members], self.seed + level)
            adjacency = np.where(adjacency_local >= 0, members[adjacency_local.clip(0)], -1)
            self._layers.append((members, adjacency))
        return self

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _beam_layer(
        self,
        query: np.ndarray,
        query_sq: float,
        members: np.ndarray,
        adjacency: np.ndarray,
        entries: list[int],
        ef: int,
    ) -> list[tuple[float, int]]:
        """Best-first beam search within one layer.

        Returns up to ``ef`` ``(distance, id)`` pairs sorted ascending;
        ties break on id, and the heap orders candidates by the same
        tuple, so the expansion order — and therefore the result — is
        fully deterministic.
        """
        assert self._data is not None and self._sq is not None
        data, sq = self._data, self._sq
        entries = list(dict.fromkeys(entries))
        entry_dists = sq[entries] - 2.0 * (data[entries] @ query) + query_sq
        visited = set(entries)
        candidates = sorted(
            (float(d), int(i)) for d, i in zip(entry_dists, entries, strict=True)
        )
        results = [(-d, i) for d, i in candidates]
        heapq.heapify(results)
        while len(results) > ef:
            heapq.heappop(results)
        candidates = candidates[:ef]
        heapq.heapify(candidates)
        while candidates:
            dist, node = heapq.heappop(candidates)
            if len(results) >= ef and dist > -results[0][0]:
                break
            slot = int(np.searchsorted(members, node))
            if slot >= len(members) or members[slot] != node:
                continue  # Entry point not (yet) a member of this layer.
            row = adjacency[slot]
            row = row[row >= 0]
            fresh = [int(j) for j in row if j not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            fresh_dists = sq[fresh] - 2.0 * (data[fresh] @ query) + query_sq
            for neighbor, neighbor_dist in zip(fresh, fresh_dists, strict=True):
                neighbor_dist = float(neighbor_dist)
                if len(results) < ef or neighbor_dist < -results[0][0]:
                    heapq.heappush(candidates, (neighbor_dist, neighbor))
                    heapq.heappush(results, (-neighbor_dist, neighbor))
                    if len(results) > ef:
                        heapq.heappop(results)
        return sorted((-d, i) for d, i in results)

    def _search_one(self, query: np.ndarray, k: int, ef: int) -> list[tuple[float, int]]:
        """Ranked ``(distance, id)`` results of a single query vector."""
        top_members = self._layers[-1][0]
        entries = [int(top_members[0])]
        query_sq = float(query @ query)
        for members, adjacency in reversed(self._layers[1:]):
            found = self._beam_layer(
                query, query_sq, members, adjacency, entries, self.ef_descent
            )
            entries = [i for _, i in found]
        members, adjacency = self._layers[0]
        found = self._beam_layer(
            query, query_sq, members, adjacency, entries, max(ef, k)
        )
        return found[:k]

    def search(self, queries: np.ndarray, k: int, ef_search: int | None = None) -> NeighborResult:
        """Approximate ``k`` nearest indexed rows of each query row.

        Rows with fewer than ``k`` reachable results are padded with
        index ``-1`` and distance ``inf``.  Each query is searched
        independently, so results never depend on batch composition.
        """
        if self._data is None:
            raise ConfigurationError("the index must be fitted before searching")
        if k <= 0:
            raise ConfigurationError("k must be positive")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self._data.shape[1]:
            raise ConfigurationError("queries must match the indexed dimensionality")
        ef = self.ef_search if ef_search is None else int(ef_search)
        num_queries = queries.shape[0]
        effective_k = min(k, self.num_indexed)
        indices = np.full((num_queries, effective_k), -1, dtype=np.int64)
        distances = np.full((num_queries, effective_k), np.inf)
        if effective_k == 0 or num_queries == 0 or not self._layers:
            return NeighborResult(indices=indices, distances=distances)
        for row in range(num_queries):
            found = self._search_one(queries[row], effective_k, ef)
            for col, (dist, idx) in enumerate(found):
                indices[row, col] = idx
                distances[row, col] = dist
        return NeighborResult(indices=indices, distances=distances)

    # ------------------------------------------------------------------
    # Incremental insertion
    # ------------------------------------------------------------------

    def _ranked_edges(self, node: int, pool: np.ndarray) -> np.ndarray:
        """``pool`` partners of ``node`` ranked by ``(distance, id)``, capped."""
        assert self._data is not None and self._sq is not None
        pool = np.unique(pool)
        pool = pool[pool != node]
        dists = self._sq[pool] - 2.0 * (self._data[pool] @ self._data[node]) + self._sq[node]
        # ``pool`` is ascending, so index order is id order.
        order = stable_top_k(dists, self.edge_cap)
        row = np.full(self.edge_cap, -1, dtype=np.int64)
        row[: len(order)] = pool[order]
        return row

    def _link_node(self, node: int, level: int) -> None:
        """Beam-descend and (re)link ``node`` into every layer up to ``level``.

        ``node`` must already be a member (with any adjacency row) of
        each layer at or below its level.  Its row is replaced by the
        union of the old edges and the freshly found ``m_neighbors``
        nearest members, ranked by ``(distance, id)`` and capped; each
        forward partner gains a capped reverse edge the same way.
        """
        assert self._data is not None
        query = self._data[node]
        query_sq = float(query @ query)
        construction_ef = max(self.ef_search, self.edge_cap)
        entries: list[int] = []
        for layer_level in range(len(self._layers) - 1, -1, -1):
            members, adjacency = self._layers[layer_level]
            slot = int(np.searchsorted(members, node))
            is_member = slot < len(members) and members[slot] == node
            has_peers = len(members) - int(is_member) >= 1
            found: list[tuple[float, int]] = []
            if has_peers:
                if not entries:
                    # Highest layer with a peer: start from its
                    # smallest-id member other than the node itself.
                    first_peer = members[0] if members[0] != node else members[1]
                    entries = [int(first_peer)]
                found = self._beam_layer(
                    query,
                    query_sq,
                    members,
                    adjacency,
                    entries,
                    construction_ef if layer_level <= level else self.ef_descent,
                )
                found = [(d, i) for d, i in found if i != node]
                if found:
                    entries = [i for _, i in found]
            if layer_level > level or not has_peers or not found:
                continue
            forward = np.array([i for _, i in found[: self.m_neighbors]], dtype=np.int64)
            existing = adjacency[slot]
            adjacency[slot] = self._ranked_edges(
                node, np.concatenate([existing[existing >= 0], forward])
            )
            for partner in forward.tolist():
                partner_slot = int(np.searchsorted(members, partner))
                row = adjacency[partner_slot]
                adjacency[partner_slot] = self._ranked_edges(
                    partner, np.concatenate([row[row >= 0], [node]])
                )

    def insert(self, new_vectors: np.ndarray, new_levels: np.ndarray) -> None:
        """Append rows and link them into every layer up to their level.

        Each new node beam-descends the existing hierarchy, links to its
        ``m_neighbors`` nearest members per layer, and registers capped
        reverse edges (the farthest partner is dropped when a node's
        edge list is full) — the standard incremental HNSW insertion.
        Nodes are linked in row order, so the same delta always produces
        the same graph.
        """
        if self._data is None or self._levels is None:
            raise ConfigurationError("the index must be fitted before inserting")
        new_vectors = np.asarray(new_vectors, dtype=np.float64)
        if new_vectors.ndim != 2 or new_vectors.shape[1] != self._data.shape[1]:
            raise ConfigurationError("inserted rows must match the indexed dimensionality")
        new_levels = np.asarray(new_levels, dtype=np.int64)
        if new_levels.shape != (new_vectors.shape[0],):
            raise ConfigurationError("new_levels must match the inserted row count")
        base = self.num_indexed
        self._data = np.concatenate([np.asarray(self._data), new_vectors], axis=0)
        self._sq = (self._data**2).sum(axis=1)
        self._levels = np.concatenate([self._levels, new_levels])
        empty_row = np.full((1, self.edge_cap), -1, dtype=np.int64)
        for offset in range(new_vectors.shape[0]):
            node = base + offset
            level = int(new_levels[offset])
            while len(self._layers) <= level:
                # The node opens a brand-new top layer containing only itself.
                self._layers.append((np.array([node], dtype=np.int64), empty_row.copy()))
            for layer_level in range(min(level, len(self._layers) - 1) + 1):
                members, adjacency = self._layers[layer_level]
                if len(members) and members[-1] == node:
                    continue  # Fresh singleton layer opened above.
                self._layers[layer_level] = (
                    np.concatenate([members, [node]]),
                    np.concatenate([adjacency, empty_row], axis=0),
                )
            self._link_node(node, level)

    def relink(self, nodes: Sequence[int]) -> None:
        """Refresh the edges of already-indexed nodes whose vectors changed.

        Stale edges are navigation hints only (distances are recomputed
        from the live vectors at query time), so relinking — rather than
        rebuilding the whole graph — keeps an updated node reachable
        from its new neighbourhood at delta cost.  Callers must update
        the vector rows (and ``refresh_norms``) first.
        """
        if self._data is None or self._levels is None:
            raise ConfigurationError("the index must be fitted before relinking")
        for node in nodes:
            self._link_node(int(node), int(self._levels[node]))

    def refresh_norms(self) -> None:
        """Recompute cached squared norms after in-place vector edits."""
        if self._data is None:
            raise ConfigurationError("the index must be fitted before refreshing")
        self._sq = (self._data**2).sum(axis=1)

    def replace_vectors(self, rows: np.ndarray, new_vectors: np.ndarray) -> None:
        """Overwrite vector rows in place (copy-on-write) and refresh norms."""
        if self._data is None:
            raise ConfigurationError("the index must be fitted before replacing rows")
        data = np.array(self._data, dtype=np.float64)
        data[rows] = np.asarray(new_vectors, dtype=np.float64)
        self._data = data
        self.refresh_norms()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def export_arrays(self) -> dict[str, np.ndarray]:
        """Fitted state as plain arrays (vectors, levels, stacked adjacency).

        The per-layer adjacency matrices are stacked bottom-up into one
        ``(sum(layer sizes), edge_cap)`` int32 array; layer boundaries
        are recomputed from ``levels`` at import time.
        """
        if self._data is None or self._levels is None:
            raise ConfigurationError("the index must be fitted before exporting state")
        if self._layers:
            adjacency = np.concatenate([adj for _, adj in self._layers], axis=0)
        else:
            adjacency = np.empty((0, self.edge_cap), dtype=np.int64)
        return {
            "vectors": self._data,
            "levels": self._levels.astype(np.int64),
            "adjacency": adjacency.astype(np.int32),
        }

    def import_arrays(
        self, vectors: np.ndarray, levels: np.ndarray, adjacency: np.ndarray
    ) -> None:
        """Restore the exact fitted state saved by :meth:`export_arrays`."""
        vectors = np.asarray(vectors, dtype=np.float64)
        levels = np.asarray(levels, dtype=np.int64)
        n = vectors.shape[0]
        if levels.shape != (n,):
            raise ConfigurationError("levels must match the vector rows")
        self._data = vectors
        self._sq = (vectors**2).sum(axis=1)
        self._levels = levels
        self._layers = []
        if n == 0:
            return
        adjacency = np.asarray(adjacency, dtype=np.int64)
        offset = 0
        for level in range(int(levels.max()) + 1):
            members = np.nonzero(levels >= level)[0]
            block = adjacency[offset : offset + len(members)]
            if block.shape[0] != len(members):
                raise ConfigurationError("adjacency rows do not match the level layout")
            self._layers.append((members, block))
            offset += len(members)
        if offset != adjacency.shape[0]:
            raise ConfigurationError("adjacency rows do not match the level layout")


__all__ = ["MAX_LEVEL", "HnswGraphIndex", "seeded_levels"]

"""Tests for the exact nearest-neighbour index (Faiss substitute)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.ann import ExactNearestNeighbors, knn
from repro.ann.knn import stable_top_k
from repro.exceptions import ConfigurationError


def reference_top_k(values: np.ndarray, k: int) -> np.ndarray:
    """The full stable sort that :func:`stable_top_k` must reproduce."""
    return np.argsort(values, axis=-1, kind="stable")[..., :k]


def partial_path():
    """Let the partial selection run on rows of any length."""
    return mock.patch.object(knn, "PARTIAL_SORT_MIN_COLUMNS", 1)


@st.composite
def tied_distances(draw, max_rows=6, max_columns=24):
    """Integer-valued rows (heavy ties) with +inf cells and NaN cells or rows."""
    shape = draw(st.tuples(st.integers(1, max_rows), st.integers(1, max_columns)))
    values = draw(
        hnp.arrays(
            np.float64,
            shape,
            elements=st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, np.inf, np.nan]),
        )
    )
    if draw(st.booleans()):
        values[draw(st.integers(0, shape[0] - 1))] = np.nan
    return values


class TestStableTopK:
    @given(values=tied_distances(), k=st.integers(1, 30))
    @settings(max_examples=300, deadline=None)
    def test_matches_full_stable_sort(self, values, k):
        expected = reference_top_k(values, k)
        assert np.array_equal(stable_top_k(values, k), expected)
        with partial_path():
            top = stable_top_k(values, k)
        assert top.dtype == expected.dtype
        assert np.array_equal(top, expected)

    @given(values=tied_distances(max_rows=1), k=st.integers(1, 30))
    @settings(max_examples=100, deadline=None)
    def test_one_dimensional_rows(self, values, k):
        row = values[0]
        with partial_path():
            assert np.array_equal(stable_top_k(row, k), reference_top_k(row, k))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (4, 6), (0, 9)])
    def test_k_equal_to_and_beyond_row_length(self, shape):
        values = np.random.default_rng(0).integers(0, 3, size=shape).astype(np.float64)
        columns = shape[1]
        with partial_path():
            for k in (1, columns, columns + 3):
                assert np.array_equal(stable_top_k(values, k), reference_top_k(values, k))

    def test_long_rows_take_the_partial_path(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 40, size=(5, 3 * knn.PARTIAL_SORT_MIN_COLUMNS)).astype(float)
        values[1, 7] = np.nan
        values[3] = np.nan
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            top = stable_top_k(values, 6)
        assert np.array_equal(top, reference_top_k(values, 6))
        # Only candidate sets are sorted, plus the whole NaN row 3.
        assert max(call.args[0].shape[-1] for call in argsort.call_args_list) == values.shape[1]
        assert argsort.call_args_list[0].args[0].shape[-1] == 6

    @given(
        data=hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 30), st.integers(1, 3)),
            elements=st.integers(-2, 2).map(float),
        ),
        k=st.integers(1, 32),
        chunk_size=st.integers(1, 8),
        start=st.integers(-3, 30),
        exclude_self=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_chunked_search_matches_full_sort(self, data, k, chunk_size, start, exclude_self):
        """Integer points: distances are exact, so ties are real ties."""
        queries = data[max(start, 0) : max(start, 0) + 7]
        if queries.shape[0] == 0:
            queries = data[:1]
        offset = start
        distances = ((queries[:, np.newaxis, :] - data[np.newaxis, :, :]) ** 2).sum(axis=2)
        if exclude_self:
            for row in range(queries.shape[0]):
                if 0 <= offset + row < data.shape[0]:
                    distances[row, offset + row] = np.inf
        effective_k = min(k, data.shape[0] - (1 if exclude_self else 0))
        expected = reference_top_k(distances, effective_k)
        with partial_path():
            for size in (chunk_size, 1024):
                result = (
                    ExactNearestNeighbors(chunk_size=size)
                    .fit(data)
                    .search(queries, k, exclude_self=exclude_self, query_offset=offset)
                )
                assert np.array_equal(result.indices, expected)
                assert np.array_equal(
                    result.distances, np.take_along_axis(distances, expected, axis=1)
                )


class TestExactNearestNeighbors:
    def test_requires_fit(self):
        with pytest.raises(ConfigurationError):
            ExactNearestNeighbors().search(np.zeros((1, 2)), k=1)

    def test_rejects_invalid_metric_and_chunk(self):
        with pytest.raises(ConfigurationError):
            ExactNearestNeighbors(metric="hamming")
        with pytest.raises(ConfigurationError):
            ExactNearestNeighbors(chunk_size=0)

    def test_nearest_point_is_itself_when_not_excluded(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
        index = ExactNearestNeighbors().fit(data)
        result = index.search(data, k=1)
        assert result.indices[:, 0].tolist() == [0, 1, 2]
        assert np.allclose(result.distances[:, 0], 0.0)

    def test_exclude_self_skips_the_query_row(self):
        data = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        index = ExactNearestNeighbors().fit(data)
        result = index.search(data, k=1, exclude_self=True)
        assert result.indices[0, 0] == 1
        assert result.indices[1, 0] == 0
        assert result.indices[2, 0] == 1

    def test_k_is_capped_by_index_size(self):
        data = np.array([[0.0], [1.0], [2.0]])
        index = ExactNearestNeighbors().fit(data)
        result = index.search(data, k=10, exclude_self=True)
        assert result.indices.shape == (3, 2)

    def test_cosine_metric_prefers_direction(self):
        data = np.array([[1.0, 0.0], [10.0, 0.5], [0.0, 1.0]])
        index = ExactNearestNeighbors(metric="cosine").fit(data)
        result = index.search(np.array([[2.0, 0.0]]), k=1)
        assert result.indices[0, 0] == 0 or result.indices[0, 0] == 1

    def test_chunked_search_matches_unchunked(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(50, 8))
        chunked = ExactNearestNeighbors(chunk_size=7).fit(data).search(data, k=3)
        whole = ExactNearestNeighbors(chunk_size=1024).fit(data).search(data, k=3)
        assert np.array_equal(chunked.indices, whole.indices)
        # Distances agree up to BLAS rounding (block sizes differ per chunk).
        assert np.allclose(chunked.distances, whole.distances)

    def test_chunked_self_exclusion_matches_unchunked(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(23, 5))
        chunked = ExactNearestNeighbors(chunk_size=4).fit(data).search(
            data, k=4, exclude_self=True
        )
        whole = ExactNearestNeighbors(chunk_size=64).fit(data).search(
            data, k=4, exclude_self=True
        )
        assert np.array_equal(chunked.indices, whole.indices)
        assert all(row not in neighbors for row, neighbors in enumerate(chunked.neighbor_lists()))

    def test_neighbor_lists_matches_neighbors_of(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(12, 3))
        result = ExactNearestNeighbors().fit(data).search(data, k=2, exclude_self=True)
        lists = result.neighbor_lists()
        assert lists == [result.neighbors_of(row) for row in range(len(lists))]

    def test_kneighbors_graph_shape(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(10, 4))
        graph = ExactNearestNeighbors().fit(data).kneighbors_graph(k=3)
        assert len(graph) == 10
        assert all(len(neighbors) == 3 for neighbors in graph)
        assert all(row not in neighbors for row, neighbors in enumerate(graph))

    def test_dimensionality_mismatch_rejected(self):
        index = ExactNearestNeighbors().fit(np.zeros((3, 4)))
        with pytest.raises(ConfigurationError):
            index.search(np.zeros((1, 5)), k=1)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(3, 12), st.integers(2, 5)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_l2_search_matches_argmin_property(self, data):
        """The top-1 neighbour equals the argmin of pairwise distances."""
        index = ExactNearestNeighbors().fit(data)
        result = index.search(data, k=1, exclude_self=True)
        for row in range(data.shape[0]):
            distances = ((data - data[row]) ** 2).sum(axis=1)
            distances[row] = np.inf
            best = distances.min()
            found = ((data[result.indices[row, 0]] - data[row]) ** 2).sum()
            assert found == pytest.approx(best, abs=1e-9)

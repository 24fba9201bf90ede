"""Tests for incremental corpus maintenance (``repro.update``).

The contract under test: a fitted model that absorbs upserts/deletes
through :meth:`ResolverModel.update` must answer **exact-mode** queries
byte-identically to a model freshly fitted on the union corpus with the
same supervision pairs, and **online** queries within tolerance; its
``save()`` must append fingerprint-chained sidecar segments without
touching the base artifact, and ``load()`` must replay them to a
bit-identical model (eagerly or memory-mapped).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.config import FlexERConfig, GNNConfig, GraphConfig, MatcherConfig
from repro.data.pairs import CandidateSet
from repro.data.records import Dataset, Record
from repro.data.splits import DatasetSplit
from repro.data.serialization import (
    list_segment_paths,
    read_artifact,
    read_artifact_lazy,
    segment_path,
    write_artifact,
)
from repro.datasets import BENCHMARK_LABELERS, CorpusChunk, load_benchmark, stream_chunks
from repro.exceptions import DataError, ModelError, UpdateError
from repro.model import ResolverModel
from repro.pipeline import PipelineRunner
from repro.pipeline.cache import ArtifactCache
from repro.registry import MODELS
from repro.update import (
    UPDATE_SEGMENT_KIND,
    CompactionPolicy,
    CorpusDelta,
    DriftMetrics,
    UpdateSegment,
    build_delta,
    corpus_pair_order,
    fingerprint_segment,
    refit_live_corpus,
)


@pytest.fixture(scope="module")
def update_world():
    """A fitted model plus held-out records to upsert and to probe with."""
    benchmark = load_benchmark("amazon_mi", num_pairs=60, products_per_domain=8, seed=7)
    labeler = BENCHMARK_LABELERS["amazon_mi"]
    products = benchmark.record_products

    def label_pair(left, right):
        return labeler.label_pair(products[left.record_id], products[right.record_id])

    records = list(benchmark.dataset.records)
    holdout = records[-6:]
    corpus = Dataset(
        records=records[:-6],
        name=benchmark.dataset.name,
        attributes=benchmark.dataset.attributes,
    )
    config = FlexERConfig(
        matcher=MatcherConfig(hidden_dims=(24, 12), n_features=96, epochs=2, seed=5),
        graph=GraphConfig(k_neighbors=2),
        gnn=GNNConfig(hidden_dim=16, epochs=4, seed=5),
        # Sparser blocking leaves a few corpus records unreferenced by any
        # split pair, which the delete tests need as safe tombstone targets.
        blocker={"type": "qgram", "min_shared": 14},
    )
    model = repro.fit(
        corpus, intents=labeler.intent_names, labeler=label_pair, config=config
    )
    return model, holdout, corpus


def clone(model: ResolverModel) -> ResolverModel:
    """An independent, mutation-safe copy via the MODELS registry."""
    return MODELS.create(model.to_spec(), arrays=model.payload_arrays())


def fresh_union_fit(model: ResolverModel) -> ResolverModel:
    """A model freshly fitted on the live corpus with the same split pairs."""
    live = Dataset(
        records=[
            record
            for record in model.corpus
            if record.record_id not in model.tombstones
        ],
        name=model.corpus.name,
        attributes=model.corpus.attributes,
    )

    def reanchor(part):
        """Re-anchor one split part's labeled pairs over the union corpus."""
        return CandidateSet(live, pairs=list(part), intents=model.intents)

    split = DatasetSplit(
        train=reanchor(model.split.train),
        valid=reanchor(model.split.valid),
        test=reanchor(model.split.test),
    )
    runner = PipelineRunner(
        cache=ArtifactCache(),
        augment_with_scores=model.augment_with_scores,
        feature_config=model.feature_config,
    )
    return runner.fit_model(
        split, model.intents, config=model.config, retriever=model.retriever_spec
    ).model


def assert_results_identical(left, right):
    """Assert two QueryResults are bit-identical through ``as_arrays``."""
    left_arrays, left_meta = left.as_arrays()
    right_arrays, right_meta = right.as_arrays()
    assert left_meta == right_meta
    assert sorted(left_arrays) == sorted(right_arrays)
    for name, array in left_arrays.items():
        other = right_arrays[name]
        assert array.dtype == other.dtype, name
        assert np.asarray(array).tobytes() == np.asarray(other).tobytes(), name


def unreferenced_corpus_ids(model: ResolverModel) -> list[str]:
    """Corpus record ids no split pair references (safe to delete)."""
    referenced = {
        record_id
        for part in (model.split.train, model.split.valid, model.split.test)
        for pair in part.pairs
        for record_id in (pair.left_id, pair.right_id)
    }
    return [
        record.record_id
        for record in model.corpus
        if record.record_id not in referenced
        and record.record_id not in model.tombstones
    ]


class TestDeltaValidation:
    def test_empty_delta_rejected(self, update_world):
        model, _, _ = update_world
        with pytest.raises(UpdateError):
            build_delta(model.corpus, model.tombstones)

    def test_duplicate_upsert_ids_rejected(self, update_world):
        model, holdout, _ = update_world
        with pytest.raises(UpdateError):
            build_delta(model.corpus, set(), upserts=[holdout[0], holdout[0]])

    def test_unknown_delete_rejected(self, update_world):
        model, _, _ = update_world
        with pytest.raises(UpdateError):
            build_delta(model.corpus, set(), deletes=["no-such-record"])

    def test_upsert_and_delete_of_same_id_rejected(self, update_world):
        model, _, _ = update_world
        record = next(iter(model.corpus))
        with pytest.raises(UpdateError):
            build_delta(
                model.corpus, set(), upserts=[record], deletes=[record.record_id]
            )

    def test_schema_violation_rejected(self, update_world):
        model, _, _ = update_world
        alien = Record(record_id="alien", values={"not_an_attribute": "x"})
        with pytest.raises(UpdateError):
            model.update(upserts=[alien])

    def test_invalid_compact_mode_rejected(self, update_world):
        model, holdout, _ = update_world
        with pytest.raises(UpdateError):
            clone(model).update(upserts=[holdout[0]], compact="sometimes")

    def test_delta_document_round_trip(self, update_world):
        model, holdout, _ = update_world
        dead = unreferenced_corpus_ids(model)[:1]
        delta = build_delta(
            model.corpus, set(), upserts=holdout[:2], deletes=dead
        )
        rebuilt = CorpusDelta.from_document(delta.to_document())
        assert rebuilt == delta


class TestUpsert:
    def test_exact_query_matches_fresh_fit_on_union_corpus(self, update_world):
        model, holdout, corpus = update_world
        updated = clone(model)
        result = updated.update(upserts=holdout[:3], compact="never")
        assert result.upserts == 3
        assert result.added_records == [r.record_id for r in holdout[:3]]
        assert not result.compacted
        assert len(updated.corpus) == len(corpus) + 3

        fresh = fresh_union_fit(updated)
        probes = holdout[3:]
        assert_results_identical(
            updated.query(probes, k=3, mode="exact"),
            fresh.query(probes, k=3, mode="exact"),
        )

    def test_online_query_matches_fresh_fit_within_tolerance(self, update_world):
        model, holdout, _ = update_world
        updated = clone(model)
        updated.update(upserts=holdout[:3], compact="never")
        fresh = fresh_union_fit(updated)
        probes = holdout[3:]
        ours = updated.query(probes, k=3, mode="online")
        theirs = fresh.query(probes, k=3, mode="online")
        assert ours.pairs == theirs.pairs
        # Online inference after incremental maintenance is approximate: the
        # fresh fit may rewire existing kNN graph nodes toward the new pairs,
        # while the delta path only appends edges.  Scores must stay close,
        # not bit-identical (that is the exact-mode contract).
        for intent in updated.intents:
            np.testing.assert_allclose(
                ours.probabilities[intent],
                theirs.probabilities[intent],
                atol=5e-3,
                rtol=5e-2,
            )

    def test_new_records_are_retrievable_and_pairs_appended(self, update_world):
        model, holdout, _ = update_world
        updated = clone(model)
        result = updated.update(upserts=holdout[:3], compact="never")
        new_ids = {r.record_id for r in holdout[:3]}
        assert result.new_pairs
        assert all(
            pair.left_id in new_ids or pair.right_id in new_ids
            for pair in result.new_pairs
        )
        # The per-pair matrices grew by exactly the appended pairs, in order.
        order = corpus_pair_order(updated)
        assert order[-len(result.new_pairs) :] == result.new_pairs
        for intent in updated.intents:
            assert updated.representations[intent].shape[0] == len(order)

    def test_drift_and_describe_reflect_updates(self, update_world):
        model, holdout, _ = update_world
        updated = clone(model)
        base_fingerprint = updated.fingerprint()
        updated.update(upserts=holdout[:2], compact="never")
        drift = updated.drift_metrics()
        assert isinstance(drift, DriftMetrics)
        assert drift.update_generations == 1
        assert 0 < drift.touched_fraction <= 1
        assert drift.tombstone_ratio == 0.0
        description = updated.describe()
        assert description["update_generations"] == 1
        assert description["corpus_live_records"] == len(updated.corpus)
        assert description["base_fingerprint"] == base_fingerprint
        assert description["tombstone_ratio"] == 0.0
        assert description["stale_supervision"] == 0

    def test_untouched_hidden_rows_stay_bit_identical(self, update_world):
        model, holdout, _ = update_world
        updated = clone(model)
        before = {
            intent: [np.array(level) for level in updated.gnn_hiddens[intent]]
            for intent in updated.intents
        }
        result = updated.update(upserts=holdout[:1], compact="never")
        touched = {
            index
            for index, pair in enumerate(corpus_pair_order(updated))
            if pair in set(result.refreshed_pairs)
        }
        # Hidden matrices are layer-major over the pair axis; map old
        # node rows onto their position after the pair axis grew.
        num_layers = len(updated.intents)
        old_pairs = before[updated.intents[0]][0].shape[0] // num_layers
        new_pairs = updated.gnn_hiddens[updated.intents[0]][0].shape[0] // num_layers
        assert new_pairs == old_pairs + len(result.new_pairs)
        untouched = np.asarray(sorted(set(range(old_pairs)) - touched), dtype=np.int64)
        layers = np.arange(num_layers, dtype=np.int64)[:, np.newaxis]
        old_rows = (layers * old_pairs + untouched).ravel()
        new_rows = (layers * new_pairs + untouched).ravel()
        for intent in updated.intents:
            for level, old in enumerate(before[intent]):
                new = updated.gnn_hiddens[intent][level]
                assert np.array_equal(new[new_rows], old[old_rows])


class TestDelete:
    def test_deletes_become_tombstones_filtered_from_retrieval(self, update_world):
        model, holdout, _ = update_world
        updated = clone(model)
        dead = unreferenced_corpus_ids(updated)[:2]
        assert len(dead) == 2, "world must provide unreferenced records"
        result = updated.update(deletes=dead, compact="never")
        assert result.deletes == 2
        assert updated.tombstones == set(dead)
        # Row-order stability: tombstoned records stay in the dataset.
        assert len(updated.corpus) == len(model.corpus)
        probes = holdout[3:]
        answer = updated.query(probes, k=4, mode="online")
        for candidates in answer.candidates_per_record.values():
            assert not set(candidates) & set(dead)

    def test_exact_parity_after_deletes(self, update_world):
        model, holdout, _ = update_world
        updated = clone(model)
        dead = unreferenced_corpus_ids(updated)[:2]
        updated.update(upserts=holdout[:3], deletes=dead, compact="never")
        fresh = fresh_union_fit(updated)
        assert len(fresh.corpus) == len(updated.corpus) - len(dead)
        probes = holdout[3:]
        assert_results_identical(
            updated.query(probes, k=3, mode="exact"),
            fresh.query(probes, k=3, mode="exact"),
        )

    def test_resurrecting_a_tombstoned_record(self, update_world):
        model, _, _ = update_world
        updated = clone(model)
        dead_id = unreferenced_corpus_ids(updated)[0]
        dead_record = next(
            record for record in updated.corpus if record.record_id == dead_id
        )
        updated.update(deletes=[dead_id], compact="never")
        assert dead_id in updated.tombstones
        result = updated.update(upserts=[dead_record], compact="never")
        assert result.resurrected_records == [dead_id]
        assert dead_id not in updated.tombstones

    def test_delete_of_already_tombstoned_record_rejected(self, update_world):
        model, _, _ = update_world
        updated = clone(model)
        dead_id = unreferenced_corpus_ids(updated)[0]
        updated.update(deletes=[dead_id], compact="never")
        with pytest.raises(UpdateError):
            updated.update(deletes=[dead_id], compact="never")


class TestStaleSupervision:
    def test_modifying_a_split_record_marks_supervision_stale(self, update_world):
        model, holdout, _ = update_world
        updated = clone(model)
        referenced_id = updated.split.train.pairs[0].left_id
        original = next(
            record for record in updated.corpus if record.record_id == referenced_id
        )
        modified = Record(
            record_id=referenced_id,
            values={**dict(original.values), "title": "entirely new title"},
            source=original.source,
        )
        result = updated.update(upserts=[modified], compact="never")
        assert result.modified_records == [referenced_id]
        assert updated.drift_metrics().stale_supervision >= 1
        # Exact mode still answers (the stale matcher fit is replayed
        # from the seeded cache); only cross-model parity is forfeited.
        updated.query(holdout[3:], k=2, mode="exact")

    def test_stale_supervision_policy_triggers_compaction(self, update_world):
        model, _, _ = update_world
        updated = clone(model)
        referenced_id = updated.split.train.pairs[0].left_id
        original = next(
            record for record in updated.corpus if record.record_id == referenced_id
        )
        modified = Record(
            record_id=referenced_id,
            values={**dict(original.values), "title": "renamed product"},
            source=original.source,
        )
        result = updated.update(
            upserts=[modified],
            policy=CompactionPolicy(max_stale_supervision=0),
        )
        assert result.compacted
        assert any("stale" in reason for reason in result.compaction_reasons)
        assert updated.drift_metrics().stale_supervision == 0


class TestCompaction:
    def test_small_update_does_not_compact_by_default(self, update_world):
        model, holdout, _ = update_world
        updated = clone(model)
        result = updated.update(upserts=[holdout[0]])
        assert not result.compacted
        assert updated.update_segments

    def test_forced_compaction_rebases_the_model(self, update_world):
        model, holdout, _ = update_world
        updated = clone(model)
        dead = unreferenced_corpus_ids(updated)[:1]
        result = updated.update(
            upserts=holdout[:2], deletes=dead, compact="force"
        )
        assert result.compacted
        assert result.compaction_reasons == ["forced"]
        assert updated.tombstones == set()
        assert updated.update_segments == []
        assert updated.update_pairs == []
        # The refit corpus is the live union: upserts in, deletes out.
        assert len(updated.corpus) == len(model.corpus) + 2 - 1
        probes = holdout[3:]
        assert_results_identical(
            updated.query(probes, k=3, mode="exact"),
            fresh_union_fit(updated).query(probes, k=3, mode="exact"),
        )

    def test_refit_live_corpus_drops_tombstoned_split_pairs(self, update_world):
        model, _, _ = update_world
        updated = clone(model)
        dead = updated.split.test.pairs[0].left_id
        updated.update(deletes=[dead], compact="never")
        fresh = refit_live_corpus(updated)
        assert dead in updated.tombstones and dead in updated.corpus
        assert dead not in fresh.corpus
        for before, after in zip(updated.split, fresh.split):
            kept = [pair for pair in before.pairs if dead not in pair.as_tuple()]
            assert after.pairs == kept
            assert after.dataset is fresh.corpus

    def test_refit_live_corpus_rejects_an_empty_live_corpus(self, update_world):
        model, _, _ = update_world
        updated = clone(model)
        updated.tombstones = {record.record_id for record in updated.corpus}
        with pytest.raises(UpdateError, match="tombstoned"):
            refit_live_corpus(updated)

    def test_aggressive_policy_compacts_on_drift(self, update_world):
        model, holdout, _ = update_world
        updated = clone(model)
        result = updated.update(
            upserts=[holdout[0]],
            policy=CompactionPolicy(max_touched_fraction=0.0),
        )
        assert result.compacted
        assert any("touched" in reason for reason in result.compaction_reasons)
        assert updated.drift_metrics().touched_fraction == 0.0


class TestSegmentedPersistence:
    def test_save_appends_segments_and_load_replays(self, update_world, tmp_path):
        model, holdout, _ = update_world
        updated = clone(model)
        base = tmp_path / "model.npz"
        updated.save(base)
        base_bytes = base.read_bytes()

        updated.update(upserts=holdout[:2], compact="never")
        updated.save(base)
        assert base.read_bytes() == base_bytes, "base artifact must stay untouched"
        assert [p.name for p in list_segment_paths(base)] == ["model.upd-0001.npz"]

        # A second update appends segment 2 and leaves segment 1 alone.
        segment_one = segment_path(base, 1).read_bytes()
        updated.update(upserts=[holdout[2]], compact="never")
        updated.save(base)
        assert base.read_bytes() == base_bytes
        assert segment_path(base, 1).read_bytes() == segment_one
        assert [p.name for p in list_segment_paths(base)] == [
            "model.upd-0001.npz",
            "model.upd-0002.npz",
        ]

        loaded = ResolverModel.load(base)
        assert loaded.fingerprint() == updated.fingerprint()
        assert loaded.tombstones == updated.tombstones
        assert len(loaded.update_segments) == 2
        probes = holdout[3:]
        assert_results_identical(
            loaded.query(probes, k=3, mode="exact"),
            updated.query(probes, k=3, mode="exact"),
        )

    def test_full_save_to_new_path_restarts_the_chain(self, update_world, tmp_path):
        model, holdout, _ = update_world
        updated = clone(model)
        updated.save(tmp_path / "model.npz")
        updated.update(upserts=holdout[:2], compact="never")
        rebased = tmp_path / "rebased.npz"
        updated.save(rebased)
        # The new artifact contains the applied deltas, so no sidecars.
        assert list_segment_paths(rebased) == []
        assert updated.update_segments == []
        loaded = ResolverModel.load(rebased)
        assert loaded.fingerprint() == updated.fingerprint()

    def test_segment_chain_verification(self, update_world, tmp_path):
        model, holdout, _ = update_world
        updated = clone(model)
        base = tmp_path / "model.npz"
        updated.save(base)
        updated.update(upserts=holdout[:1], compact="never")
        updated.update(upserts=[holdout[1]], compact="never")
        updated.save(base)

        # A gap truncates the chain: without segment 1, segment 2 is
        # unreachable and the base model loads unchanged.
        segment_path(base, 1).rename(tmp_path / "parked.npz")
        assert [p.name for p in list_segment_paths(base)] == []
        assert len(ResolverModel.load(base).corpus) == len(model.corpus)

        # Restoring the file out of order breaks the chain fingerprints.
        (tmp_path / "parked.npz").rename(segment_path(base, 2))
        segment_path(base, 1).write_bytes(segment_path(base, 2).read_bytes())
        with pytest.raises(ModelError):
            ResolverModel.load(base)

    def test_tampered_segment_is_rejected(self, update_world, tmp_path):
        model, holdout, _ = update_world
        updated = clone(model)
        base = tmp_path / "model.npz"
        updated.save(base)
        updated.update(upserts=holdout[:1], compact="never")
        updated.save(base)
        _, metadata = read_artifact(segment_path(base, 1))
        delta = dict(metadata["delta"])
        delta["deletes"] = ["r000000"]
        metadata = {**metadata, "delta": delta}
        write_artifact(segment_path(base, 1), {}, metadata)
        with pytest.raises(UpdateError):
            ResolverModel.load(base)

    def test_compaction_forces_a_full_rewrite(self, update_world, tmp_path):
        model, holdout, _ = update_world
        updated = clone(model)
        base = tmp_path / "model.npz"
        updated.save(base)
        base_bytes = base.read_bytes()
        updated.update(upserts=holdout[:2], compact="force")
        updated.save(base)
        assert base.read_bytes() != base_bytes
        assert list_segment_paths(base) == []
        loaded = ResolverModel.load(base)
        assert loaded.fingerprint() == updated.fingerprint()


class TestLazySegmentedArtifacts:
    def test_segment_files_are_metadata_only_artifacts(self, update_world, tmp_path):
        model, holdout, _ = update_world
        updated = clone(model)
        base = tmp_path / "model.npz"
        updated.save(base)
        updated.update(upserts=holdout[:1], compact="never")
        updated.save(base)
        arrays, metadata = read_artifact_lazy(segment_path(base, 1))
        assert len(arrays) == 0
        assert metadata["kind"] == UPDATE_SEGMENT_KIND
        assert metadata["segment_index"] == 1
        assert metadata["base_fingerprint"] == metadata["parent_fingerprint"]

    def test_mmap_load_is_byte_identical_to_eager_after_updates(
        self, update_world, tmp_path
    ):
        model, holdout, _ = update_world
        updated = clone(model)
        base = tmp_path / "model.npz"
        updated.save(base)
        dead = unreferenced_corpus_ids(updated)[:1]
        updated.update(upserts=holdout[:2], deletes=dead, compact="never")
        updated.save(base)

        eager = ResolverModel.load(base, mmap=False)
        mapped = ResolverModel.load(base, mmap=True)
        eager_arrays = eager.payload_arrays()
        mapped_arrays = mapped.payload_arrays()
        assert sorted(eager_arrays) == sorted(mapped_arrays)
        for name, array in eager_arrays.items():
            other = np.asarray(mapped_arrays[name])
            assert array.dtype == other.dtype, name
            assert np.asarray(array).tobytes() == other.tobytes(), name
        probes = holdout[3:]
        assert_results_identical(
            eager.query(probes, k=3, mode="exact"),
            mapped.query(probes, k=3, mode="exact"),
        )

    def test_legacy_artifact_without_update_state_loads(self, update_world, tmp_path):
        model, holdout, _ = update_world
        document = model._document()
        assert document.pop("update") is not None
        legacy = ResolverModel._restore(document, model.payload_arrays())
        assert legacy.tombstones == set()
        assert legacy.update_pairs == []
        assert_results_identical(
            legacy.query(holdout[3:], k=2, mode="online"),
            model.query(holdout[3:], k=2, mode="online"),
        )

    def test_plain_artifact_has_no_segments(self, update_world, tmp_path):
        model, _, _ = update_world
        base = tmp_path / "model.npz"
        clone(model).save(base)
        assert list_segment_paths(base) == []
        assert ResolverModel.load(base).fingerprint() == model.fingerprint()


class TestSegmentChain:
    def test_fingerprint_chain_is_order_sensitive(self):
        doc = {"upserts": [], "deletes": ["a"]}
        first = fingerprint_segment(1, "base", doc)
        second = fingerprint_segment(2, "base", doc)
        assert first != second
        assert fingerprint_segment(1, first, doc) != first

    def test_segment_metadata_round_trip(self, update_world):
        model, holdout, _ = update_world
        delta = build_delta(model.corpus, set(), upserts=holdout[:1])
        segment = UpdateSegment.build(1, delta, "base-fp", "base-fp")
        rebuilt = UpdateSegment.from_metadata(segment.to_metadata(), source="<mem>")
        assert rebuilt == segment

    def test_wrong_kind_rejected(self, update_world):
        model, holdout, _ = update_world
        delta = build_delta(model.corpus, set(), upserts=holdout[:1])
        metadata = UpdateSegment.build(1, delta, "fp", "fp").to_metadata()
        metadata["kind"] = "something-else"
        with pytest.raises(UpdateError):
            UpdateSegment.from_metadata(metadata, source="<mem>")


class TestRegistryRoundTrip:
    def test_models_registry_round_trips_update_state(self, update_world):
        model, holdout, _ = update_world
        updated = clone(model)
        dead = unreferenced_corpus_ids(updated)[:1]
        updated.update(upserts=holdout[:2], deletes=dead, compact="never")
        twin = MODELS.create(updated.to_spec(), arrays=updated.payload_arrays())
        assert twin.tombstones == updated.tombstones
        assert twin.update_pairs == updated.update_pairs
        assert twin.drift_metrics() == updated.drift_metrics()
        probes = holdout[3:]
        assert_results_identical(
            twin.query(probes, k=3, mode="online"),
            updated.query(probes, k=3, mode="online"),
        )


class TestGenerationCounter:
    def test_sessions_pick_up_updates_without_being_rebuilt(self, update_world):
        model, holdout, _ = update_world
        updated = clone(model)
        session = updated.session()
        probes = holdout[3:]
        before = session.query(probes, k=3, mode="online")
        updated.update(upserts=holdout[:2], compact="never")
        after = session.query(probes, k=3, mode="online")
        # The same session object now answers over the grown corpus.
        fresh_session = updated.session()
        assert_results_identical(after, fresh_session.query(probes, k=3, mode="online"))
        assert len(after.pairs) >= len(before.pairs)


class TestStreamChunks:
    def test_chunking_partitions_in_order(self, update_world):
        _, holdout, _ = update_world
        chunks = list(stream_chunks(holdout, chunk_size=4, start_time=10.0, interval=2.5))
        assert [chunk.index for chunk in chunks] == [0, 1]
        assert [chunk.timestamp for chunk in chunks] == [10.0, 12.5]
        assert [len(chunk) for chunk in chunks] == [4, 2]
        replayed = [record for chunk in chunks for record in chunk.records]
        assert replayed == list(holdout)
        assert all(isinstance(chunk, CorpusChunk) for chunk in chunks)

    def test_dataset_input_and_validation(self, update_world):
        model, _, _ = update_world
        chunks = list(stream_chunks(model.corpus, chunk_size=1000))
        assert len(chunks) == 1 and len(chunks[0]) == len(model.corpus)
        with pytest.raises(DataError):
            list(stream_chunks(model.corpus, chunk_size=0))
        with pytest.raises(DataError):
            list(stream_chunks(model.corpus, chunk_size=1, interval=-1.0))

    def test_streamed_updates_drive_update_and_query(self, update_world):
        model, holdout, _ = update_world
        streamed = clone(model)
        probes = holdout[4:]
        for chunk in stream_chunks(holdout[:4], chunk_size=2):
            result = streamed.update(upserts=chunk.records, compact="never")
            assert result.upserts == len(chunk)
            answer = streamed.query(probes, k=3, mode="online")
            assert set(answer.record_ids) == {r.record_id for r in probes}
        assert streamed.drift_metrics().update_generations == 2

        # Chunked absorption answers exactly like one-shot absorption in
        # exact mode: the transductive replay depends only on the union
        # corpus, not on how the upserts were batched.
        oneshot = clone(model)
        oneshot.update(upserts=holdout[:4], compact="never")
        assert streamed.tombstones == oneshot.tombstones
        assert [r.record_id for r in streamed.corpus] == [
            r.record_id for r in oneshot.corpus
        ]
        assert_results_identical(
            streamed.query(probes, k=3, mode="exact"),
            oneshot.query(probes, k=3, mode="exact"),
        )
        # Online inference may differ slightly between batchings (later
        # chunks see earlier chunks as existing kNN sources), but stays
        # within the incremental-maintenance tolerance.
        ours = streamed.query(probes, k=3, mode="online")
        theirs = oneshot.query(probes, k=3, mode="online")
        assert ours.pairs == theirs.pairs
        for intent in streamed.intents:
            np.testing.assert_allclose(
                ours.probabilities[intent],
                theirs.probabilities[intent],
                atol=5e-3,
                rtol=5e-2,
            )

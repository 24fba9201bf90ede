"""Tests for the component registries and spec round-trips."""

from __future__ import annotations

import pytest

from repro import registry
from repro.blocking import FullBlocker, QGramBlocker, TokenBlocker
from repro.config import FlexERConfig, GNNConfig, GraphConfig
from repro.exceptions import RegistryError
from repro.graph import IntentGraphBuilder, IntentNodeClassifier
from repro.matching import InParallelSolver, MultiLabelSolver, NaiveSolver
from repro.pipeline import PipelineRunner, digest
from repro.registry import BLOCKERS, GRAPH_BUILDERS, INTENT_CLASSIFIERS, SOLVERS

INTENTS = ("equivalence", "brand")


class TestNormalization:
    def test_string_flat_and_nested_specs_fingerprint_identically(self):
        as_string = BLOCKERS.normalize("qgram")
        as_flat = BLOCKERS.normalize({"type": "qgram"})
        as_nested = BLOCKERS.normalize({"type": "qgram", "params": {}})
        assert digest(as_string) == digest(as_flat) == digest(as_nested)

    def test_flat_parameters_move_into_params(self):
        spec = BLOCKERS.normalize({"type": "qgram", "q": 3})
        assert spec == {"type": "qgram", "params": {"q": 3}}

    def test_mixing_params_and_flat_parameters_rejected(self):
        with pytest.raises(RegistryError, match="mixes"):
            BLOCKERS.normalize({"type": "qgram", "params": {"q": 3}, "min_shared": 2})

    @pytest.mark.parametrize("bad", [None, 42, {"params": {}}, {"type": ""}, ""])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(RegistryError):
            BLOCKERS.normalize(bad)

    def test_tuples_and_sets_become_sorted_plain_lists(self):
        spec = BLOCKERS.normalize(
            {"type": "token", "attributes": ("title",), "stopwords": {"b", "a"}}
        )
        assert spec["params"]["attributes"] == ["title"]
        assert spec["params"]["stopwords"] == ["a", "b"]


class TestUnknownKeys:
    def test_unknown_blocker_lists_available_components(self):
        with pytest.raises(RegistryError, match="available: full, qgram, token"):
            BLOCKERS.create("sorted_neighborhood")

    def test_unknown_solver_lists_available_components(self):
        with pytest.raises(RegistryError, match="available: in_parallel, multi_label, naive"):
            SOLVERS.create("transformer", intents=INTENTS)

    def test_unknown_family_lists_available_families(self):
        with pytest.raises(RegistryError, match="unknown component family"):
            registry.family("matcher")

    def test_available_lists_all_families(self):
        families = registry.available()
        assert set(families) == {
            "solver",
            "blocker",
            "graph_builder",
            "intent_classifier",
            "executor",
            "candidate_retriever",
            "model",
            "scenario",
        }
        assert registry.available("graph_builder") == ("intent_graph",)
        assert registry.available("executor") == ("serial", "threads", "processes")
        assert registry.available("candidate_retriever") == ("ann_knn", "blocker", "hnsw", "lsh")


class TestRoundTrips:
    @pytest.mark.parametrize(
        "blocker",
        [
            QGramBlocker(q=3, min_shared=2, attributes=("title",)),
            TokenBlocker(min_shared=1, stopwords=frozenset({"the", "a"})),
            FullBlocker(cross_source_only=True, max_records=50),
        ],
    )
    def test_blocker_spec_round_trip_fingerprints_identically(self, blocker):
        spec = BLOCKERS.spec(blocker)
        rebuilt = BLOCKERS.create(spec)
        assert type(rebuilt) is type(blocker)
        assert digest(BLOCKERS.spec(rebuilt)) == digest(spec)

    @pytest.mark.parametrize(
        "solver_cls", [InParallelSolver, MultiLabelSolver, NaiveSolver]
    )
    def test_solver_spec_round_trip_fingerprints_identically(self, solver_cls):
        solver = solver_cls(INTENTS)
        spec = SOLVERS.spec(solver)
        rebuilt = SOLVERS.create(spec, intents=INTENTS)
        assert type(rebuilt) is type(solver)
        assert rebuilt.intents == solver.intents
        assert digest(SOLVERS.spec(rebuilt)) == digest(spec)

    def test_graph_builder_round_trip_carries_config(self):
        builder = IntentGraphBuilder(GraphConfig(k_neighbors=2))
        spec = GRAPH_BUILDERS.spec(builder)
        rebuilt = GRAPH_BUILDERS.create(spec, config=GraphConfig(k_neighbors=2))
        assert rebuilt.config == builder.config
        assert digest(GRAPH_BUILDERS.spec(rebuilt)) == digest(spec)

    def test_classifier_round_trip_carries_config(self):
        classifier = IntentNodeClassifier(GNNConfig(hidden_dim=8))
        spec = INTENT_CLASSIFIERS.spec(classifier)
        rebuilt = INTENT_CLASSIFIERS.create(spec, config=GNNConfig(hidden_dim=8))
        assert rebuilt.config == classifier.config
        assert digest(INTENT_CLASSIFIERS.spec(rebuilt)) == digest(spec)

    def test_config_spec_styles_fingerprint_identically(self):
        by_key = FlexERConfig(solver="multi_label")
        by_dict = FlexERConfig(solver={"type": "multi_label", "params": {}})
        assert digest(by_key.solver) == digest(by_dict.solver)
        assert by_key == by_dict


class TestRegistration:
    def test_register_decorator_and_unregister(self):
        @registry.register("blocker", "_test_noop")
        class NoopBlocker(FullBlocker):
            spec_type = "_test_noop"

        try:
            assert "_test_noop" in BLOCKERS
            built = BLOCKERS.create("_test_noop")
            assert isinstance(built, NoopBlocker)
        finally:
            BLOCKERS.unregister("_test_noop")
        assert "_test_noop" not in BLOCKERS

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError, match="already registered"):
            BLOCKERS.register("qgram", QGramBlocker)

    def test_component_without_to_spec_rejected_by_spec(self):
        with pytest.raises(RegistryError, match="to_spec"):
            BLOCKERS.spec(object())


class TestBackCompatShims:
    def test_config_solver_spec_drives_flexer_without_warning(self, recwarn):
        config = FlexERConfig(solver="naive")
        runner = PipelineRunner()
        solver = runner._make_solver(runner._solver_spec(config), INTENTS, config)
        assert isinstance(solver, NaiveSolver)
        assert not recwarn.list

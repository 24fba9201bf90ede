"""Tests for the multiplex intent graph, the builder, and GraphSAGE."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GNNConfig, GraphConfig
from repro.exceptions import GraphConstructionError
from repro.graph import (
    GraphAggregation,
    GraphSAGE,
    IntentGraphBuilder,
    IntentNodeClassifier,
    MultiplexGraph,
    SAGEConvolution,
)
from repro.graph.sage import _binary_f1
from repro.nn import Adam, Tensor, cross_entropy, l2_penalty


def random_representations(num_pairs=20, dim=8, intents=("a", "b", "c"), seed=0):
    rng = np.random.default_rng(seed)
    return {intent: rng.normal(size=(num_pairs, dim)) for intent in intents}


class TestMultiplexGraph:
    def _graph(self, num_pairs=4, intents=("x", "y")):
        features = np.zeros((len(intents) * num_pairs, 3))
        return MultiplexGraph(intents=tuple(intents), num_pairs=num_pairs, features=features)

    def test_node_indexing_round_trip(self):
        graph = self._graph()
        node = graph.node_index("y", 2)
        assert graph.node_layer(node) == 1
        assert graph.node_pair(node) == 2

    def test_layer_nodes(self):
        graph = self._graph(num_pairs=3, intents=("x", "y"))
        assert graph.layer_nodes("y").tolist() == [3, 4, 5]

    def test_invalid_indices_raise(self):
        graph = self._graph()
        with pytest.raises(GraphConstructionError):
            graph.node_index("z", 0)
        with pytest.raises(GraphConstructionError):
            graph.node_index("x", 99)
        with pytest.raises(GraphConstructionError):
            graph.add_edge(0, 999)

    def test_feature_shape_validation(self):
        with pytest.raises(GraphConstructionError):
            MultiplexGraph(intents=("x",), num_pairs=3, features=np.zeros((2, 3)))

    def test_aggregation_matrix_mean_rows_sum_to_one(self):
        graph = self._graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 1)
        matrix = graph.aggregation_matrix("mean")
        assert matrix[1].sum() == pytest.approx(1.0)
        assert matrix[0].sum() == 0.0

    def test_aggregation_matrix_sum_mode(self):
        graph = self._graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 1)
        matrix = graph.aggregation_matrix("sum")
        assert matrix[1].sum() == pytest.approx(2.0)

    def test_describe_counts(self):
        graph = self._graph()
        graph.add_edge(0, 1)
        stats = graph.describe()
        assert stats["num_nodes"] == 8
        assert stats["num_edges"] == 1


class TestIntentGraphBuilder:
    def test_edge_counts_match_paper_formulas(self):
        num_pairs, k = 20, 4
        intents = ("a", "b", "c")
        representations = random_representations(num_pairs, intents=intents)
        builder = IntentGraphBuilder(GraphConfig(k_neighbors=k))
        graph = builder.build(representations)
        assert graph.intra_edge_count == num_pairs * len(intents) * k
        assert graph.inter_edge_count == num_pairs * len(intents) * (len(intents) - 1)
        assert graph.num_nodes == num_pairs * len(intents)

    def test_k_zero_disables_intra_edges(self):
        representations = random_representations()
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=0)).build(representations)
        assert graph.intra_edge_count == 0
        assert graph.inter_edge_count > 0

    def test_inter_layer_edges_optional(self):
        representations = random_representations()
        graph = IntentGraphBuilder(GraphConfig(include_inter_layer=False)).build(representations)
        assert graph.inter_edge_count == 0

    def test_intent_subset_restricts_layers(self):
        representations = random_representations(intents=("a", "b", "c"))
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=2)).build(
            representations, intents=("a", "c")
        )
        assert graph.intents == ("a", "c")
        assert graph.num_nodes == 2 * 20

    def test_intra_edges_connect_within_layer_only(self):
        representations = random_representations(num_pairs=10, intents=("a", "b"))
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=3, include_inter_layer=False)).build(
            representations
        )
        for target, sources in enumerate(graph.in_neighbors):
            for source in sources:
                assert graph.node_layer(source) == graph.node_layer(target)

    def test_inter_edges_connect_same_pair(self):
        representations = random_representations(num_pairs=6, intents=("a", "b", "c"))
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=0)).build(representations)
        for target, sources in enumerate(graph.in_neighbors):
            for source in sources:
                assert graph.node_pair(source) == graph.node_pair(target)
                assert graph.node_layer(source) != graph.node_layer(target)

    def test_mismatched_shapes_rejected(self):
        representations = {"a": np.zeros((5, 4)), "b": np.zeros((6, 4))}
        with pytest.raises(GraphConstructionError):
            IntentGraphBuilder().build(representations)

    def test_missing_intent_rejected(self):
        representations = {"a": np.zeros((5, 4))}
        with pytest.raises(GraphConstructionError):
            IntentGraphBuilder().build(representations, intents=("a", "zzz"))

    def test_report(self):
        representations = random_representations()
        builder = IntentGraphBuilder(GraphConfig(k_neighbors=2))
        graph = builder.build(representations)
        report = builder.report(graph)
        assert report.num_pairs == 20
        assert report.intra_edges == graph.intra_edge_count


class TestGraphAggregation:
    def test_mean_aggregation_matches_dense_matrix(self):
        representations = random_representations(num_pairs=8, intents=("a", "b"))
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=2)).build(representations)
        aggregation = GraphAggregation.from_graph(graph, mode="mean")
        hidden = Tensor(np.random.default_rng(3).normal(size=(graph.num_nodes, 5)))
        sparse = aggregation(hidden).numpy()
        dense = graph.aggregation_matrix("mean") @ hidden.numpy()
        assert np.allclose(sparse, dense)

    def test_self_loops_is_identity(self):
        aggregation = GraphAggregation.self_loops(4)
        hidden = Tensor(np.arange(12, dtype=float).reshape(4, 3))
        assert np.allclose(aggregation(hidden).numpy(), hidden.numpy())

    def test_edge_count(self):
        representations = random_representations(num_pairs=6, intents=("a", "b"))
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=2)).build(representations)
        aggregation = GraphAggregation.from_graph(graph)
        assert aggregation.num_edges == graph.num_edges

    def test_mismatched_edge_arrays_rejected(self):
        with pytest.raises(GraphConstructionError):
            GraphAggregation(np.array([0]), np.array([0, 1]), 2, np.array([1.0]))


class TestGraphSAGE:
    def test_convolution_shapes(self):
        rng = np.random.default_rng(0)
        convolution = SAGEConvolution(4, 6, rng)
        hidden = Tensor(rng.normal(size=(5, 4)))
        out = convolution(hidden, GraphAggregation.self_loops(5))
        assert out.shape == (5, 6)

    def test_model_output_shapes(self):
        config = GNNConfig(hidden_dim=8, epochs=2)
        model = GraphSAGE(in_dim=4, config=config)
        features = Tensor(np.random.default_rng(0).normal(size=(10, 4)))
        aggregation = GraphAggregation.self_loops(10)
        embeddings = model.node_embeddings(features, aggregation)
        logits = model(features, aggregation)
        assert embeddings.shape == (10, 8)
        assert logits.shape == (10, 2)

    def test_three_layer_model_halves_dim(self):
        config = GNNConfig(hidden_dim=8, num_layers=3, epochs=2)
        model = GraphSAGE(in_dim=4, config=config)
        features = Tensor(np.zeros((6, 4)))
        aggregation = GraphAggregation.self_loops(6)
        assert model.node_embeddings(features, aggregation).shape == (6, 4)


class TestIntentNodeClassifier:
    def _labeled_graph(self, seed=0):
        """Graph whose target layer carries a learnable signal."""
        rng = np.random.default_rng(seed)
        num_pairs = 40
        signal = rng.normal(size=(num_pairs, 1))
        labels = (signal[:, 0] > 0).astype(np.int64)
        representations = {
            "target": np.hstack([signal, rng.normal(size=(num_pairs, 5)) * 0.1]),
            "other": rng.normal(size=(num_pairs, 6)),
        }
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=3)).build(representations)
        return graph, labels

    def test_learns_target_layer_signal(self):
        graph, labels = self._labeled_graph()
        train_index = np.arange(0, 30)
        classifier = IntentNodeClassifier(GNNConfig(hidden_dim=16, epochs=40, seed=0))
        result = classifier.fit_predict(
            graph, "target", train_index, labels[train_index]
        )
        test_index = np.arange(30, 40)
        predictions = (result.probabilities[test_index] >= 0.5).astype(int)
        accuracy = (predictions == labels[test_index]).mean()
        assert accuracy >= 0.6
        assert len(result.losses) == 40
        assert result.losses[-1] < result.losses[0]

    def test_validation_selection_and_predict(self):
        graph, labels = self._labeled_graph(seed=1)
        classifier = IntentNodeClassifier(GNNConfig(hidden_dim=8, epochs=10, seed=1))
        result = classifier.fit_predict(
            graph,
            "target",
            train_index=np.arange(0, 25),
            train_labels=labels[:25],
            valid_index=np.arange(25, 32),
            valid_labels=labels[25:32],
        )
        assert 0.0 <= result.best_validation_f1 <= 1.0
        assert classifier.predict().shape == (graph.num_pairs,)

    def test_requires_training_pairs(self):
        graph, labels = self._labeled_graph()
        classifier = IntentNodeClassifier(GNNConfig(epochs=2))
        with pytest.raises(GraphConstructionError):
            classifier.fit_predict(graph, "target", np.array([]), np.array([]))

    def test_predict_before_fit_raises(self):
        classifier = IntentNodeClassifier(GNNConfig(epochs=2))
        from repro.exceptions import NotFittedError

        with pytest.raises(NotFittedError):
            classifier.predict()


def two_forward_fit_predict(
    config, graph, target, train_index, train_labels, valid_index=None, valid_labels=None
):
    """The earlier training loop: a separate evaluation forward after every step.

    Kept as the reference that ``IntentNodeClassifier.fit_predict`` must
    reproduce bit for bit.  Returns the losses, best validation F1, layer
    probabilities, parameters and hidden states.
    """
    layer_nodes = graph.layer_nodes(target)
    train_nodes = layer_nodes[train_index]
    valid_nodes = layer_nodes[valid_index] if valid_index is not None else None
    features = Tensor(graph.features)
    aggregation = GraphAggregation.from_graph(graph, mode=config.aggregator)
    model = GraphSAGE(graph.feature_dim, config)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    losses = []
    best_f1 = -1.0
    best_state = model.state_dict()
    for _ in range(config.epochs):
        model.train()
        logits = model(features, aggregation)
        loss = cross_entropy(logits.index_select(train_nodes), train_labels)
        if config.weight_decay:
            loss = loss + l2_penalty(list(model.parameters()), config.weight_decay)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        losses.append(loss.item())
        if valid_nodes is not None:
            model.eval()
            probabilities = model(features, aggregation).softmax(axis=1).numpy()
            predictions = (probabilities[valid_nodes, 1] >= 0.5).astype(np.int64)
            f1 = _binary_f1(predictions, valid_labels)
            if f1 > best_f1:
                best_f1 = f1
                best_state = model.state_dict()
    if valid_nodes is not None and best_f1 >= 0:
        model.load_state_dict(best_state)
    model.eval()
    probabilities = model(features, aggregation).softmax(axis=1).numpy()[layer_nodes, 1]
    hidden = model.hidden_states(features, aggregation)
    return losses, max(best_f1, 0.0), probabilities, model.state_dict(), hidden


class TestTrainingLoopEquivalence:
    """The single-forward loop gives bit-identical results to the two-forward one."""

    @pytest.mark.parametrize(
        ("epochs", "weight_decay", "validate"),
        [(25, 0.0, True), (25, 0.0, False), (1, 0.0, True), (25, 1e-3, True)],
        ids=["validation", "no-validation", "one-epoch", "weight-decay"],
    )
    def test_matches_two_forward_loop(self, epochs, weight_decay, validate):
        rng = np.random.default_rng(1)
        num_pairs = 60
        signal = rng.normal(size=(num_pairs, 1))
        labels = (signal[:, 0] + 0.8 * rng.normal(size=num_pairs) > 0).astype(np.int64)
        representations = {
            "target": np.hstack([signal, rng.normal(size=(num_pairs, 5))]),
            "other": rng.normal(size=(num_pairs, 6)),
        }
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=3)).build(representations)
        config = GNNConfig(hidden_dim=8, epochs=epochs, seed=3, weight_decay=weight_decay)
        train_index = np.arange(0, 30)
        valid_index = np.arange(30, 45) if validate else None
        valid_labels = labels[30:45] if validate else None

        classifier = IntentNodeClassifier(config)
        result = classifier.fit_predict(
            graph, "target", train_index, labels[train_index], valid_index, valid_labels
        )
        losses, best_f1, probabilities, state, hidden = two_forward_fit_predict(
            config, graph, "target", train_index, labels[train_index], valid_index, valid_labels
        )

        assert result.losses == losses
        assert result.best_validation_f1 == best_f1
        assert np.array_equal(result.probabilities, probabilities)
        ours = classifier.model_state()
        assert ours.keys() == state.keys()
        assert all(np.array_equal(ours[name], state[name]) for name in state)
        for level, expected in zip(classifier.hidden_states(graph), hidden, strict=True):
            assert np.array_equal(level, expected)

"""Integration tests for the end-to-end FlexER pipeline (the staged runner)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.core import MIERSolution
from repro.evaluation import evaluate_solution
from repro.exceptions import IntentError, RegistryError
from repro.matching import InParallelSolver, NaiveSolver
from repro.pipeline import PipelineRunner


@pytest.fixture(scope="module")
def runner() -> PipelineRunner:
    """One runner per module, so later runs hit the matcher-fit stage."""
    return PipelineRunner()


@pytest.fixture(scope="module")
def flexer_result(runner, tiny_benchmark, fast_config):
    """A single shared FlexER run over the tiny benchmark."""
    return runner.run(tiny_benchmark.split, tiny_benchmark.intents, fast_config)


class TestFlexERPipeline:
    def test_requires_intents_and_valid_source(self, runner, tiny_benchmark, fast_config):
        with pytest.raises(IntentError):
            runner.run(tiny_benchmark.split, [], fast_config)
        with pytest.raises(RegistryError):
            runner.run(
                tiny_benchmark.split,
                tiny_benchmark.intents,
                replace(fast_config, solver="transformer"),
            )

    def test_solution_covers_all_intents(self, tiny_benchmark, flexer_result):
        solution = flexer_result.solution
        assert set(solution.intents) == set(tiny_benchmark.intents)
        for intent in tiny_benchmark.intents:
            prediction = solution.prediction(intent)
            assert prediction.shape == (len(tiny_benchmark.split.test),)
            assert set(np.unique(prediction)) <= {0, 1}

    def test_probabilities_are_valid(self, flexer_result):
        for probabilities in flexer_result.solution.probabilities.values():
            assert probabilities.min() >= 0.0 and probabilities.max() <= 1.0

    def test_graph_dimensions(self, tiny_benchmark, flexer_result, fast_config):
        split = tiny_benchmark.split
        expected_pairs = len(split.train) + len(split.valid) + len(split.test)
        graph = flexer_result.graph
        assert graph.num_pairs == expected_pairs
        assert graph.num_intents == len(tiny_benchmark.intents)
        # Node features: the latent representation plus the matcher's score.
        assert graph.feature_dim == fast_config.matcher.representation_dim + 1

    def test_timings_recorded(self, flexer_result):
        timings = flexer_result.timings
        assert timings.matcher_training_seconds > 0
        assert timings.graph_build_seconds > 0
        assert timings.gnn_total_seconds > 0
        assert set(timings.gnn_seconds_per_intent) == set(flexer_result.solution.intents)

    def test_evaluation_is_reasonable(self, flexer_result):
        evaluation = evaluate_solution(flexer_result.solution)
        assert 0.0 <= evaluation.mi_accuracy <= 1.0
        assert evaluation.mi_f1 > 0.3

    def test_intent_subset_restricts_graph_and_targets(self, tiny_benchmark, fast_config):
        subset = ("equivalence", "brand")
        result = repro.resolve(
            tiny_benchmark.split,
            intents=tiny_benchmark.intents,
            config=fast_config,
            intent_subset=subset,
            target_intents=("equivalence",),
        )
        assert result.graph.intents == subset
        assert set(result.solution.intents) == {"equivalence"}

    def test_target_outside_subset_rejected(self, runner, tiny_benchmark, fast_config):
        with pytest.raises(IntentError):
            runner.run(
                tiny_benchmark.split,
                tiny_benchmark.intents,
                fast_config,
                intent_subset=("equivalence",),
                target_intents=("brand",),
            )

    def test_unknown_subset_intent_rejected(self, runner, tiny_benchmark, fast_config):
        with pytest.raises(IntentError):
            runner.run(
                tiny_benchmark.split,
                tiny_benchmark.intents,
                fast_config,
                intent_subset=("nonexistent",),
            )

    def test_multi_label_solver_spec_runs(self, runner, tiny_benchmark, fast_config):
        config = replace(fast_config, solver="multi_label")
        result = runner.run(
            tiny_benchmark.split,
            tiny_benchmark.intents,
            config,
            target_intents=("equivalence",),
        )
        assert result.solution.solver_name == "FlexER[multi_label]"
        assert set(result.solution.intents) == {"equivalence"}

    def test_predict_timings_do_not_alias_or_accumulate(self, tiny_benchmark, fast_config):
        runner = PipelineRunner()
        split, intents = tiny_benchmark.split, tiny_benchmark.intents
        first = runner.run(split, intents, fast_config, target_intents=("equivalence",))
        first_gnn = dict(first.timings.gnn_seconds_per_intent)
        second = runner.run(split, intents, fast_config)
        # Each run owns a fresh timings object; the second run must
        # neither mutate the first result's timings nor accumulate them.
        assert first.timings is not second.timings
        assert first.timings.gnn_seconds_per_intent == first_gnn
        assert set(first_gnn) == {"equivalence"}
        assert set(second.timings.gnn_seconds_per_intent) == set(intents)
        # The warm run reports the matcher's original compute time.
        assert first.timings.matcher_training_seconds == pytest.approx(
            second.timings.matcher_training_seconds
        )


class TestExpectedResultShape:
    """Coarse checks that the paper's qualitative findings hold."""

    def test_flexer_beats_naive_on_mi_recall(self, tiny_benchmark, fast_config, flexer_result):
        flexer_eval = evaluate_solution(flexer_result.solution)
        naive = NaiveSolver(
            tiny_benchmark.intents, matcher_config=fast_config.matcher
        ).fit(tiny_benchmark.split.train)
        naive_eval = evaluate_solution(
            MIERSolution.from_mapping(
                tiny_benchmark.split.test, naive.predict(tiny_benchmark.split.test)
            )
        )
        assert flexer_eval.mi_recall > naive_eval.mi_recall
        assert flexer_eval.mi_f1 > naive_eval.mi_f1

    def test_flexer_at_least_matches_in_parallel(self, tiny_benchmark, fast_config, flexer_result):
        flexer_eval = evaluate_solution(flexer_result.solution)
        parallel = InParallelSolver(
            tiny_benchmark.intents, matcher_config=fast_config.matcher
        ).fit(tiny_benchmark.split.train)
        parallel_eval = evaluate_solution(
            MIERSolution.from_mapping(
                tiny_benchmark.split.test, parallel.predict(tiny_benchmark.split.test)
            )
        )
        # Allow a small tolerance: on the tiny test benchmark the gap can be noisy.
        assert flexer_eval.mi_f1 >= parallel_eval.mi_f1 - 0.05

"""repro — a reproduction of FlexER: Flexible Entity Resolution for Multiple Intents.

The package implements the full FlexER stack from the SIGMOD 2023 paper
(Genossar, Shraga, Gal): record/pair data model, blocking, per-intent
matchers (a DITTO analogue over hashed text features trained with a
numpy autodiff engine), the multiplex intent graph, GraphSAGE message
propagation, the MIER baselines (Naïve, In-parallel, Multi-label), and
the evaluation measures of the paper (MI-P/R/F, MI-Acc, residual-error
reduction, preventable error).

The public API is composable: every pluggable component (solver,
blocker, graph builder, intent classifier) is named by a registry spec
in :class:`FlexERConfig` and built through :mod:`repro.registry`, and
:func:`repro.resolve` runs the whole stack — blocking, labeling,
splitting, staged FlexER — from raw records.

Quickstart
----------
>>> from repro import load_benchmark, FlexERConfig, evaluate_solution, resolve
>>> benchmark = load_benchmark("amazon_mi", num_pairs=200, products_per_domain=20)
>>> result = resolve(benchmark.split, config=FlexERConfig.fast())
>>> evaluation = evaluate_solution(result.solution)
>>> 0.0 <= evaluation.mi_f1 <= 1.0
True

For the production lifecycle — fit once, persist, query new records
online — see :func:`repro.fit`, :class:`repro.ResolverModel`, and
:func:`repro.load_model`; to hold live traffic with micro-batched
asyncio serving, see :mod:`repro.serve` (imported lazily as
``repro.serve``).
"""

__version__ = "1.0.0"

from .config import FlexERConfig, MatcherConfig, GraphConfig, GNNConfig, CacheConfig
from .data import (
    Record,
    Dataset,
    RecordPair,
    LabeledPair,
    CandidateSet,
    DatasetSplit,
    SplitRatio,
    split_candidates,
)
from .datasets import (
    MIERBenchmark,
    load_benchmark,
    benchmark_names,
    make_amazon_mi,
    make_walmart_amazon,
    make_wdc,
)
from .blocking import Blocker, FullBlocker, QGramBlocker, TokenBlocker
from .matching import (
    PairFeatureEncoder,
    PairMatcher,
    MultiLabelMatcher,
    NaiveSolver,
    InParallelSolver,
    MultiLabelSolver,
)
from .graph import MultiplexGraph, IntentGraphBuilder, GraphSAGE, IntentNodeClassifier
from .core import (
    Intent,
    IntentSet,
    Resolution,
    MIERProblem,
    MIERSolution,
    FlexERResult,
)
from .evaluation import (
    BlockingQuality,
    evaluate_binary,
    evaluate_blocking,
    evaluate_solution,
    residual_error_reduction,
    multi_intent_error_reduction,
    preventable_error,
)
from .pipeline import ArtifactCache, BatchRunner, PipelineRunner, Scenario
from .resolver import Resolver, ResolverResult, fit, resolve
from .model import QueryResult, QuerySession, ResolverModel, load_model
from .retrieval import AnnKnnRetriever, BlockerRetriever, CandidateRetriever
from . import exceptions
from . import exec
from . import registry


def __getattr__(name: str):
    """Lazily import heavyweight optional subsystems.

    The serving layer pulls in :mod:`asyncio` plumbing and the workload
    scenarios pull in the synthetic benchmarks; most library users
    never touch either, so they load on first attribute access instead
    of at ``import repro`` time.
    """
    if name in ("serve", "scenarios"):
        import importlib

        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FlexERConfig",
    "MatcherConfig",
    "GraphConfig",
    "GNNConfig",
    "CacheConfig",
    "Record",
    "Dataset",
    "RecordPair",
    "LabeledPair",
    "CandidateSet",
    "DatasetSplit",
    "SplitRatio",
    "split_candidates",
    "MIERBenchmark",
    "load_benchmark",
    "benchmark_names",
    "make_amazon_mi",
    "make_walmart_amazon",
    "make_wdc",
    "Blocker",
    "FullBlocker",
    "QGramBlocker",
    "TokenBlocker",
    "PairFeatureEncoder",
    "PairMatcher",
    "MultiLabelMatcher",
    "NaiveSolver",
    "InParallelSolver",
    "MultiLabelSolver",
    "MultiplexGraph",
    "IntentGraphBuilder",
    "GraphSAGE",
    "IntentNodeClassifier",
    "Intent",
    "IntentSet",
    "Resolution",
    "MIERProblem",
    "MIERSolution",
    "FlexERResult",
    "BlockingQuality",
    "evaluate_binary",
    "evaluate_blocking",
    "evaluate_solution",
    "residual_error_reduction",
    "multi_intent_error_reduction",
    "preventable_error",
    "ArtifactCache",
    "BatchRunner",
    "PipelineRunner",
    "Scenario",
    "Resolver",
    "ResolverResult",
    "ResolverModel",
    "QueryResult",
    "QuerySession",
    "AnnKnnRetriever",
    "BlockerRetriever",
    "CandidateRetriever",
    "resolve",
    "fit",
    "load_model",
    "exceptions",
    "exec",
    "registry",
    "serve",
    "scenarios",
    "__version__",
]

"""FlexER core: intents, resolutions, MIER problem objects, and phase helpers."""

from .intents import Intent, IntentSet, IntentRelationships
from .resolution import Resolution
from .mier import MIERProblem, MIERSolution
from .flexer import (
    FlexERResult,
    FlexERTimings,
    combine_candidate_sets,
    compute_representations,
)

__all__ = [
    "Intent",
    "IntentSet",
    "IntentRelationships",
    "Resolution",
    "MIERProblem",
    "MIERSolution",
    "FlexERResult",
    "FlexERTimings",
    "combine_candidate_sets",
    "compute_representations",
]

"""Attacker decision model: construction, solving, and size estimates."""

from .build import analyze_targets, build_pomdp, expand_technique, leaf_flag, milestone_flag
from .complexity import (
    complexity_from_sizes,
    complexity_report,
    natural_state_count,
    state_space_size,
)
from .solve import (
    Policy,
    PolicyNode,
    SolveResult,
    belief_update,
    compile_policy,
    milestone_probabilities,
    value_iteration,
)
from .types import (
    AttackerAction,
    Belief,
    BuildConfig,
    ComplexityEstimate,
    NetworkState,
    OBSERVATIONS,
    Pomdp,
    support_key,
)

__all__ = [
    "AttackerAction",
    "Belief",
    "BuildConfig",
    "ComplexityEstimate",
    "NetworkState",
    "OBSERVATIONS",
    "Policy",
    "PolicyNode",
    "Pomdp",
    "SolveResult",
    "analyze_targets",
    "belief_update",
    "build_pomdp",
    "compile_policy",
    "complexity_from_sizes",
    "complexity_report",
    "expand_technique",
    "leaf_flag",
    "milestone_flag",
    "milestone_probabilities",
    "natural_state_count",
    "state_space_size",
    "support_key",
    "value_iteration",
]

"""Attacker decision model: construction, solving, and size estimates."""

from .build import (
    analyze_targets,
    build_pomdp,
    expand_technique,
    leaf_flag,
    milestone_flag,
    reweight_pomdp,
)
from .complexity import complexity_report, state_space_size
from .solve import (
    Policy,
    PolicyNode,
    SolveResult,
    compile_policy,
    milestone_probabilities,
    value_iteration,
)
from .types import (
    AttackerAction,
    ComplexityEstimate,
    NetworkState,
    OBSERVATIONS,
    Pomdp,
    support_key,
)

__all__ = [
    "AttackerAction",
    "ComplexityEstimate",
    "NetworkState",
    "OBSERVATIONS",
    "Policy",
    "PolicyNode",
    "Pomdp",
    "SolveResult",
    "analyze_targets",
    "build_pomdp",
    "compile_policy",
    "complexity_report",
    "expand_technique",
    "leaf_flag",
    "milestone_flag",
    "milestone_probabilities",
    "reweight_pomdp",
    "state_space_size",
    "support_key",
    "value_iteration",
]

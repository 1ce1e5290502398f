"""Core POMDP value types: states, actions, beliefs, and the model itself."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import ValidationError

PROB_TOL = 1e-9

# The eight observation labels an attacker can receive.
OBSERVATIONS = ("o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8")
OBS_MEANINGS = {
    "o1": "success",
    "o2": "failure",
    "o3": "blocked",
    "o4": "rejected",
    "o5": "delayed response",
    "o6": "access denied",
    "o7": "no response",
    "o8": "error message",
}


@dataclass(frozen=True, order=True)
class NetworkState:
    """Security posture: per-node compromised inventory subsets plus
    milestone flags. Canonically sorted so equal states compare equal."""

    compromised: tuple[tuple[str, tuple[str, ...]], ...] = ()
    flags: tuple[str, ...] = ()

    @staticmethod
    def initial() -> "NetworkState":
        return NetworkState()

    def has_flag(self, flag: str) -> bool:
        return flag in self.flags

    def items_of(self, node_id: str) -> tuple[str, ...]:
        for nid, items in self.compromised:
            if nid == node_id:
                return items
        return ()

    def with_flags(self, new_flags: set[str]) -> "NetworkState":
        merged = tuple(sorted(set(self.flags) | new_flags))
        return NetworkState(compromised=self.compromised, flags=merged)

    def with_compromise(self, node_id: str, items: set[str]) -> "NetworkState":
        existing = dict(self.compromised)
        merged = tuple(sorted(set(existing.get(node_id, ())) | items))
        existing[node_id] = merged
        canonical = tuple(sorted((k, v) for k, v in existing.items() if v))
        return NetworkState(compromised=canonical, flags=self.flags)

    def label(self) -> str:
        comp = ",".join(f"{n}:{'|'.join(items)}" for n, items in self.compromised)
        return f"[{comp}]{{{','.join(self.flags)}}}"


@dataclass(frozen=True)
class AttackerAction:
    """One executable attacker move bound to a technique and a target."""

    id: str
    technique_id: str
    target: str
    kind: str  # "tactic-step" | "tree-leaf"
    p_success: float
    p_detect: float
    reward_success: float
    penalty_failure: float
    cost: float
    step: int = 0
    leaf_name: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.p_success <= 1.0:
            raise ValidationError(f"action {self.id}: p_success outside [0,1]")
        if not 0.0 <= self.p_detect <= 1.0:
            raise ValidationError(f"action {self.id}: p_detect outside [0,1]")
        if self.cost < 0:
            raise ValidationError(f"action {self.id}: cost must be >= 0")


@dataclass(frozen=True)
class Belief:
    """Probability vector over the model's state indices."""

    probs: tuple[float, ...]

    def __post_init__(self):
        if any(p < -PROB_TOL for p in self.probs):
            raise ValidationError("belief entries must be >= 0")
        total = sum(self.probs)
        if abs(total - 1.0) > 1e-6:
            raise ValidationError(f"belief must sum to 1, got {total}")

    def support(self) -> dict[int, float]:
        return {i: p for i, p in enumerate(self.probs) if p > 0.0}


# Sparse belief used internally: state index -> probability.
Support = dict[int, float]


def support_key(support: Support) -> tuple:
    """Hashable, float-rounded identity of a sparse belief."""
    return tuple((s, round(p, 12)) for s, p in sorted(support.items()) if p > 1e-15)


@dataclass
class Pomdp:
    """Finite attacker decision model.

    transitions[(s, a)] lists (s', p) successors for every state/action pair
    (actions whose preconditions fail in s are wasted moves that self-loop);
    observation_probs[(s', a)] lists (o, p); branch_rewards[(s, a, s')] is
    the realized reward on that branch.
    """

    states: tuple[NetworkState, ...]
    actions: tuple[AttackerAction, ...]
    observations: tuple[str, ...]
    transitions: dict[tuple[int, int], tuple[tuple[int, float], ...]]
    observation_probs: dict[tuple[int, int], tuple[tuple[int, float], ...]]
    branch_rewards: dict[tuple[int, int, int], float]
    initial_belief: tuple[float, ...]
    horizon: int
    discount: float = 1.0
    # state index -> action indices whose preconditions hold there
    applicable: dict[int, tuple[int, ...]] = field(default_factory=dict)
    # TTP step -> milestone flag marking that node's success
    milestones: dict[int, str] = field(default_factory=dict)
    flow_id: str = ""

    def __post_init__(self):
        self.state_index = {s: i for i, s in enumerate(self.states)}

    def expected_reward(self, s: int, a: int) -> float:
        return sum(
            p * self.branch_rewards[(s, a, s2)] for s2, p in self.transitions[(s, a)]
        )

    def b0_support(self) -> Support:
        return {i: p for i, p in enumerate(self.initial_belief) if p > 0.0}

    def validate(self) -> None:
        """Assert simplex invariants on every row; raises ValidationError."""
        if not (0.0 < self.discount <= 1.0):
            raise ValidationError(f"discount must be in (0,1], got {self.discount}")
        total = sum(self.initial_belief)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"initial belief sums to {total}")
        for (s, a), row in self.transitions.items():
            total = sum(p for _, p in row)
            if abs(total - 1.0) > PROB_TOL:
                raise ValidationError(f"T row ({s},{a}) sums to {total}")
            if any(p < 0 for _, p in row):
                raise ValidationError(f"T row ({s},{a}) has a negative entry")
        for (s2, a), row in self.observation_probs.items():
            total = sum(p for _, p in row)
            if abs(total - 1.0) > PROB_TOL:
                raise ValidationError(f"Z row ({s2},{a}) sums to {total}")
            if any(p < 0 for _, p in row):
                raise ValidationError(f"Z row ({s2},{a}) has a negative entry")

    def dump(self) -> str:
        """Canonical JSON dump of the whole model, for diffing and oracles."""
        payload = {
            "flow": self.flow_id,
            "horizon": self.horizon,
            "discount": self.discount,
            "states": [s.label() for s in self.states],
            "actions": [a.id for a in self.actions],
            "observations": list(self.observations),
            "initial_belief": list(self.initial_belief),
            "transitions": {
                f"{s},{a}": {str(s2): p for s2, p in row}
                for (s, a), row in sorted(self.transitions.items())
            },
            "observation_probs": {
                f"{s2},{a}": {self.observations[o]: p for o, p in row}
                for (s2, a), row in sorted(self.observation_probs.items())
            },
            "branch_rewards": {
                f"{s},{a},{s2}": r for (s, a, s2), r in sorted(self.branch_rewards.items())
            },
            "applicable": {str(s): list(acts) for s, acts in sorted(self.applicable.items())},
            "milestones": {str(k): v for k, v in sorted(self.milestones.items())},
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass
class ComplexityEstimate:
    """Worst-case model sizes next to the sizes actually built."""

    num_nodes: int
    max_inventory: int
    worst_states: int
    num_actions: int
    num_observations: int
    comp_state_obs: int
    c_statetrans: int
    natural_states: int = 0
    reduced_states: int | None = None
    reduced_actions: int | None = None
    reduced_observations: int | None = None
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "max_inventory": self.max_inventory,
            "worst_states": self.worst_states,
            "num_actions": self.num_actions,
            "num_observations": self.num_observations,
            "comp_state_obs": self.comp_state_obs,
            "c_statetrans": self.c_statetrans,
            "natural_states": self.natural_states,
            "reduced_states": self.reduced_states,
            "reduced_actions": self.reduced_actions,
            "reduced_observations": self.reduced_observations,
            "note": self.note,
        }


@dataclass
class BuildConfig:
    """Knobs for model construction."""

    mode: str = "reduced"  # "reduced" | "naive"
    horizon: int | None = None
    discount: float = 1.0
    max_path_len: int = 12
    naive_cap: int = 10**6  # on |S| * |A| * |S| * |O| entries

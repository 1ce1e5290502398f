"""Core POMDP value types: states, actions, beliefs, and the model itself."""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..errors import ValidationError

PROB_TOL = 1e-9

# The eight observation labels an attacker can receive; `build` says what
# each one means.
OBSERVATIONS = ("o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8")


@dataclass(frozen=True, order=True)
class NetworkState:
    """Security posture: per-node compromised inventory subsets plus
    milestone flags, canonically sorted so equal states compare equal.
    The builder explores int keys (a bit per flag, then per (node, item)
    pair) and turns each explored key into its NetworkState once; the
    sorted NetworkStates fix the model's state order."""

    compromised: tuple[tuple[str, tuple[str, ...]], ...] = ()
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class AttackerAction:
    """One executable attacker move bound to a technique and a target. Its
    five parameters are named by their attack-tree leaf keys, and each has
    passed its threat-intel column's check (`threat_intel.LEAF_COLUMNS`)."""

    id: str
    target: str
    p_success: float
    p_detect: float
    reward_success: float
    penalty_failure: float
    cost: float
    step: int = 0
    leaf_name: str | None = None


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
    the realized reward on that branch, and `rewards` folds those into
    R(s, a). Rewards are summed undiscounted over `horizon` steps.
    States carry their flags and, unless the model was built with
    `inventory=False`, the compromised inventory; the solver is handed the
    model without inventory, whose states are their flag sets.
    """

    states: tuple[NetworkState, ...]
    actions: tuple[AttackerAction, ...]
    observations: tuple[str, ...]
    transitions: dict[tuple[int, int], tuple[tuple[int, float], ...]]
    observation_probs: dict[tuple[int, int], tuple[tuple[int, float], ...]]
    branch_rewards: dict[tuple[int, int, int], float]
    initial_belief: tuple[float, ...]
    horizon: int
    # state index -> action indices whose preconditions hold there
    applicable: dict[int, tuple[int, ...]] = field(default_factory=dict)
    # TTP step -> milestone flag marking that node's success
    milestones: dict[int, str] = field(default_factory=dict)
    flow_id: str = ""
    # what made the model, so `build.reweight_pomdp` can re-weight it; not
    # part of the model's value
    builder: object = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def rewards(self) -> dict[tuple[int, int], float]:
        """Expected immediate reward R(s, a) of every (state, action) pair.
        Cached on the instance, so a model made by `dataclasses.replace`
        sums its own branch rewards."""
        return self.expected_rewards(self.transitions)

    @functools.cached_property
    def flagged(self) -> tuple[tuple[bool, ...], ...]:
        """Which milestones each state holds: per state, per TTP step of
        `milestones` in step order, whether the state has its flag."""
        flags = [self.milestones[step] for step in sorted(self.milestones)]
        return tuple(tuple(flag in state.flags for flag in flags) for state in self.states)

    def expected_rewards(self, keys: Iterable[tuple[int, int]]) -> dict[tuple[int, int], float]:
        """R(s, a) of each (state, action) pair of `keys`."""
        return {
            (s, a): sum(p * self.branch_rewards[(s, a, s2)] for s2, p in self.transitions[(s, a)])
            for s, a in keys
        }

    def b0_support(self) -> Support:
        return {i: p for i, p in enumerate(self.initial_belief) if p > 0.0}

    def validate(self) -> None:
        """Assert simplex invariants on every row; raises ValidationError."""
        total = sum(self.initial_belief)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"initial belief sums to {total}")
        _check_rows("T", self.transitions)
        _check_rows("Z", self.observation_probs)


def _check_rows(kind: str, rows: dict[tuple[int, int], tuple[tuple[int, float], ...]]) -> None:
    """Check that every row is a distribution, naming the first key that
    uses a bad one. The check reads only a row's probabilities, so each
    distinct list of them is checked once; the keys are walked only to
    name a bad row."""
    distinct = {tuple([p for _, p in row]) for row in set(rows.values())}
    if all(abs(sum(probs) - 1.0) <= PROB_TOL and min(probs) >= 0 for probs in distinct):
        return
    for (s, a), row in rows.items():
        probs = [p for _, p in row]
        total = sum(probs)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"{kind} row ({s},{a}) sums to {total}")
        if min(probs) < 0:
            raise ValidationError(f"{kind} row ({s},{a}) has a negative entry")


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

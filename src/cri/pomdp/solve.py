"""Exact finite-horizon solving over the reachable belief tree.

The attacker maximizes expected cumulative reward by depth-limited
expectimax with belief memoization. At every belief the attacker may also
stop (walk away), worth zero: an action is taken only when its expected
value is non-negative. Ties between equally valued actions break toward
the lowest action index.

The solved policy is then compiled into a policy graph (Kaelbling,
Littman & Cassandra 1998): one node per (belief, steps left) the policy
can reach from the initial belief, holding the chosen action and one
child per possible observation. The milestone readout and the Monte Carlo
simulator walk this graph instead of recomputing beliefs. `_successors`
is the only place belief successors are computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import CapacityError, InconsistentObservation, ModelError
from .types import Belief, Pomdp, Support, support_key


def belief_update(pomdp: Pomdp, belief: Belief, a: int, o: int) -> Belief:
    """b'(s') = w * Z(o|s',a) * sum_s T(s,a,s') b(s); raises
    InconsistentObservation when the observation has zero mass."""
    if not 0 <= a < len(pomdp.actions):
        raise ModelError(f"action index {a} out of range")
    if not 0 <= o < len(pomdp.observations):
        raise ModelError(f"observation index {o} out of range")
    for label, _, child in _successors(pomdp, belief.support(), a):
        if label == o:
            vec = [0.0] * len(pomdp.states)
            for s, p in child.items():
                vec[s] = p
            return Belief(tuple(vec))
    raise InconsistentObservation(
        f"observation {pomdp.observations[o]} impossible after action "
        f"{pomdp.actions[a].id}"
    )


def _successors(pomdp: Pomdp, support: Support, a: int) -> list[tuple[int, float, Support]]:
    """Per-observation (obs index, mass, normalized child belief)."""
    acc: dict[int, dict[int, float]] = {}
    for s in sorted(support):
        bs = support[s]
        for s2, p in pomdp.transitions[(s, a)]:
            w = bs * p
            if w <= 0.0:
                continue
            for o, z in pomdp.observation_probs[(s2, a)]:
                if z <= 0.0:
                    continue
                bucket = acc.setdefault(o, {})
                bucket[s2] = bucket.get(s2, 0.0) + w * z
    out = []
    for o in sorted(acc):
        dist = acc[o]
        mass = sum(dist[s] for s in sorted(dist))
        if mass <= 0.0:
            continue
        child = {s: w / mass for s, w in sorted(dist.items())}
        out.append((o, mass, child))
    return out


@dataclass(frozen=True)
class PolicyNode:
    """One reachable belief of a compiled policy. `action` None means stop;
    `children` maps each possible observation to (mass, child node id)."""

    action: int | None
    key: tuple
    support: Support
    children: dict[int, tuple[float, int]]


@dataclass
class Policy:
    """A policy compiled into the graph of the beliefs it reaches from b0.

    Children come before their parents in `nodes`, so the last node is the
    initial belief with `horizon` steps left."""

    nodes: list[PolicyNode]
    horizon: int

    @property
    def root(self) -> PolicyNode:
        return self.nodes[-1]


@dataclass
class SolveResult:
    policy: Policy
    value: float
    reachable_beliefs: int


def compile_policy(
    pomdp: Pomdp, choose: Callable[[tuple], int | None], horizon: int
) -> Policy:
    """Follow `choose((belief key, steps left))` from b0 through every
    observation and number the beliefs reached. `choose` returns an action
    index or None to stop; a node with no steps left always stops."""
    nodes: list[PolicyNode] = []
    ids: dict[tuple, int] = {}

    def visit(support: Support, depth: int) -> int:
        key = (support_key(support), depth)
        if key in ids:
            return ids[key]
        action = choose(key) if depth > 0 else None
        children = {}
        if action is not None:
            for o, mass, child in _successors(pomdp, support, action):
                children[o] = (mass, visit(child, depth - 1))
        ids[key] = len(nodes)
        nodes.append(PolicyNode(action, key[0], support, children))
        return ids[key]

    visit(pomdp.b0_support(), horizon)
    return Policy(nodes=nodes, horizon=horizon)


def value_iteration(pomdp: Pomdp, belief_cap: int = 500_000) -> SolveResult:
    """Solve for the attacker-optimal policy by exact expectimax to the
    model's horizon, and compile it into a policy graph."""
    expected: dict[tuple[int, int], float] = {
        key: pomdp.expected_reward(*key) for key in pomdp.transitions
    }
    values: dict[tuple, float] = {}
    chosen: dict[tuple, int | None] = {}

    def solve(support: Support, depth: int) -> float:
        key = (support_key(support), depth)
        if key in values:
            return values[key]
        if len(values) >= belief_cap:
            raise CapacityError("reachable belief tree above cap", len(values))
        if depth == 0:
            values[key] = 0.0
            chosen[key] = None
            return 0.0
        offered = sorted(
            {a for s in support for a in pomdp.applicable.get(s, ())}
        )
        best_q: float | None = None
        best_a: int | None = None
        for a in offered:
            q = sum(support[s] * expected[(s, a)] for s in sorted(support))
            for _, mass, child in _successors(pomdp, support, a):
                q += pomdp.discount * mass * solve(child, depth - 1)
            if best_q is None or q > best_q:
                best_q = q
                best_a = a
        if best_q is None or best_q < 0.0:
            values[key] = 0.0
            chosen[key] = None
        else:
            values[key] = best_q
            chosen[key] = best_a
        return values[key]

    value = solve(pomdp.b0_support(), pomdp.horizon)
    return SolveResult(
        policy=compile_policy(pomdp, chosen.get, pomdp.horizon),
        value=value,
        reachable_beliefs=len(values),
    )


def milestone_probabilities(pomdp: Pomdp, policy: Policy) -> dict[int, float]:
    """Exact probability, per TTP step, that the step's milestone flag is
    ever reached when the attacker follows `policy` from the initial belief."""
    steps = sorted(pomdp.milestones)
    flags = [pomdp.milestones[s] for s in steps]
    flag_in_state = [
        tuple(flag in state.flags for flag in flags) for state in pomdp.states
    ]
    zeros = tuple(0.0 for _ in flags)
    reached: list[tuple[float, ...]] = []
    for node in policy.nodes:
        a = node.action
        if a is None:
            reached.append(zeros)
            continue
        total = [0.0] * len(flags)
        for s in sorted(node.support):
            bs = node.support[s]
            here = flag_in_state[s]
            for s2, p in pomdp.transitions[(s, a)]:
                there = flag_in_state[s2]
                for i in range(len(flags)):
                    if there[i] and not here[i]:
                        total[i] += bs * p
        for mass, child in node.children.values():
            sub = reached[child]
            for i in range(len(flags)):
                total[i] += mass * sub[i]
        reached.append(tuple(min(1.0, max(0.0, v)) for v in total))
    return {step: reached[-1][i] for i, step in enumerate(steps)}

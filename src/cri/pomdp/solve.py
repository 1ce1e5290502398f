"""Exact finite-horizon solving over the reachable belief tree.

The attacker maximizes expected cumulative reward by depth-limited
expectimax with belief memoization. At every belief the attacker may also
stop (walk away), worth zero: an action is taken only when its expected
value is non-negative. Ties between equally valued actions break toward
the lowest action index.

The engine hands the expectimax the flag model
(`build_pomdp(..., inventory=False)`), whose states are their flag sets.
No action, observation or reward reads compromised inventory, so this is
the model that tracks inventory minimized by bisimulation (Givan, Dean &
Greig 2003), and far fewer beliefs are expanded. The solver itself
searches whatever model it is given, as it is. Every stage reads
immediate rewards as R(s, a) from its model's `rewards`.

The expectimax is exact branch-and-bound. Before it starts, `qmdp_bounds`
tabulates Q_d(s, a), the finite-horizon Q-value of the model treated
as fully observable, with the stop option (QMDP: Littman, Cassandra &
Kaelbling 1995; Hauskrecht 2000): V_0 = 0, Q_d(s, a) = R(s, a) + sum_s'
T(s, a, s') V_{d-1}(s'), undiscounted, and V_d(s) = max(0, max over every
action of Q_d(s, a)). Every action counts, not only the applicable ones,
because a belief offers the union of its states' actions and so can force
a state through a wasted move, which may pay. At a belief b with d steps
left, UB(b, a) = sum_s b(s) Q_d(s, a) bounds the value of taking a. The
offered actions are visited in decreasing UB, ties toward the lower
index, and an action is skipped when UB < max(best q so far, 0) - eps.
The largest q is chosen, exact ties going to the lowest index, so the
choice does not depend on the visit order and the policy is the one an
unpruned search picks. eps = 1e-9 * max |Q_d(s, a)| covers only float
rounding in the bound: it scales with the model's rewards, and it keeps a
skipped action's q strictly below the best q, since an equal q would win
the tie on a lower index. No bound is passed down to the children, so
every memoized value is exact, and the value of b0 with the horizon left
is V*.

The solved policy is then compiled into a policy graph (Kaelbling,
Littman & Cassandra 1998) over the model's states: one node per (belief,
steps left) the policy can reach from the initial belief, holding the
chosen action and one child per possible observation. The milestone
readout walks this graph instead of recomputing beliefs, and so does a
Monte Carlo walk: the flag model is the quotient of the model that tracks
inventory, so the graph is a policy for that model too, which the walk
samples. The graph earns V* by construction, so the value is not summed
over it a second time. `_successors` is the only place belief successors
are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..errors import CapacityError
from .types import Pomdp, Support, support_key


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
    """`value` is V*, the expectimax's value of b0 with the horizon left;
    `reachable_beliefs` counts the (belief, steps left) pairs the
    expectimax expanded, and `pruned` the actions skipped at them because
    their bound could not win."""

    policy: Policy
    value: float
    reachable_beliefs: int
    pruned: int


def compile_policy(pomdp: Pomdp, choose: Callable[[tuple], int | None], horizon: int) -> Policy:
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

    try:
        visit(pomdp.b0_support(), horizon)
    finally:
        # `visit` refers to itself: drop it, so nothing it holds outlives this call
        del visit
    return Policy(nodes=nodes, horizon=horizon)


def qmdp_bounds(pomdp: Pomdp) -> list[list[list[float]]]:
    """Q_d(s, a) for d = 0..horizon, indexed [d][s][a]: the finite-horizon
    Q-value of the model treated as fully observable, with the stop
    option. V_d(s) = max(0, max over every action of Q_d(s, a)), since a
    belief can force any state through any action its other states offer."""
    actions = range(len(pomdp.actions))
    rows = [
        [(pomdp.rewards[(s, a)], pomdp.transitions[(s, a)]) for a in actions]
        for s in range(len(pomdp.states))
    ]
    table = [[[0.0] * len(actions) for _ in rows]]
    v = [0.0] * len(rows)
    for _ in range(pomdp.horizon):
        q = [
            [r + sum([p * v[s2] for s2, p in row]) for r, row in state_rows]
            for state_rows in rows
        ]
        v = [max([0.0, *row]) for row in q]
        table.append(q)
    return table


def expectimax(pomdp: Pomdp, belief_cap: int) -> tuple[float, dict[tuple, int | None], int]:
    """Memoized expectimax to the model's horizon from b0, with every
    action bounded by `qmdp_bounds`. Returns V*, the value of b0; the
    action chosen at every expanded (belief key, steps left), None meaning
    stop; and the number of actions the bound skipped. Raises
    CapacityError past `belief_cap` beliefs."""
    rewards = pomdp.rewards
    bounds = qmdp_bounds(pomdp)
    # covers float rounding in the bound, at the scale of the model's values
    eps = 1e-9 * max((abs(q) for depth in bounds for row in depth for q in row), default=0.0)
    values: dict[tuple, float] = {}
    chosen: dict[tuple, int | None] = {}
    pruned = 0

    def solve(support: Support, depth: int) -> float:
        nonlocal pruned
        key = (support_key(support), depth)
        if key in values:
            return values[key]
        if len(values) >= belief_cap:
            raise CapacityError(f"reachable belief tree above its cap of {belief_cap} beliefs")
        if depth == 0:
            values[key] = 0.0
            chosen[key] = None
            return 0.0
        bound = bounds[depth]
        upper = {
            a: sum(p * bound[s][a] for s, p in support.items())
            for a in {a for s in support for a in pomdp.applicable.get(s, ())}
        }
        order = sorted(upper, key=lambda a: (-upper[a], a))
        best_q = -math.inf
        best_a: int | None = None
        for i, a in enumerate(order):
            # neither this action nor any after it can beat stopping or best_a
            if upper[a] < max(best_q, 0.0) - eps:
                pruned += len(order) - i
                break
            q = sum(support[s] * rewards[(s, a)] for s in sorted(support))
            for _, mass, child in _successors(pomdp, support, a):
                q += mass * solve(child, depth - 1)
            if q > best_q or (q == best_q and a < best_a):
                best_q = q
                best_a = a
        if best_q < 0.0:
            values[key] = 0.0
            chosen[key] = None
        else:
            values[key] = best_q
            chosen[key] = best_a
        return values[key]

    try:
        return solve(pomdp.b0_support(), pomdp.horizon), chosen, pruned
    finally:
        # `solve` refers to itself: drop it, so the memo goes with this call
        del solve


def value_iteration(pomdp: Pomdp, belief_cap: int = 500_000) -> SolveResult:
    """Solve for V* and the attacker-optimal policy by exact expectimax on
    the model's own states, and compile the policy into a graph over them.
    Both recurse once per step left: a horizon past the interpreter's
    recursion limit raises CapacityError."""
    try:
        value, chosen, pruned = expectimax(pomdp, belief_cap)
        policy = compile_policy(pomdp, chosen.get, pomdp.horizon)
    except RecursionError as exc:
        raise CapacityError(f"horizon {pomdp.horizon} nests the belief search too deeply") from exc
    return SolveResult(policy=policy, value=value, reachable_beliefs=len(chosen), pruned=pruned)


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

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

The expectimax is exact branch-and-bound. Before it starts,
`informed_bounds` tabulates Q_d(s, a), the fast informed bound (FIB:
Hauskrecht 2000) with the stop option: Q_0 = 0 and Q_d(s, a) = R(s, a) +
sum_o max(0, max_a' sum_s' T(s, a, s') Z(s', a, o) Q_{d-1}(s', a')),
undiscounted. The max runs over every action, not only the applicable
ones, because a belief offers the union of its states' actions and so can
force a state through a wasted move, which may pay. FIB grants the
attacker each observation, where QMDP (Littman, Cassandra & Kaelbling
1995) grants the state itself, so it is never above QMDP and equals it
where the observations reveal the state. At a belief b with d steps left,
UB(b, a) = sum_s b(s) Q_d(s, a) bounds the value of taking a. The offered
actions are visited in decreasing UB, ties toward the lower index, and an
action is skipped when UB < max(best q so far, 0) - eps. Once b has a best
action, each later candidate is bounded again by a one-step lookahead
(Ross, Pineau, Paquet & Chaib-draa 2008) before any child is expanded:
R(b, a) + sum_o P(o | b, a) U(b_ao), where U is the child's exact value
if it is solved, else max(0, max over its offered a' of UB(b_ao, a')) with
d - 1 steps left. The candidate is skipped when that is below the same
threshold; otherwise each child is expanded with the UB the lookahead
computed for it. No other UB is kept, since a memo of every bounded
belief doubled the memory of a search that runs into the belief cap. The
largest q is chosen, exact ties going to the lowest index, so the choice
does not depend on the visit order and the policy is the one an unpruned
search picks. eps = 1e-9 * max |Q_d(s, a)| covers only float rounding in
the bounds: it scales with the model's rewards, and it keeps a skipped
action's q strictly below the best q, since an equal q would win the tie
on a lower index. No threshold is passed down to the children, so every
memoized value is exact, and the value of b0 with the horizon left is V*.

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
from itertools import chain
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
    support: Support
    children: dict[int, tuple[float, int]]


@dataclass
class Policy:
    """A policy compiled into the graph of the beliefs it reaches from b0.

    Children come before their parents in `nodes`, so the last node is the
    initial belief with `horizon` steps left."""

    nodes: list[PolicyNode]
    horizon: int


@dataclass
class SolveResult:
    """`value` is V*, the expectimax's value of b0 with the horizon left;
    `reachable_beliefs` counts the (belief, steps left) pairs the
    expectimax expanded, and `pruned` the actions skipped at them because
    their bound or their lookahead could not win."""

    policy: Policy
    value: float
    reachable_beliefs: int
    pruned: int


def compile_policy(pomdp: Pomdp, choose: Callable[[tuple], int | None]) -> Policy:
    """Follow `choose((belief key, steps left))` from b0, with the model's
    horizon left, through every observation and number the beliefs
    reached. `choose` returns an action index or None to stop; a node with
    no steps left always stops."""
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
        nodes.append(PolicyNode(action, support, children))
        return ids[key]

    try:
        visit(pomdp.b0_support(), pomdp.horizon)
    finally:
        # `visit` refers to itself: drop it, so nothing it holds outlives this call
        del visit
    return Policy(nodes=nodes, horizon=pomdp.horizon)


def _informed_row(pomdp: Pomdp, r: float, row: tuple, a: int) -> tuple:
    """(R(s, a), singles, shared) of one row of `informed_bounds`. `shared`
    lists each observation that two or more successors emit, as its (s',
    T Z) pairs. `singles` lists (s', weight) for the rest: T for a
    successor none of whose observations is shared, in the row's order,
    then T Z for each unshared observation of the other successors."""
    emitted = [pomdp.observation_probs[(s2, a)] for s2, _ in row]
    labels = [o for pairs in emitted for o, _ in pairs]
    if len(set(labels)) == len(labels):
        return r, row, ()
    groups: dict[int, list[tuple[int, float]]] = {}
    for (s2, p), pairs in zip(row, emitted):
        for o, z in pairs:
            if p * z > 0.0:
                groups.setdefault(o, []).append((s2, p * z))
    shared = tuple(tuple(group) for group in groups.values() if len(group) > 1)
    muddled = {s2 for group in shared for s2, _ in group}
    singles = [(s2, p) for s2, p in row if s2 not in muddled]
    singles += [group[0] for group in groups.values() if len(group) == 1 and group[0][0] in muddled]
    return r, tuple(singles), shared


def _shared_value(group: tuple, q: list[list[float]]) -> float:
    """max(0, max over every action a' of sum (T Z) Q(s', a')) of one
    shared observation."""
    (s2, w), *rest = group
    total = [w * x for x in q[s2]]
    for s2, w in rest:
        total = [t + w * x for t, x in zip(total, q[s2])]
    return max([0.0, *total])


def informed_bounds(pomdp: Pomdp) -> list[list[list[float]]]:
    """Q_d(s, a) for d = 0..horizon, indexed [d][s][a]: the fast informed
    bound with the stop option, the max taken over every action. With
    V_d(s) = max(0, max_a Q_d(s, a)), an unshared observation of s'
    contributes T Z V_{d-1}(s') exactly, and these terms are summed first,
    as QMDP sums its own, so a model whose observations reveal the state
    gets the QMDP table to the bit. Only shared observations pay for the max
    over a'. Equal rows of a state, such as its wasted moves, are summed once."""
    actions = range(len(pomdp.actions))
    rows = []
    for s in range(len(pomdp.states)):
        distinct: dict[tuple, int] = {}
        index = []
        for a in actions:
            r = pomdp.rewards[(s, a)]
            row = pomdp.transitions[(s, a)]
            terms = (r, row, ()) if len(row) == 1 else _informed_row(pomdp, r, row, a)
            index.append(distinct.setdefault(terms, len(distinct)))
        rows.append((list(distinct), index))
    q = [[0.0] * len(actions) for _ in rows]
    table = [q]
    for _ in range(pomdp.horizon):
        v = [max([0.0, *row]) for row in q]
        prev = q
        q = []
        for terms, index in rows:
            sums = [
                r + sum([w * v[s2] for s2, w in singles])
                if not shared
                else r + sum([w * v[s2] for s2, w in singles] + [_shared_value(g, prev) for g in shared])
                for r, singles, shared in terms
            ]
            q.append([sums[i] for i in index])
        table.append(q)
    return table


def expectimax(pomdp: Pomdp, belief_cap: int) -> tuple[float, dict[tuple, int | None], int]:
    """Memoized expectimax to the model's horizon from b0, with every
    action bounded by `informed_bounds` and, once a belief has a best
    action, by a one-step lookahead. Returns V*, the value of b0; the
    action chosen at every expanded (belief key, steps left), None meaning
    stop; and the number of actions either bound skipped. Raises
    CapacityError past `belief_cap` beliefs."""
    rewards = pomdp.rewards
    bounds = informed_bounds(pomdp)
    # covers float rounding in the bound, at the scale of the model's values
    eps = 1e-9 * max(map(abs, chain.from_iterable(chain.from_iterable(bounds))), default=0.0)
    values: dict[tuple, float] = {}
    chosen: dict[tuple, int | None] = {}
    pruned = 0

    def upper(support: Support, depth: int) -> dict[int, float]:
        bound = bounds[depth]
        return {
            a: sum(p * bound[s][a] for s, p in support.items())
            for a in {a for s in support for a in pomdp.applicable.get(s, ())}
        }

    def ceiling(support: Support, key: tuple, bounded: dict) -> float:
        """U of the lookahead: the child's exact value when solved, else its
        bound, whose UB goes into `bounded` for the child's expansion."""
        if key in values:
            return values[key]
        if key[1] == 0:
            return 0.0
        bounded[key] = upper(support, key[1])
        return max([0.0, *bounded[key].values()])

    def solve(support: Support, key: tuple, bound: dict | None = None) -> float:
        nonlocal pruned
        if key in values:
            return values[key]
        if len(values) >= belief_cap:
            raise CapacityError(
                f"reachable belief tree of horizon {pomdp.horizon} "
                f"above its cap of {belief_cap} beliefs (flow {pomdp.flow_id})"
            )
        depth = key[1]
        if depth == 0:
            values[key] = 0.0
            chosen[key] = None
            return 0.0
        if bound is None:
            bound = upper(support, depth)
        order = sorted(bound, key=lambda a: (-bound[a], a))
        best_q = -math.inf
        best_a: int | None = None
        for i, a in enumerate(order):
            # neither this action nor any after it can beat stopping or best_a
            if bound[a] < max(best_q, 0.0) - eps:
                pruned += len(order) - i
                break
            q = sum(support[s] * rewards[(s, a)] for s in sorted(support))
            children = [
                (mass, child, (support_key(child), depth - 1))
                for _, mass, child in _successors(pomdp, support, a)
            ]
            bounded: dict[tuple, dict[int, float]] = {}
            if best_a is not None:
                # summed as q is, so a bound of solved children is q itself
                ahead = q
                for mass, child, child_key in children:
                    ahead += mass * ceiling(child, child_key, bounded)
                if ahead < max(best_q, 0.0) - eps:
                    pruned += 1
                    continue
            for mass, child, child_key in children:
                q += mass * solve(child, child_key, bounded.get(child_key))
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

    b0 = pomdp.b0_support()
    try:
        return solve(b0, (support_key(b0), pomdp.horizon)), chosen, pruned
    finally:
        # `solve` refers to itself: drop it, so the memo goes with this call
        del solve


def value_iteration(pomdp: Pomdp, belief_cap: int = 500_000) -> SolveResult:
    """Solve for V* and the attacker-optimal policy by exact expectimax on
    the model's own states, and compile the policy into a graph over them.
    Both recurse once per step left: a horizon past the interpreter's
    recursion limit raises CapacityError. Either CapacityError names the
    model's flow."""
    try:
        value, chosen, pruned = expectimax(pomdp, belief_cap)
        policy = compile_policy(pomdp, chosen.get)
    except RecursionError as exc:
        raise CapacityError(
            f"horizon {pomdp.horizon} nests the belief search too deeply (flow {pomdp.flow_id})"
        ) from exc
    return SolveResult(policy=policy, value=value, reachable_beliefs=len(chosen), pruned=pruned)


def milestone_probabilities(pomdp: Pomdp, policy: Policy) -> dict[int, float]:
    """Exact probability, per TTP step, that the step's milestone flag is
    ever reached when the attacker follows `policy` from the initial belief."""
    steps = sorted(pomdp.milestones)
    flagged = pomdp.flagged
    zeros = tuple(0.0 for _ in steps)
    reached: list[tuple[float, ...]] = []
    for node in policy.nodes:
        a = node.action
        if a is None:
            reached.append(zeros)
            continue
        total = [0.0] * len(steps)
        for s in sorted(node.support):
            bs = node.support[s]
            here = flagged[s]
            for s2, p in pomdp.transitions[(s, a)]:
                there = flagged[s2]
                for i in range(len(steps)):
                    if there[i] and not here[i]:
                        total[i] += bs * p
        for mass, child in node.children.values():
            sub = reached[child]
            for i in range(len(steps)):
                total[i] += mass * sub[i]
        reached.append(tuple(min(1.0, max(0.0, v)) for v in total))
    return {step: reached[-1][i] for i, step in enumerate(steps)}

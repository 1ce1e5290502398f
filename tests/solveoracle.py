"""Unpruned-expectimax, bound, model-minimization and belief-update
oracles for the solver.

`expectimax` in `cri.pomdp.solve` skips every action whose fast informed
bound, or whose one-step lookahead over that bound, cannot beat the best
action found so far. This module keeps the search it must agree with:
every offered action is expanded at every belief, in ascending index
order, and the largest q wins with ties toward the lowest index.
`qmdp_bounds` is the looser QMDP table, which the fast informed bound
must never exceed and must equal where observations reveal the state.
`belief_update` gives the single successor of a dense `Belief` for one
(action, observation), against which the policy graph's children are
checked. `policy_value` sums what a policy graph earns on the model's own
states; the graph `value_iteration` compiles must earn the V* its
expectimax found.

The engine solves the flag model (`build_pomdp(..., inventory=False)`),
the model that tracks inventory with its states of equal flags merged,
and walks the flag model's policy graph on the model that tracks
inventory. `flag_blocks` is that partition, read off each state's flags,
and `quotient` merges a model by a given partition. `guided_policy`
compiles a quotient's choices into a graph over the model's own states,
against which the flag model's graph is checked. `lump`
finds the coarsest bisimulation quotient of any model without being told
a partition. Two states are bisimilar when they offer the same actions,
emit the same observation row on arrival under every action, earn the
same expected reward under every action, and move with equal probability
into every block of bisimilar states (Givan, Dean & Greig 2003,
"Equivalence notions and model minimization in Markov decision
processes", AIJ 147). The partition is refined until its block count
stops changing. Floats are compared for exact equality, so two states are
merged only when every number the solver would read from them is the
same number. A quotient is a model in its own right: each block takes its
representative's rows and R(s, a) as its `rewards`, and has no branch
rewards of its own.
"""

from dataclasses import dataclass

from cri.errors import CapacityError, CriError, ModelError, ValidationError
from cri.pomdp.solve import Policy, PolicyNode, _successors, compile_policy
from cri.pomdp.types import PROB_TOL, Pomdp, Support, support_key


def unpruned_expectimax(pomdp: Pomdp, belief_cap: int = 500_000) -> tuple[float, dict]:
    """Memoized expectimax to the model's horizon from b0. Returns the value
    and the action chosen at every expanded (belief key, steps left), None
    meaning stop; raises CapacityError past `belief_cap` beliefs."""
    values: dict[tuple, float] = {}
    chosen: dict[tuple, int | None] = {}

    def solve(support: Support, depth: int) -> float:
        key = (support_key(support), depth)
        if key in values:
            return values[key]
        if len(values) >= belief_cap:
            raise CapacityError(f"reachable belief tree above its cap of {belief_cap} beliefs")
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
            q = sum(support[s] * pomdp.rewards[(s, a)] for s in sorted(support))
            for _, mass, child in _successors(pomdp, support, a):
                q += mass * solve(child, depth - 1)
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

    return solve(pomdp.b0_support(), pomdp.horizon), chosen


def qmdp_bounds(pomdp: Pomdp) -> list[list[list[float]]]:
    """Q_d(s, a) for d = 0..horizon, indexed [d][s][a]: the QMDP table, the
    finite-horizon Q-value of the model treated as fully observable, with
    the stop option (Littman, Cassandra & Kaelbling 1995). V_d(s) = max(0,
    max over every action of Q_d(s, a)), since a belief can force any state
    through any action its other states offer."""
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


def lump_blocks(pomdp: Pomdp) -> tuple[int, ...]:
    """The coarsest bisimulation's block of every state, blocks numbered
    in order of their lowest state index."""
    n = len(pomdp.states)
    rewards = pomdp.rewards
    actions = range(len(pomdp.actions))
    seeds: dict[tuple, int] = {}
    block = [
        seeds.setdefault(
            (
                pomdp.applicable.get(s, ()),
                tuple(pomdp.observation_probs[(s, a)] for a in actions),
                tuple(rewards[(s, a)] for a in actions),
            ),
            len(seeds),
        )
        for s in range(n)
    ]
    count = len(seeds)
    while True:
        signatures: dict[tuple, int] = {}
        refined = []
        for s in range(n):
            rows = []
            for a in actions:
                into: dict[int, float] = {}
                for s2, p in pomdp.transitions[(s, a)]:
                    into[block[s2]] = into.get(block[s2], 0.0) + p
                rows.append(tuple(sorted(into.items())))
            refined.append(signatures.setdefault((block[s], tuple(rows)), len(signatures)))
        # a round that splits no block numbers the blocks as the round
        # before it did
        block = refined
        if len(signatures) == count:
            return tuple(block)
        count = len(signatures)


def flag_blocks(pomdp: Pomdp) -> tuple[int, ...]:
    """Each state's block when the states of equal flags are merged,
    blocks numbered in order of their lowest state index."""
    numbers: dict[tuple, int] = {}
    return tuple(numbers.setdefault(state.flags, len(numbers)) for state in pomdp.states)


def quotient(pomdp: Pomdp, block: tuple[int, ...]) -> Pomdp:
    """The model with each block of `block` as one state, blocks numbered
    in order of their lowest state index. That state, the block's
    representative, lends the block its rows and its R(s, a); its
    transition probabilities are summed into blocks."""
    reps: list[int] = []
    for s, b in enumerate(block):
        if b == len(reps):
            reps.append(s)
    actions = range(len(pomdp.actions))
    transitions = {}
    for b, s in enumerate(reps):
        for a in actions:
            into: dict[int, float] = {}
            for s2, p in pomdp.transitions[(s, a)]:
                into[block[s2]] = into.get(block[s2], 0.0) + p
            transitions[(b, a)] = tuple(sorted(into.items()))
    initial = [0.0] * len(reps)
    for s, p in enumerate(pomdp.initial_belief):
        initial[block[s]] += p
    merged = Pomdp(
        states=tuple(pomdp.states[s] for s in reps),
        actions=pomdp.actions,
        observations=pomdp.observations,
        transitions=transitions,
        observation_probs={
            (b, a): pomdp.observation_probs[(s, a)] for b, s in enumerate(reps) for a in actions
        },
        branch_rewards={},
        initial_belief=tuple(initial),
        horizon=pomdp.horizon,
        applicable={b: pomdp.applicable.get(s, ()) for b, s in enumerate(reps)},
        milestones=pomdp.milestones,
        flow_id=pomdp.flow_id,
    )
    merged.rewards = {
        (b, a): pomdp.rewards[(s, a)] for b, s in enumerate(reps) for a in actions
    }
    return merged


def lump(pomdp: Pomdp) -> Pomdp:
    """The quotient by the coarsest bisimulation."""
    return quotient(pomdp, lump_blocks(pomdp))


def policy_value(pomdp: Pomdp, policy: Policy) -> float:
    """Expected cumulative reward of following `policy` from b0 on `pomdp`,
    summed over the graph in the expectimax's order, so the graph of an
    optimal policy earns V* to the bit."""
    values: list[float] = []
    for node in policy.nodes:
        if node.action is None:
            values.append(0.0)
            continue
        support = node.support
        q = sum(support[s] * pomdp.rewards[(s, node.action)] for s in sorted(support))
        for mass, child in node.children.values():
            q += mass * values[child]
        values.append(q)
    return values[-1]


def guided_policy(pomdp: Pomdp, choose, horizon: int, guide: Pomdp) -> Policy:
    """`compile_policy` over `pomdp`, with `choose` asked about the beliefs
    of `guide`, a model whose beliefs split by observation as `pomdp`'s do
    (a quotient of it): the compile tracks the matching guide belief
    alongside each belief, child for child by observation."""
    nodes: list[PolicyNode] = []
    ids: dict[tuple, int] = {}

    def visit(support: Support, guide_support: Support, depth: int) -> int:
        key = (support_key(support), depth)
        if key in ids:
            return ids[key]
        action = choose((support_key(guide_support), depth)) if depth > 0 else None
        children = {}
        if action is not None:
            guided = {o: child for o, _, child in _successors(guide, guide_support, action)}
            for o, mass, child in _successors(pomdp, support, action):
                children[o] = (mass, visit(child, guided[o], depth - 1))
        ids[key] = len(nodes)
        nodes.append(PolicyNode(action, support, children))
        return ids[key]

    visit(pomdp.b0_support(), guide.b0_support(), horizon)
    return Policy(nodes=nodes, horizon=horizon)


def unpruned_solve(pomdp: Pomdp):
    """The unpruned search on the model's `lump` quotient, its choices
    compiled into a graph over the model's own states: (value, policy
    graph, beliefs expanded)."""
    lumped = lump(pomdp)
    _, chosen = unpruned_expectimax(lumped)
    policy = guided_policy(pomdp, chosen.get, pomdp.horizon, lumped)
    return policy_value(pomdp, policy), policy, len(chosen)


def unlumped_solve(pomdp: Pomdp):
    """The unpruned search run directly on the model's own states:
    (value, policy graph, beliefs expanded)."""
    value, chosen = unpruned_expectimax(pomdp)
    return value, compile_policy(pomdp, chosen.get), len(chosen)


class InconsistentObservation(CriError):
    """Belief update received an observation with zero probability mass."""


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

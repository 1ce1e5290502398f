"""Exact model minimization: the coarsest bisimulation quotient of a model.

Two states are bisimilar when they offer the same actions, emit the same
observation row on arrival under every action, earn the same expected
reward under every action, and move with equal probability into every
block of bisimilar states (Givan, Dean & Greig 2003, "Equivalence notions
and model minimization in Markov decision processes", AIJ 147). Every
belief over the quotient is then worth what the beliefs it stands for are
worth, and picks the same actions.

The partition is refined until its block count stops changing. Floats are
compared for exact equality, so two states are merged only when every
number the solver would read from them is the same number. The quotient is
a model in its own right: each block takes its representative's R(s, a)
as its `rewards`, and has no branch rewards of its own.
"""

from __future__ import annotations

from .types import Pomdp


def lump(pomdp: Pomdp) -> Pomdp:
    """The quotient model. Blocks are numbered in order of their lowest
    state index, and that state, the block's representative, lends the
    block its rows and its rewards."""
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
        rows_of: list[tuple] = []
        for s in range(n):
            rows = []
            for a in actions:
                into: dict[int, float] = {}
                for s2, p in pomdp.transitions[(s, a)]:
                    into[block[s2]] = into.get(block[s2], 0.0) + p
                rows.append(tuple(sorted(into.items())))
            signature = (block[s], tuple(rows))
            if signature not in signatures:
                signatures[signature] = len(signatures)
                rows_of.append(signature[1])
            refined.append(signatures[signature])
        block = refined
        # A round that splits no block numbers the blocks as the round
        # before it did, so the rows it measured are the quotient's rows.
        if len(signatures) == count:
            break
        count = len(signatures)

    reps: list[int] = []
    for s, b in enumerate(block):
        if b == len(reps):
            reps.append(s)
    initial = [0.0] * count
    for s, p in enumerate(pomdp.initial_belief):
        initial[block[s]] += p
    quotient = Pomdp(
        states=tuple(pomdp.states[s] for s in reps),
        actions=pomdp.actions,
        observations=pomdp.observations,
        transitions={
            (b, a): rows_of[b][a] for b in range(count) for a in actions
        },
        observation_probs={
            (b, a): pomdp.observation_probs[(s, a)]
            for b, s in enumerate(reps)
            for a in actions
        },
        branch_rewards={},
        initial_belief=tuple(initial),
        horizon=pomdp.horizon,
        discount=pomdp.discount,
        applicable={b: pomdp.applicable.get(s, ()) for b, s in enumerate(reps)},
        milestones=pomdp.milestones,
        flow_id=pomdp.flow_id,
    )
    quotient.rewards = {
        (b, a): rewards[(s, a)] for b, s in enumerate(reps) for a in actions
    }
    return quotient

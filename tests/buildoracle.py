"""Per-pair model-construction oracle for `build_pomdp`.

`build_pomdp` evaluates only the moves a state offers. Every other action
there is a wasted move, and all of a state's wasted moves are written from
one shared self-loop row. This module keeps the table pass it must agree
with, dump for dump: every (state, action) pair of every explored key is
evaluated on its own, a wasted move included, and each pair gets its own
transition row, observation row and branch rewards, in (state, action)
order.

The oracle reads only what `_Builder.__init__` derives from the inputs:
the actions, their masks, the flag names and inventory items, and the
observation rows. Exploration, state naming and ordering, and the table
pass are its own.
"""

from cri.errors import CapacityError
from cri.pomdp.build import NAIVE_CAP, _Builder
from cri.pomdp.types import OBSERVATIONS, NetworkState, Pomdp


def execute(b: _Builder, key, act, m, offered):
    """(next key, probability, branch reward) rows of one pair; a move not
    offered at `key` is a self-loop that pays its cost."""
    if not offered:
        return [(key, 1.0, -act.cost)]
    p = act.p_success
    if p <= 0.0:
        return [(key, 1.0, act.penalty_failure - act.cost)]
    succ = key | m.own
    if not m.leaves or b.trees[act.step].gate_satisfied(
        {name for bit, name in m.leaves if succ & bit}
    ):
        succ |= m.gain
    if p >= 1.0:
        return [(succ, 1.0, act.reward_success - act.cost)]
    return [
        (succ, p, act.reward_success - act.cost),
        (key, 1.0 - p, act.penalty_failure - act.cost),
    ]


def pair_rows(b: _Builder, key):
    """Per action: its rows at `key`, whether it is offered there, and
    whether its own flag is set there."""
    rows = []
    for act, m in zip(b.actions, b.masks):
        offered = (not key & m.unset and key & m.seq == m.seq
                   and (not m.alt or key & m.alt != 0))
        rows.append((execute(b, key, act, m, offered), offered, key & m.own != 0))
    return rows


def explore(b: _Builder):
    """`pair_rows` of every model key: all of them in naive mode, else the
    keys reachable from key 0."""
    if b.naive:
        count = 2 ** (len(b.flag_names) + len(b.items))
        entries = count * count * len(b.actions) * len(OBSERVATIONS)
        if entries > NAIVE_CAP:
            raise CapacityError("naive state space above cap", entries)
        return {key: pair_rows(b, key) for key in range(count)}
    explored = {}
    frontier = [0]
    while frontier:
        key = frontier.pop()
        if key not in explored:
            explored[key] = rows = pair_rows(b, key)
            frontier.extend(nxt for outcomes, _, _ in rows for nxt, _, _ in outcomes)
    return explored


def state(b: _Builder, key) -> NetworkState:
    flags = tuple(flag for i, flag in enumerate(b.flag_names) if key >> i & 1)
    compromised = {}
    for i, (node_id, item) in enumerate(b.items, len(b.flag_names)):
        if key >> i & 1:
            compromised[node_id] = compromised.get(node_id, ()) + (item,)
    return NetworkState(compromised=tuple(compromised.items()), flags=flags)


def build_by_pairs(flow, net, ti, *, horizon=None, naive=False, inventory=True) -> Pomdp:
    """The model `build_pomdp` makes of the same inputs, with every
    (state, action) pair evaluated and written on its own."""
    b = _Builder(flow, net, ti, naive, inventory)
    explored = explore(b)
    named = {key: state(b, key) for key in explored}
    keys = sorted(explored, key=named.__getitem__)
    index = {key: i for i, key in enumerate(keys)}

    used = {(a, own) for rows in explored.values() for a, (_, _, own) in enumerate(rows)}
    obs_rows = {key: b.observation_row(b.actions[key[0]], key[1]) for key in used}
    labels = {o for row in obs_rows.values() for o in row}
    observations = tuple(o for o in OBSERVATIONS if o in labels)
    obs_index = {o: i for i, o in enumerate(observations)}

    transitions, obs_probs, branch_rewards, applicable = {}, {}, {}, {}
    for s_idx, key in enumerate(keys):
        offered_here = []
        for a_idx, (outcomes, offered, own) in enumerate(explored[key]):
            rows = [(index[nxt], p, r) for nxt, p, r in outcomes]
            transitions[(s_idx, a_idx)] = tuple(sorted((n, p) for n, p, _ in rows))
            for n_idx, _, r in rows:
                branch_rewards[(s_idx, a_idx, n_idx)] = r
            obs_probs[(s_idx, a_idx)] = tuple(
                sorted((obs_index[o], p) for o, p in obs_rows[(a_idx, own)].items())
            )
            if offered:
                offered_here.append(a_idx)
        applicable[s_idx] = tuple(offered_here)

    belief = [0.0] * len(keys)
    belief[index[0]] = 1.0
    pomdp = Pomdp(
        states=tuple(named[key] for key in keys),
        actions=tuple(b.actions),
        observations=observations,
        transitions=transitions,
        observation_probs=obs_probs,
        branch_rewards=branch_rewards,
        initial_belief=tuple(belief),
        horizon=len(flow.nodes) + 2 if horizon is None else horizon,
        applicable=applicable,
        milestones=dict(b.milestones),
        flow_id=flow.id,
    )
    pomdp.validate()
    return pomdp

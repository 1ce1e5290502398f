"""Attacker model construction from a flow, a network, and threat intel.

States hold milestone flags and, unless built with `inventory=False`,
which inventory items are compromised per node; one flag per TTP step
marks that step's success, and per-leaf flags track progress inside a
technique's attack tree. Actions are technique applications bound to
concrete targets (or tree leaves bound to targets).

Success sets the step milestone and adds the target's inventory; failure
leaves the state unchanged. An action whose preconditions do not hold in
a state is a wasted move: a deterministic self-loop that only pays its
cost.

While building, a state is an int key: one bit per flag of the sorted
flag names (milestones and every action's own flag), then one bit per
(node, item) pair, nodes and their items sorted. Each action's
preconditions and its success are masks over these bits, so node ids and
leaf names only label states. Two tree leaves whose flag names coincide
would label two states alike, and are refused. No mask, observation row
or reward reads an inventory bit, and a successor's flags are its
state's plus the action's. So a model built with `inventory=False`, which
has no inventory bits and whose states are their flag sets, is the model
that tracks inventory with the states of equal flags merged, up to state
order. Every run solves that flag model. A Monte Carlo walk follows the
rows of the model that tracks inventory, so a run that walks builds that
one too.

`reweight_pomdp` derives the model under another table from a built one.
It returns the built model itself when no action moves. Otherwise one
test, each action's shape (`_Builder._shape`), decides: if every shape is
kept it rewrites only the rows the moved probabilities reach, and if any
moved it builds afresh.

One exploration builds the model: at each state reachable from the
initial state (or at every key, in naive mode) each offered move is
evaluated once, and no wasted move is evaluated at all. Each explored key
then becomes its `NetworkState` once, and the model is indexed over the
sorted `NetworkState`s, whose order fixes every downstream float sum. The
table pass first writes every (state, action) pair of a state as a wasted
move, all from one shared self-loop row, then overwrites the offered
pairs; so the rows keep their (state, action) order, and a model of
mostly wasted moves holds one transition row per state for them. An
observation row depends only on the action and on whether its own flag
(milestone, or leaf flag for a tree leaf) is set, so each action has at
most two, shared by every state, and a state's rows are picked by the
own-flag bits it has set. They follow the path context of the action's
target:
  - success/failure (o1/o2) always apply;
  - access-denied (o6) when a Deny rule covers the target, blocked (o3)
    when segmentation governs a hop on the way, rejected (o4) when no
    permitted route exists at all;
  - one of delayed/no-response/error (o5/o7/o8) replaces the crisp outcome
    with probability p_detect when an IDS-class node sits on the path.
A target's path context is computed once per network and kept on it, so
every model built on that network reuses it (see `analyze_targets`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

from ..attack_flow import AttackFlow, TtpNode
from ..attack_tree import AttackTree
from ..errors import CapacityError, ModelError
from ..netmodel import NetworkModel, candidate_targets, physical_paths, reachable_targets
from ..threat_intel import TiTable
from .types import AttackerAction, NetworkState, Pomdp, OBSERVATIONS

IDS_CLASSES = {"ids", "ips", "idps"}
NAIVE_CAP = 10**6  # on |S| * |A| * |S| * |O| entries of the naive model
_MUDDLE_LABELS = ("o5", "o7", "o8")


def milestone_flag(step: int) -> str:
    return f"ttp{step}"


def leaf_flag(step: int, target: str, leaf_name: str) -> str:
    return f"ttp{step}@{target}#{leaf_name}"


@dataclass(frozen=True)
class TargetContext:
    """Path-derived facts about one target node."""

    ids_on_path: bool
    seg_on_path: bool
    policy_deny: bool


def analyze_targets(net: NetworkModel, targets: Iterable[str]) -> dict[str, TargetContext]:
    """Path facts for each of `targets`, in sorted order, over the simple
    paths to it from every entry point.

    The facts depend only on the network and its policies, so each
    target's are kept on `net`, and a call computes only the targets no
    earlier call on `net` did: every build, walk model and what-if rebuild
    on one network lists a target's paths once. The memo lives as long as
    `net` and starts over when `net.policies` is another object than the
    one it was filled under (`validate_bundle` assigns it after building
    the network); a network or policy set changed in place is not seen.
    There is no module-level cache, so each validated network pays for its
    own first analysis, and no facts outlive the network they describe."""
    policies, known = net._target_facts
    if policies is not net.policies:
        known = {}
        net._target_facts = (net.policies, known)
    wanted = sorted(set(targets))
    entries = net.entry_points()
    zone_of = net.policies.zone_of
    for target in wanted:
        if target in known:
            continue
        paths: list[list[str]] = []
        for entry in entries:
            paths.extend(physical_paths(net, entry, target))
        ids_on_path = any(net.nodes[n].asset_class in IDS_CLASSES for p in paths for n in p)
        seg_on_path = any(
            zone_of(a) is not None and zone_of(b) is not None and zone_of(a) != zone_of(b)
            for p in paths
            for a, b in zip(p, p[1:])
        )
        policy_deny = any(
            r.effect == "Deny" and r.resource.matches_label(target)
            for r in net.policies.rules
        )
        known[target] = TargetContext(
            ids_on_path=ids_on_path,
            seg_on_path=seg_on_path,
            policy_deny=policy_deny,
        )
    return {target: known[target] for target in wanted}


def expand_technique(
    ttp: TtpNode,
    trees: dict[str, AttackTree],
    ti: TiTable,
    targets: list[tuple[str, str]],
) -> list[AttackerAction]:
    """Actions realizing one TTP node against the given (node, class) targets.

    With an attack tree, every leaf becomes an action per target (the gate
    structure is evaluated over leaf flags at transition time); otherwise
    each target yields a single action parameterized from threat intel.
    A leaf's own parameters override the threat-intel record's.
    """
    tree = trees.get(ttp.attack_tree_id) if ttp.attack_tree_id else None
    actions: list[AttackerAction] = []
    for target, asset_class in sorted(targets):
        record = ti.lookup(ttp.technique_id, asset_class)
        if record is None:
            continue
        for leaf in tree.leaves() if tree is not None else [None]:
            def pick(key: str, fallback: float) -> float:
                return fallback if leaf is None else leaf.param(key, fallback)

            actions.append(
                AttackerAction(
                    id=f"s{ttp.step}:{ttp.technique_id}@{target}"
                    + (f"#{leaf.name}" if leaf is not None else ""),
                    target=target,
                    p_success=pick("p_success", record.p_success_base),
                    p_detect=pick("p_detect", record.p_detect),
                    reward_success=pick("reward_success", record.reward_success),
                    penalty_failure=pick("penalty_failure", record.penalty_failure),
                    cost=pick("cost", record.action_cost),
                    step=ttp.step,
                    leaf_name=leaf.name if leaf is not None else None,
                )
            )
    return actions


class _Masks(NamedTuple):
    """One action's bits over the state keys. It is offered where no `unset`
    bit is set, every `seq` bit is set and, unless `alt` is 0, some `alt`
    bit is set. Success sets `own`, and `gain` unless a tree gate over
    `leaves`, the (bit, leaf name) pairs of its step and target, fails."""

    own: int
    unset: int
    seq: int
    alt: int
    gain: int
    leaves: tuple[tuple[int, str], ...]


class _Builder:
    def __init__(
        self, flow: AttackFlow, net: NetworkModel, ti: TiTable, naive: bool, inventory: bool
    ):
        self.flow = flow
        self.net = net
        self.naive = naive
        self.inventory = inventory
        self.reachable = reachable_targets(net)
        self.milestones = {n.step: milestone_flag(n.step) for n in flow.nodes}
        self.trees: dict[int, AttackTree] = {
            n.step: flow.trees.get(n.attack_tree_id) for n in flow.nodes if n.attack_tree_id
        }
        self.actions = self._make_actions(ti)
        self.context = analyze_targets(net, (a.target for a in self.actions))
        # the flag whose presence means the action itself has succeeded
        self.own_flags = own_flags = [
            leaf_flag(a.step, a.target, a.leaf_name) if a.leaf_name is not None
            else self.milestones[a.step]
            for a in self.actions
        ]
        self.flag_names = sorted(set(self.milestones.values()) | set(own_flags))
        self.items = [
            (n, i) for n in sorted(net.nodes) for i in sorted(net.nodes[n].inventory)
        ] if inventory else []
        # key bits, by flag name or by (node, item) pair
        bit = {name: 1 << i for i, name in enumerate([*self.flag_names, *self.items])}
        held: dict[str, int] = {}  # node -> the bits of its inventory
        for node, item in self.items:
            held[node] = held.get(node, 0) | bit[(node, item)]
        step_leaves: dict[int, int] = {}
        leaves: dict[tuple[int, str], list[tuple[int, str]]] = {}
        for act, flag in zip(self.actions, own_flags):
            if act.leaf_name is not None:
                if step_leaves.get(act.step, 0) & bit[flag]:
                    raise ModelError(
                        f"tree leaf flag {flag!r} names two actions in flow {self.flow.id!r}"
                    )
                step_leaves[act.step] = step_leaves.get(act.step, 0) | bit[flag]
                leaves.setdefault((act.step, act.target), []).append((bit[flag], act.leaf_name))
        self.masks: list[_Masks] = []
        for act, flag in zip(self.actions, own_flags):
            incoming = self.flow.predecessors(act.step)
            reached = bit[self.milestones[act.step]]
            mine = tuple(leaves.get((act.step, act.target), ()))
            # a tree step is committed to the first target one of its leaves hit
            others = step_leaves.get(act.step, 0) & ~sum(b for b, _ in mine)
            # each sum adds distinct bits, so it is their union
            self.masks.append(_Masks(
                own=bit[flag],
                unset=bit[flag] | reached | others,
                seq=sum({bit[self.milestones[e.src]] for e in incoming if e.relation != "OR"}),
                alt=sum({bit[self.milestones[e.src]] for e in incoming if e.relation == "OR"}),
                gain=reached | held.get(act.target, 0),
                leaves=mine,
            ))
        # every own-flag bit: a key's share of them picks its observation rows
        self.own_bits = sum({m.own for m in self.masks})

    def _make_actions(self, ti: TiTable) -> list[AttackerAction]:
        if not self.net.entry_points():
            raise ModelError("network declares no entry_point nodes")
        actions: list[AttackerAction] = []
        for node in self.flow.nodes:
            targets = candidate_targets(
                self.net, node, ti, self.net.nodes if self.naive else self.reachable
            )
            if not targets:
                raise ModelError(
                    f"no candidate targets for TTP step {node.step} "
                    f"({node.technique_id}) in flow {self.flow.id!r}"
                )
            pairs = sorted((t, self.net.nodes[t].asset_class) for t in targets)
            expanded = expand_technique(node, self.flow.trees, ti, pairs)
            if not expanded:
                raise ModelError(
                    f"no parameterizable actions for TTP step {node.step} "
                    f"({node.technique_id})"
                )
            for act in expanded:
                # No permitted route to the target: the attempt cannot land.
                if act.target not in self.reachable and act.p_success > 0.0:
                    act = replace(act, p_success=0.0)
                actions.append(act)
        return actions

    def execute(self, key: int, act: AttackerAction, m: _Masks) -> list[tuple[int, float, float]]:
        """(next key, probability, branch reward) rows of `act`, which `key`
        offers; probabilities sum to 1. A wasted move is never evaluated:
        `build` writes it as a self-loop that pays the action's cost."""
        p = act.p_success
        if p <= 0.0:
            return [(key, 1.0, act.penalty_failure - act.cost)]
        succ = key | m.own
        if not m.leaves or self.trees[act.step].gate_satisfied(
            {name for b, name in m.leaves if succ & b}
        ):
            succ |= m.gain
        if p >= 1.0:
            return [(succ, 1.0, act.reward_success - act.cost)]
        return [
            (succ, p, act.reward_success - act.cost),
            (key, 1.0 - p, act.penalty_failure - act.cost),
        ]

    def observation_row(self, act: AttackerAction, succeeded: bool) -> dict[str, float]:
        ctx = self.context[act.target]
        if succeeded:
            dist = {"o1": 1.0}
        else:
            denies = []
            if ctx.policy_deny:
                denies.append("o6")
            if ctx.seg_on_path:
                denies.append("o3")
            if act.target not in self.reachable:
                denies.append("o4")
            if denies:
                dist = {"o2": 0.5}
                for label in denies:
                    dist[label] = 0.5 / len(denies)
            else:
                dist = {"o2": 1.0}
        if ctx.ids_on_path and act.p_detect > 0.0:
            muddle = _MUDDLE_LABELS[(act.step + sum(act.target.encode())) % 3]
            pd = act.p_detect
            dist = {o: p * (1.0 - pd) for o, p in dist.items()}
            dist[muddle] = dist.get(muddle, 0.0) + pd
        return {o: p for o, p in dist.items() if p > 0.0}

    def _rows(self, key: int) -> tuple[int, list[tuple[int, list]]]:
        """The own-flag bits set at `key`, which pick its observation rows,
        and the (action index, execute rows) of each action offered there,
        in action order. Every other action is a wasted move at `key` and
        is not evaluated."""
        offered = []
        for a, (act, m) in enumerate(zip(self.actions, self.masks)):
            if (not key & m.unset and key & m.seq == m.seq
                    and (not m.alt or key & m.alt != 0)):
                offered.append((a, self.execute(key, act, m)))
        return key & self.own_bits, offered

    def _explore(self) -> dict[int, tuple[int, list[tuple[int, list]]]]:
        """`_rows` of every model key: all of them in naive mode, else the
        keys reachable from the initial key 0."""
        if self.naive:
            count = 2 ** (len(self.flag_names) + len(self.items))
            entries = count * count * len(self.actions) * len(OBSERVATIONS)
            if entries > NAIVE_CAP:
                raise CapacityError("naive state space above cap", entries)
            return {key: self._rows(key) for key in range(count)}
        explored: dict[int, tuple[int, list[tuple[int, list]]]] = {}
        frontier = [0]
        while frontier:
            key = frontier.pop()
            if key not in explored:
                explored[key] = rows = self._rows(key)
                frontier.extend(nxt for _, outcomes in rows[1] for nxt, _, _ in outcomes)
        return explored

    def _state(self, key: int) -> NetworkState:
        """The state of `key`, read off its set bits, lowest first: flags in
        name order, then (node, item) pairs by node and item."""
        n_flags = len(self.flag_names)
        flags: list[str] = []
        compromised: dict[str, tuple[str, ...]] = {}
        while key:
            low = key & -key
            key ^= low
            i = low.bit_length() - 1
            if i < n_flags:
                flags.append(self.flag_names[i])
            else:
                node_id, item = self.items[i - n_flags]
                compromised[node_id] = compromised.get(node_id, ()) + (item,)
        return NetworkState(compromised=tuple(compromised.items()), flags=tuple(flags))

    def build(self, horizon: int | None) -> Pomdp:
        explored = self._explore()
        named = {key: self._state(key) for key in explored}
        # the order NetworkState's generated comparison gives, without its calls
        keys = sorted(explored, key=lambda key: (named[key].compromised, named[key].flags))
        index = {key: i for i, key in enumerate(keys)}

        # An observation row depends only on (action, own flag set), so a
        # state's rows depend only on its own-flag bits; o1 and other labels
        # appear only if some state uses a row carrying them.
        own_masks = {own for own, _ in explored.values()}
        used = {(a, own & m.own != 0) for own in own_masks for a, m in enumerate(self.masks)}
        obs_rows = {
            key: self.observation_row(self.actions[key[0]], key[1]) for key in used
        }
        labels = {o for row in obs_rows.values() for o in row}
        observations = tuple(o for o in OBSERVATIONS if o in labels)
        obs_index = {o: i for i, o in enumerate(observations)}
        indexed = {
            key: tuple(sorted((obs_index[o], p) for o, p in row.items()))
            for key, row in obs_rows.items()
        }

        # per own mask: each action's observation row, in action order
        obs_lists = {
            own: [indexed[(a, own & m.own != 0)] for a, m in enumerate(self.masks)]
            for own in own_masks
        }
        costs = [-act.cost for act in self.actions]

        transitions: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
        obs_probs: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
        branch_rewards: dict[tuple[int, int, int], float] = {}
        applicable: dict[int, tuple[int, ...]] = {}
        for s_idx, key in enumerate(keys):
            own, offered = explored[key]
            # every pair starts as a wasted move, all sharing one row; the
            # offered pairs are then overwritten in place, keeping (s, a) order
            pairs = [(s_idx, a) for a in range(len(costs))]
            transitions.update(zip(pairs, repeat(((s_idx, 1.0),))))
            obs_probs.update(zip(pairs, obs_lists[own]))
            applicable[s_idx] = here = tuple(a for a, _ in offered)
            branch_rewards.update(
                {(s_idx, a, s_idx): r for a, r in enumerate(costs) if a not in here}
            )
            for a, outcomes in offered:
                # success sets a flag the action needs unset: the outcomes differ
                rows = [(index[nxt], p, r) for nxt, p, r in outcomes]
                transitions[(s_idx, a)] = tuple(sorted((n, p) for n, p, _ in rows))
                for n_idx, _, r in rows:
                    branch_rewards[(s_idx, a, n_idx)] = r

        belief = [0.0] * len(keys)
        belief[index[0]] = 1.0
        pomdp = Pomdp(
            states=tuple(named[key] for key in keys),
            actions=tuple(self.actions),
            observations=observations,
            transitions=transitions,
            observation_probs=obs_probs,
            branch_rewards=branch_rewards,
            initial_belief=tuple(belief),
            horizon=len(self.flow.nodes) + 2 if horizon is None else horizon,
            applicable=applicable,
            milestones=dict(self.milestones),
            flow_id=self.flow.id,
            builder=self,
        )
        pomdp.validate()
        return pomdp

    def _shape(self, act: AttackerAction) -> tuple:
        """What a re-weight must keep of an action: all but its two
        probabilities, whether p_success is 0, strictly between 0 and 1 or 1
        (`execute`'s one outcome or two, and where it lands), and the labels
        of its two observation rows."""
        return (
            act.id, act.reward_success, act.penalty_failure, act.cost,
            (act.p_success > 0.0) + (act.p_success >= 1.0),
            *(self.observation_row(act, own).keys() for own in (False, True)),
        )

    def reweight(self, base: Pomdp, ti: TiTable) -> Pomdp:
        """`reweight_pomdp` of `base`, the model this builder made."""
        actions = self._make_actions(ti)
        if tuple(actions) == base.actions:
            return base
        # an unmoved action keeps its shape, but a table that drops the
        # last actions leaves all the others unmoved
        moved = [(a, new, old) for a, (new, old) in enumerate(zip(actions, base.actions))
                 if new != old]
        if len(actions) != len(base.actions) or any(
            self._shape(new) != self._shape(old) for _, new, old in moved
        ):
            return build_pomdp(
                self.flow, self.net, ti,
                horizon=base.horizon, naive=self.naive, inventory=self.inventory,
            )
        detect = [a for a, new, old in moved if new.p_detect != old.p_detect]
        success = {a for a, new, old in moved if new.p_success != old.p_success}
        obs_index = {o: i for i, o in enumerate(base.observations)}
        # (action, own flag set) -> row, made only for the own-flag values
        # some state has: no other row's labels need be in `obs_index`
        obs_rows: dict[tuple[int, bool], tuple[tuple[int, float], ...]] = {}
        obs_probs, transitions = {}, {}
        for s, state in enumerate(base.states):
            for a in detect:
                key = (a, self.own_flags[a] in state.flags)
                if key not in obs_rows:
                    row = self.observation_row(actions[a], key[1])
                    obs_rows[key] = tuple(sorted((obs_index[o], p) for o, p in row.items()))
                obs_probs[(s, a)] = obs_rows[key]
            for a in success.intersection(base.applicable[s]):
                # an offered move with 0 < p < 1 lands on its success state or stays
                p = actions[a].p_success
                succ = next(n for n, _ in base.transitions[(s, a)] if n != s)
                transitions[(s, a)] = tuple(sorted(((succ, p), (s, 1.0 - p))))
        pomdp = replace(
            base,
            actions=tuple(actions),
            transitions={**base.transitions, **transitions} if transitions else base.transitions,
            observation_probs={**base.observation_probs, **obs_probs},
        )
        pomdp.rewards = (
            {**base.rewards, **pomdp.expected_rewards(transitions)} if transitions
            else base.rewards
        )
        pomdp.validate()
        return pomdp


def build_pomdp(
    flow: AttackFlow,
    net: NetworkModel,
    ti: TiTable,
    *,
    horizon: int | None = None,
    naive: bool = False,
    inventory: bool = True,
) -> Pomdp:
    """Construct the attacker POMDP for one flow. By default only states
    reachable from the initial state over candidate targets are enumerated;
    `naive` enumerates the full combination grid and refuses above
    NAIVE_CAP table entries. `horizon` defaults to the flow length + 2.

    By default a state also tracks the compromised inventory; a seeded
    Monte Carlo walk follows this model's rows. With `inventory=False`
    success sets only flags: each state is its own flag set, and the model
    is the one with the default model's states of equal flags merged, up
    to state order. That is the model every run solves."""
    return _Builder(flow, net, ti, naive, inventory).build(horizon)


def reweight_pomdp(base: Pomdp, ti: TiTable) -> Pomdp:
    """The model `build_pomdp` makes of `base`'s flow, network and horizon
    under `ti`, derived from `base`, a model `build_pomdp` made, without
    analysing paths again. The actions are derived again from `ti`; when
    they equal `base`'s, the result is `base` itself. Otherwise one
    structural test decides. An action's shape is its id, rewards and
    cost, whether its p_success is 0, strictly between 0 and 1, or 1, and
    the labels of its two observation rows. If any action's shape moved
    (a countermeasure, `TiTable.with_multiplier`, moves only probabilities,
    but a p_success can reach or leave 0 or 1, and so can a p_detect
    behind an IDS), the model is built afresh. Otherwise the rest is
    `base`'s: its states, `applicable`, branch rewards and observation
    labels are the same objects. Only the offered (s, a) rows of an action
    whose p_success moved, and the observation rows of an action whose
    p_detect moved, are written again; `transitions` and `rewards` are
    `base`'s unless a transition row changed."""
    return base.builder.reweight(base, ti)

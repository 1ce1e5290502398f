"""Attacker model construction from a flow, a network, and threat intel.

States track which inventory items are compromised per node plus milestone
flags; one flag per TTP step marks that step's success, and per-leaf flags
track progress inside a technique's attack tree. Actions are technique
applications bound to concrete targets (or tree leaves bound to targets).

Success adds the target's inventory and the step milestone; failure leaves
the state unchanged. An action whose preconditions do not hold in a state
is a wasted move: a deterministic self-loop that only pays its cost.

One exploration builds the model: each (state, action) pair of the states
reachable from the initial state (or of the full grid, in naive mode) is
evaluated once, then indexed over the sorted states, whose order fixes
every downstream float sum. An observation row depends only on the action
and on whether its own flag (milestone, or leaf flag for a tree leaf) is
set, so each action has at most two, shared by every state. They follow
the path context of the action's target:
  - success/failure (o1/o2) always apply;
  - access-denied (o6) when a Deny rule covers the target, blocked (o3)
    when segmentation governs a hop on the way, rejected (o4) when no
    permitted route exists at all;
  - one of delayed/no-response/error (o5/o7/o8) replaces the crisp outcome
    with probability p_detect when an IDS-class node sits on the path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from ..attack_flow import AttackFlow, TtpNode
from ..attack_tree import AttackTree, TreeLibrary
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


def _leaf_prefix(step: int, target: str) -> str:
    return f"ttp{step}@{target}#"


@dataclass(frozen=True)
class TargetContext:
    """Path-derived facts about one target node."""

    reachable: bool
    ids_on_path: bool
    seg_on_path: bool
    policy_deny: bool


def analyze_targets(net: NetworkModel) -> dict[str, TargetContext]:
    entries = net.entry_points()
    reachable = reachable_targets(net)
    zone_of = net.policies.zone_of
    out: dict[str, TargetContext] = {}
    for target in sorted(net.nodes):
        paths: list[list[str]] = []
        for entry in entries:
            paths.extend(physical_paths(net, entry, target))
        path_nodes = {n for p in paths for n in p}
        ids_on_path = any(net.nodes[n].asset_class in IDS_CLASSES for n in path_nodes)
        seg_on_path = any(
            zone_of(a) is not None and zone_of(b) is not None and zone_of(a) != zone_of(b)
            for p in paths
            for a, b in zip(p, p[1:])
        )
        policy_deny = any(
            r.effect == "Deny" and r.resource.matches_label(target)
            for r in net.policies.rules
        )
        out[target] = TargetContext(
            reachable=target in reachable,
            ids_on_path=ids_on_path,
            seg_on_path=seg_on_path,
            policy_deny=policy_deny,
        )
    return out


def expand_technique(
    ttp: TtpNode,
    trees: TreeLibrary,
    ti: TiTable,
    targets: list[tuple[str, str]],
) -> list[AttackerAction]:
    """Actions realizing one TTP node against the given (node, class) targets.

    With an attack tree, every leaf becomes an action per target (the gate
    structure is evaluated over leaf flags at transition time); otherwise
    each target yields a single action parameterized from threat intel.
    """
    tree = trees.get(ttp.attack_tree_id) if ttp.attack_tree_id else None
    actions: list[AttackerAction] = []
    for target, asset_class in sorted(targets):
        record = ti.lookup(ttp.technique_id, asset_class)
        if record is None:
            continue
        if tree is None:
            actions.append(
                AttackerAction(
                    id=f"s{ttp.step}:{ttp.technique_id}@{target}",
                    technique_id=ttp.technique_id,
                    target=target,
                    kind="tactic-step",
                    p_success=record.p_success_base,
                    p_detect=record.p_detect,
                    reward_success=record.reward_success,
                    penalty_failure=record.penalty_failure,
                    cost=record.action_cost,
                    step=ttp.step,
                )
            )
            continue
        for leaf in tree.leaves():
            def pick(key: str, fallback: float) -> float:
                value = leaf.param(key)
                return fallback if value is None else value

            actions.append(
                AttackerAction(
                    id=f"s{ttp.step}:{ttp.technique_id}@{target}#{leaf.name}",
                    technique_id=ttp.technique_id,
                    target=target,
                    kind="tree-leaf",
                    p_success=pick("p_success", record.p_success_base),
                    p_detect=pick("p_detect", record.p_detect),
                    reward_success=pick("reward_success", record.reward_success),
                    penalty_failure=pick("penalty_failure", record.penalty_failure),
                    cost=pick("cost", record.action_cost),
                    step=ttp.step,
                    leaf_name=leaf.name,
                )
            )
    return actions


class _Builder:
    def __init__(self, flow: AttackFlow, net: NetworkModel, ti: TiTable, naive: bool):
        self.flow = flow
        self.net = net
        self.ti = ti
        self.naive = naive
        self.context = analyze_targets(net)
        self.reachable = {t for t, c in self.context.items() if c.reachable}
        self.milestones = {n.step: milestone_flag(n.step) for n in flow.nodes}
        self.seq_preds: dict[int, list[int]] = {}
        self.or_preds: dict[int, list[int]] = {}
        for node in flow.nodes:
            incoming = flow.predecessors(node.step)
            self.seq_preds[node.step] = sorted(
                e.src for e in incoming if e.relation in ("sequence", "AND")
            )
            self.or_preds[node.step] = sorted(e.src for e in incoming if e.relation == "OR")
        self.trees: dict[int, AttackTree] = {}
        self.actions = self._make_actions()
        # the flag whose presence means the action itself has succeeded
        self.own_flags = [
            leaf_flag(a.step, a.target, a.leaf_name) if a.leaf_name is not None
            else self.milestones[a.step]
            for a in self.actions
        ]

    def _make_actions(self) -> list[AttackerAction]:
        if not self.net.entry_points():
            raise ModelError("network declares no entry_point nodes")
        actions: list[AttackerAction] = []
        for node in self.flow.nodes:
            if not self.naive:
                targets = candidate_targets(self.net, node, self.ti, self.reachable)
            else:
                targets = {
                    nid
                    for nid, asset in self.net.nodes.items()
                    if self.ti.lookup(node.technique_id, asset.asset_class) is not None
                }
            if not targets:
                raise ModelError(
                    f"no candidate targets for TTP step {node.step} "
                    f"({node.technique_id}) in flow {self.flow.id!r}"
                )
            pairs = sorted((t, self.net.nodes[t].asset_class) for t in targets)
            expanded = expand_technique(node, self.flow.trees, self.ti, pairs)
            if not expanded:
                raise ModelError(
                    f"no parameterizable actions for TTP step {node.step} "
                    f"({node.technique_id})"
                )
            if node.attack_tree_id:
                tree = self.flow.trees.get(node.attack_tree_id)
                assert tree is not None
                self.trees[node.step] = tree
            for act in expanded:
                # No permitted route to the target: the attempt cannot land.
                if act.target not in self.reachable and act.p_success > 0.0:
                    act = replace(act, p_success=0.0)
                actions.append(act)
        return actions

    def offered(self, flags: tuple[str, ...], act: AttackerAction, own: str) -> bool:
        milestones = self.milestones
        step = act.step
        if own in flags or milestones[step] in flags:
            return False
        if any(milestones[p] not in flags for p in self.seq_preds[step]):
            return False
        or_preds = self.or_preds[step]
        if or_preds and not any(milestones[p] in flags for p in or_preds):
            return False
        if act.leaf_name is None:
            return True
        # not committed to a different target for this step's tree
        prefix = _leaf_prefix(step, act.target)
        anystep = f"ttp{step}@"
        return not any(f.startswith(anystep) and not f.startswith(prefix) for f in flags)

    def _success_state(self, state: NetworkState, act: AttackerAction) -> NetworkState:
        inventory = set(self.net.nodes[act.target].inventory)
        if act.leaf_name is None:
            return state.with_flags({milestone_flag(act.step)}).with_compromise(
                act.target, inventory
            )
        nxt = state.with_flags({leaf_flag(act.step, act.target, act.leaf_name)})
        prefix = _leaf_prefix(act.step, act.target)
        achieved = {f[len(prefix):] for f in nxt.flags if f.startswith(prefix)}
        if self.trees[act.step].gate_satisfied(achieved):
            nxt = nxt.with_flags({milestone_flag(act.step)}).with_compromise(
                act.target, inventory
            )
        return nxt

    def execute(
        self, state: NetworkState, act: AttackerAction, offered: bool
    ) -> list[tuple[NetworkState, float, float]]:
        """(next state, probability, branch reward) rows; probabilities sum to 1."""
        if not offered:
            return [(state, 1.0, -act.cost)]
        p = act.p_success
        if p <= 0.0:
            return [(state, 1.0, act.penalty_failure - act.cost)]
        succ = self._success_state(state, act)
        if p >= 1.0:
            return [(succ, 1.0, act.reward_success - act.cost)]
        return [
            (succ, p, act.reward_success - act.cost),
            (state, 1.0 - p, act.penalty_failure - act.cost),
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
            if not ctx.reachable:
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

    def _rows(self, state: NetworkState) -> list[tuple[list, bool, bool]]:
        """Per action: its execute rows, whether it is offered in `state`,
        and whether its own flag is set there."""
        flags = state.flags
        rows = []
        for act, own in zip(self.actions, self.own_flags):
            offered = self.offered(flags, act, own)
            rows.append((self.execute(state, act, offered), offered, own in flags))
        return rows

    def _explore(self) -> dict[NetworkState, list[tuple[list, bool, bool]]]:
        """`_rows` of every model state: the naive grid, or the states
        reachable from the initial state."""
        if self.naive:
            return {state: self._rows(state) for state in self._grid_states()}
        explored: dict[NetworkState, list[tuple[list, bool, bool]]] = {}
        frontier = [NetworkState.initial()]
        while frontier:
            state = frontier.pop()
            if state not in explored:
                explored[state] = rows = self._rows(state)
                frontier.extend(nxt for outcomes, _, _ in rows for nxt, _, _ in outcomes)
        return explored

    def _grid_states(self) -> list[NetworkState]:
        flags = sorted(set(self.milestones.values()) | set(self.own_flags))
        node_ids = sorted(self.net.nodes)
        inventory_counts = [len(self.net.nodes[n].inventory) for n in node_ids]
        state_count = 2 ** len(flags)
        for count in inventory_counts:
            state_count *= 2**count
        entries = state_count * state_count * len(self.actions) * len(OBSERVATIONS)
        if entries > NAIVE_CAP:
            raise CapacityError("naive state space above cap", entries)

        per_node_subsets = []
        for node_id in node_ids:
            items = sorted(self.net.nodes[node_id].inventory)
            subsets = []
            for r in range(len(items) + 1):
                subsets.extend(itertools.combinations(items, r))
            per_node_subsets.append([(node_id, s) for s in subsets])
        states = []
        for combo in itertools.product(*per_node_subsets):
            compromised = tuple(sorted((n, s) for n, s in combo if s))
            for r in range(len(flags) + 1):
                for chosen in itertools.combinations(flags, r):
                    states.append(NetworkState(compromised=compromised, flags=chosen))
        return states

    def build(self, horizon: int | None) -> Pomdp:
        explored = self._explore()
        states = sorted(explored)
        index = {s: i for i, s in enumerate(states)}
        initial_idx = index[NetworkState.initial()]

        # An observation row depends only on (action, own flag set); o1 and
        # other labels appear only if some state uses a row carrying them.
        used = {(a, own) for rows in explored.values() for a, (_, _, own) in enumerate(rows)}
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

        transitions: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
        obs_probs: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
        branch_rewards: dict[tuple[int, int, int], float] = {}
        applicable: dict[int, tuple[int, ...]] = {}
        for s_idx, state in enumerate(states):
            offered_here = []
            for a_idx, (outcomes, offered, own) in enumerate(explored[state]):
                # success sets a flag the action needs unset: the outcomes differ
                rows = [(index[nxt], p, r) for nxt, p, r in outcomes]
                transitions[(s_idx, a_idx)] = tuple(sorted((n, p) for n, p, _ in rows))
                for n_idx, _, r in rows:
                    branch_rewards[(s_idx, a_idx, n_idx)] = r
                obs_probs[(s_idx, a_idx)] = indexed[(a_idx, own)]
                if offered:
                    offered_here.append(a_idx)
            applicable[s_idx] = tuple(offered_here)

        belief = [0.0] * len(states)
        belief[initial_idx] = 1.0
        pomdp = Pomdp(
            states=tuple(states),
            actions=tuple(self.actions),
            observations=observations,
            transitions=transitions,
            observation_probs=obs_probs,
            branch_rewards=branch_rewards,
            initial_belief=tuple(belief),
            horizon=horizon or (len(self.flow.nodes) + 2),
            applicable=applicable,
            milestones=dict(self.milestones),
            flow_id=self.flow.id,
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
) -> Pomdp:
    """Construct the attacker POMDP for one flow. By default only states
    reachable from the initial state over candidate targets are enumerated;
    `naive` enumerates the full combination grid and refuses above
    NAIVE_CAP table entries. `horizon` defaults to the flow length + 2."""
    return _Builder(flow, net, ti, naive).build(horizon)

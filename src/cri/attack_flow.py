"""Attack flows: DAGs of TTP nodes describing an adversary's progression.

The JSON form carries an "attackFlow" array of steps (tactic + technique),
an optional "edges" array with sequence/AND/OR relations between steps,
and an optional "attackTrees" array holding per-technique procedure trees
referenced by step via "attackTree". When no edges are declared the steps
are chained in step order with sequence relations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .attack_tree import AttackTree, parse_tree_dict, tree_to_dict
from .canon import canonical_json
from .errors import ParseError, ValidationError

RELATIONS = ("sequence", "AND", "OR")


@dataclass(frozen=True)
class TtpNode:
    """One tactic/technique step; annotations are opaque supporting data."""

    step: int
    tactic_id: str
    tactic_name: str
    technique_id: str
    technique_name: str
    attack_tree_id: str | None = None
    annotations: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class FlowEdge:
    src: int
    dst: int
    relation: str  # sequence | AND | OR


@dataclass
class AttackFlow:
    id: str
    nodes: list[TtpNode]
    edges: list[FlowEdge]
    # attack trees by id; TTP nodes refer to them by `attack_tree_id`
    trees: dict[str, AttackTree] = field(default_factory=dict)

    def predecessors(self, step: int) -> list[FlowEdge]:
        return [e for e in self.edges if e.dst == step]

    def successors(self, step: int) -> list[FlowEdge]:
        return [e for e in self.edges if e.src == step]

    def sinks(self) -> list[int]:
        with_out = {e.src for e in self.edges}
        return [n.step for n in self.nodes if n.step not in with_out]

    def topological_steps(self) -> list[int]:
        """Kahn ordering; raises ValidationError naming a cycle if one exists."""
        indeg = {n.step: 0 for n in self.nodes}
        for e in self.edges:
            indeg[e.dst] += 1
        ready = sorted(s for s, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            step = ready.pop(0)
            order.append(step)
            for e in sorted(self.successors(step), key=lambda e: e.dst):
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    ready.append(e.dst)
            ready.sort()
        if len(order) != len(self.nodes):
            cycle = sorted(s for s, d in indeg.items() if d > 0)
            raise ValidationError(f"attack flow {self.id!r} has a cycle through steps {cycle}")
        return order


def _object(entry: dict, key: str, where: str) -> dict:
    value = entry.get(key) or {}
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: {key!r} must be an object")
    return value


def _require(obj: dict, key: str, where: str) -> str:
    value = obj.get(key)
    if value in (None, ""):
        raise ValidationError(f"{where}: missing {key!r}")
    if not isinstance(value, str):
        raise ValidationError(f"{where}: {key!r} must be a string")
    return value


def _is_step(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_attack_flow(doc: str, flow_id: str | None = None) -> AttackFlow:
    """Parse one attack-flow JSON document into a validated DAG."""
    try:
        data = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid attack-flow JSON: {exc.msg}", exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError("attack-flow JSON nested too deeply") from exc
    if not isinstance(data, dict) or "attackFlow" not in data:
        raise ValidationError("attack-flow document must contain an 'attackFlow' array")
    steps_raw = data["attackFlow"]
    if not isinstance(steps_raw, list) or not steps_raw:
        raise ValidationError("'attackFlow' must be a non-empty array")

    nodes: list[TtpNode] = []
    seen_steps: set[int] = set()
    for i, entry in enumerate(steps_raw):
        where = f"attackFlow[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: not an object")
        step = entry.get("step")
        if not _is_step(step):
            raise ValidationError(f"{where}: 'step' must be an integer")
        if step in seen_steps:
            raise ValidationError(f"{where}: duplicate step {step}")
        seen_steps.add(step)
        tactic = _object(entry, "tactic", where)
        technique = _object(entry, "technique", where)
        tactic_id = _require(tactic, "id", f"{where}.tactic")
        technique_id = _require(technique, "id", f"{where}.technique")
        tree_id = entry.get("attackTree")
        if tree_id is not None and not isinstance(tree_id, str):
            raise ValidationError(f"{where}: 'attackTree' must be a string")
        annotations = []
        for key in ("metadata", "stix", "description"):
            if key in entry:
                annotations.append((key, json.dumps(entry[key], sort_keys=True)))
        nodes.append(
            TtpNode(
                step=step,
                tactic_id=tactic_id,
                tactic_name=str(tactic.get("name", "")),
                technique_id=technique_id,
                technique_name=str(technique.get("name", "")),
                attack_tree_id=tree_id,
                annotations=tuple(annotations),
            )
        )
    nodes.sort(key=lambda n: n.step)

    edges: list[FlowEdge] = []
    if "edges" in data and data["edges"]:
        if not isinstance(data["edges"], list):
            raise ValidationError("'edges' must be an array")
        for i, e in enumerate(data["edges"]):
            where = f"edges[{i}]"
            if not isinstance(e, dict):
                raise ValidationError(f"{where}: not an object")
            src, dst = e.get("from"), e.get("to")
            relation = e.get("relation", "sequence")
            if relation not in RELATIONS:
                raise ValidationError(f"{where}: unknown relation {relation!r}")
            if not (_is_step(src) and _is_step(dst)):
                raise ValidationError(f"{where}: 'from' and 'to' must be integer steps")
            if src not in seen_steps or dst not in seen_steps:
                raise ValidationError(f"{where}: references unknown step {src!r}->{dst!r}")
            if src == dst:
                raise ValidationError(f"{where}: self edge on step {src}")
            edges.append(FlowEdge(src=src, dst=dst, relation=relation))
    else:
        ordered = [n.step for n in nodes]
        edges = [
            FlowEdge(src=a, dst=b, relation="sequence")
            for a, b in zip(ordered, ordered[1:])
        ]

    trees: dict[str, AttackTree] = {}
    raw_trees = data.get("attackTrees") or []
    if not isinstance(raw_trees, list):
        raise ValidationError("'attackTrees' must be an array")
    for raw in raw_trees:
        tree = parse_tree_dict(raw)
        if tree.id in trees:
            raise ValidationError(f"duplicate attack tree id {tree.id!r}")
        trees[tree.id] = tree
    for node in nodes:
        if node.attack_tree_id is not None and node.attack_tree_id not in trees:
            raise ValidationError(
                f"step {node.step} references unknown attack tree {node.attack_tree_id!r}"
            )

    if not isinstance(data.get("id") or "", str):
        raise ValidationError("attack-flow 'id' must be a string")
    flow = AttackFlow(
        id=flow_id or data.get("id") or "flow",
        nodes=nodes,
        edges=edges,
        trees=trees,
    )
    flow.topological_steps()  # rejects cycles
    return flow


def serialize_attack_flow(flow: AttackFlow) -> str:
    """Canonical JSON form; parse(serialize(f)) is structurally equal to f."""
    steps = []
    for node in flow.nodes:
        entry: dict = {
            "step": node.step,
            "tactic": {"id": node.tactic_id, "name": node.tactic_name},
            "technique": {"id": node.technique_id, "name": node.technique_name},
        }
        if node.attack_tree_id is not None:
            entry["attackTree"] = node.attack_tree_id
        for key, raw in node.annotations:
            entry[key] = json.loads(raw)
        steps.append(entry)
    payload: dict = {
        "id": flow.id,
        "attackFlow": steps,
        "edges": [
            {"from": e.src, "to": e.dst, "relation": e.relation}
            for e in sorted(flow.edges, key=lambda e: (e.src, e.dst))
        ],
    }
    if flow.trees:
        payload["attackTrees"] = [tree_to_dict(t) for _, t in sorted(flow.trees.items())]
    return canonical_json(payload)

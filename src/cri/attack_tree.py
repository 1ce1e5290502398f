"""Abstract attack trees: AND/OR gates over atomic attacker actions.

A tree describes one high-level procedure for a technique without binding
it to concrete vulnerabilities. Leaves are action templates; gates say how
leaf outcomes combine (AND = all children, OR = any child).
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import finite_number
from .errors import ValidationError

GATES = ("AND", "OR")

# Deepest gate nesting a tree may have; deeper documents are rejected
# before they can exhaust the interpreter's recursion limit.
MAX_TREE_DEPTH = 64

# Leaf parameters that may override the technique's threat-intel record.
LEAF_PARAM_KEYS = ("p_success", "p_detect", "reward_success", "penalty_failure", "cost")


@dataclass(frozen=True)
class TreeLeaf:
    """Atomic attacker action template at the bottom of a tree."""

    name: str
    params: tuple[tuple[str, float], ...] = ()

    def param(self, key: str, default: float | None = None) -> float | None:
        """The leaf's own value of `key`, which overrides `default`, the
        threat-intel record's."""
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class TreeGate:
    kind: str  # "AND" | "OR"
    children: tuple["TreeGate | TreeLeaf", ...]


@dataclass(frozen=True)
class AttackTree:
    """One procedure for `technique_id`, rooted at an AND/OR gate or a leaf."""

    id: str
    technique_id: str
    root: TreeGate | TreeLeaf

    def leaves(self) -> list[TreeLeaf]:
        """Leaves in depth-first order (stable across runs)."""
        out: list[TreeLeaf] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, TreeLeaf):
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out

    def gate_satisfied(self, achieved: set[str]) -> bool:
        """Evaluate the gate formula given the set of achieved leaf names."""
        return _satisfied(self.root, achieved)


def _satisfied(node: TreeGate | TreeLeaf, achieved: set[str]) -> bool:
    # module level, not a closure over itself: a call leaves no reference cycle
    if isinstance(node, TreeLeaf):
        return node.name in achieved
    test = all if node.kind == "AND" else any
    return test(_satisfied(c, achieved) for c in node.children)


def success_probability(tree: AttackTree, leaf_probability) -> float:
    """Probability the root gate is satisfied when every leaf is attempted
    once, assuming independent leaf outcomes.

    AND combines as the product, OR as 1 - prod(1 - p). `leaf_probability`
    maps a TreeLeaf to its success probability.
    """
    return _probability(tree.root, leaf_probability)


def _probability(node: TreeGate | TreeLeaf, leaf_probability) -> float:
    if isinstance(node, TreeLeaf):
        return float(leaf_probability(node))
    if node.kind == "AND":
        prob = 1.0
        for child in node.children:
            prob *= _probability(child, leaf_probability)
        return prob
    fail = 1.0
    for child in node.children:
        fail *= 1.0 - _probability(child, leaf_probability)
    return 1.0 - fail


def parse_tree_dict(obj: dict) -> AttackTree:
    """Build an AttackTree from its JSON object form."""
    if not isinstance(obj, dict):
        raise ValidationError("attack tree must be a JSON object")
    tree_id = obj.get("id")
    technique_id = obj.get("technique_id")
    if not tree_id or not technique_id:
        raise ValidationError("attack tree requires 'id' and 'technique_id'")
    if not isinstance(tree_id, str) or not isinstance(technique_id, str):
        raise ValidationError("attack tree 'id' and 'technique_id' must be strings")
    if "root" not in obj:
        raise ValidationError(f"attack tree {tree_id!r} has no 'root'")
    root = _parse_node(obj["root"], 1, tree_id, set())
    return AttackTree(id=tree_id, technique_id=technique_id, root=root)


def _parse_node(node, depth: int, tree_id: str, seen_names: set[str]) -> TreeGate | TreeLeaf:
    """The gate or leaf of one node object at `depth`; `seen_names` holds
    the leaf names parsed so far in the tree."""
    if not isinstance(node, dict):
        raise ValidationError(f"attack tree {tree_id!r}: node must be an object")
    if depth > MAX_TREE_DEPTH:
        raise ValidationError(
            f"attack tree {tree_id!r}: nested deeper than {MAX_TREE_DEPTH} levels"
        )
    if "gate" in node:
        kind = node["gate"]
        if kind not in GATES:
            raise ValidationError(f"attack tree {tree_id!r}: unknown gate {kind!r}")
        children = node.get("children") or []
        if not isinstance(children, list) or not children:
            raise ValidationError(
                f"attack tree {tree_id!r}: gate needs a non-empty 'children' array"
            )
        return TreeGate(
            kind, tuple(_parse_node(c, depth + 1, tree_id, seen_names) for c in children)
        )
    name = node.get("name")
    if not name:
        raise ValidationError(f"attack tree {tree_id!r}: leaf without a name")
    if not isinstance(name, str):
        raise ValidationError(f"attack tree {tree_id!r}: leaf name must be a string")
    if name in seen_names:
        raise ValidationError(f"attack tree {tree_id!r}: duplicate leaf name {name!r}")
    seen_names.add(name)
    params = []
    for key in LEAF_PARAM_KEYS:
        if key in node:
            value = finite_number(node[key])
            if value is None:
                raise ValidationError(
                    f"attack tree {tree_id!r}: leaf {name!r} {key}={node[key]!r} "
                    "is not a finite number"
                )
            if key in ("p_success", "p_detect") and not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"attack tree {tree_id!r}: leaf {name!r} {key}={value} outside [0,1]"
                )
            params.append((key, value))
    return TreeLeaf(name, tuple(params))


def tree_to_dict(tree: AttackTree) -> dict:
    return {"id": tree.id, "technique_id": tree.technique_id, "root": _node_dict(tree.root)}


def _node_dict(node: TreeGate | TreeLeaf) -> dict:
    if isinstance(node, TreeLeaf):
        out = {"name": node.name}
        out.update({k: v for k, v in node.params})
        return out
    return {"gate": node.kind, "children": [_node_dict(c) for c in node.children]}

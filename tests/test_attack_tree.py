import gc
import itertools
import json

import pytest

from conftest import SCENARIO
from cri.attack_tree import (
    MAX_TREE_DEPTH,
    AttackTree,
    TreeGate,
    TreeLeaf,
    parse_tree_dict,
    success_probability,
    tree_to_dict,
)
from cri.errors import ValidationError


def _enumerate_or(probs):
    """Oracle: P(any leaf succeeds) by summing over all joint outcomes."""
    total = 0.0
    for outcome in itertools.product([True, False], repeat=len(probs)):
        weight = 1.0
        for hit, p in zip(outcome, probs):
            weight *= p if hit else (1.0 - p)
        if any(outcome):
            total += weight
    return total


def _enumerate_and(probs):
    total = 0.0
    for outcome in itertools.product([True, False], repeat=len(probs)):
        weight = 1.0
        for hit, p in zip(outcome, probs):
            weight *= p if hit else (1.0 - p)
        if all(outcome):
            total += weight
    return total


def _tree(root):
    return AttackTree(id="t", technique_id="T1659", root=root)


def test_or_gate_matches_joint_enumeration():
    leaves = (TreeLeaf("a", (("p_success", 0.3),)), TreeLeaf("b", (("p_success", 0.7),)))
    tree = _tree(TreeGate("OR", leaves))
    got = success_probability(tree, lambda leaf: leaf.param("p_success"))
    assert got == pytest.approx(_enumerate_or([0.3, 0.7]), abs=1e-12)
    assert got == pytest.approx(0.79, abs=1e-12)


def test_and_gate_matches_joint_enumeration():
    leaves = (TreeLeaf("a", (("p_success", 0.3),)), TreeLeaf("b", (("p_success", 0.7),)))
    tree = _tree(TreeGate("AND", leaves))
    got = success_probability(tree, lambda leaf: leaf.param("p_success"))
    assert got == pytest.approx(_enumerate_and([0.3, 0.7]), abs=1e-12)


def test_nested_gates():
    tree = _tree(
        TreeGate(
            "AND",
            (
                TreeLeaf("prep", (("p_success", 0.8),)),
                TreeGate(
                    "OR",
                    (
                        TreeLeaf("x", (("p_success", 0.35),)),
                        TreeLeaf("y", (("p_success", 0.5),)),
                    ),
                ),
            ),
        )
    )
    expected = 0.8 * (1.0 - 0.65 * 0.5)
    got = success_probability(tree, lambda leaf: leaf.param("p_success"))
    assert got == pytest.approx(expected, abs=1e-12)


def test_gate_satisfied_follows_formula():
    tree = _tree(
        TreeGate(
            "AND",
            (TreeLeaf("a"), TreeGate("OR", (TreeLeaf("b"), TreeLeaf("c")))),
        )
    )
    assert not tree.gate_satisfied({"a"})
    assert not tree.gate_satisfied({"b", "c"})
    assert tree.gate_satisfied({"a", "b"})
    assert tree.gate_satisfied({"a", "c"})


def test_parse_round_trip():
    raw = {
        "id": "proc",
        "technique_id": "T1659",
        "root": {
            "gate": "OR",
            "children": [
                {"name": "one", "p_success": 0.4},
                {"gate": "AND", "children": [{"name": "two"}, {"name": "three", "cost": 0.2}]},
            ],
        },
    }
    tree = parse_tree_dict(raw)
    assert [leaf.name for leaf in tree.leaves()] == ["one", "two", "three"]
    assert parse_tree_dict(tree_to_dict(tree)) == tree


@pytest.mark.parametrize(
    "raw",
    [
        {"id": "t", "technique_id": "T1"},  # no root
        {"id": "t", "technique_id": "T1", "root": {"gate": "NAND", "children": [{"name": "x"}]}},
        {"id": "t", "technique_id": "T1", "root": {"gate": "AND", "children": []}},
        {"id": "t", "technique_id": "T1", "root": {"p_success": 0.4}},  # leaf without name
        {"id": "t", "technique_id": "T1", "root": {"name": "x", "p_success": 1.4}},
        {
            "id": "t",
            "technique_id": "T1",
            "root": {"gate": "AND", "children": [{"name": "x"}, {"name": "x"}]},
        },
    ],
)
def test_parse_rejects_malformed(raw):
    with pytest.raises(ValidationError):
        parse_tree_dict(raw)


@pytest.mark.parametrize(
    "leaf",
    [
        {"name": "x", "p_success": "abc"},
        {"name": "x", "p_success": "0.5"},
        {"name": "x", "cost": [1]},
        {"name": "x", "cost": "nan"},
        {"name": "x", "cost": float("nan")},
        {"name": "x", "cost": True},
        {"name": "x", "reward_success": "inf"},
        {"name": "x", "reward_success": float("-inf")},
        {"name": "x", "penalty_failure": 10**400},
        {"name": ["x"]},
    ],
)
def test_parse_rejects_non_finite_or_non_numeric_leaves(leaf):
    with pytest.raises(ValidationError):
        parse_tree_dict({"id": "t", "technique_id": "T1", "root": leaf})


@pytest.mark.parametrize(
    "raw",
    [
        {"id": ["t"], "technique_id": "T1", "root": {"name": "x"}},
        {"id": "t", "technique_id": 1, "root": {"name": "x"}},
        {"id": "t", "technique_id": "T1", "root": {"gate": "OR", "children": 3}},
    ],
)
def test_parse_rejects_mistyped_shapes(raw):
    with pytest.raises(ValidationError):
        parse_tree_dict(raw)


def _nested(depth):
    node = {"name": "x", "cost": 1}
    for _ in range(depth - 1):
        node = {"gate": "AND", "children": [node]}
    return {"id": "t", "technique_id": "T1", "root": node}


def test_nesting_depth_is_bounded():
    tree = parse_tree_dict(_nested(MAX_TREE_DEPTH))
    assert tree.leaves() == [TreeLeaf("x", (("cost", 1.0),))]
    with pytest.raises(ValidationError, match="nested deeper"):
        parse_tree_dict(_nested(MAX_TREE_DEPTH + 1))


def test_parse_and_dict_leave_no_reference_cycles():
    """Parsing the fixture's tree and writing it back leave nothing for
    the cyclic collector: the walks are module-level functions, not
    closures that refer to themselves."""
    flow = json.loads((SCENARIO / "flows" / "dns_injection.json").read_text())
    (raw,) = flow["attackTrees"]
    gc.collect()
    gc.disable()
    try:
        tree = parse_tree_dict(raw)
        found = [gc.collect()]
        tree_to_dict(tree)
        found.append(gc.collect())
    finally:
        gc.enable()
    assert found == [0, 0]

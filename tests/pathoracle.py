"""Path-enumeration oracles for path listing, reachability and per-target
path facts.

`physical_paths` bounds its search by each node's hop distance to the
destination. `simple_paths_by_dfs` is the unbounded depth-first search it
must agree with, list for list; the other oracles here build on it.

`reachable_targets` answers reachability with one bounded breadth-first
search. This module keeps the slow definition it must agree with: list
every simple path from every entry point, keep those whose hops all pass
segmentation, and keep the targets the attacker's access is permitted to.

`analyze_targets` keeps each target's facts on the network it analysed.
`target_facts_by_enumeration` computes them anew on every call,
from the paths and the policies alone.
"""

from cri.netmodel import (
    ATTACKER_ACTION,
    ATTACKER_SUBJECT,
    MAX_PATH_LEN,
    NetworkModel,
    policy_permits,
)
from cri.pomdp.build import IDS_CLASSES, TargetContext


def simple_paths_by_dfs(
    net: NetworkModel, src: str, dst: str, max_len: int = MAX_PATH_LEN
) -> list[list[str]]:
    """All simple paths src->dst with at most max_len edges, in lexicographic
    order, by a depth-first search that extends every simple prefix up to
    max_len hops. src == dst yields the single zero-length path [src]."""
    if src == dst:
        return [[src]]

    paths: list[list[str]] = []
    visited = {src}
    stack = [src]

    def dfs(current: str):
        if len(stack) - 1 >= max_len:
            return
        for nxt in net.neighbours(current):
            if nxt in visited:
                continue
            stack.append(nxt)
            if nxt == dst:
                paths.append(list(stack))
            else:
                visited.add(nxt)
                dfs(nxt)
                visited.discard(nxt)
            stack.pop()

    dfs(src)
    return paths


def logical_paths(
    net: NetworkModel,
    src: str,
    dst: str,
    subject: dict[str, str],
    action: str,
    max_len: int = MAX_PATH_LEN,
) -> list[list[str]]:
    """Physical paths that the policies admit: the destination must be
    permitted for (subject, action) and no hop may cross unpeered zones."""
    physical = simple_paths_by_dfs(net, src, dst, max_len)
    if policy_permits(net.policies, subject, dst, action) != "Permit":
        return []
    return [
        p for p in physical if all(net.policies.hop_allowed(a, b) for a, b in zip(p, p[1:]))
    ]


def reachable_by_enumeration(net: NetworkModel, max_len: int = MAX_PATH_LEN) -> set[str]:
    """Nodes with at least one logical path from some entry point."""
    return {
        target
        for target in net.nodes
        if any(
            logical_paths(net, entry, target, ATTACKER_SUBJECT, ATTACKER_ACTION, max_len)
            for entry in net.entry_points()
        )
    }


def target_facts_by_enumeration(
    net: NetworkModel, target: str, max_len: int = MAX_PATH_LEN
) -> TargetContext:
    """`target`'s path facts over every simple path of at most `max_len`
    hops to it from every entry point: whether an IDS-class node sits on
    one, whether one hop joins nodes of two different zones (peered or
    not), and whether some Deny rule names the target (or any resource)."""
    paths = [
        p for entry in net.entry_points() for p in simple_paths_by_dfs(net, entry, target, max_len)
    ]
    zone = {m: z.label for z in net.policies.segmentation for m in z.members}
    return TargetContext(
        ids_on_path=any(net.nodes[n].asset_class in IDS_CLASSES for p in paths for n in p),
        seg_on_path=any(
            a in zone and b in zone and zone[a] != zone[b] for p in paths for a, b in zip(p, p[1:])
        ),
        policy_deny=any(
            r.effect == "Deny" and r.resource.value in (None, target) for r in net.policies.rules
        ),
    )

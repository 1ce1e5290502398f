"""Path-enumeration oracle for reachability.

`reachable_targets` answers reachability with one bounded breadth-first
search. This module keeps the slow definition it must agree with: list
every simple path from every entry point, keep those whose hops all pass
segmentation, and keep the targets the attacker's access is permitted to.
"""

from cri.netmodel import (
    ATTACKER_ACTION,
    ATTACKER_SUBJECT,
    MAX_PATH_LEN,
    NetworkModel,
    physical_paths,
    policy_permits,
)


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
    physical = physical_paths(net, src, dst, max_len)
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

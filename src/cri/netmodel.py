"""Causal network graph, policy evaluation, and reachability.

The network is an undirected graph of assets; each asset carries an
inventory of software/apps/services. Access rules use first-applicable
semantics with default deny. Segmentation groups nodes into zones and a
hop between two differently-zoned nodes is allowed only when the zones
are peered (unzoned nodes are unrestricted).

A node is reachable when some entry point gets to it in at most
MAX_PATH_LEN hops, each hop allowed by segmentation, and the first
applicable rule permits the attacker's access to it. A shortest route is
a simple path, so one breadth-first search over the hop-allowed edges
answers this without listing paths.

`physical_paths` lists the simple paths of at most MAX_PATH_LEN edges by
a depth-first search that extends a prefix only while its last node's hop
distance to the destination, found by one breadth-first search, fits in
the hops left. No simple path is shorter than that distance, so the bound
drops no path. Both searches read MAX_PATH_LEN when called, not when
defined, so setting the module constant changes the bound of both.

A `NetworkModel` also holds the path facts `analyze_targets` computed on
it, so each network lists a target's paths once.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import ValidationError
from .threat_intel import TiTable

# Subject attributes and action label used when probing attacker
# reachability (as opposed to evaluating an explicit access request).
ATTACKER_SUBJECT: dict[str, str] = {}
ATTACKER_ACTION = "access"

MAX_PATH_LEN = 12


@dataclass(frozen=True)
class AssetNode:
    id: str
    asset_class: str
    inventory: tuple[str, ...] = ()
    attributes: tuple[tuple[str, str], ...] = ()
    entry_point: bool = False


@dataclass(frozen=True)
class Matcher:
    """String-equality matcher on one attribute; None key/value = match all."""

    key: str | None = None
    value: str | None = None

    def matches(self, attrs: dict[str, str]) -> bool:
        if self.value is None:
            return True
        if self.key is None:
            return self.value in attrs.values()
        return attrs.get(self.key) == self.value

    def matches_label(self, label: str) -> bool:
        return self.value is None or self.value == label


@dataclass(frozen=True)
class PolicyRule:
    rule_id: str
    subject: Matcher
    resource: Matcher
    action: Matcher
    effect: str  # Permit | Deny

    def __post_init__(self):
        if self.effect not in ("Permit", "Deny"):
            raise ValidationError(f"rule {self.rule_id!r}: unknown effect {self.effect!r}")


@dataclass(frozen=True)
class Zone:
    label: str
    members: tuple[str, ...]
    peers: tuple[str, ...] = ()


@dataclass
class PolicySet:
    """Ordered access rules plus segmentation zones."""

    rules: list[PolicyRule] = field(default_factory=list)
    segmentation: list[Zone] = field(default_factory=list)

    def __post_init__(self):
        self._zone_of: dict[str, str] = {}
        for zone in self.segmentation:
            for member in zone.members:
                if member in self._zone_of:
                    raise ValidationError(
                        f"node {member!r} assigned to zones "
                        f"{self._zone_of[member]!r} and {zone.label!r}"
                    )
                self._zone_of[member] = zone.label
        self._peers = {z.label: set(z.peers) for z in self.segmentation}

    def zone_of(self, node_id: str) -> str | None:
        return self._zone_of.get(node_id)

    def hop_allowed(self, a: str, b: str) -> bool:
        za, zb = self.zone_of(a), self.zone_of(b)
        if za is None or zb is None or za == zb:
            return True
        return zb in self._peers.get(za, ()) or za in self._peers.get(zb, ())

    @property
    def has_deny_rules(self) -> bool:
        return any(r.effect == "Deny" for r in self.rules)


@dataclass
class NetworkModel:
    nodes: dict[str, AssetNode]
    edges: list[tuple[str, str]]
    policies: PolicySet = field(default_factory=PolicySet)

    def __post_init__(self):
        seen: set[frozenset] = set()
        normalized = []
        for a, b in self.edges:
            if a == b:
                raise ValidationError(f"self-loop edge on node {a!r}")
            if a not in self.nodes or b not in self.nodes:
                raise ValidationError(f"edge ({a!r}, {b!r}) references an unknown node")
            key = frozenset((a, b))
            if key in seen:
                raise ValidationError(f"duplicate edge ({a!r}, {b!r})")
            seen.add(key)
            normalized.append((a, b) if a <= b else (b, a))
        self.edges = sorted(normalized)
        self._adjacency: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            self._adjacency[a].append(b)
            self._adjacency[b].append(a)
        for neighbours in self._adjacency.values():
            neighbours.sort()
        # `analyze_targets`' memo: the policy set it was filled under, and
        # its facts per target node
        self._target_facts: tuple[PolicySet, dict[str, object]] = (self.policies, {})

    def neighbours(self, node_id: str) -> list[str]:
        return self._adjacency[node_id]

    def entry_points(self) -> list[str]:
        return sorted(n.id for n in self.nodes.values() if n.entry_point)


def physical_paths(net: NetworkModel, src: str, dst: str) -> list[list[str]]:
    """All simple paths src->dst with at most MAX_PATH_LEN edges, in
    lexicographic order. src == dst yields the single zero-length path
    [src]. MAX_PATH_LEN is read at each call.

    One breadth-first search from dst gives every node's hop distance to
    it, and the depth-first listing takes a neighbour only when that
    distance fits in the hops left after taking it. A simple path from
    the neighbour that avoids the prefix is a path of the whole graph, so
    it is never shorter than the distance: every prefix skipped has no
    completion, and the list is the one the unbounded search returns."""
    for node_id in (src, dst):
        if node_id not in net.nodes:
            raise LookupError(f"unknown node {node_id!r}")
    if src == dst:
        return [[src]]

    hops = {dst: 0}
    frontier = deque([dst])
    while frontier:
        node = frontier.popleft()
        for nxt in net.neighbours(node):
            if nxt not in hops:
                hops[nxt] = hops[node] + 1
                frontier.append(nxt)
    if src not in hops:
        return []

    paths: list[list[str]] = []
    visited = {src}
    stack = [src]

    def dfs(current: str, left: int):
        # `left` hops remain after `current`
        for nxt in net.neighbours(current):
            if nxt in visited or hops[nxt] >= left:
                continue
            stack.append(nxt)
            if nxt == dst:
                paths.append(list(stack))
            else:
                visited.add(nxt)
                dfs(nxt, left - 1)
                visited.discard(nxt)
            stack.pop()

    try:
        dfs(src, MAX_PATH_LEN)
    finally:
        del dfs  # it refers to itself; drop the cycle with this call
    return paths


def policy_permits(
    policies: PolicySet, subject: dict[str, str], resource: str, action: str
) -> str:
    """First-applicable evaluation: the first rule whose three matchers all
    match decides; no match means Deny."""
    for rule in policies.rules:
        if (
            rule.subject.matches(subject)
            and rule.resource.matches_label(resource)
            and rule.action.matches_label(action)
        ):
            return rule.effect
    return "Deny"


def reachable_targets(net: NetworkModel) -> set[str]:
    """Nodes the attacker can reach: within MAX_PATH_LEN segmentation-allowed
    hops of some entry point (an entry point is at distance 0), and
    permitted for the attacker's access by the first applicable rule.
    MAX_PATH_LEN is read at each call."""
    depth = {entry: 0 for entry in net.entry_points()}
    frontier = deque(depth)
    while frontier:
        node = frontier.popleft()
        if depth[node] >= MAX_PATH_LEN:
            continue
        for nxt in net.neighbours(node):
            if nxt not in depth and net.policies.hop_allowed(node, nxt):
                depth[nxt] = depth[node] + 1
                frontier.append(nxt)
    return {
        node
        for node in depth
        if policy_permits(net.policies, ATTACKER_SUBJECT, node, ATTACKER_ACTION) == "Permit"
    }


def candidate_targets(net: NetworkModel, ttp, ti: TiTable, nodes: Iterable[str]) -> set[str]:
    """Likely targets for one TTP node: those of `nodes` (`reachable_targets`,
    or every node of `net` in a naive build) whose asset class has a
    threat-intel record for the technique, explicit or default."""
    return {
        node_id
        for node_id in nodes
        if ti.lookup(ttp.technique_id, net.nodes[node_id].asset_class) is not None
    }

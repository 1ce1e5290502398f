"""Causal network graph, policy evaluation, and reachability.

The network is an undirected graph of assets; each asset carries an
inventory of software/apps/services. Access rules use first-applicable
semantics with default deny. Segmentation groups nodes into zones and a
hop between two differently-zoned nodes is allowed only when the zones
are peered (unzoned nodes are unrestricted).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .threat_intel import TiTable

# Subject attributes and action label used when probing attacker
# reachability (as opposed to evaluating an explicit access request).
ATTACKER_SUBJECT: dict[str, str] = {}
ATTACKER_ACTION = "access"

DEFAULT_MAX_PATH_LEN = 12


@dataclass(frozen=True)
class AssetNode:
    id: str
    asset_class: str
    inventory: tuple[str, ...] = ()
    attributes: tuple[tuple[str, str], ...] = ()
    entry_point: bool = False

    def attribute(self, key: str) -> str | None:
        for k, v in self.attributes:
            if k == key:
                return v
        return None


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

    def neighbours(self, node_id: str) -> list[str]:
        return self._adjacency[node_id]

    def entry_points(self) -> list[str]:
        return sorted(n.id for n in self.nodes.values() if n.entry_point)


def physical_paths(
    net: NetworkModel, src: str, dst: str, max_len: int = DEFAULT_MAX_PATH_LEN
) -> list[list[str]]:
    """All simple paths src->dst with at most max_len edges, in lexicographic
    order. src == dst yields the single zero-length path [src]."""
    for node_id in (src, dst):
        if node_id not in net.nodes:
            raise LookupError(f"unknown node {node_id!r}")
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")
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


def _segmentation_allows(policies: PolicySet, path: list[str]) -> bool:
    return all(policies.hop_allowed(a, b) for a, b in zip(path, path[1:]))


def logical_paths(
    net: NetworkModel,
    src: str,
    dst: str,
    subject: dict[str, str],
    action: str,
    max_len: int = DEFAULT_MAX_PATH_LEN,
) -> list[list[str]]:
    """Physical paths that the policies admit: the destination must be
    permitted for (subject, action) and no hop may cross unpeered zones."""
    physical = physical_paths(net, src, dst, max_len)
    if policy_permits(net.policies, subject, dst, action) != "Permit":
        return []
    return [p for p in physical if _segmentation_allows(net.policies, p)]


def reachable_targets(
    net: NetworkModel,
    subject: dict[str, str] | None = None,
    action: str = ATTACKER_ACTION,
    max_len: int = DEFAULT_MAX_PATH_LEN,
) -> set[str]:
    """Nodes reachable by at least one logical path from some entry point."""
    subject = ATTACKER_SUBJECT if subject is None else subject
    entries = net.entry_points()
    out: set[str] = set()
    for target in net.nodes:
        for entry in entries:
            if logical_paths(net, entry, target, subject, action, max_len):
                out.add(target)
                break
    return out


def candidate_targets(
    net: NetworkModel,
    ttp,
    ti: TiTable,
    max_len: int = DEFAULT_MAX_PATH_LEN,
    reachable: set[str] | None = None,
) -> set[str]:
    """Likely targets for one TTP node: nodes whose asset class has a
    threat-intel record for the technique (explicit or default), restricted
    to nodes reachable from an entry point along a logical path.

    `reachable` may be passed in to reuse a precomputed reachability set.
    """
    if reachable is None:
        reachable = reachable_targets(net, max_len=max_len)
    return {
        node_id
        for node_id in reachable
        if ti.lookup(ttp.technique_id, net.nodes[node_id].asset_class) is not None
    }

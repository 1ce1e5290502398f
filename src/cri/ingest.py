"""Input parsing: network graph (GraphML), attack flows (JSON), security
policies (XACML subset), and threat-intelligence tables (CSV/JSON).

GraphML subset: undirected graph, one <node> per asset with <data> keys
ip/type/model/inventory/entry_point (inventory is a semicolon-separated
item list), one <edge source target> per connection.

XACML subset: a <Policy> with optional <Target> and ordered <Rule>
elements carrying Permit/Deny effects and string-equal Subject/Resource/
Action matchers. A <Zone> extension element declares segmentation zones
(members + peered zones), since segmentation has no standard XACML form.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from .attack_flow import AttackFlow, parse_attack_flow, serialize_attack_flow
from .canon import sha256_hex
from .errors import CriError, ParseError, ValidationError
from .netmodel import AssetNode, Matcher, NetworkModel, PolicyRule, PolicySet, Zone
from .threat_intel import TiTable, load_threat_intel, serialize_threat_intel

# GraphML <data> keys with dedicated AssetNode fields.
_KEY_TYPE = "type"
_KEY_INVENTORY = "inventory"
_KEY_ENTRY = "entry_point"

_TRUE_WORDS = {"true", "1", "yes"}
_FALSE_WORDS = {"false", "0", "no"}


def read_input(path: str | Path) -> str:
    """One input file as UTF-8 text (universal newlines). A file that cannot
    be read or is not UTF-8 is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc


@dataclass
class RawBundle:
    """The four raw input documents of one scenario."""

    network_doc: str
    flow_docs: list[str]
    policy_docs: list[str] = field(default_factory=list)
    ti_doc: str = ""
    flow_names: list[str] | None = None


@dataclass
class ValidatedInputs:
    network: NetworkModel
    flows: list[AttackFlow]
    ti: TiTable

    def canonical_serialization(self) -> str:
        parts = [serialize_network(self.network), serialize_policy_set(self.network.policies)]
        parts.extend(serialize_attack_flow(f) for f in self.flows)
        parts.append(serialize_threat_intel(self.ti))
        return "\n".join(parts)

    def digest(self) -> str:
        return sha256_hex(self.canonical_serialization())


def _local(tag) -> str:
    """Element tag without its namespace."""
    if not isinstance(tag, str):
        return ""
    return tag.rsplit("}", 1)[-1]


def _parse_xml(doc: str, what: str) -> ET.Element:
    try:
        return ET.fromstring(doc)
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else None
        raise ParseError(f"malformed {what} XML: {exc.msg}", line) from exc


def parse_bool(raw: str, where: str) -> bool:
    word = raw.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValidationError(f"{where}: boolean expected, got {raw!r}")


def parse_network(doc: str) -> NetworkModel:
    """Parse a GraphML document into a NetworkModel (without policies)."""
    root = _parse_xml(doc, "GraphML")
    if _local(root.tag) != "graphml":
        raise ValidationError(f"expected <graphml> root, got <{_local(root.tag)}>")
    graph = next((c for c in root if _local(c.tag) == "graph"), None)
    if graph is None:
        raise ValidationError("<graphml> contains no <graph>")
    if graph.get("edgedefault", "undirected") != "undirected":
        raise ValidationError("only edgedefault=\"undirected\" graphs are supported")

    nodes: dict[str, AssetNode] = {}
    edges: list[tuple[str, str]] = []
    for child in graph:
        tag = _local(child.tag)
        if tag == "node":
            node_id = child.get("id")
            if not node_id:
                raise ValidationError("<node> without id")
            if node_id in nodes:
                raise ValidationError(f"duplicate node id {node_id!r}")
            asset_class = ""
            inventory: tuple[str, ...] = ()
            entry_point = False
            attributes: list[tuple[str, str]] = []
            for data in child:
                if _local(data.tag) != "data":
                    continue
                key = data.get("key") or ""
                value = (data.text or "").strip()
                if key == _KEY_TYPE:
                    asset_class = value
                elif key == _KEY_INVENTORY:
                    items = [part.strip() for part in value.split(";") if part.strip()]
                    inventory = tuple(sorted(set(items)))
                elif key == _KEY_ENTRY:
                    entry_point = parse_bool(value, f"node {node_id!r} entry_point")
                elif key:
                    attributes.append((key, value))
                else:
                    raise ValidationError(f"node {node_id!r}: <data> without key")
            nodes[node_id] = AssetNode(
                id=node_id,
                asset_class=asset_class,
                inventory=inventory,
                attributes=tuple(sorted(attributes)),
                entry_point=entry_point,
            )
        elif tag == "edge":
            src, dst = child.get("source"), child.get("target")
            if not src or not dst:
                raise ValidationError("<edge> without source/target")
            edges.append((src, dst))
    return NetworkModel(nodes=nodes, edges=edges)


def serialize_network(net: NetworkModel) -> str:
    """Canonical GraphML: nodes sorted by id, data keys sorted, edges sorted."""
    lines = ['<graphml xmlns="http://graphml.graphdrawing.org/xmlns">']
    lines.append('  <graph edgedefault="undirected">')
    for node_id in sorted(net.nodes):
        node = net.nodes[node_id]
        lines.append(f'    <node id="{node_id}">')
        data: list[tuple[str, str]] = [(_KEY_TYPE, node.asset_class)]
        if node.inventory:
            data.append((_KEY_INVENTORY, ";".join(node.inventory)))
        data.append((_KEY_ENTRY, "true" if node.entry_point else "false"))
        data.extend(node.attributes)
        for key, value in sorted(data):
            lines.append(f'      <data key="{key}">{value}</data>')
        lines.append("    </node>")
    for a, b in net.edges:
        lines.append(f'    <edge source="{a}" target="{b}"/>')
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def _attribute_value(elem: ET.Element) -> str:
    """Value of an <AttributeValue>: its text, or (tolerating the inline
    attribute form some policy exports use) its first non-DataType attribute
    name."""
    text = (elem.text or "").strip()
    if text:
        return text
    for key in elem.attrib:
        if _local(key) not in ("DataType",):
            return _local(key)
    raise ValidationError("<AttributeValue> carries no value")


def _matcher_key(attribute_id: str, category: str) -> str:
    """Derive the matcher attribute key from an AttributeId URN: take the
    final colon segment and strip repeated category prefixes, e.g.
    urn:...:subject-subject-role -> role."""
    segment = attribute_id.rsplit(":", 1)[-1]
    prefix = category.lower() + "-"
    while segment.lower().startswith(prefix):
        segment = segment[len(prefix):]
    return segment or "id"


def _parse_match(section: ET.Element, category: str) -> Matcher:
    """Parse <Subject>/<Resource>/<Action> into a Matcher. Any*/empty
    sections match everything."""
    match_elem = None
    for child in section.iter():
        if _local(child.tag) == f"{category}Match":
            match_elem = child
            break
    if match_elem is None:
        return Matcher()
    value = None
    key = "id"
    for child in match_elem.iter():
        tag = _local(child.tag)
        if tag == "AttributeValue" and value is None:
            value = _attribute_value(child)
        elif tag == f"{category}AttributeDesignator":
            attribute_id = child.get("AttributeID") or child.get("AttributeId") or ""
            if attribute_id:
                key = _matcher_key(attribute_id, category)
    if value is None:
        raise ValidationError(f"<{category}Match> without an <AttributeValue>")
    if category == "Subject":
        return Matcher(key=key, value=value)
    # Resource and Action matchers compare against the request's resource
    # node id / action label directly.
    return Matcher(key=None, value=value)


def _parse_target(target: ET.Element | None) -> dict[str, Matcher]:
    out = {"Subject": Matcher(), "Resource": Matcher(), "Action": Matcher()}
    if target is None:
        return out
    for child in target:
        tag = _local(child.tag)
        if tag in out:
            out[tag] = _parse_match(child, tag)
    return out


def parse_policy_set(docs: list[str]) -> PolicySet:
    """Parse XACML-subset policy documents, preserving rule document order.

    A policy may hold one policy-level <Target>, wherever it stands among
    its rules, and a rule one <Target> of its own; each rule takes from the
    policy's target every matcher its own target leaves open. An empty
    docs list yields an empty PolicySet (default deny downstream).
    """
    rules: list[PolicyRule] = []
    zones: list[Zone] = []
    for index, doc in enumerate(docs):
        root = _parse_xml(doc, "policy")
        if _local(root.tag) != "Policy":
            raise ValidationError(f"policy document {index}: expected <Policy> root")
        targets = [c for c in root if _local(c.tag) == "Target"]
        if len(targets) > 1:
            raise ValidationError(
                f"policy document {index}: more than one policy-level <Target>"
            )
        inherited = _parse_target(targets[0] if targets else None)
        doc_rules: list[PolicyRule] = []
        doc_zones: list[Zone] = []
        for child in root:
            tag = _local(child.tag)
            if tag == "Rule":
                effect = child.get("Effect") or ""
                if effect not in ("Permit", "Deny"):
                    raise ValidationError(
                        f"policy document {index}: unknown Effect {effect!r}"
                    )
                rule_id = child.get("RuleID") or child.get("RuleId") or f"rule-{index}-{len(doc_rules)}"
                rule_targets = [c for c in child if _local(c.tag) == "Target"]
                if len(rule_targets) > 1:
                    raise ValidationError(
                        f"policy document {index}: rule {rule_id!r} has more than one <Target>"
                    )
                matchers = _parse_target(rule_targets[0] if rule_targets else None)
                for cat in matchers:
                    if matchers[cat].value is None and inherited[cat].value is not None:
                        matchers[cat] = inherited[cat]
                doc_rules.append(
                    PolicyRule(
                        rule_id=rule_id,
                        subject=matchers["Subject"],
                        resource=matchers["Resource"],
                        action=matchers["Action"],
                        effect=effect,
                    )
                )
            elif tag == "Zone":
                label = child.get("ZoneId") or child.get("id")
                if not label:
                    raise ValidationError(f"policy document {index}: <Zone> without ZoneId")
                members = tuple(
                    (m.text or "").strip()
                    for m in child
                    if _local(m.tag) == "Member" and (m.text or "").strip()
                )
                peers = tuple(
                    (p.text or "").strip()
                    for p in child
                    if _local(p.tag) == "Peer" and (p.text or "").strip()
                )
                if not members:
                    raise ValidationError(
                        f"policy document {index}: zone {label!r} has no members"
                    )
                doc_zones.append(Zone(label=label, members=members, peers=peers))
        if not doc_rules and not doc_zones:
            raise ValidationError(f"policy document {index}: empty Policy")
        rules.extend(doc_rules)
        zones.extend(doc_zones)
    return PolicySet(rules=rules, segmentation=zones)


def serialize_policy_set(policies: PolicySet) -> str:
    """Canonical single-document XACML-subset form."""
    lines = ['<Policy PolicyId="combined">']
    for rule in policies.rules:
        lines.append(f'  <Rule RuleID="{rule.rule_id}" Effect="{rule.effect}">')
        lines.append("    <Target>")
        for tag, matcher, attribute_id in (
            ("Subject", rule.subject, f"urn:cri:subject-{rule.subject.key}"),
            ("Resource", rule.resource, "urn:cri:resource-id"),
            ("Action", rule.action, "urn:cri:action-id"),
        ):
            if matcher.value is None:
                lines.append(f"      <{tag}><Any{tag}/></{tag}>")
                continue
            lines += [
                f"      <{tag}>",
                f'        <{tag}Match MatchID="urn:cri:function:string-equal">',
                f"          <AttributeValue>{matcher.value}</AttributeValue>",
                f'          <{tag}AttributeDesignator AttributeID="{attribute_id}"/>',
                f"        </{tag}Match>",
                f"      </{tag}>",
            ]
        lines.append("    </Target>")
        lines.append("  </Rule>")
    for zone in policies.segmentation:
        lines.append(f'  <Zone ZoneId="{zone.label}">')
        for member in zone.members:
            lines.append(f"    <Member>{member}</Member>")
        for peer in zone.peers:
            lines.append(f"    <Peer>{peer}</Peer>")
        lines.append("  </Zone>")
    lines.append("</Policy>")
    return "\n".join(lines) + "\n"


def validate_bundle(bundle: RawBundle, allow_ti_defaults: bool = False) -> ValidatedInputs:
    """Run all four parsers and cross-checks; aggregate every error rather
    than failing fast. Raises ValidationError with the combined message."""
    errors: list[str] = []
    network = None
    flows: list[AttackFlow] = []
    ti: TiTable | None = TiTable([], allow_defaults=allow_ti_defaults)

    if not bundle.network_doc.strip():
        errors.append("network document is empty")
    else:
        try:
            network = parse_network(bundle.network_doc)
        except CriError as exc:
            errors.append(f"network: {exc}")

    if not bundle.flow_docs:
        errors.append("no attack flows")
    names = bundle.flow_names or [f"flow-{i + 1}" for i in range(len(bundle.flow_docs))]
    for name, doc in zip(names, bundle.flow_docs):
        try:
            flows.append(parse_attack_flow(doc, flow_id=name))
        except CriError as exc:
            errors.append(f"flow {name}: {exc}")

    policies = PolicySet()
    try:
        policies = parse_policy_set(bundle.policy_docs)
    except CriError as exc:
        errors.append(f"policies: {exc}")

    if bundle.ti_doc.strip():
        try:
            ti = load_threat_intel(bundle.ti_doc, allow_defaults=allow_ti_defaults)
        except CriError as exc:
            errors.append(f"threat intel: {exc}")
            ti = None  # no coverage check of a table that did not parse

    if network is not None and not network.entry_points():
        errors.append("network declares no entry_point nodes")

    if ti is not None and not allow_ti_defaults:
        for flow in flows:
            for node in flow.nodes:
                if not ti.has_technique(node.technique_id):
                    errors.append(
                        f"flow {flow.id}: technique {node.technique_id} has no "
                        "threat-intel record and defaults are disabled"
                    )

    if errors:
        raise ValidationError("; ".join(errors))

    assert network is not None and ti is not None
    network.policies = policies
    return ValidatedInputs(network=network, flows=flows, ti=ti)

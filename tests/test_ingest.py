import json

import pytest

from conftest import MALFORMED, SCENARIO, load_scenario
from cri.attack_flow import parse_attack_flow, serialize_attack_flow
from cri.errors import ParseError, ValidationError
from cri.ingest import (
    RawBundle,
    parse_network,
    parse_policy_set,
    serialize_network,
    serialize_policy_set,
    validate_bundle,
)
from cri.netmodel import policy_permits

THREE_DEVICE_DOC = """
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <graph edgedefault="undirected">
    <node id="router1">
      <data key="ip">192.168.1.1</data>
      <data key="type">router</data>
      <data key="model">Cisco 2901</data>
    </node>
    <node id="switch1">
      <data key="ip">192.168.1.2</data>
      <data key="type">switch</data>
      <data key="model">Cisco 2960</data>
    </node>
    <node id="firewall1">
      <data key="ip">192.168.1.3</data>
      <data key="type">firewall</data>
      <data key="model">Fortinet FortiGate 60E</data>
    </node>
    <edge source="router1" target="switch1"/>
    <edge source="switch1" target="firewall1"/>
  </graph>
</graphml>
"""

TWO_STEP_FLOW = json.dumps(
    {
        "attackFlow": [
            {
                "step": 1,
                "tactic": {"id": "TA0001", "name": "Initial Access"},
                "technique": {"id": "T1078", "name": "Valid Accounts"},
                "metadata": {"severity": "High"},
            },
            {
                "step": 2,
                "tactic": {"id": "TA0002", "name": "Execution"},
                "technique": {"id": "T1059", "name": "Command and Scripting Interpreter"},
            },
        ]
    }
)

REMOTE_EMPLOYEE_POLICY = """
<Policy PolicyId="file-server-access">
  <Description>Remote employees may write to the file server.</Description>
  <Target/>
  <Rule RuleID="RemoteEmployeeAccessRule" Effect="Permit">
    <Target>
      <Subject>
        <SubjectMatch MatchID="urn:oasis:names:tc:xacml:1.0:function:string-equal">
          <AttributeValue>remote_employee</AttributeValue>
          <SubjectAttributeDesignator AttributeID="urn:oasis:names:tc:xacml:1.0:subject-subject-role"/>
        </SubjectMatch>
      </Subject>
      <Resource>
        <ResourceMatch MatchID="urn:oasis:names:tc:xacml:1.0:function:string-equal">
          <AttributeValue>file_server</AttributeValue>
          <ResourceAttributeDesignator AttributeID="urn:oasis:names:tc:xacml:1.0:resource-resource-id"/>
        </ResourceMatch>
      </Resource>
      <Action>
        <ActionMatch MatchID="urn:oasis:names:tc:xacml:1.0:function:string-equal">
          <AttributeValue>write</AttributeValue>
          <ActionAttributeDesignator AttributeID="urn:oasis:names:tc:xacml:1.0:action-action-id"/>
        </ActionMatch>
      </Action>
    </Target>
  </Rule>
</Policy>
"""


class TestParseNetwork:
    def test_three_device_document(self):
        net = parse_network(THREE_DEVICE_DOC)
        assert set(net.nodes) == {"router1", "switch1", "firewall1"}
        assert set(net.edges) == {("router1", "switch1"), ("firewall1", "switch1")}
        assert net.nodes["router1"].asset_class == "router"
        assert dict(net.nodes["router1"].attributes)["ip"] == "192.168.1.1"

    def test_minimal_graph(self):
        net = parse_network(
            '<graphml><graph edgedefault="undirected">'
            '<node id="only"><data key="type">server</data></node>'
            "</graph></graphml>"
        )
        assert len(net.nodes) == 1 and len(net.edges) == 0

    def test_sparse_edge_list_variant(self):
        # same 12 assets as the main scenario but without the two bridging
        # links, leaving the perimeter and core segments disconnected
        doc = (SCENARIO / "network_sparse_edges.graphml").read_text()
        net = parse_network(doc)
        assert len(net.nodes) == 12
        assert len(net.edges) == 9

    def test_inventory_split_on_semicolons(self):
        net = parse_network((SCENARIO / "network.graphml").read_text())
        assert net.nodes["FileServer"].inventory == (
            "backup_agent", "linux", "nfs_service", "smb_service",
        )
        assert net.nodes["PeriFw"].entry_point is True
        assert net.nodes["IDS"].entry_point is False

    def test_malformed_xml_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_network((MALFORMED / "bad_xml.graphml").read_text())
        assert err.value.line is not None

    @pytest.mark.parametrize(
        "name", ["dup_node.graphml", "unknown_edge.graphml", "self_loop.graphml", "dup_edge.graphml"]
    )
    def test_structural_errors(self, name):
        with pytest.raises(ValidationError):
            parse_network((MALFORMED / name).read_text())

    def test_round_trip_is_isomorphic(self):
        for doc in (
            THREE_DEVICE_DOC,
            (SCENARIO / "network.graphml").read_text(),
            (SCENARIO / "network_sparse_edges.graphml").read_text(),
        ):
            first = parse_network(doc)
            again = parse_network(serialize_network(first))
            assert set(again.nodes) == set(first.nodes)
            assert again.edges == first.edges
            assert again.nodes == first.nodes
            assert serialize_network(again) == serialize_network(first)


class TestParseAttackFlow:
    def test_two_step_flow(self):
        flow = parse_attack_flow(TWO_STEP_FLOW)
        assert [(n.tactic_id, n.technique_id) for n in flow.nodes] == [
            ("TA0001", "T1078"),
            ("TA0002", "T1059"),
        ]
        assert len(flow.edges) == 1
        assert flow.edges[0].relation == "sequence"
        assert (flow.edges[0].src, flow.edges[0].dst) == (1, 2)

    def test_duplicate_tree_id_rejected(self):
        doc = (MALFORMED / "dup_tree_id.json").read_text()
        with pytest.raises(ValidationError, match="duplicate attack tree id 't'"):
            parse_attack_flow(doc)

    def test_singleton_flow(self):
        flow = parse_attack_flow(
            '{"attackFlow": [{"step": 1, "tactic": {"id": "TA0001"},'
            ' "technique": {"id": "T1078"}}]}'
        )
        assert len(flow.nodes) == 1 and len(flow.edges) == 0

    def test_declared_or_fanout(self):
        doc = json.dumps(
            {
                "attackFlow": [
                    {"step": i, "tactic": {"id": "TA0001"}, "technique": {"id": f"T{i}"}}
                    for i in (1, 2, 3)
                ],
                "edges": [
                    {"from": 1, "to": 2, "relation": "OR"},
                    {"from": 1, "to": 3, "relation": "OR"},
                ],
            }
        )
        flow = parse_attack_flow(doc)
        assert {(e.src, e.dst, e.relation) for e in flow.edges} == {
            (1, 2, "OR"),
            (1, 3, "OR"),
        }

    def test_accepted_flows_are_acyclic(self, rng):
        # random DAG edges (src < dst) must always parse and topo-sort
        for _ in range(25):
            n = rng.randint(2, 6)
            steps = list(range(1, n + 1))
            edges = [
                {"from": a, "to": b, "relation": rng.choice(["sequence", "AND", "OR"])}
                for a in steps
                for b in steps
                if a < b and rng.random() < 0.4
            ]
            doc = json.dumps(
                {
                    "attackFlow": [
                        {"step": s, "tactic": {"id": "TA1"}, "technique": {"id": f"T{s}"}}
                        for s in steps
                    ],
                    "edges": edges,
                }
            )
            flow = parse_attack_flow(doc)
            order = flow.topological_steps()
            position = {s: i for i, s in enumerate(order)}
            assert all(position[e.src] < position[e.dst] for e in flow.edges)

    @pytest.mark.parametrize(
        "name",
        [
            "missing_technique.json", "cycle.json", "bad_relation.json", "dup_step.json",
            "bool_step.json", "string_tactic.json", "int_edges.json", "list_edge_step.json",
            "nan_leaf_cost.json",
        ],
    )
    def test_rejects_malformed(self, name):
        with pytest.raises(ValidationError):
            parse_attack_flow((MALFORMED / name).read_text())

    @pytest.mark.parametrize(
        "change",
        [
            lambda doc: doc["attackFlow"][1].update(technique="T1059"),
            lambda doc: doc["attackFlow"][0]["tactic"].update(id=["TA0001"]),
            lambda doc: doc["attackFlow"][0]["technique"].update(id=1078),
            lambda doc: doc["attackFlow"][0].update(attackTree=["t"]),
            lambda doc: doc.update(attackTrees={"id": "t"}),
            lambda doc: doc.update(edges=[{"from": 1, "to": True}]),
            lambda doc: doc.update(id=["f"]),
        ],
    )
    def test_rejects_mistyped_shapes(self, change):
        doc = json.loads(TWO_STEP_FLOW)
        change(doc)
        with pytest.raises(ValidationError):
            parse_attack_flow(json.dumps(doc))

    def test_rejects_bad_json(self):
        with pytest.raises(ParseError):
            parse_attack_flow((MALFORMED / "bad_json.json").read_text())

    def test_too_deep_json_is_a_parse_error(self):
        depth = 600
        tree = '{"gate": "AND", "children": [' * depth + '{"name": "x"}' + "]}" * depth
        doc = json.loads(TWO_STEP_FLOW)
        doc["attackTrees"] = ["TREE"]
        text = json.dumps(doc).replace(
            '"TREE"', '{"id": "t", "technique_id": "T1078", "root": ' + tree + "}"
        )
        with pytest.raises(ParseError):
            parse_attack_flow(text)

    def test_round_trip(self):
        for doc in (
            TWO_STEP_FLOW,
            (SCENARIO / "flows/credential_chain.json").read_text(),
            (SCENARIO / "flows/dns_injection.json").read_text(),
        ):
            flow = parse_attack_flow(doc, flow_id="f")
            again = parse_attack_flow(serialize_attack_flow(flow), flow_id="f")
            assert again.nodes == flow.nodes
            assert again.edges == flow.edges
            assert serialize_attack_flow(again) == serialize_attack_flow(flow)


class TestParsePolicySet:
    def test_remote_employee_rule(self):
        policies = parse_policy_set([REMOTE_EMPLOYEE_POLICY])
        assert len(policies.rules) == 1
        rule = policies.rules[0]
        assert rule.effect == "Permit"
        assert (rule.subject.key, rule.subject.value) == ("role", "remote_employee")
        assert rule.resource.value == "file_server"
        assert rule.action.value == "write"
        decision = policy_permits(
            policies, {"role": "remote_employee"}, "file_server", "write"
        )
        assert decision == "Permit"

    def test_inline_attribute_value_form(self):
        # tolerate the export style where the value rides as an attribute name
        doc = REMOTE_EMPLOYEE_POLICY.replace(
            "<AttributeValue>remote_employee</AttributeValue>",
            '<AttributeValue DataType="http://www.w3.org/2001/XMLSchema-instance"'
            ' remote_employee="/Attribute/Value"></AttributeValue>',
        )
        policies = parse_policy_set([doc])
        assert policies.rules[0].subject.value == "remote_employee"

    def test_empty_docs_list(self):
        policies = parse_policy_set([])
        assert policies.rules == [] and policies.segmentation == []

    def test_document_order_preserved(self):
        deny = REMOTE_EMPLOYEE_POLICY.replace('Effect="Permit"', 'Effect="Deny"').replace(
            "RemoteEmployeeAccessRule", "DenyRule"
        )
        policies = parse_policy_set([deny, REMOTE_EMPLOYEE_POLICY])
        assert [r.effect for r in policies.rules] == ["Deny", "Permit"]

    POLICY_TARGET = """<Target><Resource><ResourceMatch MatchID="string-equal">
        <AttributeValue>db</AttributeValue>
        <ResourceAttributeDesignator AttributeID="urn:cri:resource-id"/>
      </ResourceMatch></Resource></Target>"""
    DENY_RULE = '<Rule RuleID="deny" Effect="Deny"/>'

    def test_policy_target_applies_wherever_it_stands(self):
        first = f"<Policy>{self.POLICY_TARGET}{self.DENY_RULE}</Policy>"
        last = f"<Policy>{self.DENY_RULE}{self.POLICY_TARGET}</Policy>"
        rules = parse_policy_set([first]).rules
        assert [(r.effect, r.resource.value) for r in rules] == [("Deny", "db")]
        assert parse_policy_set([last]).rules == rules

    def test_zones_parsed(self):
        policies = parse_policy_set([(SCENARIO / "policies/segmentation.xml").read_text()])
        zones = {z.label: z for z in policies.segmentation}
        assert zones["server_pool"].members == ("MailServer", "WebServer", "FileServer")
        assert zones["server_pool"].peers == ("transit",)

    def test_second_policy_target_rejected(self):
        # the same document with one policy-level <Target> parses
        doc = (MALFORMED / "two_policy_targets.xml").read_text()
        with pytest.raises(ValidationError, match="more than one policy-level <Target>"):
            parse_policy_set([doc])
        assert len(parse_policy_set([doc.replace("  <Target/>\n</Policy>", "</Policy>")]).rules) == 1

    def test_second_rule_target_rejected(self):
        # a second rule-level <Target> was ignored: the rule denied every node
        doc = (MALFORMED / "two_rule_targets.xml").read_text()
        with pytest.raises(ValidationError, match="policy document 0: rule 'r' has more than one"):
            parse_policy_set([doc])
        rules = parse_policy_set([doc.replace("<Target/>", "")]).rules
        assert [(r.effect, r.resource.value) for r in rules] == [("Deny", "db")]

    @pytest.mark.parametrize("name", ["bad_effect.xml", "empty_policy.xml", "bad_zone.xml"])
    def test_rejects_malformed(self, name):
        with pytest.raises(ValidationError):
            parse_policy_set([(MALFORMED / name).read_text()])

    def test_round_trip(self):
        docs = [
            (SCENARIO / "policies/access.xml").read_text(),
            (SCENARIO / "policies/segmentation.xml").read_text(),
        ]
        policies = parse_policy_set(docs)
        again = parse_policy_set([serialize_policy_set(policies)])
        assert again.rules == policies.rules
        assert again.segmentation == policies.segmentation
        assert serialize_policy_set(again) == serialize_policy_set(policies)


class TestValidateBundle:
    def test_reference_scenario(self, scenario):
        assert len(scenario.network.nodes) == 12
        assert len(scenario.flows) == 2
        assert scenario.network.policies.rules
        assert scenario.ti.records

    def test_missing_flows_reported(self):
        bundle = RawBundle(network_doc=THREE_DEVICE_DOC, flow_docs=[])
        with pytest.raises(ValidationError, match="no attack flows"):
            validate_bundle(bundle)

    def test_unknown_technique_named(self):
        bundle = RawBundle(
            network_doc=(SCENARIO / "network.graphml").read_text(),
            flow_docs=[TWO_STEP_FLOW],
            policy_docs=[(SCENARIO / "policies/access.xml").read_text()],
            ti_doc="",
        )
        # an empty threat-intel document is still checked for the techniques
        with pytest.raises(ValidationError, match="technique T1078 has no threat-intel record"):
            validate_bundle(bundle)

    def test_errors_aggregate_instead_of_failing_fast(self):
        bundle = RawBundle(
            network_doc=(MALFORMED / "dup_node.graphml").read_text(),
            flow_docs=[(MALFORMED / "cycle.json").read_text()],
            policy_docs=[(MALFORMED / "bad_effect.xml").read_text()],
            ti_doc=(MALFORMED / "bad_prob.csv").read_text(),
        )
        with pytest.raises(ValidationError) as err:
            validate_bundle(bundle)
        message = str(err.value)
        assert "network:" in message
        assert "flow" in message
        assert "policies:" in message
        assert "threat intel:" in message

    def test_deterministic_canonical_serialization(self):
        first = load_scenario()
        second = load_scenario()
        assert first.canonical_serialization() == second.canonical_serialization()
        assert first.digest() == second.digest()

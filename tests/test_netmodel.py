import random
import sys

import pytest

import cri.netmodel
from conftest import REPO_ROOT, load_scenario
from cri.attack_flow import TtpNode
from cri.ingest import RawBundle, validate_bundle
from cri.netmodel import (
    AssetNode,
    Matcher,
    NetworkModel,
    PolicyRule,
    PolicySet,
    Zone,
    candidate_targets,
    physical_paths,
    policy_permits,
    reachable_targets,
)
from cri.pomdp import analyze_targets
from cri.pomdp.build import TargetContext
from cri.threat_intel import TiRecord, TiTable
from pathoracle import (
    logical_paths,
    reachable_by_enumeration,
    simple_paths_by_dfs,
    target_facts_by_enumeration,
)

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import meshgen  # noqa: E402


def _net(node_ids, edges, policies=None, classes=None, entries=()):
    nodes = {
        n: AssetNode(
            id=n,
            asset_class=(classes or {}).get(n, "endpoint"),
            inventory=("os",),
            entry_point=n in entries,
        )
        for n in node_ids
    }
    return NetworkModel(nodes=nodes, edges=edges, policies=policies or PolicySet())


PERMIT_ALL = PolicyRule("allow", Matcher(), Matcher(), Matcher(), "Permit")


def _ttp(technique="T1566"):
    return TtpNode(step=1, tactic_id="TA0001", tactic_name="", technique_id=technique, technique_name="")


@pytest.fixture
def max_path_len(monkeypatch):
    """Sets `cri.netmodel.MAX_PATH_LEN`, the bound both searches read when
    called, until the test ends."""
    return lambda n: monkeypatch.setattr(cri.netmodel, "MAX_PATH_LEN", n)


class TestPhysicalPaths:
    def test_reference_route_to_file_server(self, scenario):
        paths = physical_paths(scenario.network, "IntRouter", "FileServer")
        assert ["IntRouter", "DMZRouter", "IDS", "FileServer"] in paths

    def test_src_equals_dst(self, scenario, max_path_len):
        max_path_len(5)
        assert physical_paths(scenario.network, "IDS", "IDS") == [["IDS"]]

    def test_disconnected_pair(self, max_path_len):
        max_path_len(5)
        net = _net(["a", "b", "c"], [("a", "b")])
        assert physical_paths(net, "a", "c") == []

    def test_max_len_bounds_paths(self, max_path_len):
        net = _net(["a", "b", "c"], [("a", "b"), ("b", "c")])
        max_path_len(1)
        assert physical_paths(net, "a", "c") == []
        max_path_len(2)
        assert physical_paths(net, "a", "c") == [["a", "b", "c"]]

    def test_unknown_node_raises(self, scenario, max_path_len):
        max_path_len(5)
        with pytest.raises(LookupError):
            physical_paths(scenario.network, "ghost", "IDS")

    def test_paths_are_simple(self, max_path_len):
        # diamond with a cycle: enumeration must not revisit nodes
        max_path_len(6)
        net = _net(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("b", "c")])
        for path in physical_paths(net, "a", "d"):
            assert len(path) == len(set(path))

    def test_matches_oracle_on_random_graphs(self, max_path_len):
        # every ordered pair, in order and list for list: the hop bound
        # drops no path and reorders none
        rng = random.Random(23)
        nets = [_random_net(rng) for _ in range(300)]
        for max_len in range(1, 10):
            max_path_len(max_len)
            for net in nets:
                for src in net.nodes:
                    for dst in net.nodes:
                        assert physical_paths(net, src, dst) == simple_paths_by_dfs(
                            net, src, dst, max_len
                        )

    @pytest.mark.parametrize("seed,sizes", [
        (meshgen.DEFAULT_SEED, {}),
        (1, {"nodes": 14, "chords": 8}),
        (2, {"nodes": 14, "chords": 8}),
        (3, {"nodes": 14, "chords": 8}),
    ])
    def test_matches_oracle_on_meshes(self, seed, sizes, max_path_len):
        net = _mesh(seed, **sizes)
        for max_len in range(1, 13):
            max_path_len(max_len)
            for entry in net.entry_points():
                for dst in net.nodes:
                    assert physical_paths(net, entry, dst) == simple_paths_by_dfs(
                        net, entry, dst, max_len
                    )

    @pytest.mark.parametrize("src,dst,max_len", [
        ("a", "x", 5),  # another component
        ("a", "e", 2),  # three hops away
        ("a", "e", 3),  # the route over the chord fits, the chain does not
        ("c", "c", 1),
        ("a", "d", 12),
    ])
    def test_matches_oracle_on_edge_cases(self, src, dst, max_len, max_path_len):
        # a chain a-b-c-d-e with a chord b-d, and an edge x-y apart from it
        net = _net(
            ["a", "b", "c", "d", "e", "x", "y"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("b", "d"), ("x", "y")],
        )
        max_path_len(max_len)
        assert physical_paths(net, src, dst) == simple_paths_by_dfs(net, src, dst, max_len)

    def test_cluster_past_the_hop_bound_is_not_searched(self, max_path_len):
        # s-a-b-t is the one path; a 6-clique hangs off s, 4 hops from t.
        # The unbounded search reads neighbours 159 times, walking the
        # clique's prefixes to 4 hops. The bounded one reads them 13 times:
        # once per node in its breadth-first search from t, then at s, a, b.
        clique = [f"c{i}" for i in range(6)]
        edges = [("a", "s"), ("a", "b"), ("b", "t")]
        edges += [(c, "s") for c in clique]
        edges += [(c, d) for i, c in enumerate(clique) for d in clique[i + 1:]]
        net = _net(["s", "a", "b", "t", *clique], edges)
        adjacency = net.neighbours
        reads = []

        def counting(node_id):
            reads.append(node_id)
            return adjacency(node_id)

        net.neighbours = counting
        assert simple_paths_by_dfs(net, "s", "t", 4) == [["s", "a", "b", "t"]]
        assert len(reads) == 159
        reads.clear()
        max_path_len(4)
        assert physical_paths(net, "s", "t") == [["s", "a", "b", "t"]]
        assert len(reads) == 13


class TestPolicyPermits:
    def test_first_applicable(self):
        deny = PolicyRule("deny-x", Matcher(), Matcher(value="x"), Matcher(), "Deny")
        permit = PolicyRule("permit-x", Matcher(), Matcher(value="x"), Matcher(), "Permit")
        policies = PolicySet(rules=[deny, permit])
        assert policy_permits(policies, {}, "x", "read") == "Deny"
        policies = PolicySet(rules=[permit, deny])
        assert policy_permits(policies, {}, "x", "read") == "Permit"

    def test_default_deny(self):
        assert policy_permits(PolicySet(), {"role": "admin"}, "x", "read") == "Deny"

    def test_subject_attribute_match(self):
        rule = PolicyRule(
            "r", Matcher(key="role", value="remote_employee"),
            Matcher(value="file_server"), Matcher(value="write"), "Permit",
        )
        policies = PolicySet(rules=[rule])
        assert policy_permits(policies, {"role": "remote_employee"}, "file_server", "write") == "Permit"
        assert policy_permits(policies, {"role": "intern"}, "file_server", "write") == "Deny"
        assert policy_permits(policies, {"role": "remote_employee"}, "file_server", "read") == "Deny"

    def test_appended_deny_never_turns_deny_into_permit(self, rng):
        # property over random rule sets: appending a Deny rule can only
        # flip Permit -> Deny, never the reverse
        values = [None, "a", "b"]
        for _ in range(100):
            rules = [
                PolicyRule(
                    f"r{i}",
                    Matcher(key="role", value=rng.choice(values)),
                    Matcher(value=rng.choice(values)),
                    Matcher(value=rng.choice(values)),
                    rng.choice(["Permit", "Deny"]),
                )
                for i in range(rng.randint(0, 4))
            ]
            appended = rules + [
                PolicyRule(
                    "extra",
                    Matcher(key="role", value=rng.choice(values)),
                    Matcher(value=rng.choice(values)),
                    Matcher(value=rng.choice(values)),
                    "Deny",
                )
            ]
            for subject in ({}, {"role": "a"}, {"role": "b"}):
                for resource in ("a", "b"):
                    for action in ("a", "b"):
                        before = policy_permits(PolicySet(rules=list(rules)), subject, resource, action)
                        after = policy_permits(PolicySet(rules=appended), subject, resource, action)
                        if before == "Deny":
                            assert after == "Deny"


class TestLogicalPaths:
    def test_subset_of_physical(self, scenario, rng, max_path_len):
        max_path_len(8)
        net = scenario.network
        names = sorted(net.nodes)
        for _ in range(20):
            src, dst = rng.choice(names), rng.choice(names)
            logical = logical_paths(net, src, dst, {}, "access", 8)
            physical = physical_paths(net, src, dst)
            assert all(p in physical for p in logical)

    def test_permissive_rule_gives_equality(self, max_path_len):
        max_path_len(5)
        net = _net(["a", "b"], [("a", "b")], PolicySet(rules=[PERMIT_ALL]), entries=("a",))
        assert logical_paths(net, "a", "b", {}, "access", 5) == physical_paths(net, "a", "b")

    def test_no_rules_means_no_logical_paths(self):
        net = _net(["a", "b"], [("a", "b")])
        assert logical_paths(net, "a", "b", {}, "access", 5) == []

    def test_segmentation_blocks_unpeered_hop(self):
        zones = [
            Zone("left", ("a",), ()),
            Zone("right", ("b",), ()),
        ]
        net = _net(["a", "b"], [("a", "b")], PolicySet(rules=[PERMIT_ALL], segmentation=zones))
        assert logical_paths(net, "a", "b", {}, "access", 5) == []
        peered = PolicySet(rules=[PERMIT_ALL], segmentation=[Zone("left", ("a",), ("right",)), Zone("right", ("b",), ())])
        net2 = _net(["a", "b"], [("a", "b")], peered)
        assert logical_paths(net2, "a", "b", {}, "access", 5) == [["a", "b"]]

    def test_server_pool_isolation_blocks_endpoint_paths(self):
        baseline = load_scenario()
        isolated = load_scenario("policies_isolated")
        assert logical_paths(baseline.network, "StaffEndPoint", "FileServer", {}, "access", 12)
        assert logical_paths(isolated.network, "StaffEndPoint", "FileServer", {}, "access", 12) == []
        assert "FileServer" not in reachable_targets(isolated.network)


def _random_net(rng: random.Random) -> NetworkModel:
    """Up to 8 nodes, random edges, several entry points, zones with random
    peers (some nodes unzoned) and a random first-applicable rule list,
    usually closed by a catch-all Permit."""
    names = [f"n{i}" for i in range(rng.randint(2, 8))]
    density = rng.uniform(0.2, 0.7)
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1:] if rng.random() < density]
    entries = rng.sample(names, rng.randint(1, min(3, len(names))))
    labels = ["z0", "z1", "z2"]
    members = {label: [] for label in labels}
    for name in names:
        label = rng.choice(labels + [None])
        if label is not None:
            members[label].append(name)
    zones = [
        Zone(label, tuple(members[label]), tuple(p for p in labels if p != label and rng.random() < 0.3))
        for label in labels
    ]
    rules = [
        PolicyRule(
            f"r{i}",
            Matcher(key="role", value=rng.choice([None, None, "admin"])),
            Matcher(value=rng.choice([None] + names)),
            Matcher(value=rng.choice([None, "access", "read"])),
            rng.choice(["Permit", "Deny"]),
        )
        for i in range(rng.randint(0, 3))
    ]
    if rng.random() < 0.75:
        rules.append(PERMIT_ALL)
    return _net(names, edges, PolicySet(rules=rules, segmentation=zones), entries=entries)


def _mesh(seed: int, **sizes) -> NetworkModel:
    files = meshgen.generate(seed, **sizes)
    return validate_bundle(RawBundle(
        network_doc=files["network.graphml"],
        flow_docs=[files["flows/mesh_chain.json"]],
        policy_docs=[files["policies/mesh.xml"]],
        ti_doc=files["ti.csv"],
    )).network


class TestReachableTargets:
    """The breadth-first search against the path-enumeration oracle."""

    def test_matches_oracle_on_random_graphs(self, max_path_len):
        rng = random.Random(6)
        nets = [_random_net(rng) for _ in range(300)]
        for max_len in range(1, 10):
            max_path_len(max_len)
            for net in nets:
                assert reachable_targets(net) == reachable_by_enumeration(net, max_len)

    @pytest.mark.parametrize("policy_dir", ["policies", "policies_isolated"])
    def test_matches_oracle_on_fixture(self, policy_dir):
        net = load_scenario(policy_dir).network
        assert reachable_targets(net) == reachable_by_enumeration(net, 12)

    @pytest.mark.parametrize("seed,sizes", [
        (meshgen.DEFAULT_SEED, {}),
        (1, {"nodes": 14, "chords": 8}),
        (2, {"nodes": 14, "chords": 8}),
        (3, {"nodes": 14, "chords": 8}),
    ])
    def test_matches_oracle_on_meshes(self, seed, sizes):
        net = _mesh(seed, **sizes)
        assert reachable_targets(net) == reachable_by_enumeration(net, 12)

    def test_unpeered_hop_blocks(self):
        zones = [Zone("left", ("a",), ()), Zone("right", ("b", "c"), ())]
        policies = PolicySet(rules=[PERMIT_ALL], segmentation=zones)
        net = _net(["a", "b", "c"], [("a", "b"), ("b", "c")], policies, entries=("a",))
        assert reachable_targets(net) == {"a"}
        zones[0] = Zone("left", ("a",), ("right",))
        peered = PolicySet(rules=[PERMIT_ALL], segmentation=zones)
        net = _net(["a", "b", "c"], [("a", "b"), ("b", "c")], peered, entries=("a",))
        assert reachable_targets(net) == {"a", "b", "c"}

    def test_no_rules_means_nothing_reachable(self):
        net = _net(["a", "b"], [("a", "b")], entries=("a",))
        assert reachable_targets(net) == set()

    def test_denied_node_still_relays(self):
        deny_b = PolicyRule("deny-b", Matcher(), Matcher(value="b"), Matcher(), "Deny")
        policies = PolicySet(rules=[deny_b, PERMIT_ALL])
        net = _net(["a", "b", "c"], [("a", "b"), ("b", "c")], policies, entries=("a",))
        assert reachable_targets(net) == {"a", "c"}

    def test_chain_is_cut_at_max_len(self, max_path_len):
        for max_len in (1, 2, 5):
            max_path_len(max_len)
            names = [f"n{i}" for i in range(max_len + 2)]
            edges = list(zip(names, names[1:]))
            net = _net(names, edges, PolicySet(rules=[PERMIT_ALL]), entries=("n0",))
            assert reachable_targets(net) == set(names[:-1])

    def test_default_bound_is_twelve_hops(self):
        names = [f"n{i:02d}" for i in range(14)]
        net = _net(names, list(zip(names, names[1:])), PolicySet(rules=[PERMIT_ALL]), entries=("n00",))
        assert reachable_targets(net) == set(names[:13])


def _with_classes(net: NetworkModel, rng: random.Random) -> NetworkModel:
    """`net` with each node's asset class drawn anew, IDS-like ones among them."""
    classes = {n: rng.choice(["endpoint", "server", "ids", "ips", "idps"]) for n in net.nodes}
    return _net(sorted(net.nodes), net.edges, net.policies, classes, net.entry_points())


class TestAnalyzeTargets:
    """`analyze_targets`, which keeps its facts on the network, against the
    enumeration that computes them anew."""

    def assert_matches_oracle(self, net, rng):
        names = sorted(net.nodes)
        oracle = {t: target_facts_by_enumeration(net, t) for t in names}
        for _ in range(4):
            # overlapping subsets, in shuffled order and with repeats
            asked = rng.choices(names, k=rng.randint(1, len(names)))
            facts = analyze_targets(net, asked)
            assert list(facts) == sorted(set(asked))
            assert facts == {t: oracle[t] for t in facts}

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(6)
        for _ in range(300):
            self.assert_matches_oracle(_with_classes(_random_net(rng), rng), rng)

    @pytest.mark.parametrize("seed,sizes", [
        (meshgen.DEFAULT_SEED, {}),
        (1, {"nodes": 14, "chords": 8}),
        (2, {"nodes": 14, "chords": 8}),
        (3, {"nodes": 14, "chords": 8}),
    ])
    def test_matches_oracle_on_meshes(self, seed, sizes):
        self.assert_matches_oracle(_mesh(seed, **sizes), random.Random(seed))

    def test_new_policies_get_new_facts(self):
        net = _net(["a", "b", "c"], [("a", "b"), ("b", "c")], PolicySet(rules=[PERMIT_ALL]), entries=("a",))
        before = TargetContext(ids_on_path=False, seg_on_path=False, policy_deny=False)
        assert analyze_targets(net, ["c"]) == {"c": target_facts_by_enumeration(net, "c")}
        assert analyze_targets(net, ["c"]) == {"c": before}
        # a zone split between a and b and a Deny rule on c: both facts flip
        deny_c = PolicyRule("deny-c", Matcher(), Matcher(value="c"), Matcher(), "Deny")
        zones = [Zone("left", ("a",), ("right",)), Zone("right", ("b", "c"), ())]
        net.policies = PolicySet(rules=[deny_c, PERMIT_ALL], segmentation=zones)
        after = TargetContext(ids_on_path=False, seg_on_path=True, policy_deny=True)
        assert analyze_targets(net, ["c"]) == {"c": target_facts_by_enumeration(net, "c")}
        assert analyze_targets(net, ["c"]) == {"c": after}

    @pytest.mark.parametrize("policy_dir", ["policies", "policies_isolated"])
    def test_matches_oracle_on_fixture(self, policy_dir):
        self.assert_matches_oracle(load_scenario(policy_dir).network, random.Random(7))

    def test_analysis_leaves_equality_and_repr(self):
        net, twin = load_scenario().network, load_scenario().network
        before = repr(net)
        analyze_targets(net, net.nodes)
        assert net == twin
        assert repr(net) == before == repr(twin)


class TestCandidateTargets:
    def test_endpoint_only_technique(self, scenario):
        net = scenario.network
        targets = candidate_targets(net, _ttp("T1566"), scenario.ti, reachable_targets(net))
        assert targets == {"StaffEndPoint", "AdminEndPoint", "StaffRemoteEndPoint"}

    def test_full_coverage_gives_all_reachable(self, scenario):
        rows = [
            TiRecord("T9000", c, 0.5, 0.1, 1, -1, 0.1, 0)
            for c in sorted({n.asset_class for n in scenario.network.nodes.values()})
        ]
        reachable = reachable_targets(scenario.network)
        targets = candidate_targets(scenario.network, _ttp("T9000"), TiTable(rows), reachable)
        assert targets == reachable

    def test_monotone_in_ti_coverage(self, scenario):
        small = TiTable([TiRecord("T1566", "endpoint", 0.5, 0.1, 1, -1, 0.1, 0)])
        bigger = TiTable(
            small.records + [TiRecord("T1566", "server", 0.5, 0.1, 1, -1, 0.1, 0)]
        )
        reachable = reachable_targets(scenario.network)
        a = candidate_targets(scenario.network, _ttp("T1566"), small, reachable)
        b = candidate_targets(scenario.network, _ttp("T1566"), bigger, reachable)
        assert a <= b

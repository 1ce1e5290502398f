import dataclasses
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cri.attack_flow import TtpNode, parse_attack_flow
from cri.attack_tree import parse_tree_dict
from cri.engine import MODES, EngineConfig, run_campaign, run_whatif
from cri.index import Countermeasure
from cri.errors import CapacityError, CriError, ModelError, ValidationError
from cri.ingest import RawBundle, validate_bundle
from cri.pomdp import (
    build_pomdp,
    complexity_report,
    expand_technique,
    milestone_flag,
    milestone_probabilities,
    state_space_size,
    value_iteration,
)
from cri.threat_intel import TiRecord, TiTable
from cri.pomdp.types import NetworkState, Pomdp
from cri.pomdp.build import IDS_CLASSES, _Builder
from buildoracle import build_by_pairs
from conftest import SCENARIO, CallCounter, load_scenario
from modeldump import dump
from genscen import PERMIT_ALL, TI_HEADER, chain_scenario, random_scenario, two_target_tree
from toys import and_chain, noisy_sensor, single_step

PROB_TOL = 1e-9


def _row_sums_ok(pomdp):
    for row in pomdp.transitions.values():
        assert abs(sum(p for _, p in row) - 1.0) <= PROB_TOL
        assert all(p >= 0 for _, p in row)
    for row in pomdp.observation_probs.values():
        assert abs(sum(p for _, p in row) - 1.0) <= PROB_TOL


class TestStateSpaceSize:
    def test_two_nodes_two_items(self):
        assert state_space_size(2, 2) == 9

    def test_base_case(self):
        assert state_space_size(1, 1) == 1

    def test_reference_size(self):
        assert state_space_size(12, 4) == 15**12 == 129746337890625

    def test_matches_big_integer_oracle(self, rng):
        # slow repeated-multiplication oracle over random inputs
        for _ in range(50):
            v, i = rng.randint(1, 20), rng.randint(1, 10)
            per_node = 0
            for _ in range(2**i - 1):
                per_node += 1
            expected = 1
            for _ in range(v):
                expected *= per_node
            assert state_space_size(v, i) == expected


class TestExpandTechnique:
    def _ttp(self, tree_id=None):
        return TtpNode(
            step=1, tactic_id="TA0001", tactic_name="", technique_id="T1659",
            technique_name="", attack_tree_id=tree_id,
        )

    def test_single_target_no_tree(self):
        ti = TiTable([TiRecord("T1659", "server", 0.5, 0.1, 2, -1, 0.2, 0)])
        actions = expand_technique(self._ttp(), {}, ti, [("srv", "server")])
        assert len(actions) == 1
        act = actions[0]
        assert act.leaf_name is None
        assert act.target == "srv"
        assert act.p_success == 0.5

    def test_tree_leaves_become_actions(self):
        tree = parse_tree_dict(
            {
                "id": "proc",
                "technique_id": "T1659",
                "root": {
                    "gate": "OR",
                    "children": [
                        {"name": "first", "p_success": 0.3},
                        {"name": "second"},
                    ],
                },
            }
        )
        trees = {tree.id: tree}
        ti = TiTable([TiRecord("T1659", "server", 0.5, 0.1, 2, -1, 0.2, 0)])
        actions = expand_technique(self._ttp("proc"), trees, ti, [("srv", "server")])
        assert [a.leaf_name for a in actions] == ["first", "second"]
        assert actions[0].p_success == 0.3  # leaf override
        assert actions[1].p_success == 0.5  # technique fallback

    def test_targets_without_records_skipped(self):
        ti = TiTable([TiRecord("T1659", "server", 0.5, 0.1, 2, -1, 0.2, 0)])
        actions = expand_technique(
            self._ttp(), {}, ti, [("srv", "server"), ("pc", "endpoint")]
        )
        assert [a.target for a in actions] == ["srv"]


class TestBuildPomdp:
    def test_single_action_two_states(self):
        pomdp, _ = single_step(p_success=0.6, p_detect=0.0)
        assert len(pomdp.states) == 2
        assert len(pomdp.actions) == 1
        row = dict(pomdp.transitions[(0, 0)])
        assert row[1] == pytest.approx(0.6, abs=1e-12)
        assert row[0] == pytest.approx(0.4, abs=1e-12)
        assert pomdp.initial_belief[0] == 1.0
        _row_sums_ok(pomdp)

    def test_two_step_flow_rows_sum(self, scenario):
        for flow in scenario.flows:
            pomdp = build_pomdp(flow, scenario.network, scenario.ti)
            _row_sums_ok(pomdp)
            assert set(pomdp.observations) <= {f"o{i}" for i in range(1, 9)}
            assert len(pomdp.observations) < 8  # path reduction bites

    def test_dns_tree_leaves_surface_as_actions(self, scenario):
        flow = next(f for f in scenario.flows if f.id == "dns_injection")
        pomdp = build_pomdp(flow, scenario.network, scenario.ti)
        leaf_names = {a.leaf_name for a in pomdp.actions if a.leaf_name}
        assert "inject malicious dns response" in leaf_names

    def test_success_adds_inventory_and_milestone(self):
        pomdp, inputs = single_step()
        succ = pomdp.states[1]
        assert milestone_flag(1) in succ.flags
        assert dict(succ.compromised)["host"] == ("agent", "os")

    def test_milestones_map(self):
        pomdp, _ = and_chain()
        assert pomdp.milestones == {1: "ttp1", 2: "ttp2"}

    def test_empty_candidates_raise_model_error(self, scenario):
        flow = parse_attack_flow(
            '{"attackFlow": [{"step": 1, "tactic": {"id": "TA1"},'
            ' "technique": {"id": "T0404"}}]}',
            flow_id="nohope",
        )
        ti = TiTable([TiRecord("T0404", "mainframe", 0.5, 0.1, 2, -1, 0.2, 0)])
        with pytest.raises(ModelError, match="step 1"):
            build_pomdp(flow, scenario.network, ti)

    def test_naive_mode_refuses_reference_scenario(self, scenario):
        with pytest.raises(CapacityError) as err:
            build_pomdp(scenario.flows[0], scenario.network, scenario.ti, naive=True)
        assert err.value.estimate > 10**6

    def test_naive_equals_reduced_on_small_scenarios(self):
        rng = random.Random(411)
        checked = 0
        while checked < 10:
            inputs = random_scenario(rng)
            reduced = build_pomdp(inputs.flows[0], inputs.network, inputs.ti)
            try:
                naive = build_pomdp(inputs.flows[0], inputs.network, inputs.ti, naive=True)
            except CapacityError:
                continue
            checked += 1
            assert set(naive.states) >= set(reduced.states)
            reachable = _reachable_states(naive)
            assert reachable == set(reduced.states)
            v_naive = value_iteration(naive).value
            v_reduced = value_iteration(reduced).value
            assert v_naive == pytest.approx(v_reduced, abs=1e-9)
            _row_sums_ok(naive)

    def test_naive_equals_reduced_on_tree_scenarios(self):
        checked = leaf_states = 0
        for seed in range(400):
            inputs = random_scenario(
                random.Random(seed), max_nodes=2, max_items=1, max_steps=2, tree=True
            )
            reduced = build_pomdp(inputs.flows[0], inputs.network, inputs.ti)
            try:
                naive = build_pomdp(inputs.flows[0], inputs.network, inputs.ti, naive=True)
            except CapacityError:
                continue
            checked += 1
            assert _reachable_states(naive) == set(reduced.states)
            v_naive = value_iteration(naive).value
            v_reduced = value_iteration(reduced).value
            assert v_naive == pytest.approx(v_reduced, abs=1e-9)
            leaf_states += any("#" in f for s in reduced.states for f in s.flags)
            if checked == 100:
                break
        assert checked == 100
        assert leaf_states > 50  # the trees are exercised, not only offered

    def test_paths_are_analysed_only_for_action_targets(self, monkeypatch):
        from cri.pomdp import build

        # a fresh network: the shared `scenario` fixture keeps the facts that
        # earlier tests' builds analysed, so it would list no path here
        scenario = load_scenario()
        calls = []
        original = build.physical_paths

        def counting(net, src, dst, *args):
            calls.append(dst)
            return original(net, src, dst, *args)

        monkeypatch.setattr(build, "physical_paths", counting)
        pomdp = build_pomdp(scenario.flows[0], scenario.network, scenario.ti)
        # one call per (entry point, action target), not per network node
        assert len(scenario.network.entry_points()) == 1
        assert len(scenario.network.nodes) == 12
        assert sorted(calls) == sorted({a.target for a in pomdp.actions})
        assert len(calls) == 6
        # the flag model of the same flow and network lists no path again
        build_pomdp(scenario.flows[0], scenario.network, scenario.ti, inventory=False)
        assert len(calls) == 6

    def test_default_horizon_is_flow_length_plus_two(self, scenario):
        pomdp = build_pomdp(scenario.flows[0], scenario.network, scenario.ti)
        assert pomdp.horizon == len(scenario.flows[0].nodes) + 2


# A Deny rule after the baseline Permit: first-applicable evaluation still
# permits the node, but the rule names it, so failing there may read "denied".
DENY_FILESERVER = """  <Rule RuleID="FileServerDenyRule" Effect="Deny">
    <Target>
      <Subject><AnySubject/></Subject>
      <Resource>
        <ResourceMatch MatchID="urn:oasis:names:tc:xacml:1.0:function:string-equal">
          <AttributeValue>FileServer</AttributeValue>
          <ResourceAttributeDesignator AttributeID="urn:oasis:names:tc:xacml:1.0:resource-resource-id"/>
        </ResourceMatch>
      </Resource>
      <Action><AnyAction/></Action>
    </Target>
  </Rule>
</Policy>"""


def _failure_rows(pomdp):
    """Each action's observation row, by label, at the initial state, where
    no action has succeeded: the row a failed attempt emits."""
    s0 = pomdp.initial_belief.index(1.0)
    return {
        act.id: {pomdp.observations[o]: p for o, p in pomdp.observation_probs[(s0, a)]}
        for a, act in enumerate(pomdp.actions)
    }


class TestDenyLabels:
    """A failed attempt at a target that may have refused it reads o2 half
    the time and, in equal shares of the other half, each reason it may
    have been refused."""

    def test_deny_rule_on_a_reachable_target_adds_o6(self):
        access = (SCENARIO / "policies" / "access.xml").read_text()
        inputs = validate_bundle(RawBundle(
            network_doc=(SCENARIO / "network.graphml").read_text(),
            flow_docs=[(SCENARIO / "flows" / "dns_injection.json").read_text()],
            policy_docs=[
                access.replace("</Policy>", DENY_FILESERVER),
                (SCENARIO / "policies" / "segmentation.xml").read_text(),
            ],
            ti_doc=(SCENARIO / "ti.csv").read_text(),
            flow_names=["dns_injection"],
        ))
        pomdp = build_pomdp(inputs.flows[0], inputs.network, inputs.ti)
        assert "o6" in pomdp.observations
        rows = _failure_rows(pomdp)
        # the tree leaves have p_detect 0, so no IDS label muddles their rows
        leaves = {act.id: act.target for act in pomdp.actions if act.leaf_name is not None}
        assert set(leaves.values()) == {"FileServer", "MailServer", "WebServer"}
        for act_id, target in leaves.items():
            if target == "FileServer":
                assert rows[act_id] == {"o2": 0.5, "o6": 0.25, "o3": 0.25}
            else:
                assert rows[act_id] == {"o2": 0.5, "o3": 0.5}

    def test_unreachable_target_in_naive_mode_adds_o4(self):
        network = (
            '<graphml><graph edgedefault="undirected">'
            '<node id="gw"><data key="type">firewall</data><data key="entry_point">true</data></node>'
            '<node id="a"><data key="type">srv</data><data key="inventory">x</data></node>'
            '<node id="b"><data key="type">srv</data><data key="inventory">y</data></node>'
            '<edge source="gw" target="a"/>'
            "</graph></graphml>"
        )
        flow = ('{"id": "f", "attackFlow": [{"step": 1, "tactic": {"id": "TA0001"},'
                ' "technique": {"id": "T0001"}}]}')
        inputs = validate_bundle(RawBundle(
            network_doc=network,
            flow_docs=[flow],
            policy_docs=[PERMIT_ALL],
            ti_doc=TI_HEADER + "T0001,srv,0.5,0,10,-1,0.5,1\n",
        ))
        reduced = build_pomdp(inputs.flows[0], inputs.network, inputs.ti)
        assert [a.target for a in reduced.actions] == ["a"]
        assert "o4" not in reduced.observations
        naive = build_pomdp(inputs.flows[0], inputs.network, inputs.ti, naive=True)
        assert "o4" in naive.observations
        assert _failure_rows(naive) == {
            "s1:T0001@a": {"o2": 1.0},
            "s1:T0001@b": {"o2": 0.5, "o4": 0.5},
        }
        # no entry point reaches b, so an attempt there cannot land
        assert next(a for a in naive.actions if a.target == "b").p_success == 0.0


def _reachable_states(pomdp):
    seen = {i for i, p in enumerate(pomdp.initial_belief) if p > 0}
    frontier = list(seen)
    while frontier:
        s = frontier.pop()
        for a in pomdp.applicable.get(s, ()):
            for s2, p in pomdp.transitions[(s, a)]:
                if p > 0 and s2 not in seen:
                    seen.add(s2)
                    frontier.append(s2)
    return {pomdp.states[i] for i in seen}


class TestNodeNamesOnlyLabel:
    """Renaming nodes so that one id plus '#' starts another id changes no
    state count of either model, value, milestone probability or index. No
    genscen node is IDS-class, so no renamed id picks a muddle label."""

    RENAME = {"n0": "a", "n1": "a#b"}

    @staticmethod
    def _outcome(inputs):
        pomdp = build_pomdp(inputs.flows[0], inputs.network, inputs.ti)
        flags = build_pomdp(inputs.flows[0], inputs.network, inputs.ti, inventory=False)
        solved = value_iteration(flags)
        p_n = milestone_probabilities(flags, solved.policy)
        index = run_campaign(inputs).campaign.index
        return len(pomdp.states), len(flags.states), solved.value, p_n, index

    def _assert_same(self, original, renamed):
        """Compare the two outcomes and return the renamed one."""
        states, flag_sets, value, p_n, index = self._outcome(original)
        outcome = states2, flag_sets2, value2, p_n2, index2 = self._outcome(renamed)
        assert (states2, flag_sets2) == (states, flag_sets)
        assert value2 == pytest.approx(value, rel=0, abs=1e-12)
        assert p_n2.keys() == p_n.keys()
        for step, p in p_n.items():
            assert p_n2[step] == pytest.approx(p, rel=0, abs=1e-12)
        assert index2 == pytest.approx(index, rel=0, abs=1e-10)
        return outcome

    def test_genscen_tree_scenarios(self):
        both_targets = 0
        for seed in range(40):
            original = random_scenario(random.Random(seed), max_items=1, tree=True)
            renamed = random_scenario(
                random.Random(seed), max_items=1, tree=True, rename=self.RENAME
            )
            self._assert_same(original, renamed)
            pomdp = build_pomdp(renamed.flows[0], renamed.network, renamed.ti)
            targets = {a.target for a in pomdp.actions if a.leaf_name is not None}
            both_targets += {"a", "a#b"} <= targets
        # the renamed ids must meet as targets of one tree step
        assert both_targets >= 15

    def test_two_target_tree(self):
        original = validate_bundle(two_target_tree("b"))
        renamed = validate_bundle(two_target_tree("a#q"))
        states, _, _, _, index = self._assert_same(original, renamed)
        assert (states, index) == (7, 50.0)

    def test_coinciding_leaf_flags_are_refused(self):
        inputs = validate_bundle(two_target_tree("a#q", leaves=("q#l1", "l1")))
        with pytest.raises(ModelError, match=re.escape("tree leaf flag 'ttp1@a#q#l1'")):
            build_pomdp(inputs.flows[0], inputs.network, inputs.ti)


# the draws of one genscen scenario: its seed, its 1 or 2 extra flows and
# whether a step has an attack tree
DRAWS = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 2), st.booleans())


def _scenario(draws, **options):
    seed, extra_flows, tree = draws
    return random_scenario(
        random.Random(seed), max_steps=3, extra_flows=extra_flows, tree=tree, **options
    )


SCENARIOS = DRAWS.map(_scenario)
RELATIONS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# the two settings a relation runs in: mode and episodes
SETTINGS = st.sampled_from([("exact", 1), ("both", 60)])


def _outcome(inputs, cfg):
    """Both indices' `repr`, each flow's report `repr` by flow id, and the
    complexity report of one run."""
    out = run_campaign(inputs, cfg)
    reports = {report.result.flow_id: repr(report) for report in out.flow_reports}
    return repr((out.campaign.index, out.assumed.index)), reports, out.complexity


class TestFlowOrderOnlyLists:
    """Reversing the flow order changes no flow's report (V*, P_N, and in
    `both` the walk's summary), the complexity report or either index, bit
    for bit: each flow is built, solved and walked on its own, and the
    campaign takes the max over the flows."""

    @RELATIONS
    @given(SCENARIOS, SETTINGS)
    def test_reversed_flows(self, inputs, setting):
        mode, episodes = setting
        cfg = EngineConfig(mode=mode, episodes=episodes, seed=3)
        reversed_inputs = dataclasses.replace(inputs, flows=inputs.flows[::-1])
        assert _outcome(reversed_inputs, cfg) == _outcome(inputs, cfg)


class TestNodeOrderOnlyLists:
    """Renaming every node so that the ids sort in reverse changes no
    flow's report, the complexity report or either index in `exact` mode,
    bit for bit. The rename reverses the order of the inventory model's
    states, which the seeded walk follows, so `both` is left out. A failed
    attempt at an IDS-class target reads a muddle label picked from the
    target's name, which a rename may move; genscen draws no IDS class, so
    no label here depends on a name. Its one policy permits everything and
    names no node, so only the network document is renamed."""

    # n0 < n1 < n2 sort as n9 > n8 > n7
    RENAME = {f"n{i}": f"n{9 - i}" for i in range(3)}

    @RELATIONS
    @given(DRAWS)
    def test_reversed_node_order(self, draws):
        inputs = _scenario(draws)
        assert not {n.asset_class for n in inputs.network.nodes.values()} & IDS_CLASSES
        renamed = _scenario(draws, rename=self.RENAME)
        assert [self.RENAME[n] for n in sorted(inputs.network.nodes)] == sorted(
            renamed.network.nodes, reverse=True
        )
        cfg = EngineConfig(mode="exact", seed=3)
        assert _outcome(renamed, cfg) == _outcome(inputs, cfg)


class TestIsolatedNodeAddsNothing:
    """A node that no path reaches offers no target, so adding one with
    inventory changes no flow's report and neither index, bit for bit, in
    `exact` and in `both`: no walk compromises its inventory. Only the
    complexity report's worst-case bounds move, since they count every
    node and item."""

    BOUNDS = {
        "num_nodes", "max_inventory", "worst_states", "natural_states",
        "comp_state_obs", "c_statetrans",
    }

    @RELATIONS
    @given(DRAWS, SETTINGS)
    def test_isolated_node(self, draws, setting):
        mode, episodes = setting
        cfg = EngineConfig(mode=mode, episodes=episodes, seed=3)
        indices, reports, complexity = _outcome(_scenario(draws), cfg)
        indices2, reports2, complexity2 = _outcome(_scenario(draws, isolated=True), cfg)
        assert (indices2, reports2) == (indices, reports)
        moved = {key for key in complexity if complexity2[key] != complexity[key]}
        assert "num_nodes" in moved
        assert moved <= self.BOUNDS


class TestIdentityCountermeasure:
    """A countermeasure whose multipliers are all 1 scales no probability,
    so under any scope and in every mode its delta is exactly 0.0 and
    nothing is solved after the baseline."""

    @RELATIONS
    @given(SCENARIOS, st.sampled_from(MODES), st.data())
    def test_moves_nothing(self, inputs, mode, data):
        techniques = sorted({rec.technique_id for rec in inputs.ti.records})
        classes = sorted({rec.asset_class for rec in inputs.ti.records})
        cm = Countermeasure(
            id="identity", d3fend_group="harden",
            technique_id=data.draw(st.sampled_from([None, *techniques])),
            asset_class=data.draw(st.sampled_from([None, *classes])),
            p_success_multiplier=1.0, p_detect_multiplier=1.0, capex=1.0,
        )
        with pytest.MonkeyPatch.context() as patch:
            counter = CallCounter(patch, "value_iteration")
            deltas = run_whatif(inputs, [cm], EngineConfig(mode=mode, episodes=20))
            delta = next(deltas)
            # the baseline's solves only
            assert counter.calls == {"value_iteration": len(inputs.flows)}
        assert repr(delta.delta_index) == "0.0"
        assert delta.index_after == delta.index_before


class TestComplexityReport:
    def test_formula_identity(self):
        # 3 nodes holding at most 2 items each, and 4 TTP nodes
        _, inputs = noisy_sensor()
        est = complexity_report(inputs.network, inputs.flows * 4)
        assert est.worst_states == 27
        assert est.comp_state_obs == 27 * 4 * 27 * 8 == 23328
        assert est.c_statetrans == 27 * 4 * 27

    def test_empty_flow_list(self, scenario):
        est = complexity_report(scenario.network, [])
        assert est.num_actions == 0
        assert est.comp_state_obs == 0

    def test_reference_reduction(self, scenario):
        models = [build_pomdp(f, scenario.network, scenario.ti) for f in scenario.flows]
        est = complexity_report(scenario.network, scenario.flows, models)
        assert est.worst_states == 15**12
        assert est.reduced_states is not None
        assert est.reduced_states < 10**4
        assert est.reduced_states < est.worst_states
        assert est.comp_state_obs == est.worst_states * est.num_actions * est.worst_states * 8
        assert est.natural_states == (2**4) ** 12

    def test_action_count_sums_flow_sizes(self, scenario):
        est = complexity_report(scenario.network, scenario.flows)
        assert est.num_actions == sum(len(f.nodes) for f in scenario.flows)


def _shared_rows(z_row, t_row=((0, 1.0),)):
    """Three states whose every (s, a) key shares one T row and one Z row."""
    keys = [(s, a) for s in range(3) for a in range(2)]
    action = single_step()[0].actions[0]
    return Pomdp(
        states=tuple(NetworkState(flags=(f"s{i}",)) for i in range(3)),
        actions=(action, action),
        observations=("o1", "o2"),
        transitions={key: t_row for key in keys},
        observation_probs={key: z_row for key in keys},
        branch_rewards={(s, a, 0): 0.0 for s, a in keys},
        initial_belief=(1.0, 0.0, 0.0),
        horizon=2,
    )


class TestValidate:
    def test_shared_good_rows_pass(self):
        _shared_rows(((0, 0.25), (1, 0.75))).validate()

    @pytest.mark.parametrize(
        "z_row, message",
        [
            (((0, 0.25), (1, 0.5)), "Z row (0,0) sums to 0.75"),
            (((0, -0.5), (1, 1.5)), "Z row (0,0) has a negative entry"),
        ],
    )
    def test_shared_bad_observation_row_raises(self, z_row, message):
        pomdp = _shared_rows(z_row)
        with pytest.raises(ValidationError, match=re.escape(message)):
            pomdp.validate()

    def test_shared_bad_row_names_first_key_using_it(self):
        good, bad = ((0, 1.0),), ((0, 0.5),)
        pomdp = _shared_rows(good)
        pomdp.observation_probs[(1, 1)] = bad
        pomdp.observation_probs[(2, 0)] = bad
        with pytest.raises(ValidationError, match=r"Z row \(1,1\) sums to 0.5"):
            pomdp.validate()

    def test_first_key_with_any_bad_row_is_named(self):
        pomdp = _shared_rows(((0, 1.0),))
        pomdp.observation_probs[(1, 0)] = ((0, -0.5), (1, 1.5))
        pomdp.observation_probs[(1, 1)] = ((0, 0.5),)
        with pytest.raises(ValidationError, match=r"Z row \(1,0\) has a negative entry"):
            pomdp.validate()
        pomdp.observation_probs[(1, 0)] = ((0, 1.0),)
        with pytest.raises(ValidationError, match=r"Z row \(1,1\) sums to 0.5"):
            pomdp.validate()

    def test_shared_bad_transition_row_raises(self):
        pomdp = _shared_rows(((0, 1.0),), t_row=((0, 0.5), (1, 0.25)))
        with pytest.raises(ValidationError, match=r"T row \(0,0\) sums to 0.75"):
            pomdp.validate()


def _built(build, inputs, naive, inventory):
    """A build's model, or the text of the error it raised."""
    flow = inputs.flows[0]
    try:
        return build(flow, inputs.network, inputs.ti, naive=naive, inventory=inventory)
    except CriError as exc:
        return f"{type(exc).__name__}: {exc}"


# the chain ladder repeats techniques past the fifth step
CHAIN = ["T1078", "T1059", "T1005", "T1566", "T1659", "T1078", "T1059", "T1005"]


def _oracle_cases():
    """(case id, inputs): genscen seeds 200-399, plain and with attack
    trees, and chains of 3 to 8 steps on the reference network."""
    for seed in range(200, 400):
        yield f"genscen/{seed}", random_scenario(random.Random(seed), max_steps=1 + seed % 3)
        yield f"tree/{seed}", random_scenario(
            random.Random(seed), max_nodes=2, max_items=1, max_steps=2, tree=True
        )
    for steps in range(3, 9):
        yield f"chain/{steps}", chain_scenario(CHAIN[:steps])


class TestPerPairOracle:
    """`build_pomdp` evaluates only offered moves and writes a state's
    wasted moves from one shared row; the per-pair table pass of
    `buildoracle` must give the same dump, with the transition and
    observation rows inserted in the same (state, action) order."""

    def test_matches_per_pair_build(self):
        built = 0
        for case, inputs in _oracle_cases():
            for naive in (False, True):
                for inventory in (True, False):
                    got = _built(build_pomdp, inputs, naive, inventory)
                    want = _built(build_by_pairs, inputs, naive, inventory)
                    where = (case, naive, inventory)
                    if isinstance(want, str):
                        assert got == want, where
                        continue
                    built += 1
                    assert dump(got) == dump(want), where
                    assert list(got.transitions) == list(want.transitions), where
                    assert list(got.observation_probs) == list(want.observation_probs), where
        # most inputs build in both modes, not only refuse
        assert built >= 1200


class TestOfferedMovesOnly:
    """The builder evaluates a state's offered moves only: `execute` runs
    once per offered (state, action) pair, and every wasted move of a state
    is written from one shared self-loop row. Sharing that row is what
    keeps a model of mostly wasted moves small in memory."""

    @pytest.mark.parametrize("inventory, pairs, offered", [(True, 4695, 762), (False, 1125, 276)])
    def test_dns_injection(self, scenario, monkeypatch, inventory, pairs, offered):
        flow = next(f for f in scenario.flows if f.id == "dns_injection")
        counter = CallCounter(monkeypatch, "execute", module=_Builder)
        pomdp = build_pomdp(flow, scenario.network, scenario.ti, inventory=inventory)
        assert len(pomdp.transitions) == pairs
        assert sum(map(len, pomdp.applicable.values())) == offered
        assert counter.calls["execute"] == offered
        for s, acts in pomdp.applicable.items():
            wasted = {
                id(pomdp.transitions[(s, a)]): pomdp.transitions[(s, a)]
                for a in range(len(pomdp.actions)) if a not in acts
            }
            assert list(wasted.values()) == [((s, 1.0),)]

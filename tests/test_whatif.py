"""What-if evaluation: `run_whatif` against the direct fold of two fresh
`run_campaign` runs per countermeasure, and the work it saves."""

import ast
import dataclasses
import random
import weakref

import pytest

import cri.engine
import cri.pomdp.build
from conftest import SCENARIO, CallCounter, load_scenario
from cri.engine import EngineConfig, run_campaign, run_whatif
from cri.index import (
    Countermeasure, CountermeasureDelta, evaluate_countermeasure, parse_countermeasures,
)
from cri.ingest import ValidatedInputs
from cri.pomdp import build_pomdp, reweight_pomdp
from cri.simulate import estimate_expected_rewards
from cri.threat_intel import TiTable
from genscen import random_scenario
from modeldump import dump
from toys import _NET_ONE, _build, _flow

MULTIPLIERS = (0.0, 0.5, 1.0, 1.4, 2.0, 3.0)


def scaled(ti, cm):
    return ti.with_multiplier(
        cm.technique_id,
        cm.asset_class,
        p_success_multiplier=cm.p_success_multiplier,
        p_detect_multiplier=cm.p_detect_multiplier,
    )


def rerun_delta(inputs, cm, cfg):
    """The delta from two full pipeline runs, without and with `cm`."""
    before = run_campaign(inputs, cfg).campaign.index
    hardened = ValidatedInputs(network=inputs.network, flows=inputs.flows, ti=scaled(inputs.ti, cm))
    after = run_campaign(hardened, cfg).campaign.index
    matched = any(
        (cm.technique_id is None or rec.technique_id == cm.technique_id)
        and (cm.asset_class is None or rec.asset_class == cm.asset_class)
        for rec in inputs.ti.records
    )
    delta = after - before
    cost = cm.total_cost
    return CountermeasureDelta(
        countermeasure=cm,
        index_before=before,
        index_after=after,
        delta_index=delta,
        delta_per_cost=delta / cost if cost > 0 else None,
        matched=matched,
    )


def fixture_measures():
    extra = [
        Countermeasure(id="servers", d3fend_group="isolate", asset_class="server",
                       p_success_multiplier=0.25),
        Countermeasure(id="ghost", d3fend_group="deceive", technique_id="T0000", capex=3),
    ]
    return parse_countermeasures((SCENARIO / "countermeasures.json").read_text()) + extra


def random_measures(rng, inputs):
    techniques = sorted({n.technique_id for f in inputs.flows for n in f.nodes})
    classes = sorted({n.asset_class for n in inputs.network.nodes.values()})
    scopes = [
        (rng.choice(techniques), None),
        (None, rng.choice(classes)),
        (rng.choice(techniques), rng.choice(classes)),
        (None, None),
        ("T0000", None),
        (None, "nowhere"),
    ]
    measures = []
    for i, (technique, asset_class) in enumerate(rng.sample(scopes, 4)):
        identity = rng.random() < 0.25
        measures.append(
            Countermeasure(
                id=f"cm{i}",
                d3fend_group=rng.choice(("harden", "detect", "isolate")),
                technique_id=technique,
                asset_class=asset_class,
                p_success_multiplier=1.0 if identity else rng.choice((0.0, 0.5, 1.3)),
                p_detect_multiplier=1.0 if identity else rng.choice((0.5, 1.0, 2.0)),
                capex=rng.choice((0.0, 5.0)),
            )
        )
    return measures


class TestRunWhatifOracle:
    def test_fixture_exact(self, scenario):
        cfg = EngineConfig(mode="exact")
        measures = fixture_measures()
        expected = [rerun_delta(scenario, cm, cfg) for cm in measures]
        assert list(run_whatif(scenario, measures, cfg)) == expected

    def test_fixture_both_modes(self, scenario):
        cfg = EngineConfig(mode="both", episodes=500, seed=7)
        measures = fixture_measures()[:3]
        expected = [rerun_delta(scenario, cm, cfg) for cm in measures]
        assert list(run_whatif(scenario, measures, cfg)) == expected

    @pytest.mark.parametrize("mode, after", [
        ("both", [42.2164, 38.91228230892706, 39.191623584227685, 68.66114087319494,
                  38.91228230892706]),
        # the walk's index: on the flag model the first would read 40.6972
        ("simulate", [37.58759999999999, 32.8966208, 32.8966208, 68.9602016,
                      32.8966208]),
    ])
    def test_walking_modes_keep_the_inventory_model(self, scenario, monkeypatch, mode, after):
        built = []

        def recorded(*args, **kwargs):
            model = build_pomdp(*args, **kwargs)
            built.append(len(model.states))
            return model

        monkeypatch.setattr(cri.engine, "build_pomdp", recorded)
        cfg = EngineConfig(mode=mode, episodes=500, seed=7)
        deltas = list(run_whatif(scenario, fixture_measures(), cfg))
        # pinned before exact runs moved to the flag model
        assert [d.index_after for d in deltas] == after
        # each flow's flag model, then the model its walk follows
        assert built == [4, 35, 75, 313]

    def test_random_scenarios(self, monkeypatch):
        rng = random.Random(5150)
        reused = 0
        for _ in range(30):
            inputs = random_scenario(rng, max_steps=3, extra_flows=2)
            measures = random_measures(rng, inputs)
            cfg = EngineConfig(mode="exact")
            expected = [rerun_delta(inputs, cm, cfg) for cm in measures]
            with monkeypatch.context() as patch:
                counter = CallCounter(patch, "build_pomdp")
                assert list(run_whatif(inputs, measures, cfg)) == expected
            reused += len(inputs.flows) * (1 + len(measures)) - counter.calls["build_pomdp"]
        assert reused > 0

    def test_generator_runs_lazily_in_order(self, scenario, monkeypatch):
        counter = CallCounter(monkeypatch, "build_pomdp", "reweight_pomdp")
        deltas = run_whatif(scenario, fixture_measures(), EngineConfig(mode="exact"))
        assert counter.calls == {"build_pomdp": 0, "reweight_pomdp": 0}
        assert next(deltas).countermeasure.id == "cm-mfa-rollout"
        # every flow is re-weighted; only the one the measure moves is solved again
        assert counter.calls == {
            "build_pomdp": len(scenario.flows), "reweight_pomdp": len(scenario.flows),
        }


def test_scope_is_one_rule(scenario):
    """`matched` holds exactly when `with_multiplier` replaced some record,
    and the records out of scope come back as the same objects."""
    ti = scenario.ti
    techniques = sorted({rec.technique_id for rec in ti.records})
    classes = sorted({rec.asset_class for rec in ti.records})
    seen = set()
    for technique in [None, *techniques, "T0000"]:
        for asset_class in [None, *classes, "nowhere"]:
            cm = Countermeasure(id="cm", d3fend_group="harden", technique_id=technique,
                                asset_class=asset_class, p_success_multiplier=0.5)
            new = scaled(ti, cm)
            replaced = [after is not before for after, before in zip(new.records, ti.records)]
            assert replaced == [
                (technique is None or rec.technique_id == technique)
                and (asset_class is None or rec.asset_class == asset_class)
                for rec in ti.records
            ]
            matched = evaluate_countermeasure(cm, ti, 0.0, 0.0).matched
            assert matched == any(replaced)
            seen.add((technique is None, asset_class is None, matched))
    # None/None, technique only, class only, both, each matching and not
    assert seen == {
        (True, True, True), (False, True, True), (True, False, True), (False, False, True),
        (False, True, False), (True, False, False), (False, False, False),
    }


class TestRunWhatifWork:
    def test_fixture_solves_each_changed_flow_once(self, scenario, monkeypatch):
        counter = CallCounter(
            monkeypatch, "build_pomdp", "reweight_pomdp", "value_iteration",
            "complexity_report", "run_campaign",
        )
        measures = parse_countermeasures((SCENARIO / "countermeasures.json").read_text())
        deltas = list(run_whatif(scenario, measures, EngineConfig(mode="exact")))
        assert len(deltas) == 3
        # 2 baseline flows, each built once and re-weighted under each
        # measure; mfa moves one flow's model, noop none, sensor tuning
        # both, and only the moved models are solved again
        assert counter.calls == {
            "build_pomdp": 2, "reweight_pomdp": 6, "value_iteration": 5,
            "complexity_report": 0, "run_campaign": 0,
        }

    def test_fixture_lists_each_targets_paths_once(self, monkeypatch):
        # a fresh network: the shared `scenario` fixture already holds its path facts
        scenario = load_scenario()
        paths = CallCounter(monkeypatch, "physical_paths", module=cri.pomdp.build)
        measures = parse_countermeasures((SCENARIO / "countermeasures.json").read_text())
        deltas = list(run_whatif(scenario, measures, EngineConfig(mode="exact")))
        assert len(deltas) == 3
        # one listing per (entry point, target): the two baseline flows
        # have the same 6 targets, so the second flow's build lists none
        assert paths.calls == {"physical_paths": 6}

    def test_identity_and_unmatched_reuse_the_baseline(self, scenario, monkeypatch):
        counter = CallCounter(monkeypatch, "build_pomdp")
        measures = [
            Countermeasure(id="noop", d3fend_group="restore", p_detect_multiplier=1.0),
            Countermeasure(id="ghost", d3fend_group="harden", technique_id="T0000"),
        ]
        deltas = list(run_whatif(scenario, measures, EngineConfig(mode="exact")))
        assert [d.delta_index for d in deltas] == [0.0, 0.0]
        assert [d.matched for d in deltas] == [True, False]
        assert counter.calls["build_pomdp"] == len(scenario.flows)

    def test_frees_each_countermeasures_walks(self, scenario, monkeypatch):
        # a name left bound in the generator's frame, such as a loop
        # variable whose loop ran no turn under the no-op measure, would
        # keep the previous measure's summaries alive
        walked = []

        def recorded(*args):
            summaries = estimate_expected_rewards(*args)
            walked.append([weakref.ref(s) for s in summaries])
            return summaries

        monkeypatch.setattr(cri.engine, "estimate_expected_rewards", recorded)
        measures = parse_countermeasures((SCENARIO / "countermeasures.json").read_text())
        deltas = run_whatif(scenario, measures, EngineConfig(mode="both", episodes=50, seed=7))
        assert next(deltas).countermeasure.id == "cm-mfa-rollout"
        # the baseline's walks, then those of the one flow mfa moves
        baseline, mfa = walked
        assert (len(baseline), len(mfa)) == (len(scenario.flows), 1)
        assert next(deltas).countermeasure.id == "cm-noop-baseline"
        assert [ref() for ref in mfa] == [None]


def reweighted(base, flow, net, new_ti, inventory=True):
    """`base`, a model of `flow` built with `inventory`, re-weighted under
    `new_ti` and checked against a fresh build under `new_ti`."""
    derived = reweight_pomdp(base, new_ti)
    fresh = build_pomdp(flow, net, new_ti, inventory=inventory)
    assert dump(derived) == dump(fresh)
    assert derived.rewards == fresh.rewards
    return derived


def assert_observations_agree(derived, flags, new_ti):
    """`derived`, a re-weighted model that tracks inventory, and `flags`,
    its flow's flag model, re-weighted under the same `new_ti`, keep equal
    observation tuples: a walk reads the flag model's policy graph by the
    walked model's observation indices."""
    assert reweight_pomdp(flags, new_ti).observations == derived.observations


def shares_skeleton(base, derived):
    """Whether `derived` was re-weighted from `base` rather than rebuilt."""
    names = ["states", "applicable", "branch_rewards", "observations"]
    kept = [getattr(derived, name) is getattr(base, name) for name in names]
    assert all(kept) or not any(kept)
    return all(kept)


class TestReweightPomdp:
    """`reweight_pomdp` against a fresh `build_pomdp` under the scaled table."""

    @pytest.fixture(scope="class")
    def fixture_models(self, scenario):
        return [build_pomdp(flow, scenario.network, scenario.ti) for flow in scenario.flows]

    @pytest.fixture(scope="class")
    def flag_models(self, scenario):
        return [
            build_pomdp(flow, scenario.network, scenario.ti, inventory=False)
            for flow in scenario.flows
        ]

    def test_fixture_measures_reweight_every_flow(self, scenario, fixture_models, flag_models):
        for cm in fixture_measures():
            for flow, base, flags in zip(scenario.flows, fixture_models, flag_models):
                new_ti = scaled(scenario.ti, cm)
                derived = reweighted(base, flow, scenario.network, new_ti)
                assert shares_skeleton(base, derived), (cm.id, flow.id)
                assert_observations_agree(derived, flags, new_ti)
        # re-weighting leaves the baseline models as built
        for flow, base in zip(scenario.flows, fixture_models):
            assert dump(base) == dump(build_pomdp(flow, scenario.network, scenario.ti))

    def test_random_scenarios(self):
        rng = random.Random(1515)
        paths = {True: 0, False: 0}
        for _ in range(300):
            inputs = random_scenario(rng, max_steps=3, extra_flows=1, tree=rng.random() < 0.5)
            techniques = sorted({n.technique_id for f in inputs.flows for n in f.nodes})
            classes = sorted({n.asset_class for n in inputs.network.nodes.values()})
            cm = Countermeasure(
                id="cm",
                d3fend_group="harden",
                technique_id=rng.choice([None, *techniques]),
                asset_class=rng.choice([None, *classes]),
                p_success_multiplier=rng.choice(MULTIPLIERS),
                p_detect_multiplier=rng.choice(MULTIPLIERS),
            )
            new_ti = scaled(inputs.ti, cm)
            for flow in inputs.flows:
                base = build_pomdp(flow, inputs.network, inputs.ti)
                derived = reweighted(base, flow, inputs.network, new_ti)
                paths[shares_skeleton(base, derived)] += 1
                flags = build_pomdp(flow, inputs.network, inputs.ti, inventory=False)
                assert_observations_agree(derived, flags, new_ti)
        assert paths[True] > 100 and paths[False] > 100

    def test_random_fixture_measures(self, scenario, fixture_models, flag_models):
        """The fixture puts an IDS on some paths, so p_detect moves reach
        the observation rows."""
        rng = random.Random(1516)
        techniques = sorted({n.technique_id for f in scenario.flows for n in f.nodes})
        classes = sorted({n.asset_class for n in scenario.network.nodes.values()})
        paths = {True: 0, False: 0}
        for _ in range(8):
            cm = Countermeasure(
                id="cm",
                d3fend_group="detect",
                technique_id=rng.choice([None, *techniques]),
                asset_class=rng.choice([None, *classes]),
                p_success_multiplier=rng.choice(MULTIPLIERS),
                p_detect_multiplier=rng.choice(MULTIPLIERS),
            )
            new_ti = scaled(scenario.ti, cm)
            for flow, base, flags in zip(scenario.flows, fixture_models, flag_models):
                derived = reweighted(base, flow, scenario.network, new_ti)
                paths[shares_skeleton(base, derived)] += 1
                assert_observations_agree(derived, flags, new_ti)
        assert paths[True] > 0 and paths[False] > 0

    @pytest.mark.parametrize(
        "base_cm, cm",
        [
            (None, Countermeasure(id="to-zero", d3fend_group="harden",
                                  technique_id="T1078", p_success_multiplier=0.0)),
            (None, Countermeasure(id="clamped", d3fend_group="harden",
                                  asset_class="server", p_success_multiplier=3.0)),
            (None, Countermeasure(id="undetected", d3fend_group="detect",
                                  p_detect_multiplier=0.0)),
            (Countermeasure(id="undetected", d3fend_group="detect", p_detect_multiplier=0.0),
             Countermeasure(id="detected", d3fend_group="detect")),
            (None, Countermeasure(id="always", d3fend_group="detect",
                                  p_detect_multiplier=3.0)),
            # a class test that only asks "strictly between 0 and 1?" misses this
            (Countermeasure(id="to-zero", d3fend_group="harden",
                            technique_id="T1078", p_success_multiplier=0.0),
             Countermeasure(id="to-one", d3fend_group="harden",
                            technique_id="T1078", p_success_multiplier=2.0)),
        ],
        ids=["p_success-to-0", "p_success-clamped-to-1", "p_detect-to-0",
             "p_detect-from-0", "p_detect-clamped-to-1", "p_success-0-to-1"],
    )
    def test_structural_moves_rebuild(self, scenario, base_cm, cm):
        ti = scenario.ti if base_cm is None else scaled(scenario.ti, base_cm)
        new_ti = scaled(scenario.ti, cm)
        rebuilt = []
        for flow in scenario.flows:
            base = build_pomdp(flow, scenario.network, ti)
            derived = reweighted(base, flow, scenario.network, new_ti)
            rebuilt.append(not shares_skeleton(base, derived))
        assert any(rebuilt)

    @pytest.mark.parametrize("column", ["action_cost", "reward_success"])
    def test_records_moving_more_than_probabilities_rebuild(
        self, scenario, fixture_models, column
    ):
        # only credential_chain reads T1078
        new_ti = TiTable([
            dataclasses.replace(rec, **{column: getattr(rec, column) + 1.0})
            if rec.technique_id == "T1078" else rec
            for rec in scenario.ti.records
        ])
        (chain, dns), (chain_base, dns_base) = scenario.flows, fixture_models
        derived = reweighted(chain_base, chain, scenario.network, new_ti)
        assert not shares_skeleton(chain_base, derived)
        assert reweighted(dns_base, dns, scenario.network, new_ti) is dns_base

    def test_tables_that_drop_the_last_actions_rebuild(self):
        """The actions left are the baseline's first ones, unchanged."""
        base, inputs = _build(_NET_ONE, _flow([(1, "T0001")], "toy"), [
            "T0001,firewall,0.5,0,10,-2,1,1", "T0001,endpoint,0.6,0,10,-2,1,1",
        ])
        new_ti = TiTable([rec for rec in inputs.ti.records if rec.asset_class == "firewall"])
        derived = reweighted(base, inputs.flows[0], inputs.network, new_ti)
        assert len(derived.actions) == 1 and not shares_skeleton(base, derived)

    def test_flag_models_reweight_and_rebuild_as_flag_models(self, scenario):
        """Every run re-weights flag models; where the structure can move,
        the fallback must build a flag model again."""
        to_zero = Countermeasure(id="to-zero", d3fend_group="harden",
                                 technique_id="T1078", p_success_multiplier=0.0)
        paths = {True: 0, False: 0}
        for flow in scenario.flows:
            base = build_pomdp(flow, scenario.network, scenario.ti, inventory=False)
            for cm in [*fixture_measures(), to_zero]:
                new_ti = scaled(scenario.ti, cm)
                derived = reweighted(base, flow, scenario.network, new_ti, inventory=False)
                paths[shares_skeleton(base, derived)] += 1
        assert paths[True] > 0 and paths[False] > 0

    def test_rewards_are_reused_only_when_no_transition_moves(self, scenario, fixture_models):
        sensor, mfa = (
            next(cm for cm in fixture_measures() if cm.id == name)
            for name in ("cm-sensor-tuning", "cm-mfa-rollout")
        )
        pairs = list(zip(scenario.flows, fixture_models))
        for flow, base in pairs:
            derived = reweighted(base, flow, scenario.network, scaled(scenario.ti, sensor))
            assert derived.transitions is base.transitions
            assert derived.rewards is base.rewards
        moved = 0
        for flow, base in pairs:
            derived = reweighted(base, flow, scenario.network, scaled(scenario.ti, mfa))
            if derived.transitions != base.transitions:
                assert derived.rewards is not base.rewards
                moved += 1
        assert moved == 1


def test_index_does_not_import_engine():
    tree = ast.parse((SCENARIO.parent.parent / "src" / "cri" / "index.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "engine" not in imported


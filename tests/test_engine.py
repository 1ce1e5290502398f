import json
import os
import re
import subprocess
import sys

import pytest

import cri.engine
import cri.pomdp.build
import cri.pomdp.solve
import cri.simulate
from conftest import SCENARIO, CallCounter, load_scenario
from cri.engine import MODES, EngineConfig, assumed_p_n, run_campaign, run_whatif
from cri.errors import CapacityError, ModelError
from cri.index import parse_countermeasures
from cri.ingest import RawBundle, validate_bundle
from cri.pomdp import build_pomdp, complexity_report, milestone_flag, value_iteration
from cri.simulate import BLOCK
from genscen import random_scenario
from modeldump import dump
from toys import _flow, and_chain, single_step
import random


class TestEngineConfig:
    def test_simulate_requires_episodes(self):
        with pytest.raises(ModelError):
            EngineConfig(mode="simulate", episodes=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ModelError):
            EngineConfig(mode="quantum")

    @pytest.mark.parametrize("mode", ["exact", "simulate"])
    def test_negative_seed_rejected(self, mode):
        with pytest.raises(ModelError, match="seed must be non-negative, got -1"):
            EngineConfig(mode=mode, seed=-1)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_rejected(self, horizon):
        with pytest.raises(ModelError, match=f"horizon must be at least 1, got {horizon}"):
            EngineConfig(horizon=horizon)


class TestBuildHorizon:
    def test_only_a_missing_horizon_falls_back(self):
        _, inputs = single_step()
        pomdp = build_pomdp(inputs.flows[0], inputs.network, inputs.ti, horizon=0)
        assert pomdp.horizon == 0


class TestAssumedSeries:
    def test_uses_best_base_rate_across_present_classes(self, scenario):
        flow = next(f for f in scenario.flows if f.id == "credential_chain")
        assumed = assumed_p_n(flow, scenario.network, scenario.ti)
        # step 3 (T1005) has rows for server (0.7) and endpoint (0.25)
        assert assumed[3] == 0.7
        assert assumed[1] == 0.55

    def test_tree_nodes_combine_through_gates(self, scenario):
        flow = next(f for f in scenario.flows if f.id == "dns_injection")
        assumed = assumed_p_n(flow, scenario.network, scenario.ti)
        expected = 0.8 * (1.0 - (1.0 - 0.35) * (1.0 - 0.5))
        assert assumed[2] == pytest.approx(expected, abs=1e-12)


class TestRunCampaign:
    def test_validated_and_assumed_series_both_present(self, scenario):
        out = run_campaign(scenario, EngineConfig(mode="exact", campaign_id="ref"))
        assert out.campaign.q_campaign == max(
            fr.result.q_flow for fr in out.flow_reports
        )
        assert out.campaign.index == 100.0 * (1.0 - out.campaign.q_campaign)
        assert out.assumed.index != out.campaign.index
        assert out.complexity["reduced_states"] < out.complexity["worst_states"]

    def test_provenance_stable_across_runs(self, scenario):
        cfg = EngineConfig(mode="exact", seed=7)
        first = run_campaign(scenario, cfg)
        second = run_campaign(scenario, cfg)
        assert first.campaign.provenance == second.campaign.provenance
        assert first.campaign.as_dict() == second.campaign.as_dict()

    def test_naive_check_passes_on_small_scenario(self):
        rng = random.Random(17)
        inputs = random_scenario(rng, max_nodes=2, max_items=1, max_steps=1)
        out = run_campaign(inputs, EngineConfig(mode="exact", naive_check=True))
        assert out.flow_reports[0].naive_check == "ok"

    def test_naive_check_passes_on_small_scenarios_in_both_mode(self):
        # the walk model's naive grid gives the reachable set, the flag
        # model's naive grid gives V*
        rng = random.Random(1919)
        notes = []
        for _ in range(12):
            out = run_campaign(
                random_scenario(rng), EngineConfig(mode="both", episodes=50, naive_check=True)
            )
            notes.append(out.flow_reports[0].naive_check)
        assert notes == ["ok"] * 12

    def test_simulated_method_recorded(self):
        _, inputs = single_step()
        out = run_campaign(inputs, EngineConfig(mode="simulate", episodes=500, seed=3))
        report = out.flow_reports[0]
        assert report.result.method == "simulated"
        assert report.p_n_exact is None
        assert report.simulation is not None
        assert report.result.expected_attacker_reward == report.simulation.mean_reward

    def test_both_mode_prefers_exact_for_the_index(self):
        _, inputs = single_step()
        out = run_campaign(inputs, EngineConfig(mode="both", episodes=500, seed=3))
        report = out.flow_reports[0]
        assert report.result.method == "exact"
        assert report.p_n_exact is not None and report.simulation.p_n_estimates is not None


class TestRunCampaignWork:
    """Each flow's flag model and its model that tracks inventory are built
    once per run, in every mode; the complexity report reads the latter."""

    @pytest.mark.parametrize("mode", MODES)
    def test_builds_each_flow_twice(self, monkeypatch, mode):
        # a fresh network: the shared `scenario` fixture already holds its path facts
        scenario = load_scenario()
        engine = CallCounter(monkeypatch, "build_pomdp", "complexity_report")
        paths = CallCounter(
            monkeypatch, "analyze_targets", "physical_paths", module=cri.pomdp.build
        )
        run_campaign(scenario, EngineConfig(mode=mode, episodes=50, seed=7))
        builds = 2 * len(scenario.flows)
        assert engine.calls == {"build_pomdp": builds, "complexity_report": 1}
        # every build asks for its targets' path facts, so a third build
        # anywhere would show here; only the first ask per target lists
        # paths: one listing per (entry point, target) of the run
        assert paths.calls == {"analyze_targets": builds, "physical_paths": 6}

    def test_naive_check_lists_no_path_again(self, monkeypatch):
        scenario = load_scenario()
        paths = CallCounter(monkeypatch, "physical_paths", module=cri.pomdp.build)
        run_campaign(scenario, EngineConfig(mode="exact", naive_check=True))
        # the naive grids' targets were all analysed for the reduced builds
        assert paths.calls == {"physical_paths": 6}

    @pytest.mark.parametrize("mode", MODES)
    def test_compiles_one_policy_graph_per_flow(self, scenario, monkeypatch, mode):
        # every graph is a `Policy`, whoever compiles it; a walk follows
        # the graph the solve compiled on the flag model
        graphs = CallCounter(monkeypatch, "Policy", module=cri.pomdp.solve)
        run_campaign(scenario, EngineConfig(mode=mode, episodes=50, seed=7))
        assert graphs.calls == {"Policy": len(scenario.flows)}

    @pytest.mark.parametrize("mode", ("simulate", "both"))
    def test_derives_each_block_once(self, scenario, monkeypatch, mode):
        # the flows are walked together: ceil(episodes / BLOCK) blocks for
        # the run, not for each flow
        blocks = CallCounter(monkeypatch, "block_uniforms", module=cri.simulate)
        out = run_campaign(scenario, EngineConfig(mode=mode, episodes=BLOCK + 1, seed=7))
        assert blocks.calls == {"block_uniforms": 2}
        assert len(out.flow_reports) == 2
        assert all(fr.simulation.num_episodes == BLOCK + 1 for fr in out.flow_reports)

    def test_complexity_report_builds_nothing(self, scenario, monkeypatch):
        models = [build_pomdp(f, scenario.network, scenario.ti) for f in scenario.flows]
        paths = CallCounter(monkeypatch, "analyze_targets", module=cri.pomdp.build)
        est = complexity_report(scenario.network, scenario.flows, models)
        assert paths.calls == {"analyze_targets": 0}
        assert est.reduced_states == sum(len(m.states) for m in models)
        assert est.reduced_actions == sum(len(m.actions) for m in models)


class TestModelDump:
    def test_dump_is_canonical_json(self):
        pomdp, _ = and_chain()
        payload = json.loads(dump(pomdp))
        assert payload["states"][0] == "[]{}"
        assert payload["horizon"] == pomdp.horizon
        assert dump(pomdp) == dump(pomdp)

    def test_or_predecessor_gates_applicability(self, scenario):
        flow = next(f for f in scenario.flows if f.id == "dns_injection")
        pomdp = build_pomdp(flow, scenario.network, scenario.ti)
        from cri.pomdp import NetworkState

        by_index = {i: s for i, s in enumerate(pomdp.states)}
        initial = pomdp.states.index(NetworkState())
        offered_at_start = {pomdp.actions[a].step for a in pomdp.applicable[initial]}
        assert offered_at_start == {1, 2}
        for idx, state in by_index.items():
            steps = {pomdp.actions[a].step for a in pomdp.applicable[idx]}
            if 3 in steps:
                assert state.has_flag(milestone_flag(1)) or state.has_flag(milestone_flag(2))


class TestLogging:
    def test_cri_log_env_prints_diagnostics(self, tmp_path):
        env = dict(os.environ, CRI_LOG="info")
        proc = subprocess.run(
            [
                sys.executable, "-m", "cri.cli", "calc",
                "--network", str(SCENARIO / "network.graphml"),
                "--flows", str(SCENARIO / "flows"),
                "--policies", str(SCENARIO / "policies"),
                "--ti", str(SCENARIO / "ti.csv"),
                "--seed", "7", "--out", str(tmp_path / "out"),
            ],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "building model for flow" in proc.stderr
        assert "building model" not in proc.stdout
        assert (
            # every run solves the flag model: one state per flag set
            "flow credential_chain: 4 states, 12 actions, "
            "25 reachable beliefs, 35 actions pruned, V*=11.946275"
        ) in proc.stderr


class TestCapacityNamesTheFlow:
    """A solve past its belief cap says which flow and horizon hit it, in
    `calc` and in a what-if re-solve alike."""

    @staticmethod
    def _cap_after(monkeypatch, uncapped):
        """Let the engine's first `uncapped` solves run, then cap each at 3 beliefs."""
        calls = []

        def capped(pomdp):
            calls.append(pomdp)
            return value_iteration(pomdp, belief_cap=500_000 if len(calls) <= uncapped else 3)

        monkeypatch.setattr(cri.engine, "value_iteration", capped)

    def test_calc(self, scenario, monkeypatch):
        self._cap_after(monkeypatch, 1)
        with pytest.raises(CapacityError) as info:
            run_campaign(scenario, EngineConfig(horizon=6))
        assert str(info.value) == (
            "reachable belief tree of horizon 6 above its cap of 3 beliefs (flow dns_injection)"
        )

    def test_whatif_resolve(self, scenario, monkeypatch):
        measures = parse_countermeasures((SCENARIO / "countermeasures.json").read_text())
        # both baselines solve; the first measure's re-solve hits the cap
        self._cap_after(monkeypatch, 2)
        with pytest.raises(CapacityError) as info:
            list(run_whatif(scenario, measures, EngineConfig()))
        assert str(info.value) == (
            "reachable belief tree of horizon 5 above its cap of 3 beliefs (flow credential_chain)"
        )


class TestBuildsBeforeSolving:
    """Every flow's models are built before the first solve, so a flow that
    cannot be built fails the run before any flow is solved, even one
    listed after a flow that solves."""

    MESSAGE = "no candidate targets for TTP step 1 (T9999) in flow 'unbuildable'"

    @pytest.fixture
    def inputs(self):
        # T9999's only threat-intel record is for an asset class the
        # network lacks, so its one step has no candidate target
        flows = SCENARIO / "flows"
        return validate_bundle(RawBundle(
            network_doc=(SCENARIO / "network.graphml").read_text(),
            flow_docs=[
                (flows / "credential_chain.json").read_text(),
                _flow([(1, "T9999")], "unbuildable"),
                (flows / "dns_injection.json").read_text(),
            ],
            policy_docs=[
                (SCENARIO / "policies" / "access.xml").read_text(),
                (SCENARIO / "policies" / "segmentation.xml").read_text(),
            ],
            ti_doc=(SCENARIO / "ti.csv").read_text() + "T9999,mainframe,0.5,0.1,5,-1,0.5,1\n",
            flow_names=["credential_chain", "unbuildable", "dns_injection"],
        ))

    @pytest.mark.parametrize("mode", MODES)
    def test_calc(self, inputs, monkeypatch, mode):
        counter = CallCounter(monkeypatch, "value_iteration")
        with pytest.raises(ModelError, match=re.escape(self.MESSAGE)):
            run_campaign(inputs, EngineConfig(mode=mode, episodes=10))
        assert counter.calls == {"value_iteration": 0}

    @pytest.mark.parametrize("mode", MODES)
    def test_whatif(self, inputs, monkeypatch, mode):
        counter = CallCounter(monkeypatch, "value_iteration")
        measures = parse_countermeasures((SCENARIO / "countermeasures.json").read_text())
        deltas = run_whatif(inputs, measures, EngineConfig(mode=mode, episodes=10))
        with pytest.raises(ModelError, match=re.escape(self.MESSAGE)):
            next(deltas)
        assert counter.calls == {"value_iteration": 0}


class TestSolvesOnlyFlagModels:
    """Every model the engine hands `value_iteration` has one state per
    flag set and no inventory: the model that tracks inventory is only
    walked, never solved."""

    @pytest.fixture
    def solved(self, monkeypatch):
        models = []

        def recorded(pomdp, *args, **kwargs):
            models.append(pomdp)
            return value_iteration(pomdp, *args, **kwargs)

        monkeypatch.setattr(cri.engine, "value_iteration", recorded)
        return models

    @staticmethod
    def _assert_flag_models(models, count):
        assert len(models) == count
        for pomdp in models:
            assert len({state.flags for state in pomdp.states}) == len(pomdp.states)
            assert not any(state.compromised for state in pomdp.states)

    @pytest.mark.parametrize("mode", MODES)
    def test_calc(self, scenario, solved, mode):
        run_campaign(scenario, EngineConfig(mode=mode, episodes=50, seed=7))
        self._assert_flag_models(solved, len(scenario.flows))

    @pytest.mark.parametrize("mode", MODES)
    def test_whatif(self, scenario, solved, mode):
        measures = parse_countermeasures((SCENARIO / "countermeasures.json").read_text())
        list(run_whatif(scenario, measures, EngineConfig(mode=mode, episodes=50, seed=7)))
        # 2 baseline flows, then the 3 models the measures move
        self._assert_flag_models(solved, 5)

    @pytest.mark.parametrize("mode", MODES)
    def test_naive_check(self, solved, mode):
        inputs = random_scenario(random.Random(1919))
        out = run_campaign(inputs, EngineConfig(mode=mode, episodes=50, naive_check=True))
        assert out.flow_reports[0].naive_check == "ok"
        # the flow's model and its naive grid
        self._assert_flag_models(solved, 2)

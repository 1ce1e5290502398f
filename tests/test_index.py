import json

import pytest

from conftest import SCENARIO
from cri.attack_flow import parse_attack_flow
from cri.engine import EngineConfig, run_campaign
from cri.errors import ModelError, UsageError, ValidationError
from cri.index import (
    CampaignResult,
    Countermeasure,
    FlowResult,
    IndexLedger,
    campaign_cri,
    combine_and,
    combine_or,
    evaluate_countermeasure,
    flow_cri,
    parse_countermeasures,
    record_index,
)
from cri.ingest import ValidatedInputs
from cri.toys import single_step

GRID = [round(0.05 * i, 2) for i in range(21)]


def _flow_from(steps, edges=None):
    doc = {
        "attackFlow": [
            {"step": s, "tactic": {"id": "TA1"}, "technique": {"id": f"T{s}"}}
            for s in steps
        ]
    }
    if edges is not None:
        doc["edges"] = [{"from": a, "to": b, "relation": rel} for a, b, rel in edges]
    return parse_attack_flow(json.dumps(doc), flow_id="f")


class TestCombinators:
    def test_and_examples(self):
        assert combine_and(0.5, 0.4) == pytest.approx(0.2, abs=1e-15)
        assert combine_and(1.0, 0.37) == 0.37
        assert combine_and(0.0, 0.9) == 0.0

    def test_or_examples(self):
        assert combine_or(0.3, 0.7) == 0.7
        assert combine_or(0.42, 0.42) == 0.42
        assert combine_or(0.0, 0.6) == 0.6

    def test_exhaustive_grid_properties(self):
        for p in GRID:
            for q in GRID:
                a = combine_and(p, q)
                o = combine_or(p, q)
                assert a == combine_and(q, p)
                assert o == combine_or(q, p)
                assert 0.0 <= a <= min(p, q)
                assert o == max(p, q)
                for r in (0.0, 0.35, 1.0):
                    left = combine_and(combine_and(p, q), r)
                    right = combine_and(p, combine_and(q, r))
                    assert left == pytest.approx(right, abs=1e-15)
                    assert combine_or(combine_or(p, q), r) == combine_or(p, combine_or(q, r))

    def test_grid_monotonicity(self):
        for p in GRID:
            for q1, q2 in zip(GRID, GRID[1:]):
                assert combine_and(p, q1) <= combine_and(p, q2)
                assert combine_or(p, q1) <= combine_or(p, q2)


class TestFlowCri:
    def test_linear_chain_is_product(self):
        flow = _flow_from([1, 2])
        assert flow_cri(flow, {1: 0.6, 2: 0.5}) == pytest.approx(0.30, abs=1e-15)

    def test_or_fan_takes_max(self):
        flow = _flow_from([1, 2, 3], edges=[(1, 3, "OR"), (2, 3, "OR")])
        assert flow_cri(flow, {1: 0.2, 2: 0.9, 3: 1.0}) == pytest.approx(0.9, abs=1e-15)

    def test_mixed_and_or_golden(self):
        # data-theft segment: two parallel footholds, one AND prerequisite
        # into the sink; hand evaluation: (0.8 * max(0.5)) * 0.9
        flow = _flow_from([1, 2, 3], edges=[(1, 3, "AND"), (2, 3, "OR")])
        golden = (0.8 * 0.5) * 0.9
        assert flow_cri(flow, {1: 0.8, 2: 0.5, 3: 0.9}) == golden

    def test_sequential_equals_direct_product(self, rng):
        for _ in range(30):
            n = rng.randint(1, 6)
            flow = _flow_from(list(range(1, n + 1)))
            p_n = {s: round(rng.random(), 3) for s in range(1, n + 1)}
            product = 1.0
            for s in range(1, n + 1):
                product *= p_n[s]
            assert flow_cri(flow, p_n) == pytest.approx(product, abs=1e-12)
            assert 0.0 <= flow_cri(flow, p_n) <= 1.0

    def test_multiple_sinks_aggregate_by_max(self):
        flow = _flow_from([1, 2, 3], edges=[(1, 2, "sequence"), (1, 3, "sequence")])
        value = flow_cri(flow, {1: 1.0, 2: 0.3, 3: 0.8})
        assert value == pytest.approx(0.8, abs=1e-15)

    def test_missing_p_n_raises(self):
        flow = _flow_from([1, 2])
        with pytest.raises(ModelError):
            flow_cri(flow, {1: 0.5})


class TestCampaignCri:
    def _fr(self, q, flow_id="f"):
        return FlowResult(flow_id=flow_id, p_n={1: q}, q_flow=q,
                          expected_attacker_reward=0.0, method="exact")

    def test_max_rule_and_index(self):
        result = campaign_cri([self._fr(0.2, "a"), self._fr(0.5, "b")], "camp")
        assert result.q_campaign == 0.5
        assert result.index == 50.0

    def test_bounds(self):
        assert campaign_cri([self._fr(0.0)]).index == 100.0
        assert campaign_cri([self._fr(1.0)]).index == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(UsageError):
            campaign_cri([])

    def test_index_antitone_in_p_n(self, rng):
        flow = _flow_from([1, 2])
        for _ in range(50):
            p = {1: rng.random(), 2: rng.random()}
            bumped = dict(p)
            key = rng.choice([1, 2])
            bumped[key] = min(1.0, p[key] + rng.random() * (1.0 - p[key]))
            low = campaign_cri([self._fr(flow_cri(flow, p))]).index
            high = campaign_cri([self._fr(flow_cri(flow, bumped))]).index
            assert high <= low + 1e-12


class TestLedger:
    def _result(self, index=50.0, campaign="camp"):
        return CampaignResult(
            campaign_id=campaign, flow_results=[], q_campaign=1.0 - index / 100.0,
            index=index, provenance={}, timestamp="2024-06-01T10:00:00+00:00",
        )

    def test_append_one(self, tmp_path):
        ledger = IndexLedger(path=str(tmp_path / "ledger.jsonl"))
        record_index(ledger, self._result(), "assumed")
        assert len(ledger.entries) == 1

    def test_time_ordered_pair(self, tmp_path):
        ledger = IndexLedger(path=str(tmp_path / "ledger.jsonl"))
        record_index(ledger, self._result(60.0), "assumed", ts="2024-06-01T10:00:00+00:00")
        record_index(ledger, self._result(55.0), "validated", ts="2024-06-01T11:00:00+00:00")
        assert [e.kind for e in ledger.entries] == ["assumed", "validated"]
        assert ledger.entries[0].ts < ledger.entries[1].ts

    def test_replay_round_trip(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = IndexLedger(path=path)
        record_index(ledger, self._result(60.0), "assumed", note="n1", ts="t1")
        record_index(ledger, self._result(55.0), "validated", note="n2", ts="t2")
        replayed = IndexLedger.load(path)
        assert replayed.entries == ledger.entries
        with open(path, encoding="utf-8") as fh:
            assert replayed.serialize() == fh.read()

    def test_unknown_kind_rejected(self, tmp_path):
        ledger = IndexLedger(path=str(tmp_path / "ledger.jsonl"))
        with pytest.raises(UsageError):
            record_index(ledger, self._result(), "hoped")

    def test_failed_write_leaves_memory_unchanged(self, tmp_path):
        ledger = IndexLedger(path=str(tmp_path / "missing-dir" / "ledger.jsonl"))
        with pytest.raises(OSError):
            record_index(ledger, self._result(), "assumed")
        assert ledger.entries == []


class TestCountermeasures:
    def test_parse_reference_file(self):
        measures = parse_countermeasures((SCENARIO / "countermeasures.json").read_text())
        assert [m.id for m in measures] == [
            "cm-mfa-rollout", "cm-noop-baseline", "cm-sensor-tuning",
        ]
        assert measures[0].total_cost == 45.0

    @pytest.mark.parametrize(
        "raw",
        [
            "[]",
            "not json",
            '[{"id": "x"}]',
            '[{"id": "x", "d3fend_group": "attack"}]',
            '[{"id": "x", "d3fend_group": "harden", "capex": -1}]',
            '[{"id": "x", "d3fend_group": "harden", "p_success_multiplier": "nan"}]',
            '[{"id": "x", "d3fend_group": "harden", "p_detect_multiplier": "inf"}]',
            '[{"id": "x", "d3fend_group": "harden", "opex": NaN}]',
        ],
    )
    def test_parse_rejects_malformed(self, raw):
        with pytest.raises(ValidationError):
            parse_countermeasures(raw)

    def test_identity_effect_is_zero_delta(self):
        _, inputs = single_step()
        cm = Countermeasure(id="noop", d3fend_group="restore", technique_id="T0001")
        delta = evaluate_countermeasure(inputs, cm, EngineConfig(mode="exact"))
        assert delta.delta_index == 0.0
        assert delta.matched

    def test_hardening_to_zero_gives_full_resilience(self):
        _, inputs = single_step(p_success=0.6)
        cm = Countermeasure(
            id="kill", d3fend_group="harden", technique_id="T0001",
            p_success_multiplier=0.0, capex=2.0,
        )
        delta = evaluate_countermeasure(inputs, cm, EngineConfig(mode="exact"))
        assert delta.index_after == 100.0
        assert delta.delta_index > 0

    def test_unmatched_warns_with_zero_delta(self):
        _, inputs = single_step()
        cm = Countermeasure(id="ghost", d3fend_group="harden", technique_id="T9999")
        delta = evaluate_countermeasure(inputs, cm, EngineConfig(mode="exact"))
        assert not delta.matched
        assert delta.delta_index == 0.0

    def test_reference_hardening_matches_fresh_pipeline(self, scenario):
        cm = Countermeasure(
            id="mfa", d3fend_group="harden", technique_id="T1078",
            p_success_multiplier=0.5, capex=30, opex=10, maintenance=5,
        )
        cfg = EngineConfig(mode="exact")
        delta = evaluate_countermeasure(scenario, cm, cfg)
        assert delta.delta_index > 0
        # independent recomputation of the whole pipeline as the oracle
        hardened = ValidatedInputs(
            network=scenario.network,
            flows=scenario.flows,
            ti=scenario.ti.with_multiplier("T1078", None, p_success_multiplier=0.5),
        )
        oracle = run_campaign(hardened, cfg).campaign.index
        assert delta.index_after == pytest.approx(oracle, abs=1e-12)
        assert delta.delta_per_cost == pytest.approx(delta.delta_index / 45.0, abs=1e-12)

    def test_success_reducing_multiplier_never_lowers_index(self, rng):
        _, inputs = single_step(p_success=0.7, p_detect=0.3)
        cfg = EngineConfig(mode="exact")
        base = run_campaign(inputs, cfg).campaign.index
        for multiplier in (0.9, 0.6, 0.3, 0.0):
            cm = Countermeasure(
                id=f"m{multiplier}", d3fend_group="harden",
                technique_id="T0001", p_success_multiplier=multiplier,
            )
            after = evaluate_countermeasure(inputs, cm, cfg).index_after
            assert after >= base - 1e-9

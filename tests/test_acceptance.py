"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import json
import random
import subprocess
import sys
import time

import pytest

from conftest import SCENARIO, load_scenario
from cri.attack_flow import parse_attack_flow, serialize_attack_flow
from cri.engine import EngineConfig, run_campaign
from cri.errors import CapacityError
from cri.index import FlowResult, campaign_cri, flow_cri
from cri.ingest import (
    ValidatedInputs,
    parse_network,
    parse_policy_set,
    serialize_network,
    serialize_policy_set,
)
from cri.pomdp import build_pomdp, complexity_report, state_space_size, value_iteration
from cri.simulate import estimate_expected_reward
from cri.threat_intel import load_threat_intel, serialize_threat_intel
from genscen import random_pomdp, random_scenario
from simoracle import brute_force_value
from toys import bundled_toys


def _report(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


def test_01_oracle_equivalence():
    rng = random.Random(101)
    started = time.time()
    for _ in range(50):
        pomdp = random_pomdp(rng, max_states=6, max_actions=3, max_obs=2, max_horizon=4)
        solver = value_iteration(pomdp).value
        oracle = brute_force_value(pomdp)[0]
        assert abs(solver - oracle) <= 1e-6
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(f"1 oracle-equivalence (50 models, {elapsed:.1f}s)")


def test_02_monte_carlo_consistency():
    for name, pomdp in bundled_toys():
        started = time.time()
        solved = value_iteration(pomdp)
        summary = estimate_expected_reward(pomdp, solved.policy, 100_000, seed=20240901)
        elapsed = time.time() - started
        gap = abs(summary.mean_reward - solved.value)
        assert gap <= 3 * summary.std_error, (name, gap, summary.std_error)
        assert elapsed < 30.0, name
    _report("2 monte-carlo-consistency (3 toy models, N=100000)")


def test_03_combination_algebra():
    from cri.index import combine_and, combine_or

    grid = [round(0.05 * i, 2) for i in range(21)]
    violations = 0
    for p in grid:
        for q in grid:
            a, o = combine_and(p, q), combine_or(p, q)
            checks = [
                a == combine_and(q, p),
                o == combine_or(q, p),
                0.0 <= a <= min(p, q),
                o == max(p, q),
                combine_and(p, 1.0) == p,
                combine_and(p, 0.0) == 0.0,
                combine_or(p, 0.0) == p,
                combine_or(p, p) == p,
            ]
            for r in grid[::4]:
                left = combine_and(combine_and(p, q), r)
                right = combine_and(p, combine_and(q, r))
                checks.append(abs(left - right) <= 1e-15)
                checks.append(combine_or(combine_or(p, q), r) == combine_or(p, combine_or(q, r)))
            if q >= p:
                checks.append(combine_and(0.5, q) >= combine_and(0.5, p))
                checks.append(combine_or(0.5, q) >= combine_or(0.5, p))
            violations += sum(1 for ok in checks if not ok)
    assert violations == 0
    _report("3 combination-algebra (0.05 grid, zero violations)")


def test_04_worst_case_formulas(scenario):
    assert state_space_size(2, 2) == 9
    assert state_space_size(12, 4) == 15**12
    fixtures = [
        (scenario.network, scenario.flows, scenario.ti),
    ]
    from toys import and_chain, noisy_sensor, single_step

    for _, inputs in (single_step(), and_chain(), noisy_sensor()):
        fixtures.append((inputs.network, inputs.flows, inputs.ti))
    for net, flows, ti in fixtures:
        est = complexity_report(net, flows, [build_pomdp(f, net, ti) for f in flows])
        assert est.comp_state_obs == est.worst_states * est.num_actions * est.worst_states * est.num_observations
        assert est.c_statetrans == est.worst_states * est.num_actions * est.worst_states
    _report("4 worst-case-formulas (state_space_size + complexity identities)")


def test_05_reduction_soundness():
    rng = random.Random(505)
    checked = 0
    while checked < 10:
        inputs = random_scenario(rng, max_nodes=3, max_items=2, max_steps=2)
        reduced = build_pomdp(inputs.flows[0], inputs.network, inputs.ti)
        try:
            naive = build_pomdp(inputs.flows[0], inputs.network, inputs.ti, naive=True)
        except CapacityError:
            continue
        checked += 1
        reachable = _reachable(naive)
        assert reachable == set(reduced.states)
        v_naive = value_iteration(naive).value
        v_reduced = value_iteration(reduced).value
        assert abs(v_naive - v_reduced) <= 1e-9
    _report("5 reduction-soundness (10 scenarios, sets equal, |dV| <= 1e-9)")


def _reachable(pomdp):
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


def test_06_hardening_monotonicity():
    # chain flows with per-technique reward economics: reducing one action's
    # success probability must not raise the attacker's value, nor lower the
    # published index
    rng = random.Random(606)
    cfg = EngineConfig(mode="exact", horizon=3)
    for _ in range(100):
        inputs = random_scenario(
            rng, max_nodes=2, max_items=1, max_steps=2,
            shared_rewards=True, distinct_classes=True, detect_noise=True,
        )
        rec = rng.choice(inputs.ti.records)
        multiplier = round(rng.uniform(0.0, 0.9), 2)
        hardened_ti = inputs.ti.with_multiplier(
            rec.technique_id, rec.asset_class, p_success_multiplier=multiplier
        )
        hardened = ValidatedInputs(inputs.network, inputs.flows, hardened_ti)

        before = build_pomdp(inputs.flows[0], inputs.network, inputs.ti, horizon=3)
        after = build_pomdp(hardened.flows[0], hardened.network, hardened.ti, horizon=3)
        v_before = brute_force_value(before)[0]
        v_after = brute_force_value(after)[0]
        assert v_after <= v_before + 1e-9

        index_before = run_campaign(inputs, cfg).campaign.index
        index_after = run_campaign(hardened, cfg).campaign.index
        assert index_after >= index_before - 1e-9
    _report("6 hardening-monotonicity (100 instances, V* and index)")


def test_07_flow_and_campaign_rules():
    flow = parse_attack_flow(
        json.dumps(
            {
                "attackFlow": [
                    {"step": s, "tactic": {"id": "TA1"}, "technique": {"id": f"T{s}"}}
                    for s in (1, 2, 3)
                ],
                "edges": [
                    {"from": 1, "to": 3, "relation": "AND"},
                    {"from": 2, "to": 3, "relation": "OR"},
                ],
            }
        ),
        flow_id="golden",
    )
    golden = (0.8 * 0.5) * 0.9  # frozen hand evaluation
    assert flow_cri(flow, {1: 0.8, 2: 0.5, 3: 0.9}) == golden

    def fr(q, fid):
        return FlowResult(flow_id=fid, p_n={1: q}, q_flow=q,
                          expected_attacker_reward=0.0, method="exact")

    campaign = campaign_cri([fr(0.2, "a"), fr(0.5, "b")], "camp")
    assert campaign.q_campaign == 0.5
    assert campaign.index == 50.0
    _report("7 flow-campaign-rules (golden DAG + exact 50.0)")


def test_08_cli_determinism(tmp_path):
    args = [
        "--network", str(SCENARIO / "network.graphml"),
        "--flows", str(SCENARIO / "flows"),
        "--policies", str(SCENARIO / "policies"),
        "--ti", str(SCENARIO / "ti.csv"),
        "--seed", "7", "--campaign", "ref",
    ]
    started = time.time()
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "cri.cli", "calc", *args, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1].startswith("CRI ")
        outs.append(out)
    elapsed = time.time() - started
    for name in ("campaign_report.json", "flows.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert elapsed < 30.0
    _report(f"8 cli-determinism (byte-identical, {elapsed:.1f}s)")


def test_09_parser_round_trips():
    docs = {
        "network": (SCENARIO / "network.graphml").read_text(),
        "network-sparse": (SCENARIO / "network_sparse_edges.graphml").read_text(),
    }
    for name, doc in docs.items():
        net = parse_network(doc)
        again = parse_network(serialize_network(net))
        assert set(again.nodes) == set(net.nodes) and again.edges == net.edges, name
        assert again.nodes == net.nodes

    for path in sorted((SCENARIO / "flows").glob("*.json")):
        flow = parse_attack_flow(path.read_text(), flow_id=path.stem)
        again = parse_attack_flow(serialize_attack_flow(flow), flow_id=path.stem)
        assert again.nodes == flow.nodes and again.edges == flow.edges

    for policy_dir in ("policies", "policies_isolated"):
        docs = [p.read_text() for p in sorted((SCENARIO / policy_dir).glob("*.xml"))]
        policies = parse_policy_set(docs)
        again = parse_policy_set([serialize_policy_set(policies)])
        assert again.rules == policies.rules
        assert again.segmentation == policies.segmentation

    ti = load_threat_intel((SCENARIO / "ti.csv").read_text())
    assert load_threat_intel(serialize_threat_intel(ti)).records == sorted(
        ti.records, key=lambda r: (r.technique_id, r.asset_class)
    )
    _report("9 parser-round-trips")


def test_10_policy_effect_end_to_end():
    baseline = load_scenario("policies", flow_names=["credential_chain"])
    isolated = load_scenario("policies_isolated", flow_names=["credential_chain"])
    cfg = EngineConfig(mode="exact")
    q_base = run_campaign(baseline, cfg).campaign.q_campaign
    q_isolated = run_campaign(isolated, cfg).campaign.q_campaign
    if q_base == 0.0:
        assert q_isolated == 0.0
    else:
        assert q_isolated < q_base
    _report(f"10 policy-effect (q {q_base:.4f} -> {q_isolated:.4f})")

import csv
import hashlib
import json
import shutil
import subprocess
import sys

import pytest
from click.testing import CliRunner

from conftest import MALFORMED, SCENARIO
from cri.cli import main

NETWORK = str(SCENARIO / "network.graphml")
FLOWS = str(SCENARIO / "flows")
POLICIES = str(SCENARIO / "policies")
TI = str(SCENARIO / "ti.csv")


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


def calc_args(out_dir, **overrides):
    args = {
        "network": NETWORK, "flows": FLOWS, "policies": POLICIES, "ti": TI,
        "seed": "7", "campaign": "ref", "out": str(out_dir),
    }
    args.update(overrides)
    flat = []
    for key, value in args.items():
        if value is not None:
            flat.extend([f"--{key.replace('_', '-')}", str(value)])
    return flat


class TestCalc:
    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        first = run_cli("calc", *calc_args(out1))
        second = run_cli("calc", *calc_args(out2))
        assert first.exit_code == 0, first.output
        assert second.exit_code == 0
        for name in ("campaign_report.json", "flows.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert first.stdout.strip().splitlines()[-1] == second.stdout.strip().splitlines()[-1]

    def test_final_line_is_the_index(self, tmp_path):
        result = run_cli("calc", *calc_args(tmp_path / "out"))
        assert result.exit_code == 0
        last = result.stdout.strip().splitlines()[-1]
        assert last.startswith("CRI ")
        float(last.split()[1])

    def test_missing_ti_file_exits_2(self, tmp_path):
        result = run_cli("calc", *calc_args(tmp_path / "out", ti=str(tmp_path / "nope.csv")))
        assert result.exit_code == 2
        assert "nope.csv" in result.output + str(result.stderr_bytes or b"")

    def test_ledger_receives_assumed_and_validated(self, tmp_path):
        out = tmp_path / "out"
        run_cli("calc", *calc_args(out))
        lines = [json.loads(l) for l in (out / "ledger.jsonl").read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["assumed", "validated"]
        assert all(list(l.keys()) == ["ts", "campaign", "index", "kind", "note"] for l in lines)

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"network={NETWORK}\nflows={FLOWS}\npolicies={POLICIES}\nti={TI}\n"
            f"seed=7\nout={tmp_path / 'cfg-out'}\ncampaign=from-config\n"
        )
        result = run_cli("calc", "--config", str(config), "--out", str(tmp_path / "flag-out"))
        assert result.exit_code == 0
        assert (tmp_path / "flag-out" / "campaign_report.json").exists()
        assert not (tmp_path / "cfg-out").exists()

    def test_diagnostics_to_stderr_index_to_stdout(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cri.cli", "calc", *calc_args(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("CRI ")

    def test_seeded_monte_carlo_golden(self, tmp_path):
        # pins seeded Monte Carlo on the fixture: a change to the order of
        # random draws or to the policy followed moves these digests
        out = tmp_path / "out"
        result = run_cli(
            "calc", *calc_args(out, campaign=None, mode="simulate", episodes="2000")
        )
        assert result.exit_code == 0, result.output
        assert result.stdout.strip().splitlines()[-1] == "CRI 37.682604"
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("campaign_report.json", "flows.csv")
        }
        assert digests == {
            "campaign_report.json": "6323fc2a4cc8872944929a3ed747ebadfca033eba543f8c1f94e9cb1bcfd93cf",
            "flows.csv": "0b68c094a9e538a0c619b7dcc16d00abb22a16ecc43c6699f48f031a33215c9e",
        }

    def test_non_finite_threat_intel_exits_2(self, tmp_path):
        rows = (SCENARIO / "ti.csv").read_text().splitlines(keepends=True)
        header = rows[0].strip().split(",")
        first = rows[1].strip().split(",")
        first[header.index("reward_success")] = "nan"
        bad = tmp_path / "ti.csv"
        bad.write_text(rows[0] + ",".join(first) + "\n" + "".join(rows[2:]))
        result = run_cli("calc", *calc_args(tmp_path / "out", ti=str(bad)))
        assert result.exit_code == 2
        assert "CRI " not in result.stdout

    def test_naive_check_flag_skips_gracefully_at_scale(self, tmp_path):
        result = run_cli("calc", *calc_args(tmp_path / "out"), "--naive-check")
        assert result.exit_code == 0
        report = json.loads((tmp_path / "out" / "campaign_report.json").read_text())
        assert all(f["naive_check"].startswith("skipped") for f in report["flows"])


class TestModeConsistency:
    def _mini_scenario(self, tmp_path):
        scen = tmp_path / "mini"
        (scen / "flows").mkdir(parents=True)
        (scen / "policies").mkdir()
        (scen / "network.graphml").write_text(
            '<graphml><graph edgedefault="undirected">'
            '<node id="gw"><data key="type">firewall</data><data key="entry_point">true</data></node>'
            '<node id="host"><data key="type">endpoint</data><data key="inventory">os</data></node>'
            '<edge source="gw" target="host"/>'
            "</graph></graphml>"
        )
        (scen / "flows" / "hit.json").write_text(json.dumps({
            "attackFlow": [
                {"step": 1, "tactic": {"id": "TA1"}, "technique": {"id": "T0001"}},
                {"step": 2, "tactic": {"id": "TA2"}, "technique": {"id": "T0002"}},
            ]
        }))
        (scen / "policies" / "open.xml").write_text(
            '<Policy PolicyId="open"><Rule RuleID="allow" Effect="Permit">'
            "<Target><Subject><AnySubject/></Subject></Target></Rule></Policy>"
        )
        (scen / "ti.csv").write_text(
            "technique_id,asset_class,p_success_base,p_detect,reward_success,"
            "penalty_failure,action_cost,historical_frequency\n"
            "T0001,endpoint,0.55,0,4,-1,0.5,1\n"
            "T0002,endpoint,0.4,0,6,-1,0.5,1\n"
        )
        return scen

    def test_exact_index_matches_simulated(self, tmp_path):
        scen = self._mini_scenario(tmp_path)
        base = dict(network=str(scen / "network.graphml"), flows=str(scen / "flows"),
                    policies=str(scen / "policies"), ti=str(scen / "ti.csv"), seed="7")
        exact = run_cli("calc", *calc_args(tmp_path / "exact", mode="exact", **base))
        sim = run_cli(
            "calc", *calc_args(tmp_path / "sim", mode="simulate", episodes="100000", **base)
        )
        assert exact.exit_code == 0 and sim.exit_code == 0
        q_exact = json.loads((tmp_path / "exact" / "campaign_report.json").read_text())
        q_sim = json.loads((tmp_path / "sim" / "campaign_report.json").read_text())
        index_exact = q_exact["campaign"]["index"]
        index_sim = q_sim["campaign"]["index"]
        # tolerance: propagate three standard errors of a Bernoulli estimate
        # through the two-node product (conservative bound)
        n = 100000
        se_bound = 3 * 100 * 2 * (0.25 / n) ** 0.5
        assert abs(index_exact - index_sim) <= se_bound


class TestOutNamingAFile:
    """An --out that cannot be a directory is rejected before the campaign
    runs: exit 2, the file untouched, no reports and no ledger line."""

    @pytest.mark.parametrize("command", ["calc", "whatif"])
    @pytest.mark.parametrize("nested", [False, True])
    def test_rejected_before_any_work(self, tmp_path, command, nested):
        existing = tmp_path / "taken.txt"
        existing.write_text("keep me\n")
        out = existing / "sub" if nested else existing
        ledger = tmp_path / "ledger.jsonl"
        extra = ["--countermeasures", str(SCENARIO / "countermeasures.json")] if command == "whatif" else []
        result = run_cli(command, *calc_args(out, ledger=str(ledger)), *extra)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "taken.txt" in result.output
        assert existing.read_text() == "keep me\n"
        assert not ledger.exists()

    def test_checked_before_inputs_are_read(self, tmp_path):
        existing = tmp_path / "taken.txt"
        existing.write_text("")
        result = run_cli("calc", *calc_args(existing, ti=str(MALFORMED / "not_utf8.csv")))
        assert result.exit_code == 2
        assert "out is not a directory" in result.output
        assert "not UTF-8" not in result.output


class TestUnreadableInputs:
    """Every input file goes through one reader: undecodable bytes or an
    unreadable path exit 2 with an error naming the file, never with a
    traceback."""

    NOT_UTF8 = str(MALFORMED / "not_utf8.csv")

    def _assert_rejected(self, result):
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "not_utf8.csv: not UTF-8" in result.output

    def test_complexity_ti(self):
        self._assert_rejected(run_cli(
            "complexity", "--network", NETWORK, "--flows", FLOWS, "--ti", self.NOT_UTF8,
        ))

    def test_complexity_network(self):
        self._assert_rejected(run_cli("complexity", "--network", self.NOT_UTF8))

    def test_config_file(self, tmp_path):
        self._assert_rejected(run_cli("calc", "--config", self.NOT_UTF8))

    def test_countermeasures_file(self, tmp_path):
        self._assert_rejected(run_cli(
            "whatif", *calc_args(tmp_path / "out"), "--countermeasures", self.NOT_UTF8,
        ))

    def test_ledger(self, tmp_path):
        ledger = tmp_path / "not_utf8.csv"
        shutil.copy(self.NOT_UTF8, ledger)
        self._assert_rejected(run_cli("calc", *calc_args(tmp_path / "out", ledger=str(ledger))))
        self._assert_rejected(run_cli("history", "--ledger", str(ledger)))

    def test_directory_as_ti(self, tmp_path):
        result = run_cli("calc", *calc_args(tmp_path / "out", ti=str(SCENARIO / "flows")))
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "flows: cannot read" in result.output


class TestRunNumbers:
    """A negative seed, a horizon below 1 and a config value that is not an
    integer exit 2 in every command that runs a campaign, from a flag or a
    config file, before any input is read."""

    COMMANDS = {
        "calc": [],
        "whatif": ["--countermeasures", str(SCENARIO / "countermeasures.json")],
    }

    def _run(self, tmp_path, command, config_line=None, **flags):
        # the TI file is not UTF-8: reading it first would exit 2 naming it
        overrides = {"ti": str(MALFORMED / "not_utf8.csv"), **flags}
        args = calc_args(tmp_path / "out", **overrides)
        if config_line is not None:
            config = tmp_path / "run.cfg"
            config.write_text(config_line + "\n")
            args = ["--config", str(config), *args]
        result = run_cli(command, *args, *self.COMMANDS[command])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "not UTF-8" not in result.output
        assert not (tmp_path / "out").exists()
        return result.output

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_seed_flag(self, tmp_path, command):
        output = self._run(tmp_path, command, seed="-1", mode="simulate")
        assert "seed must be non-negative, got -1" in output

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_seed_in_config(self, tmp_path, command):
        output = self._run(tmp_path, command, "seed=-4", seed=None)
        assert "seed must be non-negative, got -4" in output

    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_integer_seed_in_config(self, tmp_path, command):
        output = self._run(tmp_path, command, "seed=abc", seed=None)
        assert "config seed=abc: expected int" in output

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_horizon_below_one_flag(self, tmp_path, command, horizon):
        output = self._run(tmp_path, command, horizon=horizon)
        assert f"horizon must be at least 1, got {horizon}" in output

    @pytest.mark.parametrize("command", COMMANDS)
    def test_horizon_below_one_in_config(self, tmp_path, command):
        output = self._run(tmp_path, command, "horizon=0")
        assert "horizon must be at least 1, got 0" in output

    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_integer_horizon_in_config(self, tmp_path, command):
        output = self._run(tmp_path, command, "horizon=2.5")
        assert "config horizon=2.5: expected int" in output

    def test_zero_seed_and_unit_horizon_run(self, tmp_path):
        result = run_cli("calc", *calc_args(tmp_path / "out", seed="0", horizon="1"))
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "campaign_report.json").read_text())
        assert report["campaign"]["provenance"]["horizon"] == "1"


class TestComplexityCommand:
    def test_reference_scenario(self):
        result = run_cli(
            "complexity", "--network", NETWORK, "--flows", FLOWS,
            "--policies", POLICIES, "--ti", TI,
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        assert payload["worst_states"] == str(15**12)
        assert int(payload["reduced_states"]) < 10**4

    def test_two_node_toy(self, tmp_path):
        net = tmp_path / "toy.graphml"
        net.write_text(
            '<graphml><graph edgedefault="undirected">'
            '<node id="a"><data key="type">x</data><data key="inventory">i1;i2</data><data key="entry_point">true</data></node>'
            '<node id="b"><data key="type">y</data><data key="inventory">j1;j2</data></node>'
            '<edge source="a" target="b"/>'
            "</graph></graphml>"
        )
        result = run_cli("complexity", "--network", str(net))
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["worst_states"] == "9"
        assert payload["num_actions"] == 0

    @pytest.mark.parametrize("option", ["--flows", "--ti", "--policies"])
    def test_missing_path_exits_2(self, tmp_path, option):
        args = {"--network": NETWORK, "--flows": FLOWS, "--policies": POLICIES, "--ti": TI}
        args[option] = str(tmp_path / "none")
        result = run_cli("complexity", *(x for pair in args.items() for x in pair))
        assert result.exit_code == 2, result.output
        assert "none" in result.output

    def test_missing_path_from_config_exits_2(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"network={NETWORK}\nflows={tmp_path / 'none'}\n")
        result = run_cli("complexity", "--config", str(config))
        assert result.exit_code == 2, result.output

    def test_unbuildable_flow_exits_2_like_calc(self, tmp_path):
        isolated = str(SCENARIO / "policies_isolated")
        message = "no candidate targets for TTP step 2 (T1659) in flow 'dns_injection'"
        complexity = run_cli(
            "complexity", "--network", NETWORK, "--flows", FLOWS,
            "--policies", isolated, "--ti", TI,
        )
        calc = run_cli("calc", *calc_args(tmp_path / "out", policies=isolated))
        for result in (complexity, calc):
            assert result.exit_code == 2, result.output
            assert f"error: {message}" in result.output
        assert complexity.output == calc.output

    def test_accepts_only_the_options_it_reads(self):
        assert sorted(p.name for p in main.commands["complexity"].params) == [
            "config", "flows", "network", "policies", "ti",
        ]
        result = run_cli("complexity", "--network", NETWORK, "--episodes", "-5")
        assert result.exit_code == 2
        assert "No such option" in result.output


class TestWhatif:
    def test_reference_countermeasures(self, tmp_path):
        result = run_cli(
            "whatif", *calc_args(tmp_path / "out"),
            "--countermeasures", str(SCENARIO / "countermeasures.json"),
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "out" / "whatif_report.json").read_text())
        rows = {r["id"]: r for r in payload["countermeasures"]}
        assert rows["cm-noop-baseline"]["delta_index"] == 0.0
        assert rows["cm-mfa-rollout"]["delta_index"] > 0
        assert rows["cm-mfa-rollout"]["d3fend_group"] == "harden"
        assert set(payload["groups"]) <= {"harden", "detect", "isolate", "deceive", "evict", "restore"}
        with open(tmp_path / "out" / "whatif.csv", newline="", encoding="utf-8") as fh:
            assert len(list(csv.DictReader(fh))) == 3

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "cm.json"
        bad.write_text("{not json")
        result = run_cli(
            "whatif", *calc_args(tmp_path / "out"), "--countermeasures", str(bad)
        )
        assert result.exit_code == 2

    def test_non_finite_multiplier_exits_2(self, tmp_path):
        measures = json.loads((SCENARIO / "countermeasures.json").read_text())
        rows = measures["countermeasures"] if isinstance(measures, dict) else measures
        rows[0]["p_success_multiplier"] = "nan"
        bad = tmp_path / "cm.json"
        bad.write_text(json.dumps(measures))
        result = run_cli(
            "whatif", *calc_args(tmp_path / "out"), "--countermeasures", str(bad)
        )
        assert result.exit_code == 2
        assert not (tmp_path / "out" / "whatif_report.json").exists()


class TestHistory:
    def _ledger(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(
            '{"ts":"2024-06-01T10:00:00+00:00","campaign":"ref","index":60.0,"kind":"assumed","note":""}\n'
            '{"ts":"2024-06-01T11:00:00+00:00","campaign":"ref","index":55.5,"kind":"validated","note":""}\n'
        )
        return path

    def test_two_entries_in_time_order(self, tmp_path):
        result = run_cli("history", "--ledger", str(self._ledger(tmp_path)))
        assert result.exit_code == 0
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 2
        assert "assumed" in lines[0] and "validated" in lines[1]

    def test_filter_without_match_is_empty_success(self, tmp_path):
        result = run_cli(
            "history", "--ledger", str(self._ledger(tmp_path)), "--campaign", "other"
        )
        assert result.exit_code == 0
        assert result.stdout.strip() == ""

    def test_missing_file_exits_2(self, tmp_path):
        result = run_cli("history", "--ledger", str(tmp_path / "none.jsonl"))
        assert result.exit_code == 2

    @pytest.mark.parametrize("name", sorted(p.name for p in MALFORMED.glob("*.jsonl")))
    def test_malformed_ledger_exits_2(self, name):
        result = run_cli("history", "--ledger", str(MALFORMED / name))
        assert result.exit_code == 2, name
        assert isinstance(result.exception, SystemExit)

    def test_csv_export_round_trip(self, tmp_path):
        ledger = self._ledger(tmp_path)
        out_csv = tmp_path / "series.csv"
        run_cli("history", "--ledger", str(ledger), "--csv", str(out_csv))
        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        original = [json.loads(l) for l in ledger.read_text().splitlines()]
        assert [(r["ts"], r["kind"], float(r["index"])) for r in rows] == [
            (o["ts"], o["kind"], o["index"]) for o in original
        ]


class TestMalformedInputsSuite:
    CASES = sorted(p.name for p in MALFORMED.iterdir())

    @pytest.mark.parametrize("name", CASES)
    def test_each_malformed_input_is_rejected(self, tmp_path, name):
        assert len(self.CASES) >= 12
        source = MALFORMED / name
        args = {"out": str(tmp_path / "out")}
        if name.endswith(".graphml"):
            args["network"] = str(source)
        elif name.endswith(".jsonl"):
            shutil.copy(source, tmp_path / "ledger.jsonl")
            args["ledger"] = str(tmp_path / "ledger.jsonl")
        elif name.endswith(".json"):
            flows = tmp_path / "flows"
            flows.mkdir()
            shutil.copy(source, flows / "flow.json")
            args["flows"] = str(flows)
        elif name.endswith(".xml"):
            policies = tmp_path / "policies"
            policies.mkdir()
            shutil.copy(source, policies / "policy.xml")
            args["policies"] = str(policies)
        else:
            args["ti"] = str(source)
        result = run_cli("calc", *calc_args(tmp_path / "out", **args))
        assert result.exit_code == 2, name
        if name.endswith(".jsonl"):
            assert (tmp_path / "ledger.jsonl").read_bytes() == source.read_bytes()
            assert not (tmp_path / "out" / "campaign_report.json").exists()

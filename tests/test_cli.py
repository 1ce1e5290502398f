import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest
from click.testing import CliRunner

import cri.cli
from conftest import MALFORMED, REPO_ROOT, SCENARIO, CallCounter
from cri.cli import main
from genscen import two_target_tree

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

    def test_flows_file_runs_like_a_directory_holding_only_it(self, tmp_path):
        flow = SCENARIO / "flows" / "dns_injection.json"
        alone = tmp_path / "flows"
        alone.mkdir()
        shutil.copy(flow, alone)
        outputs = []
        for name, flows in (("file", flow), ("dir", alone), ("both", FLOWS)):
            result = run_cli("calc", *calc_args(tmp_path / name, flows=str(flows)))
            assert result.exit_code == 0, result.output
            outputs.append(result.stdout.splitlines()[-1])
        from_file, from_dir, both = outputs
        assert from_file.startswith("CRI ")
        assert from_file == from_dir != both
        for name in ("campaign_report.json", "flows.csv"):
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "dir" / name).read_bytes()

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

    @pytest.mark.parametrize("fmt,name", [("json", "campaign_report.json"), ("csv", "flows.csv")])
    def test_format_writes_only_its_report(self, tmp_path, fmt, name):
        default, single = tmp_path / "default", tmp_path / fmt
        ledger = str(tmp_path / "ledger.jsonl")
        assert run_cli("calc", *calc_args(default, ledger=ledger)).exit_code == 0
        result = run_cli("calc", *calc_args(single, ledger=ledger), "--format", fmt)
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in single.iterdir()) == [name]
        assert (single / name).read_bytes() == (default / name).read_bytes()

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
        # exact mode checks the flag models: a grid of 2^|flags| states
        result = run_cli("calc", *calc_args(tmp_path / "out"), "--naive-check")
        assert result.exit_code == 0
        report = json.loads((tmp_path / "out" / "campaign_report.json").read_text())
        assert {f["flow_id"]: f["naive_check"] for f in report["flows"]} == {
            "credential_chain": "ok",
            "dns_injection": "skipped: naive state space above cap "
                             "(estimated size 2013265920)",
        }

    def test_naive_check_in_both_mode_compares_the_full_models(self, tmp_path):
        # the flag model is checked as in exact mode; the walk model's naive
        # grid spans every inventory subset too, and is skipped above the cap
        result = run_cli(
            "calc", *calc_args(tmp_path / "out", mode="both", episodes="200"), "--naive-check"
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "campaign_report.json").read_text())
        assert {f["flow_id"]: f["naive_check"] for f in report["flows"]} == {
            "credential_chain": "flag model ok; walk model skipped: naive state space "
                                "above cap (estimated size 28334198897217871282176)",
            "dns_injection": "skipped: naive state space above cap "
                             "(estimated size 2013265920)",
        }


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


class TestModelRefusals:
    """Models the engine cannot build or solve exit 2 with an `error:` line
    and write no report."""

    @pytest.mark.parametrize("command", ["calc", "whatif"])
    def test_horizon_past_the_recursion_limit(self, tmp_path, command):
        extra = (
            ["--countermeasures", str(SCENARIO / "countermeasures.json")] if command == "whatif" else []
        )
        proc = subprocess.run(
            [sys.executable, "-m", "cri.cli", command,
             *calc_args(tmp_path / "out", horizon="5000"), *extra],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "error: horizon 5000 nests the belief search too deeply" in proc.stderr
        # the horizon is no size estimate
        assert "estimated size" not in proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr
        assert not (tmp_path / "out" / "campaign_report.json").exists()

    def test_coinciding_tree_leaf_flags(self, tmp_path):
        # target a with leaf q#l1 and target a#q with leaf l1 share a flag name
        bundle = two_target_tree("a#q", leaves=("q#l1", "l1"))
        scen = tmp_path / "scen"
        (scen / "flows").mkdir(parents=True)
        (scen / "policies").mkdir()
        (scen / "network.graphml").write_text(bundle.network_doc)
        (scen / "flows" / "tree.json").write_text(bundle.flow_docs[0])
        (scen / "policies" / "open.xml").write_text(bundle.policy_docs[0])
        (scen / "ti.csv").write_text(bundle.ti_doc)
        result = run_cli("calc", *calc_args(
            tmp_path / "out", network=str(scen / "network.graphml"), flows=str(scen / "flows"),
            policies=str(scen / "policies"), ti=str(scen / "ti.csv"),
        ))
        assert result.exit_code == 2, result.output
        assert "error: tree leaf flag 'ttp1@a#q#l1' names two actions" in result.output
        assert "CRI " not in result.output
        assert not (tmp_path / "out" / "campaign_report.json").exists()


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


class TestLedgerDirectory:
    """The ledger's directory is handled like --out: created when missing,
    rejected with exit 2 before any input is read when a file is in the way."""

    def test_missing_directory_is_created(self, tmp_path):
        ledger = tmp_path / "nodir" / "deeper" / "ledger.jsonl"
        result = run_cli("calc", *calc_args(tmp_path / "out", ledger=str(ledger)))
        assert result.exit_code == 0, result.output
        kinds = [json.loads(l)["kind"] for l in ledger.read_text().splitlines()]
        assert kinds == ["assumed", "validated"]

    def test_ledger_inside_missing_out(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli("calc", *calc_args(out, ledger=str(out / "ledger.jsonl")))
        assert result.exit_code == 0, result.output
        assert len((out / "ledger.jsonl").read_text().splitlines()) == 2

    @pytest.mark.parametrize("nested", [False, True])
    def test_file_in_the_way_exits_2_before_inputs(self, tmp_path, nested):
        existing = tmp_path / "taken.txt"
        existing.write_text("keep me\n")
        ledger = (existing / "sub" if nested else existing) / "ledger.jsonl"
        result = run_cli("calc", *calc_args(
            tmp_path / "out", ledger=str(ledger), ti=str(MALFORMED / "not_utf8.csv")
        ))
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "ledger directory is not a directory" in result.output
        assert "taken.txt" in result.output
        assert "not UTF-8" not in result.output
        assert existing.read_text() == "keep me\n"
        assert not (tmp_path / "out").exists()


class TestConfigKeys:
    """A config key that no command reads exits 2 naming its line, before
    any input is read; the bundled config works for every command."""

    COMMANDS = {
        "calc": [],
        "whatif": ["--countermeasures", str(SCENARIO / "countermeasures.json")],
        "complexity": [],
    }

    def _args(self, command, out, **overrides):
        if command == "complexity":
            return [f"--{key}={value}" for key, value in overrides.items()]
        return [*calc_args(out, **overrides), *self.COMMANDS[command]]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_key_exits_2_before_inputs(self, tmp_path, command):
        config = tmp_path / "run.cfg"
        config.write_text(f"# typos\nnetwork={NETWORK}\nmdoe=both\nepsiodes=50\n")
        args = self._args(command, tmp_path / "out", ti=str(MALFORMED / "not_utf8.csv"))
        result = run_cli(command, "--config", str(config), *args)
        assert result.exit_code == 2, result.output
        assert f"{config}:3: unknown key 'mdoe'" in result.output
        assert "not UTF-8" not in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bundled_config_runs(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(REPO_ROOT)
        config = "fixtures/scenario/config.txt"
        extra = [] if command == "complexity" else ["--out", str(tmp_path / "out")]
        result = run_cli(command, "--config", config, *extra, *self.COMMANDS[command])
        assert result.exit_code == 0, result.output


class TestTiDefaults:
    """A technique with no threat-intel record stops `calc` unless
    `--ti-defaults` (or `ti_defaults` in a config file) lets it take the
    default record."""

    @pytest.fixture
    def ti(self, tmp_path):
        path = tmp_path / "ti.csv"
        rows = (SCENARIO / "ti.csv").read_text().splitlines(keepends=True)
        path.write_text("".join(row for row in rows if not row.startswith("T1020,")))
        return str(path)

    def test_missing_record_exits_2(self, tmp_path, ti):
        result = run_cli("calc", *calc_args(tmp_path / "out", ti=ti))
        assert result.exit_code == 2, result.output
        assert (
            "flow dns_injection: technique T1020 has no threat-intel record "
            "and defaults are disabled"
        ) in result.output

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_defaults_stand_in_for_the_missing_record(self, tmp_path, ti, how):
        config = tmp_path / "run.cfg"
        config.write_text("ti_defaults=true\n")
        extra = ["--ti-defaults"] if how == "flag" else ["--config", str(config)]
        result = run_cli("calc", *extra, *calc_args(tmp_path / "out", ti=ti))
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "campaign_report.json").read_text())
        assumed = {flow["flow_id"]: flow["p_n"] for flow in report["assumed"]["flows"]}
        # step 3, T1020, takes the default record's p_success_base of 0.5
        assert assumed["dns_injection"] == {"1": 0.5, "2": 0.54, "3": 0.5}


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
    """A negative seed, a horizon below 1, an unknown mode, no episodes to
    simulate and a config value that is not an integer exit 2 in every
    command that runs a campaign, from a flag or a config file, before any
    input is read."""

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

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("config_line,flags,message", [
        ("mode=bogus", {}, "unknown mode 'bogus'"),
        ("episodes=abc", {}, "config episodes=abc: expected int"),
        (None, {"mode": "both", "episodes": "0"}, "episodes must be >= 1 when simulating"),
    ], ids=["config-mode", "config-episodes", "flag-episodes"])
    def test_engine_settings(self, tmp_path, command, config_line, flags, message):
        assert message in self._run(tmp_path, command, config_line, **flags)

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("line", ["naive_check=on", "ti_defaults=ture", "ti_defaults="])
    def test_non_boolean_in_config(self, tmp_path, command, line):
        key, raw = line.split("=")
        output = self._run(tmp_path, command, line)
        assert f"config {key}: boolean expected, got {raw!r}" in output

    @pytest.mark.parametrize("word,checked", [
        ("TRUE", True), ("Yes", True), ("1", True), ("false", False), ("NO", False), ("0", False),
    ])
    def test_boolean_words_in_config(self, tmp_path, word, checked):
        config = tmp_path / "run.cfg"
        config.write_text(f"naive_check={word}\n")
        result = run_cli("calc", "--config", str(config), *calc_args(tmp_path / "out"))
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "campaign_report.json").read_text())
        assert [f["naive_check"] is not None for f in report["flows"]] == [checked, checked]

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
        assert payload["worst_states"] == 15**12
        assert int(payload["reduced_states"]) < 10**4

    def test_prints_the_reports_complexity_block(self, tmp_path):
        result = run_cli(
            "complexity", "--network", NETWORK, "--flows", FLOWS,
            "--policies", POLICIES, "--ti", TI,
        )
        assert result.exit_code == 0, result.output
        calc = run_cli("calc", *calc_args(tmp_path / "out"))
        assert calc.exit_code == 0, calc.output
        report = json.loads((tmp_path / "out" / "campaign_report.json").read_text())
        assert json.loads(result.stdout) == report["complexity"]

    @pytest.mark.parametrize(
        "flags", [["--mode", "exact"], ["--mode", "both", "--episodes", "200"], ["--horizon", "9"]]
    )
    def test_agrees_with_calc_on_the_config(self, tmp_path, monkeypatch, flags):
        # calc reports the models it built with its --horizon; the command
        # builds its own with the default horizon, which sets no size
        monkeypatch.chdir(REPO_ROOT)
        config = "fixtures/scenario/config.txt"
        printed = run_cli("complexity", "--config", config)
        assert printed.exit_code == 0, printed.output
        calc = run_cli("calc", "--config", config, "--out", str(tmp_path / "out"), *flags)
        assert calc.exit_code == 0, calc.output
        block = json.loads((tmp_path / "out" / "campaign_report.json").read_text())["complexity"]
        assert block["reduced_states"] is not None
        assert json.loads(printed.stdout) == block

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
        assert payload["worst_states"] == 9
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

    def test_missing_threat_intel_exits_2_like_calc(self, tmp_path):
        ti = tmp_path / "ti.csv"
        ti.write_text("".join((SCENARIO / "ti.csv").read_text().splitlines(True)[:2]))
        complexity = run_cli(
            "complexity", "--network", NETWORK, "--flows", FLOWS,
            "--policies", POLICIES, "--ti", str(ti),
        )
        calc = run_cli("calc", *calc_args(tmp_path / "out", ti=str(ti)))
        for result in (complexity, calc):
            assert result.exit_code == 2, result.output
            assert "technique T1566 has no threat-intel record" in result.output
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

    def test_both_mode_writes_the_exact_reports(self, tmp_path):
        # a delta reads only the index, which `both` reads off the policy
        # graph as `exact` does; with --naive-check too
        seen = {}
        for name, extra in [
            ("exact", ["--mode", "exact"]),
            ("both", ["--mode", "both"]),
            ("both-naive", ["--mode", "both", "--naive-check"]),
        ]:
            out = tmp_path / name
            result = run_cli(
                "whatif", *calc_args(out), *extra,
                "--countermeasures", str(SCENARIO / "countermeasures.json"),
            )
            assert result.exit_code == 0, result.output
            seen[name] = (
                result.stdout,
                [(out / n).read_bytes() for n in ("whatif_report.json", "whatif.csv")],
            )
        assert seen["both"] == seen["exact"] == seen["both-naive"]

    def test_ledger_is_ignored_with_a_warning(self, tmp_path):
        warning = "warning: whatif writes no ledger; --ledger ignored"
        # a ledger whose directory could not be created is ignored too
        existing = tmp_path / "taken.txt"
        existing.write_text("keep me\n")
        seen = {}
        for where in (None, "flag", "config", "under-a-file"):
            out, ledger = tmp_path / f"out-{where}", tmp_path / f"ledger-{where}.jsonl"
            if where == "under-a-file":
                ledger = existing / "ledger.jsonl"
            config = tmp_path / f"{where}.cfg"
            config.write_text(f"ledger={ledger}\n" if where == "config" else "")
            extra = ["--ledger", str(ledger)] if where in ("flag", "under-a-file") else []
            result = run_cli(
                "whatif", *calc_args(out), "--config", str(config), *extra,
                "--countermeasures", str(SCENARIO / "countermeasures.json"),
            )
            assert result.exit_code == 0, result.output
            assert result.stderr.splitlines().count(warning) == (where is not None)
            assert not ledger.exists()
            assert sorted(p.name for p in out.iterdir()) == ["whatif.csv", "whatif_report.json"]
            seen[where] = (result.stdout, [(out / n).read_bytes() for n in sorted(os.listdir(out))])
        assert seen["flag"] == seen[None] == seen["config"] == seen["under-a-file"]
        assert existing.read_text() == "keep me\n"

    def test_countermeasure_matching_no_technique_warns(self, tmp_path):
        ghost = tmp_path / "cm.json"
        ghost.write_text(json.dumps(
            [{"id": "cm-ghost", "d3fend_group": "deceive", "technique_id": "T0000", "capex": 3}]
        ))
        result = run_cli(
            "whatif", *calc_args(tmp_path / "out"), "--countermeasures", str(ghost)
        )
        assert result.exit_code == 0, result.output
        assert result.stderr.splitlines() == [
            "warning: countermeasure cm-ghost matches no technique"
        ]
        payload = json.loads((tmp_path / "out" / "whatif_report.json").read_text())
        assert [(r["id"], r["delta_index"]) for r in payload["countermeasures"]] == [
            ("cm-ghost", 0.0)
        ]

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

    def test_duplicate_id_exits_2(self, tmp_path):
        measures = json.loads((SCENARIO / "countermeasures.json").read_text())
        rows = measures["countermeasures"] if isinstance(measures, dict) else measures
        rows[1]["id"] = rows[0]["id"]
        bad = tmp_path / "cm.json"
        bad.write_text(json.dumps(measures))
        result = run_cli(
            "whatif", *calc_args(tmp_path / "out"), "--countermeasures", str(bad)
        )
        assert result.exit_code == 2
        assert f"error: countermeasure 1: duplicate id {rows[0]['id']!r}" in result.output
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

    @pytest.mark.parametrize("target", ["missing/series.csv", "."])
    def test_unwritable_csv_exits_2(self, tmp_path, target):
        csv_path = tmp_path / target
        result = run_cli("history", "--ledger", str(self._ledger(tmp_path)), "--csv", str(csv_path))
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: {csv_path}: cannot write" in result.output


class TestMalformedInputsSuite:
    """Each malformed input is rejected by its own parser: its `error:`
    line says why."""

    CASES = sorted(p.name for p in MALFORMED.iterdir())
    REASONS = {
        "bad_effect.xml": "unknown Effect 'Maybe'",
        "bad_header.csv": "threat-intel CSV header must be exactly",
        "bad_json.json": "invalid attack-flow JSON",
        "bad_prob.csv": "p_success_base=1.2 outside [0,1]",
        "bad_relation.json": "unknown relation 'XOR'",
        "bad_xml.graphml": "malformed GraphML XML",
        "bad_zone.xml": "zone 'empty_zone' has no members",
        "bool_step.json": "'step' must be an integer",
        "cycle.json": "has a cycle through steps [1, 2]",
        "dup_edge.graphml": "duplicate edge ('b', 'a')",
        "dup_key.csv": "duplicate threat-intel key ('T1078', 'endpoint')",
        "dup_node.graphml": "duplicate node id 'a'",
        "dup_step.json": "duplicate step 1",
        "dup_tree_id.json": "duplicate attack tree id 't'",
        "empty_policy.xml": "empty Policy",
        "int_edges.json": "'edges' must be an array",
        "ledger_bogus_kind.jsonl": "line 2: 'kind' must be assumed|validated",
        "ledger_missing_key.jsonl": "line 1: 'ts' must be a string",
        "ledger_nan_index.jsonl": "line 1: 'index' must be a finite number",
        "ledger_not_object.jsonl": "line 1: expected a JSON object",
        "ledger_string_index.jsonl": "line 1: 'index' must be a finite number",
        "list_edge_step.json": "'from' and 'to' must be integer steps",
        "missing_technique.json": "technique: missing 'id'",
        "nan_leaf_cost.json": "leaf 'x' cost='nan' is not a finite number",
        "nan_reward.csv": "reward_success=nan is not a finite number",
        "negative_leaf_reward.json": "leaf 'x' reward_success=-3.0 outside [0,inf]",
        "no_entry.graphml": "declares no entry_point",
        "not_utf8.csv": "not UTF-8 text (byte 0)",
        "self_loop.graphml": "self-loop edge on node 'a'",
        "string_tactic.json": "'tactic' must be an object",
        "two_policy_targets.xml": "more than one policy-level <Target>",
        "tree_for_other_technique.json": (
            "step 1 (T1078) references attack tree 't' for technique T1659"
        ),
        "two_rule_targets.xml": "rule 'r' has more than one <Target>",
        "unknown_edge.graphml": "edge ('a', 'ghost') references an unknown node",
    }

    def test_every_reason_names_a_fixture(self):
        assert sorted(self.REASONS) == self.CASES

    @pytest.mark.parametrize("name", CASES)
    def test_each_malformed_input_is_rejected(self, tmp_path, name):
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
        assert result.stderr.startswith("error: "), result.stderr
        assert self.REASONS[name] in result.stderr, result.stderr
        if name.endswith(".csv"):
            # a table that did not parse names no technique as missing
            assert "has no threat-intel record" not in result.stderr, result.stderr
        if name.endswith(".jsonl"):
            assert (tmp_path / "ledger.jsonl").read_bytes() == source.read_bytes()
            assert not (tmp_path / "out" / "campaign_report.json").exists()

    def test_leaf_out_of_range_stops_before_any_build(self, tmp_path, monkeypatch):
        """A leaf value its column's range refuses fails the inputs' check,
        so no model is built."""
        flows = tmp_path / "flows"
        flows.mkdir()
        doc = (MALFORMED / "negative_leaf_reward.json").read_text()
        (flows / "flow.json").write_text(doc.replace('"reward_success": -3', '"cost": -1'))
        checks = CallCounter(monkeypatch, "validate_bundle", module=cri.cli)
        builds = CallCounter(monkeypatch, "build_pomdp")
        result = run_cli("calc", *calc_args(tmp_path / "out", flows=str(flows)))
        assert result.exit_code == 2, result.output
        assert "attack tree 't': leaf 'x' cost=-1.0 outside [0,inf]" in result.stderr
        assert (checks.calls, builds.calls) == ({"validate_bundle": 1}, {"build_pomdp": 0})


class TestNumpyDeferred:
    """numpy is loaded by the first Monte Carlo walk, not by `import cri.cli`:
    each check runs in a fresh interpreter."""

    SCRIPT = (
        "import sys\n"
        "from cri.cli import main\n"
        "try:\n"
        "    main(args=sys.argv[1:], prog_name='cri')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print('numpy' in sys.modules)\n"
    )

    def _loads_numpy(self, *args) -> bool:
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1] == "True"

    def test_import_cli(self):
        assert not self._loads_numpy("--version")

    @pytest.mark.parametrize("mode", ["exact", "simulate", "both"])
    def test_calc(self, tmp_path, mode):
        loads = self._loads_numpy(
            "calc", *calc_args(tmp_path / "out"), "--mode", mode, "--episodes", "50",
        )
        assert loads == (mode != "exact")

    @pytest.mark.parametrize("mode", ["exact", "simulate", "both"])
    def test_whatif(self, tmp_path, mode):
        # `both` reads its index off the policy graph, as `exact` does, so
        # only `simulate` walks
        loads = self._loads_numpy(
            "whatif", *calc_args(tmp_path / "out"), "--mode", mode, "--episodes", "50",
            "--countermeasures", str(SCENARIO / "countermeasures.json"),
        )
        assert loads == (mode == "simulate")

    def test_complexity(self):
        assert not self._loads_numpy(
            "complexity", "--network", NETWORK, "--flows", FLOWS,
            "--policies", POLICIES, "--ti", TI,
        )

    def test_history(self, tmp_path):
        assert run_cli("calc", *calc_args(tmp_path / "out")).exit_code == 0
        assert not self._loads_numpy("history", "--ledger", str(tmp_path / "out" / "ledger.jsonl"))


def test_module_import_order_is_deterministic():
    script = "import sys, cri.cli\nprint(*(m for m in sys.modules if m.split('.')[0] == 'cri'))\n"
    orders = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        orders.append(proc.stdout.split())
    assert orders[0] == orders[1]
    assert orders[0][-1] == "cri.cli"


def test_import_cli_loads_every_module():
    # the package ships only modules that a command imports
    script = (
        "import pkgutil, sys, cri, cri.cli\n"
        "for m in pkgutil.walk_packages(cri.__path__, 'cri.'):\n"
        "    print(m.name, m.name in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(line.split() for line in proc.stdout.splitlines())
    assert "cri.pomdp.solve" in loaded
    assert [name for name, seen in loaded.items() if seen != "True"] == []

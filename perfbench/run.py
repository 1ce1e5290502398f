"""Engine benchmark: three workloads through the `cri` CLI entry point.

Run from the repository root:

    python3 perfbench/run.py --workload fixture-calc --seed 7 --seconds 30 --trace 0

The load is a closed loop in one process: one CLI command at a time, each
the argv a user would type, passed to `cri.cli.main`. Every command gets a
fresh `--out` directory and ledger, and is checked against
`perfbench/goldens.json`: its exit code, its stdout (the `CRI` line, or
the what-if deltas) and the sha256 of its report files. Report digests
are stored for `--seed 7`; at other seeds every command must write the
same bytes as the run's first one. One warm-up command per run is checked
but not timed.

Workloads, and why each was chosen:

- fixture-calc: `calc --mode both --episodes 10000` on fixtures/scenario.
  The only workload where Monte Carlo (`simulate`) does most of the work,
  so a simulation change shows here and nowhere else.
- fixture-whatif: `whatif` with the fixture's three countermeasures, exact
  mode. Six `run_campaign` calls where the solve dominates and no Monte
  Carlo runs; the one workload where what-if orchestration can show.
- mesh-paths: `calc --mode exact` on a generated 30-node mesh (see
  meshgen.py). Path enumeration dominates while the model stays tiny, so
  path-analysis changes show here and should not move the fixtures.

`--seed` is the CLI's `--seed`: it picks the Monte Carlo streams and the
provenance seed, never the work size, so runs with different seeds are
comparable. The mesh has its own `--mesh-seed` with a fixed default,
because path counts (and so time) swing more than tenfold across
generated networks; compare runs on other meshes by
`netmodel.physical_paths.paths`, not by time.

`--trace 0` prints the end-to-end metrics: `wall_s` (median seconds per
command, import excluded; a run holds too few commands to leave ten
samples beyond any high percentile, so none is reported), `setup_s`
(median over fresh processes of `import cri.cli` plus one
`validate_bundle` of the inputs) and `peak_rss_mb` (this process's peak
resident memory). Both times are normalized to a reference host speed by
probe.py: each is scaled by REF_S over the median time of a fixed kernel
run during the command (or, for set-up, right after it in the same
process), which cancels most of the shared host's drift. The raw medians
and the probe's median are printed above the result line. `--trace 1` instead
alternates untraced and traced commands and prints per-layer metrics from
spans recorded by tracer.py; it writes the spans to
`.perfbench/spans-<workload>.jsonl`.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Failed commands / attempted commands is the failure ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import meshgen
import probe
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
FIXTURE = "fixtures/scenario"
WORK = ".perfbench"
SETUP_REPEATS = 7

# Which layer should hold the largest self time on each workload; printed
# by the traced run. Not a correctness check: a change that speeds the
# dominant layer up may rightly move it.
EXPECTED_DOMINANT = {
    "fixture-calc": "simulate",
    "fixture-whatif": "pomdp.solve",
    "mesh-paths": "netmodel",
}

REPORTS = {
    "calc": ("campaign_report.json", "flows.csv"),
    "whatif": ("whatif_report.json", "whatif.csv"),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: name -> unit. Times are medians over traced commands.
PER_LAYER = {
    "ingest.validate_bundle.s": "s",
    "netmodel.physical_paths.s": "s",
    "netmodel.physical_paths.calls": "count",
    "netmodel.physical_paths.paths": "count",
    "netmodel.reachable_targets.s": "s",
    "pomdp.build.analyze_targets.s": "s",
    "pomdp.build.analyze_targets.calls": "count",
    "pomdp.build.build_pomdp.self_s": "s",
    "pomdp.build.build_pomdp.calls": "count",
    "pomdp.build.build_pomdp.states": "count",
    "pomdp.build.build_pomdp.actions": "count",
    "pomdp.build.builds_per_flow": "ratio",
    "pomdp.solve.value_iteration.s": "s",
    "pomdp.solve.value_iteration.calls": "count",
    "pomdp.solve.value_iteration.beliefs": "count",
    "pomdp.solve.beliefs_per_s": "1/s",
    "pomdp.solve.cap_headroom": "ratio",
    "pomdp.solve.milestone_probabilities.s": "s",
    "simulate.estimate_expected_reward.s": "s",
    "simulate.estimate_expected_reward.episodes": "count",
    "simulate.episodes_per_s": "1/s",
    "simulate.truncated_ratio": "ratio",
    "pomdp.complexity.complexity_report.self_s": "s",
    "pomdp.complexity.complexity_report.calls": "count",
    "engine.run_campaign.self_s": "s",
    "engine.run_campaign.calls": "count",
    "engine.runs_per_countermeasure": "ratio",
    "index.evaluate_countermeasure.s": "s",
    "index.record_index.s": "s",
    "cli.write_reports.s": "s",
    "cli.report_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    # Self time per layer; these add up to trace.wall_s.
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or inputs)."""


def _inputs(workload: str, mesh_dir: str) -> dict[str, str]:
    base = mesh_dir if workload == "mesh-paths" else FIXTURE
    return {
        "network": f"{base}/network.graphml",
        "flows": f"{base}/flows",
        "policies": f"{base}/policies",
        "ti": f"{base}/ti.csv",
    }


def command_argv(workload: str, inputs: dict[str, str], seed: int, out: str) -> list[str]:
    files = [arg for key, path in inputs.items() for arg in (f"--{key}", path)]
    common = ["--seed", str(seed), "--out", out, "--ledger", f"{out}/ledger.jsonl"]
    if workload == "fixture-calc":
        return ["calc", *files, "--mode", "both", "--episodes", "10000", *common]
    if workload == "fixture-whatif":
        return ["whatif", *files, "--countermeasures", f"{FIXTURE}/countermeasures.json", *common]
    return ["calc", *files, "--mode", "exact", *common]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Outcome:
    """Result of one CLI command: exit code, stdout and report digests."""

    def __init__(self, code: int, stdout: str, out_dir: Path, names: tuple[str, ...], wall: float):
        self.code = code
        self.stdout = stdout
        self.wall = wall
        self.reports = {n: _sha256(out_dir / n) for n in names if (out_dir / n).exists()}
        self.report_bytes = sum((out_dir / n).stat().st_size for n in self.reports)
        self.index_after = None
        if "whatif_report.json" in self.reports:
            try:
                report = json.loads((out_dir / "whatif_report.json").read_text())
                self.index_after = [round(c["index_after"], 6) for c in report["countermeasures"]]
            except (ValueError, KeyError, TypeError):
                pass  # left None, so the index check reports it

    def problems(self, names: tuple[str, ...], expected: dict) -> list[str]:
        found = []
        if self.code != 0:
            found.append(f"exit code {self.code}")
        missing = [n for n in names if n not in self.reports]
        if missing:
            found.append(f"missing reports {missing}")
        if self.stdout != expected["stdout"]:
            found.append(f"stdout {self.stdout!r} != {expected['stdout']!r}")
        for name, digest in expected["reports"].items():
            if self.reports.get(name) != digest:
                found.append(f"{name} digest {self.reports.get(name)} != {digest}")
        if expected.get("index_after") and self.index_after != expected["index_after"]:
            found.append(f"index_after {self.index_after} != {expected['index_after']}")
        return found


class Runner:
    def __init__(self, workload: str, seed: int, mesh_seed: int, work: Path):
        import cri.cli

        self.cli = cri.cli.main
        self.workload = workload
        self.seed = seed
        self.work = work
        self.count = 0
        self.failed = 0
        mesh_dir = work / "mesh"
        if workload == "mesh-paths":
            meshgen.write(mesh_dir, mesh_seed)
        self.inputs = _inputs(workload, os.path.relpath(mesh_dir, ROOT))
        golden = json.loads((HERE / "goldens.json").read_text())[workload]
        # None: taken from the run's first command (its own reference).
        same_mesh = golden.get("mesh_seed", mesh_seed) == mesh_seed
        self.expected = {
            "stdout": golden["stdout"] if same_mesh else None,
            "reports": golden["reports"] if same_mesh and golden["reports_seed"] in (None, seed) else None,
            "index_after": golden.get("index_after"),
        }
        self.names = REPORTS[command_argv(workload, self.inputs, seed, "")[0]]

    def run(self, call=lambda fn, **kwargs: fn(**kwargs)) -> Outcome:
        """Run one command in a fresh out dir through `call` and check it."""
        out = self.work / f"cmd{self.count}"
        argv = command_argv(self.workload, self.inputs, self.seed, os.path.relpath(out, ROOT))
        self.count += 1
        gc.collect()
        buf = io.StringIO()
        code = 0
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                call(self.cli.main, args=argv, prog_name="cri", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed command, not a benchmark crash
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - start
        outcome = Outcome(code, buf.getvalue(), out, self.names, wall)
        if self.expected["stdout"] is None:
            self.expected["stdout"] = outcome.stdout
        if self.expected["reports"] is None:
            self.expected["reports"] = outcome.reports
        problems = outcome.problems(self.names, self.expected)
        if problems:
            self.failed += 1
            print(f"{self.workload} command {self.count} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return outcome


SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[5])
start = time.perf_counter()
import cri.cli
from pathlib import Path
from cri.ingest import RawBundle, validate_bundle
network, flows, policies, ti = map(Path, sys.argv[1:5])
flow_paths = sorted(p for p in flows.iterdir() if p.suffix == ".json")
policy_paths = sorted(p for p in policies.iterdir() if p.suffix == ".xml")
validate_bundle(RawBundle(
    network_doc=network.read_text(encoding="utf-8"),
    flow_docs=[p.read_text(encoding="utf-8") for p in flow_paths],
    policy_docs=[p.read_text(encoding="utf-8") for p in policy_paths],
    ti_doc=ti.read_text(encoding="utf-8"),
    flow_names=[p.stem for p in flow_paths],
))
took = time.perf_counter() - start
import probe
print(took, probe.median_sample(25))
"""


def setup_seconds(inputs: dict[str, str]) -> tuple[float, float]:
    """Median over fresh processes of `import cri.cli` + one validate_bundle:
    normalized to reference speed, and raw."""
    env = dict(os.environ, CRI_LOG="error", PYTHONPATH=str(ROOT / "src"))
    args = [inputs[k] for k in ("network", "flows", "policies", "ti")] + [str(HERE)]
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise BenchError(f"setup process failed: {done.stderr.strip()}")
        took, speed = map(float, done.stdout.split())
        times.append(took * probe.REF_S / speed)
        raw.append(took)
    return statistics.median(times), statistics.median(raw)


def timed_loop(seconds: float, step) -> list:
    """Call step() while the next call, if it takes as long as the last,
    ends within `seconds` (at least once)."""
    results = []
    start = time.perf_counter()
    took = 0.0
    while not results or time.perf_counter() - start + took < seconds:
        began = time.perf_counter()
        results.append(step())
        took = time.perf_counter() - began
    return results


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    setup, setup_raw = setup_seconds(runner.inputs)
    speed = probe.Probe()
    runner.run()  # warm-up, checked but not timed

    def step():
        outcome = runner.run(speed.call)
        return outcome.wall - speed.spent, speed.normalize(outcome.wall), statistics.median(speed.samples)

    raw, walls, probes = zip(*timed_loop(seconds, step))
    print(f"wall_s over {len(walls)} timed commands: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"raw: wall_s {statistics.median(raw):.4f} setup_s {setup_raw:.4f};"
          f" probe median {statistics.median(probes) * 1e3:.3f} ms (reference {probe.REF_S * 1e3:.3f} ms)")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _layer_metrics(stats, report_bytes: int, belief_cap: int) -> dict[str, float]:
    def total(name):
        return stats.total_s.get(name, 0.0)

    def own(name):
        return stats.self_s.get(name, 0.0)

    def calls(name):
        return stats.calls.get(name, 0)

    def counter(name, key):
        return stats.counters.get(name, {}).get(key, 0)

    beliefs = counter("pomdp.solve.value_iteration", "beliefs")
    solve_s = total("pomdp.solve.value_iteration")
    episodes = counter("simulate.estimate_expected_reward", "episodes")
    sim_s = total("simulate.estimate_expected_reward")
    flows = counter("engine.run_campaign", "flows")
    countermeasures = calls("index.evaluate_countermeasure")
    out = {
        "ingest.validate_bundle.s": total("ingest.validate_bundle"),
        "netmodel.physical_paths.s": total("netmodel.physical_paths"),
        "netmodel.physical_paths.calls": calls("netmodel.physical_paths"),
        "netmodel.physical_paths.paths": counter("netmodel.physical_paths", "paths"),
        "netmodel.reachable_targets.s": total("netmodel.reachable_targets"),
        "pomdp.build.analyze_targets.s": total("pomdp.build.analyze_targets"),
        "pomdp.build.analyze_targets.calls": calls("pomdp.build.analyze_targets"),
        "pomdp.build.build_pomdp.self_s": own("pomdp.build.build_pomdp"),
        "pomdp.build.build_pomdp.calls": calls("pomdp.build.build_pomdp"),
        "pomdp.build.build_pomdp.states": counter("pomdp.build.build_pomdp", "states"),
        "pomdp.build.build_pomdp.actions": counter("pomdp.build.build_pomdp", "actions"),
        "pomdp.build.builds_per_flow": calls("pomdp.build.build_pomdp") / flows if flows else 0.0,
        "pomdp.solve.value_iteration.s": solve_s,
        "pomdp.solve.value_iteration.calls": calls("pomdp.solve.value_iteration"),
        "pomdp.solve.value_iteration.beliefs": beliefs,
        "pomdp.solve.beliefs_per_s": beliefs / solve_s if solve_s else 0.0,
        "pomdp.solve.cap_headroom": (
            1.0 - stats.peak_counters.get("pomdp.solve.value_iteration", {}).get("beliefs", 0) / belief_cap
        ),
        "pomdp.solve.milestone_probabilities.s": total("pomdp.solve.milestone_probabilities"),
        "simulate.estimate_expected_reward.s": sim_s,
        "simulate.estimate_expected_reward.episodes": episodes,
        "simulate.episodes_per_s": episodes / sim_s if sim_s else 0.0,
        "simulate.truncated_ratio": (
            counter("simulate.estimate_expected_reward", "truncated") / episodes if episodes else 0.0
        ),
        "pomdp.complexity.complexity_report.self_s": own("pomdp.complexity.complexity_report"),
        "pomdp.complexity.complexity_report.calls": calls("pomdp.complexity.complexity_report"),
        "engine.run_campaign.self_s": own("engine.run_campaign"),
        "engine.run_campaign.calls": calls("engine.run_campaign"),
        "engine.runs_per_countermeasure": (
            calls("engine.run_campaign") / countermeasures if countermeasures else 0.0
        ),
        "index.evaluate_countermeasure.s": total("index.evaluate_countermeasure"),
        "index.record_index.s": total("index.record_index"),
        "cli.write_reports.s": total("cli.write_reports"),
        "cli.report_bytes": report_bytes,
    }
    out.update({f"layer.{k}.self_s": v for k, v in stats.layer_self_s.items()})
    return out


def traced(runner: Runner, seconds: float) -> tuple[dict[str, float], list[str]]:
    """Alternate untraced and traced commands; per-layer metrics from spans."""
    from cri.pomdp import solve

    belief_cap = inspect.signature(solve.value_iteration).parameters["belief_cap"].default
    tracer = Tracer()
    runner.run()  # warm-up
    pairs = []

    def pair():
        plain = runner.run()
        tracer.install()
        try:
            run_id = len(pairs)
            outcome = runner.run(lambda fn, **kw: tracer.call(run_id, fn, **kw))
        finally:
            tracer.uninstall()
        pairs.append((plain, outcome, tracer.stats(run_id)))

    timed_loop(seconds, pair)
    tracer.write(ROOT / WORK / f"spans-{runner.workload}.jsonl")

    problems = []
    per_run = []
    for plain, outcome, stats in pairs:
        metrics = _layer_metrics(stats, outcome.report_bytes, belief_cap)
        attributed = sum(stats.layer_self_s.values())
        # Self times partition the root span, so they must add up to the
        # traced command's wall time (up to the root wrapper's own cost).
        if abs(outcome.wall - attributed) > 0.01 * outcome.wall + 0.005:
            problems.append(f"layer self times {attributed:.4f}s != traced wall {outcome.wall:.4f}s")
        metrics["trace.wall_s"] = outcome.wall
        metrics["trace.overhead_s"] = outcome.wall - plain.wall
        per_run.append(metrics)
    result = {}
    for name, unit in PER_LAYER.items():
        pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
        result[name] = pick(m[name] for m in per_run)
    layers = {layer: result[f"layer.{layer}.self_s"] for layer in LAYERS}
    dominant = max(layers, key=layers.get)
    print(
        f"dominant layer: {dominant} ({layers[dominant] / result['trace.wall_s']:.0%} of traced wall;"
        f" expected {EXPECTED_DOMINANT[runner.workload]}), {len(pairs)} traced commands"
    )
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cri engine benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED_DOMINANT))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mesh-seed", type=int, default=meshgen.DEFAULT_SEED)
    args = parser.parse_args(argv)

    for needed in ("src/cri/cli.py", f"{FIXTURE}/countermeasures.json"):
        if not (ROOT / needed).exists():
            print(f"error: {needed} not found under {ROOT}; run from a full checkout",
                  file=sys.stderr)
            return 2
    os.chdir(ROOT)
    os.environ["CRI_LOG"] = "error"
    sys.path.insert(0, str(ROOT / "src"))
    import cri

    if Path(cri.__file__).resolve().parent != ROOT / "src" / "cri":
        print(f"error: imported cri from {cri.__file__}, not this checkout", file=sys.stderr)
        return 2

    work = ROOT / WORK / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, args.mesh_seed, work)
        if args.trace:
            values, problems = traced(runner, args.seconds)
            units = PER_LAYER
        else:
            values, problems = end_to_end(runner, args.seconds), []
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:45s} {values[name]:>14.6g} {unit}")
    print(f"commands: {runner.count} attempted, {runner.failed} failed")
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.count,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke checks for the benchmark's own parts, on a tiny generated mesh.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import hashlib
import io
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import meshgen  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from cri.cli import main  # noqa: E402
from cri.ingest import RawBundle, validate_bundle  # noqa: E402

TINY = {"nodes": 8, "chords": 4}


def test_mesh_is_deterministic_and_shaped():
    files = meshgen.generate(5, **TINY)
    assert files == meshgen.generate(5, **TINY)
    assert files != meshgen.generate(6, **TINY)
    inputs = validate_bundle(RawBundle(
        network_doc=files["network.graphml"],
        flow_docs=[files["flows/mesh_chain.json"]],
        policy_docs=[files["policies/mesh.xml"]],
        ti_doc=files["ti.csv"],
    ))
    net = inputs.network
    assert len(net.nodes) == 8 and len(net.edges) == 7 + 4
    assert len(net.entry_points()) == 1
    classes = sorted(n.asset_class for n in net.nodes.values())
    assert classes.count("endpoint") == 2 and classes.count("server") == 2
    assert net.policies.has_deny_rules and len(net.policies.segmentation) == 3


def test_traced_command_partitions_wall_time(tmp_path):
    meshgen.write(tmp_path / "mesh", 5, **TINY)
    inputs = {
        "network": str(tmp_path / "mesh/network.graphml"),
        "flows": str(tmp_path / "mesh/flows"),
        "policies": str(tmp_path / "mesh/policies"),
        "ti": str(tmp_path / "mesh/ti.csv"),
    }
    argv = run.command_argv("mesh-paths", inputs, 7, str(tmp_path / "out"))
    trace = tracer.Tracer()
    trace.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            trace.call(0, main.main, args=argv, prog_name="cri", standalone_mode=False)
    finally:
        trace.uninstall()
    assert out.getvalue().startswith("CRI ")
    stats = trace.stats(0)
    assert abs(sum(stats.layer_self_s.values()) - stats.wall_s) < 1e-6
    assert stats.calls["pomdp.build.build_pomdp"] == 2  # engine + complexity_report
    assert stats.calls["engine.run_campaign"] == 1
    assert stats.counters["netmodel.physical_paths"]["paths"] > 0
    for span in trace.spans:
        assert span.end >= span.start
        assert (span.parent is None) == (span.name == tracer.ROOT)
    # uninstall restores every patched attribute
    import cri.engine
    import cri.pomdp.build

    assert cri.engine.build_pomdp is cri.pomdp.build.build_pomdp
    assert not hasattr(cri.engine.build_pomdp, "__wrapped__")


def test_outcome_flags_changed_reports(tmp_path):
    (tmp_path / "campaign_report.json").write_text("{}\n")
    (tmp_path / "flows.csv").write_text("a\n")
    digest = hashlib.sha256(b"{}\n").hexdigest()
    outcome = run.Outcome(0, "CRI 1.000000\n", tmp_path, run.REPORTS["calc"], 0.1)
    names = run.REPORTS["calc"]
    good = {"stdout": "CRI 1.000000\n", "reports": {"campaign_report.json": digest}}
    assert outcome.problems(names, good) == []
    assert outcome.problems(names, dict(good, stdout="CRI 2.000000\n"))
    assert outcome.problems(names, dict(good, reports={"campaign_report.json": "0" * 64}))
    assert run.Outcome(2, "CRI 1.000000\n", tmp_path, names, 0.1).problems(names, good)
    (tmp_path / "flows.csv").unlink()
    assert run.Outcome(0, "CRI 1.000000\n", tmp_path, names, 0.1).problems(names, good)


def test_probe_samples_during_call_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    speed = probe.Probe()
    start = time.perf_counter()
    assert speed.call(busy, seconds=0.3) == "done"
    wall = time.perf_counter() - start
    assert len(speed.samples) >= 3
    assert 0 < speed.spent < wall
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0 < speed.normalize(wall) < 10 * wall

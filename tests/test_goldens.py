"""The benchmark's three commands, run in-process at `--seed 7`, print and
write exactly what `perfbench/goldens.json` records: the stdout lines and
the sha256 of every report file."""

import hashlib
import json
import sys

import pytest
from click.testing import CliRunner

from conftest import REPO_ROOT
from cri.cli import main

PERFBENCH = REPO_ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import meshgen  # noqa: E402
import run  # noqa: E402

GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(GOLDENS))
def test_command_matches_golden(tmp_path, monkeypatch, workload):
    golden = GOLDENS[workload]
    # the commands name the fixture by its path from the repository root
    monkeypatch.chdir(REPO_ROOT)
    if "mesh_seed" in golden:
        meshgen.write(tmp_path / "mesh", golden["mesh_seed"])
    out = tmp_path / "out"
    argv = run.command_argv(workload, run._inputs(workload, str(tmp_path / "mesh")), 7, str(out))
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert result.stdout == golden["stdout"]
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in golden["reports"]
    }
    assert digests == golden["reports"]

"""Command-line front door: calc, whatif, complexity, history.

All diagnostics go to stderr; machine-readable results go to files and
stdout. Report files carry a provenance block (input digests, seed,
version) and contain nothing volatile, so identical inputs and flags
produce byte-identical reports. Timestamps appear only in the ledger.
A `CriError` from any command prints `error: <message>` and exits 2.
"""

from __future__ import annotations

import csv
import io
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import click

from . import __version__
from .attack_flow import parse_attack_flow
from .canon import canonical_json, sha256_hex
from .engine import MODES, EngineConfig, RunOutput, run_campaign, run_whatif
from .errors import CriError
from .index import IndexLedger, parse_countermeasures, record_index
from .ingest import RawBundle, parse_bool, parse_network, read_input, validate_bundle
from .pomdp import build_pomdp, complexity_report

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
_INPUTS = ("network", "flows", "policies", "ti")
_FLOW_COLUMNS = ["flow_id", "step", "p_n", "p_n_exact", "p_n_simulated",
                 "ci_low", "ci_high", "q_flow", "method"]


def _setup_logging():
    level = _LOG_LEVELS.get(os.environ.get("CRI_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


def _read_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    # any option of `calc`, which reads them all, but the file itself and its report formats
    keys = {p.name for p in calc.params} - {"config", "formats"}
    out: dict[str, str] = {}
    text = read_input(path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in keys:
            raise click.UsageError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _collect(path: Path, suffix: str) -> list[Path]:
    if path.is_dir():
        return sorted(p for p in path.iterdir() if p.suffix == suffix)
    return [path]


def _load_bundle(paths: dict[str, str | None], allow_defaults: bool):
    network_path, ti_path = Path(paths["network"]), Path(paths["ti"])
    flow_paths = _collect(Path(paths["flows"]), ".json")
    policy_paths = _collect(Path(paths["policies"]), ".xml") if paths["policies"] else []
    bundle = RawBundle(
        network_doc=read_input(network_path),
        flow_docs=[read_input(p) for p in flow_paths],
        policy_docs=[read_input(p) for p in policy_paths],
        ti_doc=read_input(ti_path),
        flow_names=[p.stem for p in flow_paths],
    )
    digests = {
        p.name: sha256_hex(p.read_bytes())
        for p in [network_path, *flow_paths, *policy_paths, ti_path]
    }
    return validate_bundle(bundle, allow_ti_defaults=allow_defaults), digests


_INPUT_OPTIONS = [
    click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
                 help="key=value config file; explicit flags override it."),
    click.option("--network", type=str, default=None, help="GraphML network file."),
    click.option("--flows", type=str, default=None, help="Attack-flow JSON file or directory."),
    click.option("--policies", type=str, default=None, help="Policy XML file or directory."),
    click.option("--ti", type=str, default=None, help="Threat-intel CSV/JSON file."),
]


_RUN_OPTIONS = [
    click.option("--mode", type=click.Choice(MODES), default=None),
    click.option("--episodes", type=int, default=None, help="Monte Carlo episodes."),
    click.option("--seed", type=int, default=None, help="Master RNG seed."),
    click.option("--horizon", type=int, default=None, help="Override the planning horizon."),
    click.option("--naive-check", is_flag=True, default=False,
                 help="Also build the naive model and verify it agrees."),
    click.option("--ti-defaults", is_flag=True, default=False,
                 help="Fall back to default statistics for missing TI records."),
    click.option("--campaign", type=str, default=None, help="Campaign id."),
    click.option("--ledger", type=str, default=None, help="Ledger file (JSON lines)."),
    click.option("--out", type=str, default=None, help="Output directory."),
]


def _options(decorators):
    def apply(fn):
        for dec in reversed(decorators):
            fn = dec(fn)
        return fn
    return apply


_input_options = _options(_INPUT_OPTIONS)
_common_options = _options(_INPUT_OPTIONS + _RUN_OPTIONS)


def _resolve(config: dict[str, str], kwargs: dict, key: str, default=None, cast=str):
    """The flag `key` if given, else its config value cast, else `default`."""
    flag_value = kwargs.get(key)
    if flag_value is not None and flag_value is not False:
        return flag_value
    if key in config:
        raw = config[key]
        if cast is bool:
            return parse_bool(raw, f"config {key}")
        try:
            return cast(raw)
        except ValueError:
            raise click.UsageError(f"config {key}={raw}: expected {cast.__name__}") from None
    return default


def _require_path(value, what: str) -> None:
    if not value:
        raise click.UsageError(f"missing required input: {what}")
    if not Path(value).exists():
        raise click.UsageError(f"{what} path does not exist: {value}")


def _input_paths(config: dict[str, str], kwargs: dict, required: tuple[str, ...]) -> dict:
    """The network, flows, policies and ti paths, flags over the config
    file; each of `required` must be given, and each one given must exist."""
    paths = {key: _resolve(config, kwargs, key) or None for key in _INPUTS}
    for key, value in paths.items():
        if value or key in required:
            _require_path(value, key)
    return paths


def _require_out_dir(value: str, what: str = "out") -> str:
    """An output directory that exists or can be created: the nearest
    existing path among it and its parents must be a directory."""
    path = Path(value)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise click.UsageError(f"{what} is not a directory: {existing}")
    return value


def _prepare(kwargs, writes_ledger: bool) -> tuple:
    """Resolve flags over the config file and check the run settings, then
    the paths a run writes to (the ledger's directory only when
    `writes_ledger`) and reads from; only then read and validate the inputs."""
    config = _read_config_file(kwargs["config"])
    cfg = EngineConfig(
        mode=_resolve(config, kwargs, "mode", "exact"),
        episodes=_resolve(config, kwargs, "episodes", 10_000, int),
        seed=_resolve(config, kwargs, "seed", 0, int),
        horizon=_resolve(config, kwargs, "horizon", None, int),
        naive_check=_resolve(config, kwargs, "naive_check", False, bool),
        campaign_id=_resolve(config, kwargs, "campaign", "campaign"),
    )
    allow_defaults = _resolve(config, kwargs, "ti_defaults", False, bool)
    out_dir = _require_out_dir(_resolve(config, kwargs, "out", "cri-out"))
    ledger_path = _resolve(config, kwargs, "ledger")
    if ledger_path and writes_ledger:
        _require_out_dir(str(Path(ledger_path).parent), "ledger directory")
    paths = _input_paths(config, kwargs, required=("network", "flows", "ti"))
    inputs, cfg.provenance = _load_bundle(paths, allow_defaults)
    return inputs, cfg, out_dir, ledger_path


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def _flow_rows(output: RunOutput):
    """`flows.csv` rows, in `_FLOW_COLUMNS` order."""
    for report in output.flow_reports:
        sim = report.simulation
        for step in sorted(report.result.p_n):
            interval = sim.p_n_intervals.get(step) if sim else None
            yield [
                report.result.flow_id,
                step,
                repr(report.result.p_n[step]),
                repr((report.p_n_exact or {}).get(step, "")),
                repr(sim.p_n_estimates.get(step, "") if sim else ""),
                repr(interval[0]) if interval else "",
                repr(interval[1]) if interval else "",
                repr(report.result.q_flow),
                report.result.method,
            ]


def _complexity_json(fields: dict) -> dict:
    """`ComplexityEstimate` fields as both commands write them: a count
    above 2**63 becomes a string, so JSON readers keep it exact."""
    return {k: str(v) if isinstance(v, int) and v > 2**63 else v for k, v in fields.items()}


def _write_reports(output: RunOutput, out_dir: str, formats: tuple[str, ...] = ("json", "csv")):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if "json" in formats:
        payload = {
            "campaign": output.campaign.as_dict(),
            "assumed": output.assumed.as_dict(),
            "complexity": _complexity_json(output.complexity),
            "flows": [
                {
                    "flow_id": r.result.flow_id,
                    "q_flow": r.result.q_flow,
                    "method": r.result.method,
                    "p_n_exact": {str(k): v for k, v in sorted((r.p_n_exact or {}).items())},
                    "p_n_simulated": {
                        str(k): v for k, v in sorted(r.simulation.p_n_estimates.items())
                    } if r.simulation else {},
                    "expected_attacker_reward": r.result.expected_attacker_reward,
                    "normalized_reward": r.normalized_reward,
                    "solver_value": r.solver_value,
                    "std_error": r.simulation.std_error if r.simulation else None,
                    "naive_check": r.naive_check,
                }
                for r in output.flow_reports
            ],
        }
        (out / "campaign_report.json").write_text(canonical_json(payload), encoding="utf-8")
    if "csv" in formats:
        _write_csv(out / "flows.csv", _FLOW_COLUMNS, _flow_rows(output))


class _Main(click.Group):
    """Ends any command that raises a `CriError` with `error: ...` and exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CriError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="cri")
def main():
    """Cyber resilience index engine."""
    _setup_logging()


@main.command()
@_common_options
@click.option("--format", "formats", multiple=True, type=click.Choice(["json", "csv"]),
              default=("json", "csv"), help="Report formats to emit.")
def calc(formats, **kwargs):
    """Run the full pipeline and print the campaign index."""
    inputs, cfg, out_dir, ledger_path = _prepare(kwargs, writes_ledger=True)
    ledger_path = ledger_path or str(Path(out_dir) / "ledger.jsonl")
    ledger = IndexLedger.load(ledger_path) if Path(ledger_path).exists() else IndexLedger(ledger_path)
    output = run_campaign(inputs, cfg)
    _write_reports(output, out_dir, tuple(formats))
    Path(ledger_path).parent.mkdir(parents=True, exist_ok=True)
    record_index(ledger, output.assumed, "assumed", note="base rates")
    record_index(ledger, output.campaign, "validated", note=f"mode={cfg.mode}")
    click.echo(f"CRI {output.campaign.index:.6f}")


@main.command()
@_common_options
@click.option("--countermeasures", "cm_path", type=str, required=True,
              help="Countermeasure JSON file.")
def whatif(cm_path, **kwargs):
    """Evaluate countermeasure cost/benefit against the campaign index."""
    _require_path(cm_path, "countermeasures")
    inputs, cfg, out_dir, ledger_path = _prepare(kwargs, writes_ledger=False)
    if ledger_path:
        click.echo("warning: whatif writes no ledger; --ledger ignored", err=True)
    measures = parse_countermeasures(read_input(cm_path))
    deltas = []
    for delta in run_whatif(inputs, measures, cfg):
        if not delta.matched:
            click.echo(
                f"warning: countermeasure {delta.countermeasure.id} matches no technique",
                err=True,
            )
        deltas.append(delta)
    groups: dict[str, dict] = {}
    for d in deltas:
        g = groups.setdefault(
            d.countermeasure.d3fend_group,
            {"delta_index": 0.0, "total_cost": 0.0, "countermeasures": []},
        )
        g["delta_index"] += d.delta_index
        g["total_cost"] += d.countermeasure.total_cost
        g["countermeasures"].append(d.countermeasure.id)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "groups": {k: groups[k] for k in sorted(groups)},
        "countermeasures": [d.as_dict() for d in deltas],
    }
    (out / "whatif_report.json").write_text(canonical_json(payload), encoding="utf-8")
    _write_csv(
        out / "whatif.csv",
        ["id", "d3fend_group", "index_before", "index_after",
         "delta_index", "total_cost", "delta_per_cost"],
        ([d.countermeasure.id, d.countermeasure.d3fend_group,
          repr(d.index_before), repr(d.index_after), repr(d.delta_index),
          repr(d.countermeasure.total_cost),
          repr(d.delta_per_cost) if d.delta_per_cost is not None else ""]
         for d in deltas),
    )
    for d in deltas:
        click.echo(
            f"{d.countermeasure.id} [{d.countermeasure.d3fend_group}] "
            f"delta_index={d.delta_index:.6f} cost={d.countermeasure.total_cost:.2f}"
        )


@main.command()
@_input_options
def complexity(**kwargs):
    """Print worst-case versus actually-built model sizes. With flows and
    threat intel the inputs are read and checked as `calc` reads them, and
    the sizes of the models that track inventory are reported too (`calc`
    reports those it built); otherwise only the bounds."""
    config = _read_config_file(kwargs["config"])
    paths = _input_paths(config, kwargs, required=("network",))
    if paths["flows"] and paths["ti"]:
        inputs, _ = _load_bundle(paths, allow_defaults=False)
        models = [build_pomdp(f, inputs.network, inputs.ti) for f in inputs.flows]
        report = complexity_report(inputs.network, inputs.flows, models)
    else:
        flow_paths = _collect(Path(paths["flows"]), ".json") if paths["flows"] else []
        report = complexity_report(
            parse_network(read_input(paths["network"])),
            [parse_attack_flow(read_input(p), flow_id=p.stem) for p in flow_paths],
        )
    click.echo(canonical_json(_complexity_json(asdict(report))), nl=False)


@main.command()
@click.option("--ledger", "ledger_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Ledger file (JSON lines).")
@click.option("--campaign", "campaign_filter", type=str, default=None,
              help="Only show entries for this campaign id.")
@click.option("--csv", "csv_path", type=str, default=None, help="Also export as CSV.")
def history(ledger_path, campaign_filter, csv_path):
    """Print the assumed/validated index series in time order."""
    entries = [
        e for e in IndexLedger.load(ledger_path).entries
        if campaign_filter is None or e.campaign == campaign_filter
    ]
    entries.sort(key=lambda e: (e.ts, e.kind))
    if csv_path:
        try:
            _write_csv(
                Path(csv_path),
                ["ts", "campaign", "kind", "index", "note"],
                ([e.ts, e.campaign, e.kind, repr(e.index), e.note] for e in entries),
            )
        except OSError as exc:
            raise CriError(f"{csv_path}: cannot write: {exc.strerror or exc}") from None
    for e in entries:
        click.echo(f"{e.ts}\t{e.campaign}\t{e.kind}\t{e.index:.6f}\t{e.note}")


if __name__ == "__main__":
    main()

"""Command-line front door: calc, whatif, complexity, history.

All diagnostics go to stderr; machine-readable results go to files and
stdout. Report files carry a provenance block (input digests, seed,
version) and contain nothing volatile, so identical inputs and flags
produce byte-identical reports. Timestamps appear only in the ledger.
"""

from __future__ import annotations

import csv
import io
import logging
import os
import sys
from pathlib import Path

import click

from . import __version__
from .canon import canonical_json, sha256_hex
from .engine import EngineConfig, RunOutput, run_campaign, run_whatif
from .errors import CriError
from .index import IndexLedger, parse_countermeasures, record_index
from .ingest import RawBundle, read_input, validate_bundle
from .pomdp import complexity_report

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    level = _LOG_LEVELS.get(os.environ.get("CRI_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


def _read_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    out: dict[str, str] = {}
    text = read_input(path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _collect(path: Path, suffix: str) -> list[Path]:
    if path.is_dir():
        return sorted(p for p in path.iterdir() if p.suffix == suffix)
    return [path]


def _load_bundle(network, flows, policies, ti, allow_defaults):
    network_path = Path(network)
    flow_paths = _collect(Path(flows), ".json")
    policy_paths = _collect(Path(policies), ".xml") if policies else []
    bundle = RawBundle(
        network_doc=read_input(network_path),
        flow_docs=[read_input(p) for p in flow_paths],
        policy_docs=[read_input(p) for p in policy_paths],
        ti_doc=read_input(ti) if ti else "",
        flow_names=[p.stem for p in flow_paths],
    )
    digests = {network_path.name: sha256_hex(network_path.read_bytes())}
    for p in flow_paths + policy_paths + ([Path(ti)] if ti else []):
        digests[p.name] = sha256_hex(p.read_bytes())
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
    click.option("--mode", type=click.Choice(["exact", "simulate", "both"]), default=None),
    click.option("--episodes", type=int, default=None, help="Monte Carlo episodes."),
    click.option("--seed", type=int, default=None, help="Master RNG seed."),
    click.option("--horizon", type=int, default=None, help="Override the planning horizon."),
    click.option("--naive-check", is_flag=True, default=False,
                 help="Also build the naive model and verify it agrees."),
    click.option("--ti-defaults", is_flag=True, default=False,
                 help="Fall back to default statistics for missing TI records."),
    click.option("--campaign", "campaign_id", type=str, default=None, help="Campaign id."),
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


def _resolve(config: dict[str, str], flag_value, key: str, default=None, cast=str):
    if flag_value is not None and flag_value is not False:
        return flag_value
    if key in config:
        raw = config[key]
        if cast is bool:
            return raw.lower() in ("true", "1", "yes")
        try:
            return cast(raw)
        except ValueError:
            raise click.UsageError(f"config {key}={raw}: expected {cast.__name__}") from None
    return default


def _require_path(value, what: str) -> str:
    if not value:
        raise click.UsageError(f"missing required input: {what}")
    if not Path(value).exists():
        raise click.UsageError(f"{what} path does not exist: {value}")
    return value


def _require_out_dir(value: str) -> str:
    """An output directory that exists or can be created: the nearest
    existing path among it and its parents must be a directory."""
    path = Path(value)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise click.UsageError(f"out is not a directory: {existing}")
    return value


def _prepare(kwargs) -> tuple:
    config = _read_config_file(kwargs.get("config"))
    seed = _resolve(config, kwargs.get("seed"), "seed", 0, int)
    if seed < 0:
        raise click.UsageError(f"seed must be non-negative, got {seed}")
    horizon = _resolve(config, kwargs.get("horizon"), "horizon", None, int)
    if horizon is not None and horizon < 1:
        raise click.UsageError(f"horizon must be at least 1, got {horizon}")
    out_dir = _require_out_dir(_resolve(config, kwargs.get("out"), "out", "cri-out"))
    network = _require_path(_resolve(config, kwargs.get("network"), "network"), "network")
    flows = _require_path(_resolve(config, kwargs.get("flows"), "flows"), "flows")
    policies = _resolve(config, kwargs.get("policies"), "policies")
    if policies:
        _require_path(policies, "policies")
    ti = _require_path(_resolve(config, kwargs.get("ti"), "ti"), "ti")
    allow_defaults = _resolve(config, kwargs.get("ti_defaults"), "ti_defaults", False, bool)
    inputs, digests = _load_bundle(network, flows, policies, ti, allow_defaults)
    cfg = EngineConfig(
        mode=_resolve(config, kwargs.get("mode"), "mode", "exact"),
        episodes=_resolve(config, kwargs.get("episodes"), "episodes", 10_000, int),
        seed=seed,
        horizon=horizon,
        naive_check=_resolve(config, kwargs.get("naive_check"), "naive_check", False, bool),
        campaign_id=_resolve(config, kwargs.get("campaign_id"), "campaign", "campaign"),
        provenance=digests,
    )
    ledger_path = _resolve(config, kwargs.get("ledger"), "ledger", None)
    return inputs, cfg, out_dir, ledger_path


def _flow_rows(output: RunOutput) -> list[dict]:
    rows = []
    for report in output.flow_reports:
        for step in sorted(report.result.p_n):
            interval = (report.p_n_intervals or {}).get(step)
            rows.append(
                {
                    "flow_id": report.flow_id,
                    "step": step,
                    "p_n": repr(report.result.p_n[step]),
                    "p_n_exact": repr((report.p_n_exact or {}).get(step, "")),
                    "p_n_simulated": repr((report.p_n_simulated or {}).get(step, "")),
                    "ci_low": repr(interval[0]) if interval else "",
                    "ci_high": repr(interval[1]) if interval else "",
                    "q_flow": repr(report.result.q_flow),
                    "method": report.result.method,
                }
            )
    return rows


def _write_reports(output: RunOutput, out_dir: str, formats: tuple[str, ...] = ("json", "csv")):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        payload = {
            "campaign": output.campaign.as_dict(),
            "assumed": output.assumed.as_dict(),
            "complexity": {k: str(v) if isinstance(v, int) and v > 2**63 else v
                           for k, v in output.complexity.items()},
            "flows": [
                {
                    "flow_id": r.flow_id,
                    "q_flow": r.result.q_flow,
                    "method": r.result.method,
                    "p_n_exact": {str(k): v for k, v in sorted((r.p_n_exact or {}).items())},
                    "p_n_simulated": {str(k): v for k, v in sorted((r.p_n_simulated or {}).items())},
                    "expected_attacker_reward": r.result.expected_attacker_reward,
                    "normalized_reward": r.normalized_reward,
                    "solver_value": r.solver_value,
                    "std_error": r.simulation.std_error if r.simulation else None,
                    "naive_check": r.naive_check,
                }
                for r in output.flow_reports
            ],
        }
        path = out / "campaign_report.json"
        path.write_text(canonical_json(payload), encoding="utf-8")
        written.append(path)
    if "csv" in formats:
        rows = _flow_rows(output)
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf,
            fieldnames=["flow_id", "step", "p_n", "p_n_exact", "p_n_simulated",
                        "ci_low", "ci_high", "q_flow", "method"],
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(rows)
        path = out / "flows.csv"
        path.write_text(buf.getvalue(), encoding="utf-8")
        written.append(path)
    return written


@click.group()
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
    try:
        inputs, cfg, out_dir, ledger_path = _prepare(kwargs)
        ledger_path = ledger_path or str(Path(out_dir) / "ledger.jsonl")
        if Path(ledger_path).exists():
            ledger = IndexLedger.load(ledger_path)
        else:
            ledger = IndexLedger(path=ledger_path)
        output = run_campaign(inputs, cfg)
        _write_reports(output, out_dir, tuple(formats))
        record_index(ledger, output.assumed, "assumed", note="base rates")
        record_index(ledger, output.campaign, "validated", note=f"mode={cfg.mode}")
    except CriError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(f"CRI {output.campaign.index:.6f}")


@main.command()
@_common_options
@click.option("--countermeasures", "cm_path", type=str, required=True,
              help="Countermeasure JSON file.")
def whatif(cm_path, **kwargs):
    """Evaluate countermeasure cost/benefit against the campaign index."""
    try:
        _require_path(cm_path, "countermeasures")
        inputs, cfg, out_dir, _ = _prepare(kwargs)
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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "d3fend_group", "index_before", "index_after",
                         "delta_index", "total_cost", "delta_per_cost"])
        for d in deltas:
            writer.writerow([
                d.countermeasure.id, d.countermeasure.d3fend_group,
                repr(d.index_before), repr(d.index_after), repr(d.delta_index),
                repr(d.total_cost),
                repr(d.delta_per_cost) if d.delta_per_cost is not None else "",
            ])
        (out / "whatif.csv").write_text(buf.getvalue(), encoding="utf-8")
    except CriError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    for d in deltas:
        click.echo(
            f"{d.countermeasure.id} [{d.countermeasure.d3fend_group}] "
            f"delta_index={d.delta_index:.6f} cost={d.total_cost:.2f}"
        )


@main.command()
@_input_options
def complexity(**kwargs):
    """Print worst-case versus actually-built model sizes."""
    from .attack_flow import parse_attack_flow
    from .ingest import parse_network, parse_policy_set
    from .threat_intel import load_threat_intel

    try:
        config = _read_config_file(kwargs.get("config"))
        network = _require_path(_resolve(config, kwargs.get("network"), "network"), "network")
        given = {}
        for key in ("flows", "policies", "ti"):
            value = _resolve(config, kwargs.get(key), key)
            if value:
                given[key] = _require_path(value, key)
        net = parse_network(read_input(network))
        if "policies" in given:
            net.policies = parse_policy_set(
                [read_input(p) for p in _collect(Path(given["policies"]), ".xml")]
            )
        flow_paths = _collect(Path(given["flows"]), ".json") if "flows" in given else []
        flows_list = [
            parse_attack_flow(read_input(p), flow_id=p.stem)
            for p in flow_paths
        ]
        ti = load_threat_intel(read_input(given["ti"])) if "ti" in given else None
        if ti is not None and not net.entry_points():
            ti = None  # actual model sizes need an entry point; bounds do not
        report = complexity_report(net, flows_list, ti)
        payload = report.as_dict()
        payload["worst_states"] = str(payload["worst_states"])
        payload["comp_state_obs"] = str(payload["comp_state_obs"])
        payload["c_statetrans"] = str(payload["c_statetrans"])
        payload["natural_states"] = str(payload["natural_states"])
    except CriError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(canonical_json(payload), nl=False)


@main.command()
@click.option("--ledger", "ledger_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Ledger file (JSON lines).")
@click.option("--campaign", "campaign_filter", type=str, default=None,
              help="Only show entries for this campaign id.")
@click.option("--csv", "csv_path", type=str, default=None, help="Also export as CSV.")
def history(ledger_path, campaign_filter, csv_path):
    """Print the assumed/validated index series in time order."""
    try:
        ledger = IndexLedger.load(ledger_path)
    except CriError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    entries = [
        e for e in ledger.entries
        if campaign_filter is None or e.campaign == campaign_filter
    ]
    entries.sort(key=lambda e: (e.ts, e.kind))
    if csv_path:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["ts", "campaign", "kind", "index", "note"])
        for e in entries:
            writer.writerow([e.ts, e.campaign, e.kind, repr(e.index), e.note])
        Path(csv_path).write_text(buf.getvalue(), encoding="utf-8")
    for e in entries:
        click.echo(f"{e.ts}\t{e.campaign}\t{e.kind}\t{e.index:.6f}\t{e.note}")


if __name__ == "__main__":
    main()

"""Index aggregation: per-flow and campaign compromise probabilities, the
published resilience index, the assumed/validated history ledger, and
countermeasure what-if evaluation.

Internally q values are compromise probabilities (higher = worse); the
published index is 100 * (1 - q) so that higher reads as more resilient.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import os
from dataclasses import dataclass, field

from .attack_flow import AttackFlow
from .canon import compact_json
from .errors import ModelError, UsageError, ValidationError

D3FEND_GROUPS = ("harden", "detect", "isolate", "deceive", "evict", "restore")


def combine_and(p: float, q: float) -> float:
    """Cumulative probability across sequence/AND related nodes: p * q."""
    return p * q


def combine_or(p: float, q: float) -> float:
    """Cumulative probability across OR related nodes: max(p, q)."""
    return max(p, q)


def flow_cri(flow: AttackFlow, p_n: dict[int, float]) -> float:
    """Traverse the flow DAG combining per-node probabilities: a node's
    value is its own P_N times the product of its sequence/AND inputs and
    the max of its OR inputs; several sinks aggregate by max."""
    for node in flow.nodes:
        if node.step not in p_n:
            raise ModelError(f"no P_N value for TTP step {node.step}")
    value: dict[int, float] = {}
    for step in flow.topological_steps():
        incoming = 1.0
        or_values = []
        for edge in flow.predecessors(step):
            if edge.relation == "OR":
                or_values.append(value[edge.src])
            else:
                incoming = combine_and(incoming, value[edge.src])
        if or_values:
            or_part = 0.0
            for v in or_values:
                or_part = combine_or(or_part, v)
            incoming = combine_and(incoming, or_part)
        value[step] = combine_and(incoming, p_n[step])
    sinks = flow.sinks()
    result = 0.0
    for step in sinks:
        result = combine_or(result, value[step])
    return result


@dataclass
class FlowResult:
    flow_id: str
    p_n: dict[int, float]
    q_flow: float
    expected_attacker_reward: float
    method: str  # "exact" | "simulated"

    def __post_init__(self):
        if not 0.0 <= self.q_flow <= 1.0:
            raise ValidationError(f"q_flow {self.q_flow} outside [0,1]")


@dataclass
class CampaignResult:
    campaign_id: str
    flow_results: list[FlowResult]
    q_campaign: float
    index: float
    provenance: dict[str, str]
    timestamp: str | None = None

    def as_dict(self, include_timestamp: bool = False) -> dict:
        out = {
            "campaign_id": self.campaign_id,
            "q_campaign": self.q_campaign,
            "index": self.index,
            "flows": [
                {
                    "flow_id": fr.flow_id,
                    "p_n": {str(k): v for k, v in sorted(fr.p_n.items())},
                    "q_flow": fr.q_flow,
                    "expected_attacker_reward": fr.expected_attacker_reward,
                    "method": fr.method,
                }
                for fr in self.flow_results
            ],
            "provenance": dict(sorted(self.provenance.items())),
        }
        if include_timestamp:
            out["timestamp"] = self.timestamp
        return out


def campaign_cri(
    flows: list[FlowResult],
    campaign_id: str = "campaign",
    provenance: dict[str, str] | None = None,
) -> CampaignResult:
    """Campaign q is the max across flow q values; index = 100 * (1 - q)."""
    if not flows:
        raise UsageError("campaign requires at least one flow result")
    q = 0.0
    for fr in flows:
        q = combine_or(q, fr.q_flow)
    return CampaignResult(
        campaign_id=campaign_id,
        flow_results=list(flows),
        q_campaign=q,
        index=100.0 * (1.0 - q),
        provenance=provenance or {},
        timestamp=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )


@dataclass(frozen=True)
class LedgerEntry:
    ts: str
    campaign: str
    index: float
    kind: str  # "assumed" | "validated"
    note: str = ""

    def to_line(self) -> str:
        # fixed field order: ts, campaign, index, kind, note
        return compact_json(
            {
                "ts": self.ts,
                "campaign": self.campaign,
                "index": self.index,
                "kind": self.kind,
                "note": self.note,
            }
        )


@dataclass
class IndexLedger:
    """Append-only index history, persisted as JSON lines."""

    path: str | None = None
    entries: list[LedgerEntry] = field(default_factory=list)

    @staticmethod
    def load(path: str) -> "IndexLedger":
        entries = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"ledger line {lineno}: {exc.msg}") from exc
                entries.append(
                    LedgerEntry(
                        ts=raw["ts"],
                        campaign=raw["campaign"],
                        index=float(raw["index"]),
                        kind=raw["kind"],
                        note=raw.get("note", ""),
                    )
                )
        return IndexLedger(path=path, entries=entries)

    def serialize(self) -> str:
        return "".join(e.to_line() + "\n" for e in self.entries)


def record_index(
    ledger: IndexLedger,
    result: CampaignResult,
    kind: str,
    note: str = "",
    ts: str | None = None,
) -> LedgerEntry:
    """Append one entry; persists first when the ledger has a path, so a
    failed write leaves the in-memory ledger unchanged."""
    if kind not in ("assumed", "validated"):
        raise UsageError(f"ledger kind must be assumed|validated, got {kind!r}")
    entry = LedgerEntry(
        ts=ts or result.timestamp or _dt.datetime.now(_dt.timezone.utc).isoformat(),
        campaign=result.campaign_id,
        index=result.index,
        kind=kind,
        note=note,
    )
    if ledger.path is not None:
        with open(ledger.path, "a", encoding="utf-8") as fh:
            fh.write(entry.to_line() + "\n")
            fh.flush()
            os.fsync(fh.fileno())
    ledger.entries.append(entry)
    return entry


@dataclass(frozen=True)
class Countermeasure:
    """A defensive control: probability multipliers scoped to a technique
    and/or asset class, plus its cost breakdown."""

    id: str
    d3fend_group: str
    technique_id: str | None = None
    asset_class: str | None = None
    p_success_multiplier: float = 1.0
    p_detect_multiplier: float = 1.0
    capex: float = 0.0
    opex: float = 0.0
    maintenance: float = 0.0

    def __post_init__(self):
        if self.d3fend_group not in D3FEND_GROUPS:
            raise ValidationError(
                f"countermeasure {self.id!r}: unknown group {self.d3fend_group!r}"
            )
        for name in ("p_success_multiplier", "p_detect_multiplier", "capex", "opex", "maintenance"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValidationError(
                    f"countermeasure {self.id!r}: {name} must be a finite number >= 0"
                )

    @property
    def total_cost(self) -> float:
        return self.capex + self.opex + self.maintenance


def parse_countermeasures(doc: str) -> list[Countermeasure]:
    try:
        data = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid countermeasure JSON: {exc.msg}") from exc
    if isinstance(data, dict):
        data = data.get("countermeasures")
    if not isinstance(data, list) or not data:
        raise ValidationError("countermeasure document must hold a non-empty list")
    out = []
    for i, raw in enumerate(data):
        if not isinstance(raw, dict) or "id" not in raw or "d3fend_group" not in raw:
            raise ValidationError(f"countermeasure {i}: requires 'id' and 'd3fend_group'")
        out.append(
            Countermeasure(
                id=str(raw["id"]),
                d3fend_group=str(raw["d3fend_group"]),
                technique_id=raw.get("technique_id"),
                asset_class=raw.get("asset_class"),
                p_success_multiplier=float(raw.get("p_success_multiplier", 1.0)),
                p_detect_multiplier=float(raw.get("p_detect_multiplier", 1.0)),
                capex=float(raw.get("capex", 0.0)),
                opex=float(raw.get("opex", 0.0)),
                maintenance=float(raw.get("maintenance", 0.0)),
            )
        )
    return out


@dataclass
class CountermeasureDelta:
    countermeasure: Countermeasure
    index_before: float
    index_after: float
    delta_index: float
    total_cost: float
    delta_per_cost: float | None
    matched: bool

    def as_dict(self) -> dict:
        return {
            "id": self.countermeasure.id,
            "d3fend_group": self.countermeasure.d3fend_group,
            "index_before": self.index_before,
            "index_after": self.index_after,
            "delta_index": self.delta_index,
            "total_cost": self.total_cost,
            "delta_per_cost": self.delta_per_cost,
            "matched": self.matched,
        }


def evaluate_countermeasure(base, cm: Countermeasure, engine_cfg) -> CountermeasureDelta:
    """Recompute the campaign index with the countermeasure's multipliers
    applied to matching threat-intel rows and report the delta and cost."""
    from .engine import run_campaign  # local import: engine orchestrates this module

    before = run_campaign(base, engine_cfg)
    matched = any(
        (cm.technique_id is None or rec.technique_id == cm.technique_id)
        and (cm.asset_class is None or rec.asset_class == cm.asset_class)
        for rec in base.ti.records
    )
    adjusted_ti = base.ti.with_multiplier(
        cm.technique_id,
        cm.asset_class,
        p_success_multiplier=cm.p_success_multiplier,
        p_detect_multiplier=cm.p_detect_multiplier,
    )
    from .ingest import ValidatedInputs

    adjusted = ValidatedInputs(network=base.network, flows=base.flows, ti=adjusted_ti)
    after = run_campaign(adjusted, engine_cfg)
    delta = after.campaign.index - before.campaign.index
    cost = cm.total_cost
    return CountermeasureDelta(
        countermeasure=cm,
        index_before=before.campaign.index,
        index_after=after.campaign.index,
        delta_index=delta,
        total_cost=cost,
        delta_per_cost=(delta / cost) if cost > 0 else None,
        matched=matched,
    )

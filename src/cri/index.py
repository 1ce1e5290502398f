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
from dataclasses import dataclass, field, fields

from .attack_flow import AttackFlow
from .canon import compact_json, finite_number
from .errors import ModelError, UsageError, ValidationError
from .ingest import read_input
from .threat_intel import TiTable, in_scope

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
    timestamp: str

    def as_dict(self) -> dict:
        return {
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


def _ledger_entry(raw, where: str) -> LedgerEntry:
    """A ledger line's object: string ts/campaign/note, kind
    assumed|validated and a finite numeric index."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    for key in ("ts", "campaign"):
        if not isinstance(raw.get(key), str):
            raise ValidationError(f"{where}: {key!r} must be a string")
    if raw.get("kind") not in ("assumed", "validated"):
        raise ValidationError(f"{where}: 'kind' must be assumed|validated")
    index = finite_number(raw.get("index"))
    if index is None:
        raise ValidationError(f"{where}: 'index' must be a finite number")
    note = raw.get("note", "")
    if not isinstance(note, str):
        raise ValidationError(f"{where}: 'note' must be a string")
    return LedgerEntry(
        ts=raw["ts"], campaign=raw["campaign"], index=index, kind=raw["kind"], note=note
    )


@dataclass
class IndexLedger:
    """Append-only index history, persisted as JSON lines."""

    path: str | None = None
    entries: list[LedgerEntry] = field(default_factory=list)

    @staticmethod
    def load(path: str) -> "IndexLedger":
        entries = []
        for lineno, line in enumerate(read_input(path).split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"ledger line {lineno}: {exc.msg}") from exc
            except RecursionError as exc:
                raise ValidationError(f"ledger line {lineno}: nested too deeply") from exc
            entries.append(_ledger_entry(raw, f"ledger line {lineno}"))
        return IndexLedger(path=path, entries=entries)


def record_index(
    ledger: IndexLedger, result: CampaignResult, kind: str, note: str = ""
) -> LedgerEntry:
    """Append one entry, stamped with the result's timestamp; persists
    first when the ledger has a path, so a failed write leaves the
    in-memory ledger unchanged."""
    if kind not in ("assumed", "validated"):
        raise UsageError(f"ledger kind must be assumed|validated, got {kind!r}")
    entry = LedgerEntry(
        ts=result.timestamp,
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
        for name in _CM_NUMBERS:
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValidationError(
                    f"countermeasure {self.id!r}: {name} must be a finite number >= 0"
                )

    @property
    def total_cost(self) -> float:
        return self.capex + self.opex + self.maintenance


# The numeric countermeasure fields: those whose default is a number.
_CM_NUMBERS = tuple(f.name for f in fields(Countermeasure) if isinstance(f.default, float))


def parse_countermeasures(doc: str) -> list[Countermeasure]:
    try:
        data = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid countermeasure JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValidationError("countermeasure JSON nested too deeply") from exc
    if isinstance(data, dict):
        data = data.get("countermeasures")
    if not isinstance(data, list) or not data:
        raise ValidationError("countermeasure document must hold a non-empty list")
    out = []
    seen: set[str] = set()
    for i, raw in enumerate(data):
        if not isinstance(raw, dict) or "id" not in raw or "d3fend_group" not in raw:
            raise ValidationError(f"countermeasure {i}: requires 'id' and 'd3fend_group'")
        cm_id = raw["id"]
        if not isinstance(cm_id, str) or not cm_id:
            raise ValidationError(f"countermeasure {i}: 'id' must be a non-empty string")
        if cm_id in seen:
            raise ValidationError(f"countermeasure {i}: duplicate id {cm_id!r}")
        seen.add(cm_id)
        for key in ("technique_id", "asset_class"):
            if not isinstance(raw.get(key), (str, type(None))):
                raise ValidationError(f"countermeasure {i}: {key!r} must be a string or null")
        numbers = {key: finite_number(raw[key]) for key in _CM_NUMBERS if key in raw}
        for key, value in numbers.items():
            if value is None:
                raise ValidationError(f"countermeasure {i}: {key} must be a finite JSON number")
        out.append(
            Countermeasure(
                id=cm_id,
                d3fend_group=str(raw["d3fend_group"]),
                technique_id=raw.get("technique_id"),
                asset_class=raw.get("asset_class"),
                **numbers,
            )
        )
    return out


@dataclass
class CountermeasureDelta:
    countermeasure: Countermeasure
    index_before: float
    index_after: float
    delta_index: float
    delta_per_cost: float | None
    matched: bool

    def as_dict(self) -> dict:
        return {
            "id": self.countermeasure.id,
            "d3fend_group": self.countermeasure.d3fend_group,
            "index_before": self.index_before,
            "index_after": self.index_after,
            "delta_index": self.delta_index,
            "total_cost": self.countermeasure.total_cost,
            "delta_per_cost": self.delta_per_cost,
            "matched": self.matched,
        }


def evaluate_countermeasure(
    cm: Countermeasure, ti: TiTable, index_before: float, index_after: float
) -> CountermeasureDelta:
    """The delta and cost of one countermeasure, given the campaign index
    without it and with its multipliers applied to the threat-intel table
    `ti`; `matched` says whether it scales any row of `ti`."""
    matched = any(in_scope(rec, cm.technique_id, cm.asset_class) for rec in ti.records)
    delta = index_after - index_before
    cost = cm.total_cost
    return CountermeasureDelta(
        countermeasure=cm,
        index_before=index_before,
        index_after=index_after,
        delta_index=delta,
        delta_per_cost=(delta / cost) if cost > 0 else None,
        matched=matched,
    )

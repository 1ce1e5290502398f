"""Threat-intelligence records: per (technique, asset class) attack statistics.

Records carry the success/detection probabilities and the reward economics
an emulated attacker uses when deciding between actions. The table accepts
CSV or JSON documents with exactly the columns below.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError

TI_COLUMNS = (
    "technique_id",
    "asset_class",
    "p_success_base",
    "p_detect",
    "reward_success",
    "penalty_failure",
    "action_cost",
    "historical_frequency",
)


@dataclass(frozen=True)
class TiRecord:
    """Statistics for one technique applied to one asset class."""

    technique_id: str
    asset_class: str
    p_success_base: float
    p_detect: float
    reward_success: float
    penalty_failure: float
    action_cost: float
    historical_frequency: float

    def __post_init__(self):
        if not self.technique_id or not self.asset_class:
            raise ValidationError("technique_id and asset_class must be non-empty")
        for name in TI_COLUMNS[2:]:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(
                    f"{name}={value} is not a finite number for "
                    f"({self.technique_id}, {self.asset_class})"
                )
        for name in ("p_success_base", "p_detect"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"{name}={value} outside [0,1] for "
                    f"({self.technique_id}, {self.asset_class})"
                )
        if self.reward_success < 0:
            raise ValidationError(f"reward_success must be >= 0, got {self.reward_success}")
        if self.penalty_failure > 0:
            raise ValidationError(f"penalty_failure must be <= 0, got {self.penalty_failure}")
        if self.action_cost < 0:
            raise ValidationError(f"action_cost must be >= 0, got {self.action_cost}")
        if self.historical_frequency < 0:
            raise ValidationError(
                f"historical_frequency must be >= 0, got {self.historical_frequency}"
            )


# Fallback used when a technique/asset-class pair has no record and the
# caller explicitly opted in to defaults.
DEFAULT_RECORD_FIELDS = {
    "p_success_base": 0.5,
    "p_detect": 0.5,
    "reward_success": 1.0,
    "penalty_failure": -1.0,
    "action_cost": 0.1,
    "historical_frequency": 0.0,
}


@dataclass
class TiTable:
    """Lookup table over TiRecords keyed by (technique_id, asset_class)."""

    records: list[TiRecord] = field(default_factory=list)
    allow_defaults: bool = False

    def __post_init__(self):
        self._by_key: dict[tuple[str, str], TiRecord] = {}
        for rec in self.records:
            key = (rec.technique_id, rec.asset_class)
            if key in self._by_key:
                raise ValidationError(f"duplicate threat-intel key {key}")
            self._by_key[key] = rec

    def lookup(self, technique_id: str, asset_class: str) -> TiRecord | None:
        rec = self._by_key.get((technique_id, asset_class))
        if rec is None and self.allow_defaults:
            return TiRecord(technique_id, asset_class, **DEFAULT_RECORD_FIELDS)
        return rec

    def has_technique(self, technique_id: str) -> bool:
        return any(t == technique_id for (t, _) in self._by_key)

    def with_multiplier(
        self,
        technique_id: str | None,
        asset_class: str | None,
        p_success_multiplier: float = 1.0,
        p_detect_multiplier: float = 1.0,
    ) -> "TiTable":
        """Return a new table with probabilities scaled (clamped to [0,1]) on
        matching rows. None matches every technique / asset class."""
        scaled = []
        for rec in self.records:
            if technique_id is not None and rec.technique_id != technique_id:
                scaled.append(rec)
                continue
            if asset_class is not None and rec.asset_class != asset_class:
                scaled.append(rec)
                continue
            scaled.append(
                TiRecord(
                    rec.technique_id,
                    rec.asset_class,
                    min(1.0, max(0.0, rec.p_success_base * p_success_multiplier)),
                    min(1.0, max(0.0, rec.p_detect * p_detect_multiplier)),
                    rec.reward_success,
                    rec.penalty_failure,
                    rec.action_cost,
                    rec.historical_frequency,
                )
            )
        return TiTable(scaled, allow_defaults=self.allow_defaults)


def _record_from_row(row: dict, where: str) -> TiRecord:
    missing = [c for c in TI_COLUMNS if c not in row or row[c] in (None, "")]
    if missing:
        raise ValidationError(f"{where}: missing columns {missing}")
    try:
        return TiRecord(
            technique_id=str(row["technique_id"]).strip(),
            asset_class=str(row["asset_class"]).strip(),
            p_success_base=float(row["p_success_base"]),
            p_detect=float(row["p_detect"]),
            reward_success=float(row["reward_success"]),
            penalty_failure=float(row["penalty_failure"]),
            action_cost=float(row["action_cost"]),
            historical_frequency=float(row["historical_frequency"]),
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def load_threat_intel(doc: str, allow_defaults: bool = False) -> TiTable:
    """Parse a threat-intel table from CSV (header row) or JSON (list of
    objects, or {"records": [...]})."""
    text = doc.strip()
    if not text:
        raise ParseError("empty threat-intel document")
    if text.startswith("[") or text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid threat-intel JSON: {exc.msg}", exc.lineno) from exc
        if isinstance(data, dict):
            data = data.get("records")
        if not isinstance(data, list):
            raise ValidationError("threat-intel JSON must be a list of row objects")
        rows = [(i + 1, row) for i, row in enumerate(data)]
        records = []
        for i, row in rows:
            if not isinstance(row, dict):
                raise ValidationError(f"threat-intel row {i} is not an object")
            records.append(_record_from_row(row, f"row {i}"))
    else:
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None:
            raise ParseError("threat-intel CSV has no header row")
        header = [h.strip() for h in reader.fieldnames]
        if header != list(TI_COLUMNS):
            raise ValidationError(
                f"threat-intel CSV header must be exactly {','.join(TI_COLUMNS)}"
            )
        records = [
            _record_from_row({k.strip(): v for k, v in row.items()}, f"row {i}")
            for i, row in enumerate(reader, start=2)
        ]
    return TiTable(records, allow_defaults=allow_defaults)


def serialize_threat_intel(table: TiTable) -> str:
    """Canonical CSV form: fixed column order, rows sorted by key."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TI_COLUMNS)
    for rec in sorted(table.records, key=lambda r: (r.technique_id, r.asset_class)):
        writer.writerow(
            [
                rec.technique_id,
                rec.asset_class,
                repr(rec.p_success_base),
                repr(rec.p_detect),
                repr(rec.reward_success),
                repr(rec.penalty_failure),
                repr(rec.action_cost),
                repr(rec.historical_frequency),
            ]
        )
    return out.getvalue()

"""Threat-intelligence records: per (technique, asset class) attack statistics.

Records carry the success/detection probabilities and the reward economics
an emulated attacker uses when deciding between actions. The table accepts
CSV or JSON documents with exactly the columns below. Records and the
attack-tree leaves that override them are both checked by `column_error`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace

from .canon import finite_number
from .errors import ParseError, ValidationError

# Each numeric column's closed range [lo, hi], and the attack-tree leaf key
# that overrides the column for one action (None if no leaf may)
NUMERIC_COLUMNS = {
    "p_success_base": (0.0, 1.0, "p_success"),
    "p_detect": (0.0, 1.0, "p_detect"),
    "reward_success": (0.0, math.inf, "reward_success"),
    "penalty_failure": (-math.inf, 0.0, "penalty_failure"),
    "action_cost": (0.0, math.inf, "cost"),
    "historical_frequency": (0.0, math.inf, None),
}

TI_COLUMNS = ("technique_id", "asset_class", *NUMERIC_COLUMNS)

# leaf key -> the column it overrides; the leaf keys are the parameter
# names of `AttackerAction`
LEAF_COLUMNS = {key: column for column, (_, _, key) in NUMERIC_COLUMNS.items() if key}


def column_error(column: str, value: float, name: str | None = None) -> str | None:
    """Why `value`, given as `name` (the column's own name by default),
    cannot fill `column`, or None if it can."""
    lo, hi, _ = NUMERIC_COLUMNS[column]
    name = name or column
    if not math.isfinite(value):
        return f"{name}={value} is not a finite number"
    if not lo <= value <= hi:
        return f"{name}={value} outside [{lo:g},{hi:g}]"
    return None


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
        for column in NUMERIC_COLUMNS:
            reason = column_error(column, getattr(self, column))
            if reason is not None:
                raise ValidationError(f"{reason} for ({self.technique_id}, {self.asset_class})")


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
        the records `in_scope`, each checked again as a TiRecord; the others
        are the same objects."""
        return TiTable(
            [
                replace(
                    rec,
                    p_success_base=min(1.0, max(0.0, rec.p_success_base * p_success_multiplier)),
                    p_detect=min(1.0, max(0.0, rec.p_detect * p_detect_multiplier)),
                ) if in_scope(rec, technique_id, asset_class) else rec
                for rec in self.records
            ],
            allow_defaults=self.allow_defaults,
        )


def in_scope(rec: TiRecord, technique_id: str | None, asset_class: str | None) -> bool:
    """Whether a countermeasure scoped to `technique_id` and `asset_class`
    covers `rec`; None covers every technique / asset class."""
    return technique_id in (None, rec.technique_id) and asset_class in (None, rec.asset_class)


def _record_from_row(row: dict, where: str) -> TiRecord:
    missing = [c for c in TI_COLUMNS if c not in row or row[c] in (None, "")]
    if missing:
        raise ValidationError(f"{where}: missing columns {missing}")
    try:
        return TiRecord(
            *(str(row[column]).strip() for column in TI_COLUMNS[:2]),
            **{column: float(row[column]) for column in NUMERIC_COLUMNS},
        )
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:
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
        except RecursionError as exc:
            raise ParseError("threat-intel JSON nested too deeply") from exc
        if isinstance(data, dict):
            data = data.get("records")
        if not isinstance(data, list):
            raise ValidationError("threat-intel JSON must be a list of row objects")
        rows = [(i + 1, row) for i, row in enumerate(data)]
        records = []
        for i, row in rows:
            if not isinstance(row, dict):
                raise ValidationError(f"threat-intel row {i} is not an object")
            for column in NUMERIC_COLUMNS:
                if row.get(column) is not None and finite_number(row[column]) is None:
                    raise ValidationError(f"row {i}: {column} must be a finite JSON number")
            records.append(_record_from_row(row, f"row {i}"))
    else:
        reader = csv.DictReader(io.StringIO(text))
        try:
            if reader.fieldnames is None:
                raise ParseError("threat-intel CSV has no header row")
            header = [h.strip() for h in reader.fieldnames]
            if header != list(TI_COLUMNS):
                raise ValidationError(
                    f"threat-intel CSV header must be exactly {','.join(TI_COLUMNS)}"
                )
            records = []
            for i, row in enumerate(reader, start=2):
                if None in row:
                    raise ValidationError(f"row {i}: more fields than the header")
                records.append(
                    _record_from_row({k.strip(): v for k, v in row.items()}, f"row {i}")
                )
        except csv.Error as exc:
            raise ParseError(f"malformed threat-intel CSV: {exc}", reader.line_num) from exc
    return TiTable(records, allow_defaults=allow_defaults)


def serialize_threat_intel(table: TiTable) -> str:
    """Canonical CSV form: fixed column order, rows sorted by key."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TI_COLUMNS)
    for rec in sorted(table.records, key=lambda r: (r.technique_id, r.asset_class)):
        writer.writerow(
            [rec.technique_id, rec.asset_class,
             *(repr(getattr(rec, column)) for column in NUMERIC_COLUMNS)]
        )
    return out.getvalue()

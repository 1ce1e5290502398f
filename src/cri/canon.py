"""Canonical serialization helpers.

Every machine-readable artifact the engine writes goes through these so
that two runs over identical inputs produce byte-identical files. The
parsers share `finite_number` for numbers they read back from JSON.
"""

import hashlib
import json
import math


def canonical_json(obj) -> str:
    """Serialize to deterministic, human-readable JSON (trailing newline)."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def compact_json(obj) -> str:
    """Single-line JSON with a fixed key order (insertion order preserved)."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def finite_number(value) -> float | None:
    """A JSON number as a finite float, or None for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None

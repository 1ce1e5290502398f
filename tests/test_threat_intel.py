import json
import re

import pytest

from cri.attack_tree import parse_tree_dict
from cri.errors import ParseError, ValidationError
from cri.threat_intel import (
    NUMERIC_COLUMNS,
    TI_COLUMNS,
    TiRecord,
    load_threat_intel,
    serialize_threat_intel,
)

CSV_ONE = (
    "technique_id,asset_class,p_success_base,p_detect,reward_success,"
    "penalty_failure,action_cost,historical_frequency\n"
    "T1078,endpoint,0.6,0.3,10,-2,1,40\n"
)


def test_csv_row_maps_to_record():
    table = load_threat_intel(CSV_ONE)
    assert len(table.records) == 1
    rec = table.records[0]
    assert rec == TiRecord("T1078", "endpoint", 0.6, 0.3, 10, -2, 1, 40)


def test_json_form_equivalent():
    table = load_threat_intel(
        '[{"technique_id": "T1078", "asset_class": "endpoint", "p_success_base": 0.6,'
        ' "p_detect": 0.3, "reward_success": 10, "penalty_failure": -2,'
        ' "action_cost": 1, "historical_frequency": 40}]'
    )
    assert table.records == load_threat_intel(CSV_ONE).records


def test_probability_out_of_range_rejected():
    with pytest.raises(ValidationError):
        load_threat_intel(CSV_ONE.replace("0.6", "1.2"))


def test_duplicate_key_rejected():
    doc = CSV_ONE + "T1078,endpoint,0.5,0.3,10,-2,1,40\n"
    with pytest.raises(ValidationError):
        load_threat_intel(doc)


def test_header_only_yields_empty_table():
    table = load_threat_intel(CSV_ONE.splitlines()[0] + "\n")
    assert table.records == []
    assert table.lookup("T1078", "endpoint") is None


def test_defaults_fill_missing_records_when_enabled():
    table = load_threat_intel(CSV_ONE.splitlines()[0] + "\n", allow_defaults=True)
    rec = table.lookup("T9999", "server")
    assert rec is not None
    assert rec.p_success_base == 0.5
    assert rec.penalty_failure == -1.0


GOOD_RECORD = dict(
    technique_id="T1", asset_class="endpoint", p_success_base=0.5,
    p_detect=0.5, reward_success=1, penalty_failure=-1,
    action_cost=0.1, historical_frequency=0,
)


def _leaf_tree(key, value):
    """A tree whose one leaf 'x' overrides `key` with `value`."""
    return {"id": "t", "technique_id": "T1", "root": {"name": "x", key: value}}


@pytest.mark.parametrize(
    "field,value,bounds",
    [
        ("reward_success", -1.0, "[0,inf]"),
        ("penalty_failure", 0.5, "[-inf,0]"),
        ("action_cost", -0.1, "[0,inf]"),
        ("historical_frequency", -3.0, "[0,inf]"),
        ("p_detect", 1.5, "[0,1]"),
        ("p_success_base", -0.5, "[0,1]"),
    ],
)
def test_record_invariants(field, value, bounds):
    """A record refuses a value outside its column's range, and so does a
    tree leaf that overrides the column, with the same
    `=<value> outside [lo,hi]` core after each one's own name."""
    core = f"={value} outside {bounds}"
    with pytest.raises(ValidationError, match=re.escape(f"{field}{core} for (T1, endpoint)")):
        TiRecord(**{**GOOD_RECORD, field: value})
    _, _, key = NUMERIC_COLUMNS[field]
    if key is not None:
        with pytest.raises(ValidationError, match=re.escape(f"leaf 'x' {key}{core}")):
            parse_tree_dict(_leaf_tree(key, value))


@pytest.mark.parametrize(
    "field,value",
    [
        ("p_success_base", 0.0), ("p_success_base", 1.0), ("p_detect", 0.0), ("p_detect", 1.0),
        ("reward_success", 0.0), ("reward_success", -0.0),
        ("penalty_failure", 0.0), ("penalty_failure", -0.0),
        ("action_cost", 0.0), ("action_cost", -0.0),
        ("historical_frequency", 0.0), ("historical_frequency", -0.0),
    ],
)
def test_range_edges_accepted(field, value):
    """Each range is closed, in a record and in a leaf alike."""
    assert repr(getattr(TiRecord(**{**GOOD_RECORD, field: value}), field)) == repr(value)
    _, _, key = NUMERIC_COLUMNS[field]
    if key is not None:
        leaf = parse_tree_dict(_leaf_tree(key, value)).root
        assert repr(leaf.param(key)) == repr(value)


@pytest.mark.parametrize(
    "cell,reason",
    [
        ("1.5", "row 3: p_success_base=1.5 outside [0,1] for (T3, server)"),
        ("abc", "row 3: could not convert string to float: 'abc'"),
    ],
)
def test_record_errors_name_their_row(cell, reason):
    doc = CSV_ONE + f"T3,server,{cell},0.3,10,-2,1,40\n"
    with pytest.raises(ValidationError, match=re.escape(reason)):
        load_threat_intel(doc)


def test_json_record_errors_name_their_row():
    row = dict(zip(TI_COLUMNS, ["T1", "endpoint", 0.6, 0.3, 10, -2, 1, 40]))
    bad = {**row, "technique_id": "T2", "reward_success": -1}
    reason = "row 2: reward_success=-1.0 outside [0,inf] for (T2, endpoint)"
    with pytest.raises(ValidationError, match=re.escape(reason)):
        load_threat_intel(json.dumps([row, bad]))


@pytest.mark.parametrize("field", TI_COLUMNS[2:])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_csv_value_rejected(field, value):
    header, row = CSV_ONE.splitlines()
    cells = row.split(",")
    cells[TI_COLUMNS.index(field)] = value
    with pytest.raises(ValidationError):
        load_threat_intel(header + "\n" + ",".join(cells) + "\n")


@pytest.mark.parametrize("field", TI_COLUMNS[2:])
@pytest.mark.parametrize("value", ["NaN", '"nan"', "Infinity"])
def test_non_finite_json_value_rejected(field, value):
    row = {
        "technique_id": "T1078", "asset_class": "endpoint", "p_success_base": 0.6,
        "p_detect": 0.3, "reward_success": 10, "penalty_failure": -2,
        "action_cost": 1, "historical_frequency": 40,
    }
    row[field] = "VALUE"
    with pytest.raises(ValidationError):
        load_threat_intel(json.dumps([row]).replace('"VALUE"', value))


@pytest.mark.parametrize("field", TI_COLUMNS[2:])
@pytest.mark.parametrize("value", ["true", "false", '"0.5"', "null", "[1]"])
def test_json_value_that_is_not_a_number_rejected(field, value):
    row = {
        "technique_id": "T1078", "asset_class": "endpoint", "p_success_base": 0.6,
        "p_detect": 0.3, "reward_success": 10, "penalty_failure": -2,
        "action_cost": 1, "historical_frequency": 40,
    }
    row[field] = "VALUE"
    with pytest.raises(ValidationError):
        load_threat_intel(json.dumps([row]).replace('"VALUE"', value))


def test_bad_header_rejected():
    with pytest.raises(ValidationError):
        load_threat_intel("a,b,c\n1,2,3\n")


def test_csv_row_longer_than_header_rejected():
    with pytest.raises(ValidationError, match="more fields"):
        load_threat_intel(CSV_ONE.strip() + ",extra\n")


def test_csv_bare_carriage_return_is_a_parse_error():
    with pytest.raises(ParseError):
        load_threat_intel(CSV_ONE + "T1059,ser\rver,0.4,0.2,5,-1,0.5,12\n")


def test_json_integer_beyond_float_range_rejected():
    row = dict(zip(TI_COLUMNS, ["T1078", "endpoint", 0.6, 0.3, 10**400, -2, 1, 40]))
    with pytest.raises(ValidationError):
        load_threat_intel(json.dumps([row]))


def test_empty_document_rejected():
    with pytest.raises(ParseError):
        load_threat_intel("   ")


def test_serialize_round_trip():
    doc = (
        CSV_ONE + "T1059,server,0.4,0.2,5,-1,0.5,12\n"
    )
    table = load_threat_intel(doc)
    again = load_threat_intel(serialize_threat_intel(table))
    assert again.records == sorted(table.records, key=lambda r: (r.technique_id, r.asset_class))
    assert serialize_threat_intel(again) == serialize_threat_intel(table)
    # the canonical bytes, which every report's inputs_digest hashes
    assert serialize_threat_intel(table) == (
        ",".join(TI_COLUMNS) + "\n"
        "T1059,server,0.4,0.2,5.0,-1.0,0.5,12.0\n"
        "T1078,endpoint,0.6,0.3,10.0,-2.0,1.0,40.0\n"
    )


def test_multiplier_scales_and_clamps():
    table = load_threat_intel(CSV_ONE)
    scaled = table.with_multiplier("T1078", None, p_success_multiplier=0.5, p_detect_multiplier=4.0)
    rec = scaled.lookup("T1078", "endpoint")
    assert rec.p_success_base == 0.3
    assert rec.p_detect == 1.0  # clamped
    untouched = table.with_multiplier("T9999", None, p_success_multiplier=0.0)
    assert untouched.records == table.records

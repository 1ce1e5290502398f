"""Parser fuzzing: arbitrary text, JSON-shaped values, XML-shaped and
CSV-shaped documents fed to every input parser. A parser may accept a
document or reject it with a CriError; nothing else may escape. The CLI
test replaces one input file of `cri calc` with arbitrary bytes: the
command exits 0 or 2, never with a traceback."""

import json
import shutil
import xml.etree.ElementTree as ET

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SCENARIO
from cri.attack_flow import parse_attack_flow
from cri.cli import main
from cri.errors import CriError
from cri.index import IndexLedger, parse_countermeasures
from cri.ingest import parse_network, parse_policy_set
from cri.threat_intel import LEAF_COLUMNS, TI_COLUMNS, load_threat_intel

EXAMPLES = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Keys and words the parsers look for, so generated documents get past
# the first shape check often enough to reach the deeper ones.
KEYS = (
    "id", "name", "attackFlow", "attackTree", "attackTrees", "edges", "step",
    "tactic", "technique", "from", "to", "relation", "type", "children",
    "cost", "p", "records", "countermeasures", "d3fend_group", "technique_id",
    "asset_class", "p_success_multiplier", "p_detect_multiplier", "capex",
    "opex", "maintenance", "ts", "campaign", "index", "kind", "note",
) + TI_COLUMNS
WORDS = (
    "AND", "OR", "SEQUENCE", "harden", "assumed", "validated", "bogus",
    "T1078", "TA0001", "nan", "inf", "-1", "0.5", "1e999", "",
)
TAGS = (
    "graphml", "graph", "node", "edge", "data", "Policy", "Rule", "Target",
    "Subject", "Resource", "Action", "SubjectMatch", "ResourceMatch",
    "ActionMatch", "AttributeValue", "SubjectAttributeDesignator", "Zone",
    "Member", "Peer", "AnySubject",
)
ATTRS = (
    "id", "source", "target", "key", "edgedefault", "Effect", "RuleID",
    "ZoneId", "AttributeId", "DataType",
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(WORDS)
    | st.text(max_size=6)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=6),
    max_leaves=24,
)


def _json_doc(value) -> str:
    return json.dumps(value, allow_nan=True)


def shaped(keys, values=scalars, required=()):
    """JSON objects holding any of `keys` (and all of `required`)."""
    return st.fixed_dictionaries(
        {key: values for key in required}, optional={key: values for key in keys}
    )


refs = scalars | shaped(("id", "name"))
tree_nodes = st.recursive(
    shaped(("name", *LEAF_COLUMNS)),
    lambda inner: shaped(("children",), st.lists(inner, max_size=3), required=("gate",)),
    max_leaves=6,
)
flows = shaped(
    ("id", "edges", "attackTrees"),
    scalars
    | st.lists(shaped(("from", "to", "relation")), max_size=3)
    | st.lists(shaped(("id", "technique_id", "root"), scalars | tree_nodes), max_size=2),
) | shaped(
    ("id",),
    st.lists(shaped(("step", "tactic", "technique", "attackTree"), refs), max_size=4),
    required=("attackFlow",),
)
countermeasures = st.lists(
    shaped(
        ("technique_id", "asset_class", "p_success_multiplier", "p_detect_multiplier",
         "capex", "opex", "maintenance"),
        required=("id", "d3fend_group"),
    ),
    max_size=3,
)
ti_rows = st.lists(shaped(TI_COLUMNS), max_size=3)
ledger_rows = shaped(("ts", "campaign", "index", "kind", "note"))


@st.composite
def xml_docs(draw):
    def element(depth: int) -> ET.Element:
        elem = ET.Element(draw(st.sampled_from(TAGS)))
        for name in draw(st.lists(st.sampled_from(ATTRS), max_size=3, unique=True)):
            elem.set(name, draw(st.sampled_from(WORDS + ("n0", "n1", "Permit", "Deny"))))
        elem.text = draw(st.none() | st.sampled_from(WORDS) | st.text(max_size=6))
        if depth:
            elem.extend(element(depth - 1) for _ in range(draw(st.integers(0, 3))))
        return elem

    return ET.tostring(element(draw(st.integers(0, 4))), encoding="unicode")


@st.composite
def csv_docs(draw):
    header = draw(st.just(",".join(TI_COLUMNS)) | st.text(max_size=20))
    field = st.sampled_from(WORDS + ("0.2", "1", "10" * 200)) | st.text(max_size=4)
    rows = draw(st.lists(st.lists(field, max_size=10).map(",".join), max_size=4))
    return "\n".join([header] + rows) + "\n"


def _only_cri_errors(parse, doc) -> None:
    try:
        parse(doc)
    except CriError:
        pass


documents = st.text(max_size=200) | json_values.map(_json_doc)


@EXAMPLES
@given(documents | xml_docs())
def test_parse_network(doc):
    _only_cri_errors(parse_network, doc)


@EXAMPLES
@given(documents | xml_docs())
def test_parse_policy_set(doc):
    _only_cri_errors(lambda d: parse_policy_set([d]), doc)


@EXAMPLES
@given(documents | flows.map(_json_doc))
def test_parse_attack_flow(doc):
    _only_cri_errors(parse_attack_flow, doc)


@EXAMPLES
@given(documents | csv_docs() | ti_rows.map(_json_doc))
def test_load_threat_intel(doc):
    _only_cri_errors(load_threat_intel, doc)


@EXAMPLES
@given(documents | countermeasures.map(_json_doc))
def test_parse_countermeasures(doc):
    _only_cri_errors(parse_countermeasures, doc)


@st.composite
def ledger_docs(draw):
    lines = draw(
        st.lists(
            (json_values | ledger_rows).map(_json_doc)
            | st.text(max_size=30).map(lambda t: t.replace("\n", " ")),
            max_size=4,
        )
    )
    return "\n".join(lines) + "\n"


@EXAMPLES
@given(ledger_docs() | st.text(max_size=200))
def test_index_ledger_load(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz-ledger.jsonl"
    path.write_text(doc, encoding="utf-8")
    _only_cri_errors(IndexLedger.load, str(path))


# One input file of a one-flow copy of the reference scenario, replaced
# whole by the fuzzed bytes.
CLI_INPUTS = {
    "network": "network.graphml",
    "flow": "flows/credential_chain.json",
    "policy": "policies/access.xml",
    "ti": "ti.csv",
    "ledger": "ledger.jsonl",
}


@pytest.fixture(scope="module")
def cli_scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    for name in ("network.graphml", "ti.csv", "flows/credential_chain.json",
                 "policies/access.xml", "policies/segmentation.xml"):
        (root / name).parent.mkdir(exist_ok=True)
        shutil.copy(SCENARIO / name, root / name)
    return root


def _spliced(original: bytes):
    """The original file with a run of bytes replaced, so the document is
    often still well-formed and reaches the engine."""
    size = len(original)
    pieces = (
        st.binary(max_size=8)
        | st.sampled_from(WORDS).map(str.encode)
        | st.text("0123456789.-", max_size=3).map(str.encode)
    )
    return st.tuples(st.integers(0, size), st.integers(0, 4), pieces).map(
        lambda cut: original[: cut[0]] + cut[2] + original[cut[0] + cut[1]:]
    )


@st.composite
def cli_cases(draw):
    target = draw(st.sampled_from(sorted(CLI_INPUTS)))
    texts = documents | xml_docs() | csv_docs() | flows.map(_json_doc) | ledger_docs()
    content = draw(
        st.binary(max_size=200)
        | texts.map(lambda doc: doc.encode("utf-8"))
        | (_spliced((SCENARIO / CLI_INPUTS[target]).read_bytes()) if target != "ledger"
           else ledger_rows.map(lambda row: (_json_doc(row) + "\n").encode("utf-8")))
    )
    return target, content


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cli_cases())
def test_cli_calc_exits_0_or_2(cli_scenario, case):
    target, content = case
    path = cli_scenario / CLI_INPUTS[target]
    original = None if target == "ledger" else path.read_bytes()
    path.write_bytes(content)
    try:
        result = CliRunner().invoke(main, [
            "calc", "--network", str(cli_scenario / "network.graphml"),
            "--flows", str(cli_scenario / "flows"),
            "--policies", str(cli_scenario / "policies"),
            "--ti", str(cli_scenario / "ti.csv"),
            "--ledger", str(cli_scenario / "ledger.jsonl"),
            "--out", str(cli_scenario / "out"),
        ])
    finally:
        (cli_scenario / "ledger.jsonl").unlink(missing_ok=True)
        if original is not None:
            path.write_bytes(original)
    assert result.exit_code in (0, 2), (target, content, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        target, content, result.exception,
    )

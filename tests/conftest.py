import random
from pathlib import Path

import pytest

from cri.ingest import RawBundle, validate_bundle
from cri.pomdp import compile_policy

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO = REPO_ROOT / "fixtures" / "scenario"
MALFORMED = REPO_ROOT / "fixtures" / "malformed"


def load_scenario(policy_dir: str = "policies", flow_names: list[str] | None = None):
    """Parse the bundled reference scenario into ValidatedInputs."""
    flows_dir = SCENARIO / "flows"
    names = flow_names or sorted(p.stem for p in flows_dir.glob("*.json"))
    bundle = RawBundle(
        network_doc=(SCENARIO / "network.graphml").read_text(),
        flow_docs=[(flows_dir / f"{n}.json").read_text() for n in names],
        policy_docs=[
            (SCENARIO / policy_dir / "access.xml").read_text(),
            (SCENARIO / policy_dir / "segmentation.xml").read_text(),
        ],
        ti_doc=(SCENARIO / "ti.csv").read_text(),
        flow_names=names,
    )
    return validate_bundle(bundle)


@pytest.fixture(scope="session")
def scenario():
    return load_scenario()


@pytest.fixture(scope="session")
def scenario_isolated():
    return load_scenario("policies_isolated", flow_names=["credential_chain"])


@pytest.fixture
def rng():
    return random.Random(20240901)


def fixed_policy(pomdp, action: int | None, horizon: int):
    """Test helper: play one action index at every belief."""
    return compile_policy(pomdp, lambda key: action, horizon)

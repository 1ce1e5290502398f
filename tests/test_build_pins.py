"""Pins of the built attacker models: the sha256 of `modeldump.dump()`
for the fixture flows, seeded `genscen` scenarios (with and without
attack trees) and reference-network chains, in reduced and naive mode.

State indices fix every downstream float sum, so the builder must keep the
state order and every row bit-identical. The digests in
`build_digests.json` were produced by the two-pass builder of commit
4bd2599 (reachable-state search, then a second table pass) over exactly
the cases `_cases()` lists; a build that raised pins its `CriError` text.
When `dump()` lost its `"discount": 1.0` line, every digest was re-derived
and checked to be the sha256 of commit 9ed2b0e's dump with that one line
removed. `dump()` moved from `Pomdp` to `tests/modeldump.py` unchanged,
and every digest held.

Every build input is pinned twice: the model that tracks inventory under
`<case>/<mode>`, and the flag model (`inventory=False`), which every run
solves, under `<case>/<mode>/flags`. The flag digests were taken at commit
21ac385, whose builder evaluated every (state, action) pair, before it was
changed to evaluate only offered moves and to write a state's wasted
moves from one shared row; every digest, flag and inventory alike, held
through that change.
"""

import hashlib
import json
import random
from pathlib import Path

from cri.errors import CriError
from cri.pomdp import build_pomdp
from conftest import load_scenario
from genscen import chain_scenario, random_scenario
from modeldump import dump

DIGESTS = Path(__file__).resolve().parent / "build_digests.json"
CHAIN = ["T1078", "T1059", "T1005", "T1566", "T1659"]
MODES = (("reduced", False), ("naive", True))
# key suffix of each model: the one that tracks inventory, and the flag model
MODELS = (("", True), ("/flags", False))


def _cases():
    """(case id, inputs, flow) for every pinned build input."""
    for policy_dir in ("policies", "policies_isolated"):
        inputs = load_scenario(policy_dir)
        for flow in inputs.flows:
            yield f"fixture/{policy_dir}/{flow.id}", inputs, flow
    for steps in (3, 4, 5):
        inputs = chain_scenario(CHAIN[:steps])
        yield f"chain/{steps}", inputs, inputs.flows[0]
    for seed in range(200):
        inputs = random_scenario(random.Random(seed), max_steps=1 + seed % 3)
        yield f"genscen/{seed}", inputs, inputs.flows[0]
    for seed in range(200):
        inputs = random_scenario(
            random.Random(seed), max_nodes=2, max_items=1, max_steps=2, tree=True
        )
        yield f"tree/{seed}", inputs, inputs.flows[0]


def _digest(inputs, flow, naive: bool, inventory: bool) -> str:
    try:
        pomdp = build_pomdp(flow, inputs.network, inputs.ti, naive=naive, inventory=inventory)
    except CriError as exc:
        return f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(dump(pomdp).encode()).hexdigest()


def test_builds_match_pinned_dumps():
    expected = json.loads(DIGESTS.read_text())
    actual = {
        f"{case}/{mode}{suffix}": _digest(inputs, flow, naive, inventory)
        for case, inputs, flow in _cases()
        for mode, naive in MODES
        for suffix, inventory in MODELS
    }
    assert actual.keys() == expected.keys()
    assert [k for k in actual if actual[k] != expected[k]] == []
    # the pins cover tree leaves and built naive models, not only refusals
    trees = [k for k in actual if k.startswith("tree/") and k.endswith("/naive")]
    assert sum(not actual[k].startswith("CapacityError") for k in trees) >= 50


"""Seeded generator for the `mesh-paths` scenario.

The network is a random spanning tree plus random chords, so the number of
simple entry-to-target paths (what path analysis enumerates) is large while
the attacker model stays small: one entry point, exactly four nodes that
threat intel covers (two endpoints, two servers), every other node a
router, switch or IDS, and a two-step chain flow. Three segmentation zones
(two peered pairs) and one Deny rule give path analysis every policy
feature to evaluate.

The same seed always writes the same bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 11
NODES = 30
CHORDS = 20

TI_HEADER = (
    "technique_id,asset_class,p_success_base,p_detect,reward_success,"
    "penalty_failure,action_cost,historical_frequency\n"
)
TI_ROWS = (
    "T1078,endpoint,0.55,0.3,4,-1,0.5,40\n"
    "T1005,server,0.7,0.4,12,-2,1,20\n"
)

FLOW = {
    "id": "mesh-chain",
    "attackFlow": [
        {
            "step": 1,
            "tactic": {"id": "TA0001", "name": "Initial Access"},
            "technique": {"id": "T1078", "name": "Valid Accounts"},
        },
        {
            "step": 2,
            "tactic": {"id": "TA0009", "name": "Collection"},
            "technique": {"id": "T1005", "name": "Data from Local System"},
        },
    ],
}

_INFRA_CLASSES = ("router", "switch", "ids")


def generate(seed: int = DEFAULT_SEED, nodes: int = NODES, chords: int = CHORDS) -> dict[str, str]:
    """Return {relative file name: text} for one scenario."""
    if nodes < 6:
        raise ValueError("mesh needs at least 6 nodes")
    rng = random.Random(seed)
    classes = ["gateway", "endpoint", "endpoint", "server", "server"]
    classes += [rng.choice(_INFRA_CLASSES) for _ in range(nodes - len(classes))]
    # Node 0 stays the entry gateway; the targets land anywhere else.
    rest = classes[1:]
    rng.shuffle(rest)
    classes[1:] = rest
    names = [f"{cls}{i:02d}" for i, cls in enumerate(classes)]

    edges = {tuple(sorted((i, rng.randrange(i)))) for i in range(1, nodes)}
    max_edges = nodes * (nodes - 1) // 2
    target = min(len(edges) + chords, max_edges)
    while len(edges) < target:
        a, b = rng.sample(range(nodes), 2)
        edges.add((min(a, b), max(a, b)))

    node_lines = []
    for i, name in enumerate(names):
        items = ";".join(f"{classes[i]}_svc{k}" for k in range(rng.randint(1, 2)))
        entry = '\n      <data key="entry_point">true</data>' if i == 0 else ""
        node_lines.append(
            f'    <node id="{name}">\n'
            f'      <data key="type">{classes[i]}</data>\n'
            f'      <data key="ip">10.{i // 250}.{i % 250}.1</data>\n'
            f'      <data key="inventory">{items}</data>{entry}\n'
            "    </node>\n"
        )
    edge_lines = [
        f'    <edge source="{names[a]}" target="{names[b]}"/>\n' for a, b in sorted(edges)
    ]
    network = (
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <graph edgedefault="undirected">\n'
        + "".join(node_lines)
        + "".join(edge_lines)
        + "  </graph>\n</graphml>\n"
    )

    # Zones: the gateway's third, a middle third, the last third. edge<->core
    # and core<->dc are peered, edge<->dc is not, so some hops are blocked.
    third = nodes // 3
    zones = {
        "edge": names[:third],
        "core": names[third:2 * third],
        "dc": names[2 * third:],
    }
    peers = {"edge": ["core"], "core": ["edge", "dc"], "dc": ["core"]}
    denied = next(n for n, c in zip(names, classes) if c in _INFRA_CLASSES)
    zone_xml = "".join(
        f'  <Zone ZoneId="{label}">\n'
        + "".join(f"    <Member>{m}</Member>\n" for m in members)
        + "".join(f"    <Peer>{p}</Peer>\n" for p in peers[label])
        + "  </Zone>\n"
        for label, members in zones.items()
    )
    policy = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<Policy PolicyId="mesh">\n'
        '  <Rule RuleID="DenyInfra" Effect="Deny">\n'
        "    <Target>\n"
        "      <Subject><AnySubject/></Subject>\n"
        "      <Resource>\n"
        '        <ResourceMatch MatchID="urn:oasis:names:tc:xacml:1.0:function:string-equal">\n'
        f"          <AttributeValue>{denied}</AttributeValue>\n"
        '          <ResourceAttributeDesignator AttributeID="urn:oasis:names:tc:xacml:1.0:resource-resource-id"/>\n'
        "        </ResourceMatch>\n"
        "      </Resource>\n"
        "      <Action><AnyAction/></Action>\n"
        "    </Target>\n"
        "  </Rule>\n"
        '  <Rule RuleID="Baseline" Effect="Permit">\n'
        "    <Target>\n"
        "      <Subject><AnySubject/></Subject>\n"
        "      <Resource><AnyResource/></Resource>\n"
        "      <Action><AnyAction/></Action>\n"
        "    </Target>\n"
        "  </Rule>\n"
        + zone_xml
        + "</Policy>\n"
    )
    return {
        "network.graphml": network,
        "flows/mesh_chain.json": json.dumps(FLOW, indent=2) + "\n",
        "policies/mesh.xml": policy,
        "ti.csv": TI_HEADER + TI_ROWS,
    }


def write(out_dir: Path, seed: int = DEFAULT_SEED, **sizes) -> Path:
    """Write one scenario under out_dir and return out_dir."""
    for rel, text in generate(seed, **sizes).items():
        path = out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return out_dir

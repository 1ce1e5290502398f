"""Scenario and model generators shared by the test modules."""

import json
import random
from pathlib import Path

from cri.ingest import RawBundle, validate_bundle
from cri.pomdp.types import AttackerAction, NetworkState, Pomdp

PERMIT_ALL = """
<Policy PolicyId="open">
  <Rule RuleID="allow" Effect="Permit">
    <Target>
      <Subject><AnySubject/></Subject>
      <Resource><AnyResource/></Resource>
      <Action><AnyAction/></Action>
    </Target>
  </Rule>
</Policy>
"""

SCENARIO = Path(__file__).resolve().parent.parent / "fixtures" / "scenario"

TI_HEADER = (
    "technique_id,asset_class,p_success_base,p_detect,reward_success,"
    "penalty_failure,action_cost,historical_frequency\n"
)


def random_scenario(
    rng: random.Random,
    max_nodes: int = 3,
    max_items: int = 2,
    max_steps: int = 2,
    shared_rewards: bool = False,
    detect_noise: bool = True,
    distinct_classes: bool = False,
    extra_flows: int = 0,
    tree: bool = False,
    rename: dict[str, str] | None = None,
    isolated: bool = False,
):
    """Random connected network + chain flow + TI table, sized to stay under
    the naive-mode cap. With shared_rewards the reward economics are drawn
    per technique (identical across asset classes); with distinct_classes
    every node gets its own asset class, so each TI row parameterizes
    exactly one action. `extra_flows` adds chains over random subsets of the
    first flow's techniques; `tree` then gives one step of the first flow an
    AND/OR attack tree over 2-3 leaves with random parameter overrides.
    Both are drawn last, so the rest of the scenario does not depend on
    them. `rename` maps node ids (n0, n1, ...) to the ids the network
    document uses instead, and `isolated` adds a node 'iso' with no edge,
    one inventory item and the first node's asset class; neither changes
    a draw."""
    num_nodes = rng.randint(2, max_nodes)
    if distinct_classes:
        classes = [f"class{i}" for i in range(num_nodes)]
    else:
        classes = [rng.choice(["alpha", "beta", "gamma"]) for _ in range(num_nodes)]
    budget = 4  # total inventory items, keeps the naive grid small
    nodes = []
    for i in range(num_nodes):
        count = rng.randint(1, min(max_items, budget)) if budget > 0 else 0
        budget -= count
        items = ";".join(f"it{i}{j}" for j in range(count))
        inv = f'<data key="inventory">{items}</data>' if items else ""
        entry = '<data key="entry_point">true</data>' if i == 0 else ""
        nodes.append(
            f'<node id="n{i}"><data key="type">{classes[i]}</data>{inv}{entry}</node>'
        )
    edges = [f'<edge source="n{i}" target="n{i + 1}"/>' for i in range(num_nodes - 1)]
    if num_nodes == 3 and rng.random() < 0.4:
        edges.append('<edge source="n0" target="n2"/>')
    if isolated:
        nodes.append(
            f'<node id="iso"><data key="type">{classes[0]}</data>'
            '<data key="inventory">iso0</data></node>'
        )
    network_doc = (
        '<graphml><graph edgedefault="undirected">'
        + "".join(nodes)
        + "".join(edges)
        + "</graph></graphml>"
    )
    for old, new in (rename or {}).items():
        network_doc = network_doc.replace(f'"{old}"', f'"{new}"')

    num_steps = rng.randint(1, max_steps)
    techniques = [f"T9{i:03d}" for i in range(num_steps)]

    def chain(flow_id: str, chosen: list[str]) -> dict:
        return {
            "id": flow_id,
            "attackFlow": [
                {
                    "step": i + 1,
                    "tactic": {"id": "TA0001", "name": "x"},
                    "technique": {"id": tech, "name": tech},
                }
                for i, tech in enumerate(chosen)
            ],
        }

    rows = []
    for tech in techniques:
        reward = round(rng.uniform(1.0, 8.0), 2)
        penalty = -round(rng.uniform(0.0, 2.0), 2)
        cost = round(rng.uniform(0.0, 0.5), 2)
        covered = rng.sample(sorted(set(classes)), rng.randint(1, len(set(classes))))
        for asset_class in covered:
            if not shared_rewards:
                reward = round(rng.uniform(1.0, 8.0), 2)
                penalty = -round(rng.uniform(0.0, 2.0), 2)
                cost = round(rng.uniform(0.0, 0.5), 2)
            p = round(rng.uniform(0.2, 0.9), 2)
            pd = rng.choice([0, 0.3]) if detect_noise else 0
            rows.append(f"{tech},{asset_class},{p},{pd},{reward},{penalty},{cost},1")

    flows = [chain("random-chain", techniques)]
    for k in range(1, extra_flows + 1):
        picked = sorted(rng.sample(range(num_steps), rng.randint(1, num_steps)))
        flows.append(chain(f"random-chain-{k}", [techniques[i] for i in picked]))
    if tree:
        step = flows[0]["attackFlow"][rng.randrange(num_steps)]
        step["attackTree"] = "random-tree"
        flows[0]["attackTrees"] = [
            {
                "id": "random-tree",
                "technique_id": step["technique"]["id"],
                "root": {
                    "gate": rng.choice(["AND", "OR"]),
                    "children": [
                        {"name": f"leaf{i}", **_leaf_overrides(rng)}
                        for i in range(rng.randint(2, 3))
                    ],
                },
            }
        ]

    bundle = RawBundle(
        network_doc=network_doc,
        flow_docs=[json.dumps(f) for f in flows],
        policy_docs=[PERMIT_ALL],
        ti_doc=TI_HEADER + "\n".join(rows) + "\n",
    )
    return validate_bundle(bundle)


def two_target_tree(second: str, leaves: tuple[str, ...] = ("l1", "l2")) -> RawBundle:
    """An entry gateway in front of node `a` and node `second`, both open to
    one technique whose attack tree ANDs `leaves`: a tree step with two
    targets."""
    network_doc = (
        '<graphml><graph edgedefault="undirected">'
        '<node id="gw"><data key="type">firewall</data><data key="entry_point">true</data></node>'
        '<node id="a"><data key="type">srv</data><data key="inventory">x</data></node>'
        f'<node id="{second}"><data key="type">srv</data><data key="inventory">y</data></node>'
        f'<edge source="gw" target="a"/><edge source="gw" target="{second}"/>'
        "</graph></graphml>"
    )
    flow = {
        "id": "tree",
        "attackFlow": [
            {"step": 1, "tactic": {"id": "TA0001"}, "technique": {"id": "T0001"}, "attackTree": "t"}
        ],
        "attackTrees": [{
            "id": "t",
            "technique_id": "T0001",
            "root": {"gate": "AND", "children": [{"name": name} for name in leaves]},
        }],
    }
    return RawBundle(
        network_doc=network_doc,
        flow_docs=[json.dumps(flow)],
        policy_docs=[PERMIT_ALL],
        ti_doc=TI_HEADER + "T0001,srv,0.5,0,10,-1,0.5,1\n",
    )


def _leaf_overrides(rng: random.Random) -> dict[str, float]:
    """A random subset of the tree-leaf parameters, each with a random value."""
    draws = {
        "p_success": lambda: round(rng.uniform(0.1, 1.0), 2),
        "p_detect": lambda: rng.choice([0, 0.2]),
        "reward_success": lambda: round(rng.uniform(0.0, 6.0), 2),
        "penalty_failure": lambda: -round(rng.uniform(0.0, 2.0), 2),
        "cost": lambda: round(rng.uniform(0.0, 0.5), 2),
    }
    return {key: draw() for key, draw in draws.items() if rng.random() < 0.5}


def chain_scenario(techniques: list[str]):
    """The reference network, policies and TI with one flow chaining
    `techniques` in order."""
    flow = {
        "id": "chain",
        "attackFlow": [
            {"step": i + 1, "tactic": {"id": "TA0001"}, "technique": {"id": tech}}
            for i, tech in enumerate(techniques)
        ],
    }
    return validate_bundle(
        RawBundle(
            network_doc=(SCENARIO / "network.graphml").read_text(),
            flow_docs=[json.dumps(flow)],
            policy_docs=[
                (SCENARIO / "policies" / name).read_text()
                for name in ("access.xml", "segmentation.xml")
            ],
            ti_doc=(SCENARIO / "ti.csv").read_text(),
        )
    )


def random_pomdp(
    rng: random.Random,
    max_states: int = 6,
    max_actions: int = 3,
    max_obs: int = 2,
    max_horizon: int = 4,
) -> Pomdp:
    """Arbitrary small model (not tied to any network) for solver oracles."""
    num_states = rng.randint(2, max_states)
    num_actions = rng.randint(1, max_actions)
    num_obs = rng.randint(1, max_obs)
    states = tuple(
        NetworkState() if i == 0 else NetworkState(flags=(f"s{i}",))
        for i in range(num_states)
    )
    actions = tuple(
        AttackerAction(
            id=f"a{j}", target="n0",
            p_success=0.5, p_detect=0.0, reward_success=1.0, penalty_failure=-1.0,
            cost=0.0, step=j + 1,
        )
        for j in range(num_actions)
    )

    def random_row(size, options):
        chosen = rng.sample(options, rng.randint(1, min(size, len(options))))
        weights = [rng.uniform(0.05, 1.0) for _ in chosen]
        total = sum(weights)
        return tuple(sorted((c, w / total) for c, w in zip(chosen, weights)))

    transitions = {}
    branch_rewards = {}
    observation_probs = {}
    for s in range(num_states):
        for a in range(num_actions):
            row = random_row(3, list(range(num_states)))
            transitions[(s, a)] = row
            for s2, _ in row:
                branch_rewards[(s, a, s2)] = round(rng.uniform(-3.0, 5.0), 3)
            observation_probs[(s, a)] = random_row(num_obs, list(range(num_obs)))

    applicable = {}
    for s in range(num_states):
        count = rng.randint(0, num_actions)
        applicable[s] = tuple(sorted(rng.sample(range(num_actions), count)))
    if not applicable[0]:
        applicable[0] = (0,)

    belief = [0.0] * num_states
    if rng.random() < 0.5:
        belief[0] = 1.0
    else:
        belief[0] = rng.uniform(0.3, 0.7)
        belief[1] = 1.0 - belief[0]

    pomdp = Pomdp(
        states=states,
        actions=actions,
        observations=tuple(f"o{k + 1}" for k in range(num_obs)),
        transitions=transitions,
        observation_probs=observation_probs,
        branch_rewards=branch_rewards,
        initial_belief=tuple(belief),
        horizon=rng.randint(1, max_horizon),
        applicable=applicable,
        milestones={1: f"s{num_states - 1}"},
    )
    pomdp.validate()
    return pomdp

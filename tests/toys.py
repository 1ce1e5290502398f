"""Small self-contained scenarios built through the real pipeline.

Used by the test suite and handy for demos: each helper returns a ready
Pomdp (plus its ValidatedInputs) for a miniature network and flow.
"""

from __future__ import annotations

from cri.ingest import RawBundle, ValidatedInputs, validate_bundle
from cri.pomdp import Pomdp, build_pomdp

_NET_ONE = """
<graphml><graph edgedefault="undirected">
  <node id="gw"><data key="type">firewall</data><data key="inventory">fw_os</data><data key="entry_point">true</data></node>
  <node id="host"><data key="type">endpoint</data><data key="inventory">os;agent</data></node>
  <edge source="gw" target="host"/>
</graph></graphml>
"""

_NET_SENSOR = """
<graphml><graph edgedefault="undirected">
  <node id="gw"><data key="type">firewall</data><data key="inventory">fw_os</data><data key="entry_point">true</data></node>
  <node id="watch"><data key="type">ids</data><data key="inventory">sensor</data></node>
  <node id="srv"><data key="type">server</data><data key="inventory">db;files</data></node>
  <edge source="gw" target="watch"/>
  <edge source="watch" target="srv"/>
</graph></graphml>
"""

_PERMIT_ALL = """
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

_TI_HEADER = (
    "technique_id,asset_class,p_success_base,p_detect,reward_success,"
    "penalty_failure,action_cost,historical_frequency\n"
)


def _flow(steps: list[tuple[int, str]], flow_id: str) -> str:
    import json

    return json.dumps(
        {
            "id": flow_id,
            "attackFlow": [
                {
                    "step": step,
                    "tactic": {"id": "TA0001", "name": "Initial Access"},
                    "technique": {"id": tech, "name": tech},
                }
                for step, tech in steps
            ],
        }
    )


def _build(
    network_doc: str,
    flow_doc: str,
    ti_rows: list[str],
    horizon: int | None = None,
) -> tuple[Pomdp, ValidatedInputs]:
    inputs = validate_bundle(
        RawBundle(
            network_doc=network_doc,
            flow_docs=[flow_doc],
            policy_docs=[_PERMIT_ALL],
            ti_doc=_TI_HEADER + "\n".join(ti_rows) + "\n",
        )
    )
    return build_pomdp(inputs.flows[0], inputs.network, inputs.ti, horizon=horizon), inputs


def single_step(
    p_success: float = 0.6,
    p_detect: float = 0.0,
    reward: float = 10.0,
    penalty: float = -2.0,
    cost: float = 1.0,
    horizon: int | None = 3,
) -> tuple[Pomdp, ValidatedInputs]:
    """One technique against one endpoint behind a firewall."""
    return _build(
        _NET_ONE,
        _flow([(1, "T0001")], "toy-single"),
        [f"T0001,endpoint,{p_success},{p_detect},{reward},{penalty},{cost},1"],
        horizon=horizon,
    )


def and_chain(
    p1: float = 0.5,
    p2: float = 0.5,
    horizon: int | None = 2,
) -> tuple[Pomdp, ValidatedInputs]:
    """Two sequenced techniques; at horizon 2 each gets exactly one try."""
    return _build(
        _NET_ONE,
        _flow([(1, "T0001"), (2, "T0002")], "toy-chain"),
        [
            f"T0001,endpoint,{p1},0,6,-1,0.5,1",
            f"T0002,endpoint,{p2},0,8,-1,0.5,1",
        ],
        horizon=horizon,
    )


def noisy_sensor(
    p_success: float = 0.55,
    p_detect: float = 0.5,
    horizon: int | None = 3,
) -> tuple[Pomdp, ValidatedInputs]:
    """One technique against a server watched by a sensor: outcomes are
    muddled with probability p_detect, so beliefs genuinely mix."""
    return _build(
        _NET_SENSOR,
        _flow([(1, "T0001")], "toy-sensor"),
        [f"T0001,server,{p_success},{p_detect},9,-2,0.8,1"],
        horizon=horizon,
    )


def bundled_toys() -> list[tuple[str, Pomdp]]:
    """The three reference toy models used by the acceptance suite."""
    return [
        ("single_step", single_step()[0]),
        ("and_chain", and_chain(horizon=4)[0]),
        ("noisy_sensor", noisy_sensor()[0]),
    ]

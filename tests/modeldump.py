"""Canonical JSON dump of a built model, for diffing and pinning.

`dump(pomdp)` is what `test_build_pins` hashes into `build_digests.json`,
so its text must not change: a changed byte moves every pinned digest.
"""

from __future__ import annotations

import json

from cri.pomdp import NetworkState, Pomdp


def label(state: NetworkState) -> str:
    comp = ",".join(f"{n}:{'|'.join(items)}" for n, items in state.compromised)
    return f"[{comp}]{{{','.join(state.flags)}}}"


def dump(pomdp: Pomdp) -> str:
    """Canonical JSON dump of the whole model, for diffing and oracles."""
    payload = {
        "flow": pomdp.flow_id,
        "horizon": pomdp.horizon,
        "states": [label(s) for s in pomdp.states],
        "actions": [a.id for a in pomdp.actions],
        "observations": list(pomdp.observations),
        "initial_belief": list(pomdp.initial_belief),
        "transitions": {
            f"{s},{a}": {str(s2): p for s2, p in row}
            for (s, a), row in sorted(pomdp.transitions.items())
        },
        "observation_probs": {
            f"{s2},{a}": {pomdp.observations[o]: p for o, p in row}
            for (s2, a), row in sorted(pomdp.observation_probs.items())
        },
        "branch_rewards": {
            f"{s},{a},{s2}": r for (s, a, s2), r in sorted(pomdp.branch_rewards.items())
        },
        "applicable": {str(s): list(acts) for s, acts in sorted(pomdp.applicable.items())},
        "milestones": {str(k): v for k, v in sorted(pomdp.milestones.items())},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"

"""Worst-case size bounds versus the sizes the engine actually builds."""

from __future__ import annotations

from collections.abc import Sequence

from ..attack_flow import AttackFlow
from ..errors import ValidationError
from ..netmodel import NetworkModel
from .types import ComplexityEstimate, OBSERVATIONS, Pomdp

_NOTE = (
    "worst_states counts (2^|I|-1) inventory subsets per node (the "
    "non-empty-subset convention); natural_states counts 2^|I| including "
    "the nothing-compromised subset, which is what constructed models use."
)


def state_space_size(num_nodes: int, inventory_size: int) -> int:
    """Worst-case state count (2^|I| - 1)^|V| (reporting only; exact big
    integers, so no overflow)."""
    if num_nodes < 1 or inventory_size < 1:
        raise ValidationError("state_space_size requires |V| >= 1 and |I| >= 1")
    return (2**inventory_size - 1) ** num_nodes


def complexity_report(
    net: NetworkModel,
    flows: list[AttackFlow],
    models: Sequence[Pomdp] = (),
) -> ComplexityEstimate:
    """Worst-case bounds for the scenario; when the flows' built models are
    supplied their actual sizes are reported side by side. `models` are
    the models that track compromised inventory (`build_pomdp(flow, net,
    ti)`), so `reduced_states` counts their states, not those of the
    smaller flag models every run solves."""
    num_nodes = len(net.nodes)
    max_inventory = max((len(n.inventory) for n in net.nodes.values()), default=0)
    num_actions = sum(len(f.nodes) for f in flows)
    if num_nodes >= 1 and max_inventory >= 1:
        worst = state_space_size(num_nodes, max_inventory)
        # (2^|I|)^|V|: the empty subset per node included
        natural = (2**max_inventory) ** num_nodes
    else:
        worst = natural = 0
    estimate = ComplexityEstimate(
        num_nodes=num_nodes,
        max_inventory=max_inventory,
        worst_states=worst,
        num_actions=num_actions,
        num_observations=len(OBSERVATIONS),
        comp_state_obs=worst * num_actions * worst * len(OBSERVATIONS),
        c_statetrans=worst * num_actions * worst,
        natural_states=natural,
        note=_NOTE,
    )
    if models:
        estimate.reduced_states = sum(len(m.states) for m in models)
        estimate.reduced_actions = sum(len(m.actions) for m in models)
        estimate.reduced_observations = len({o for m in models for o in m.observations})
    return estimate

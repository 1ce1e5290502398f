"""Worst-case size bounds versus the sizes the engine actually builds."""

from __future__ import annotations

from ..attack_flow import AttackFlow
from ..errors import ValidationError
from ..netmodel import NetworkModel
from ..threat_intel import TiTable
from .types import BuildConfig, ComplexityEstimate, OBSERVATIONS

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


def natural_state_count(num_nodes: int, inventory_size: int) -> int:
    """State count when the empty subset per node is included: (2^|I|)^|V|."""
    if num_nodes < 0 or inventory_size < 0:
        raise ValidationError("counts must be non-negative")
    return (2**inventory_size) ** num_nodes


def complexity_from_sizes(
    num_nodes: int,
    max_inventory: int,
    num_actions: int,
    num_observations: int = len(OBSERVATIONS),
) -> ComplexityEstimate:
    if num_nodes >= 1 and max_inventory >= 1:
        worst = state_space_size(num_nodes, max_inventory)
        natural = natural_state_count(num_nodes, max_inventory)
    else:
        worst = 0
        natural = 0
    return ComplexityEstimate(
        num_nodes=num_nodes,
        max_inventory=max_inventory,
        worst_states=worst,
        num_actions=num_actions,
        num_observations=num_observations,
        comp_state_obs=worst * num_actions * worst * num_observations,
        c_statetrans=worst * num_actions * worst,
        natural_states=natural,
        note=_NOTE,
    )


def complexity_report(
    net: NetworkModel,
    flows: list[AttackFlow],
    ti: TiTable | None = None,
    cfg: BuildConfig | None = None,
) -> ComplexityEstimate:
    """Worst-case bounds for the scenario; when threat intel is supplied the
    reduced models are built and their actual sizes reported side by side.
    A flow that cannot be built raises its `CriError`, as it does in `calc`."""
    max_inventory = max((len(n.inventory) for n in net.nodes.values()), default=0)
    num_actions = sum(len(f.nodes) for f in flows)
    estimate = complexity_from_sizes(len(net.nodes), max_inventory, num_actions)
    if ti is not None and flows:
        from .build import build_pomdp

        models = [build_pomdp(f, net, ti, cfg) for f in flows]
        estimate.reduced_states = sum(len(m.states) for m in models)
        estimate.reduced_actions = sum(len(m.actions) for m in models)
        labels = set()
        for m in models:
            labels.update(m.observations)
        estimate.reduced_observations = len(labels)
    return estimate

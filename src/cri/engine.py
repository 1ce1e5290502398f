"""Pipeline orchestration: validated inputs -> per-flow models -> solved
policies -> simulated/exact probabilities -> campaign result.

Two probability series are produced per run. The "assumed" series combines
raw threat-intel base rates straight through the flow DAG; the "validated"
series runs the attacker emulation (solver and/or Monte Carlo) first and
combines the resulting milestone probabilities.

`run_campaign` builds each flow's flag model (`build_pomdp(...,
inventory=False)`), whose states are their flag sets, and solves it into
one policy graph. It also builds the model that tracks inventory, whose
sizes the complexity report reads; a run that walks Monte Carlo episodes
samples that model's rows while it follows the flag model's graph. Flows
are built and solved one after another; then every flow is walked in one
call (`estimate_expected_rewards`), which derives each block of the
episodes' uniforms once for all of them, and the flow reports are put
together in flow order.

`run_whatif` evaluates countermeasures against one baseline run, building
inventory models only to walk them: it re-weights each flow's baseline
models with the scaled probabilities
(`reweight_pomdp`, which builds a model afresh only where its structure
could move) and re-solves only the flows whose models the countermeasure
changes.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

from . import __version__
from .attack_flow import AttackFlow
from .attack_tree import success_probability
from .errors import CapacityError, ModelError
from .index import (
    CampaignResult,
    Countermeasure,
    CountermeasureDelta,
    FlowResult,
    campaign_cri,
    evaluate_countermeasure,
    flow_cri,
)
from .ingest import ValidatedInputs
from .netmodel import NetworkModel
from .pomdp import (
    Policy,
    Pomdp,
    SolveResult,
    build_pomdp,
    complexity_report,
    milestone_probabilities,
    reweight_pomdp,
    value_iteration,
)
from .simulate import SimulationSummary, estimate_expected_rewards
from .threat_intel import TiTable

logger = logging.getLogger(__name__)

MODES = ("exact", "simulate", "both")


@dataclass
class EngineConfig:
    mode: str = "exact"
    episodes: int = 10_000
    seed: int = 0
    horizon: int | None = None
    naive_check: bool = False
    campaign_id: str = "campaign"
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ModelError(f"unknown mode {self.mode!r}")
        if self.mode in ("simulate", "both") and self.episodes < 1:
            raise ModelError("episodes must be >= 1 when simulating")
        if self.seed < 0:
            raise ModelError(f"seed must be non-negative, got {self.seed}")
        if self.horizon is not None and self.horizon < 1:
            raise ModelError(f"horizon must be at least 1, got {self.horizon}")


@dataclass
class FlowReport:
    """One flow's result and what it was read from: the policy graph's
    exact milestone probabilities (`--mode exact|both`) and the Monte
    Carlo walk's `simulation` (`simulate|both`), whose `p_n_estimates`
    and `p_n_intervals` the reports write; the flow id is `result`'s."""

    result: FlowResult
    p_n_exact: dict[int, float] | None
    solver_value: float | None
    simulation: SimulationSummary | None
    normalized_reward: float | None
    naive_check: str | None = None


@dataclass
class RunOutput:
    campaign: CampaignResult
    assumed: CampaignResult
    flow_reports: list[FlowReport]
    complexity: dict


def _asset_classes(net: NetworkModel) -> list[str]:
    return sorted({n.asset_class for n in net.nodes.values()})


def assumed_p_n(flow: AttackFlow, net: NetworkModel, ti: TiTable) -> dict[int, float]:
    """Base-rate probability per TTP node, before any emulation: the best
    p_success_base across asset classes present in the network (attack-tree
    nodes combine leaf base rates through their gates)."""
    classes = _asset_classes(net)
    out: dict[int, float] = {}
    for node in flow.nodes:
        base = 0.0
        found = False
        for asset_class in classes:
            rec = ti.lookup(node.technique_id, asset_class)
            if rec is not None:
                base = max(base, rec.p_success_base)
                found = True
        if not found:
            out[node.step] = 0.0
            continue
        tree = flow.trees.get(node.attack_tree_id) if node.attack_tree_id else None
        if tree is None:
            out[node.step] = base
        else:
            out[node.step] = success_probability(
                tree,
                lambda leaf: leaf.param("p_success") if leaf.param("p_success") is not None else base,
            )
    return out


def _normalized_reward(pomdp, value: float) -> float | None:
    rewards = list(pomdp.branch_rewards.values())
    if not rewards:
        return None
    lo = pomdp.horizon * min(min(rewards), 0.0)
    hi = pomdp.horizon * max(max(rewards), 0.0)
    if hi <= lo:
        return None
    return min(1.0, max(0.0, (value - lo) / (hi - lo)))


def _solve(flow: AttackFlow, pomdp: Pomdp) -> SolveResult:
    """`value_iteration` of a model of `flow`; a CapacityError names the flow."""
    try:
        return value_iteration(pomdp)
    except CapacityError as exc:
        raise CapacityError(f"{exc} (flow {flow.id})") from exc


def _naive_check(flow, net, ti, cfg, flags, walk, value) -> str:
    """Check `flags`, the flow's flag model, against its naive flag grid:
    the reachable set and V* (`value`). Then check the reachable set of
    `walk`, the model the run walks, if any, against the naive grid that
    tracks inventory. A grid above the size cap skips its comparison; the
    flag grid's skips the walk model's too, whose grid is no smaller."""
    try:
        naive = build_pomdp(flow, net, ti, horizon=cfg.horizon, naive=True, inventory=False)
    except CapacityError as exc:
        return f"skipped: {exc}"
    _check_reachable(flow, naive, flags)
    naive_value = _solve(flow, naive).value
    if abs(naive_value - value) > 1e-9:
        raise ModelError(f"flow {flow.id}: naive value {naive_value} != reduced {value}")
    if walk is None:
        return "ok"
    try:
        naive = build_pomdp(flow, net, ti, horizon=cfg.horizon, naive=True)
    except CapacityError as exc:
        return f"flag model ok; walk model skipped: {exc}"
    _check_reachable(flow, naive, walk)
    return "ok"


def _check_reachable(flow, naive, reduced) -> None:
    """Raise unless the states reachable in `naive` are those of `reduced`."""
    seen = {i for i, p in enumerate(naive.initial_belief) if p > 0.0}
    frontier = list(seen)
    while frontier:
        s = frontier.pop()
        for a in naive.applicable.get(s, ()):
            for s2, p in naive.transitions[(s, a)]:
                if p > 0.0 and s2 not in seen:
                    seen.add(s2)
                    frontier.append(s2)
    if {naive.states[i] for i in seen} != set(reduced.states):
        raise ModelError(
            f"flow {flow.id}: naive reachable set ({len(seen)}) differs "
            f"from reduced state set ({len(reduced.states)})"
        )


def _walks(cfg: EngineConfig) -> bool:
    """Whether the run walks Monte Carlo episodes over the inventory model."""
    return cfg.mode != "exact"


def _build(
    flow: AttackFlow, net: NetworkModel, ti: TiTable, cfg: EngineConfig, inventory: bool
) -> tuple[Pomdp, Pomdp | None]:
    """The flag model of `flow`, which every run solves, and its model
    that tracks inventory when `inventory`."""
    logger.info("building model for flow %s", flow.id)
    flags = build_pomdp(flow, net, ti, horizon=cfg.horizon, inventory=False)
    full = build_pomdp(flow, net, ti, horizon=cfg.horizon) if inventory else None
    return flags, full


@dataclass
class _Solved:
    """A flow whose flag model is solved, waiting for its walk, if any:
    the flow's model that tracks inventory and the policy graph to walk
    on it."""

    flow: AttackFlow
    flags: Pomdp
    value: float
    p_exact: dict[int, float] | None
    naive_check: str | None
    walk: tuple[Pomdp, Policy] | None


def _solve_flow(
    flow: AttackFlow, net: NetworkModel, ti: TiTable,
    flags: Pomdp, walk: Pomdp | None, cfg: EngineConfig,
) -> _Solved:
    """Solve `flags`, the flag model of `flow` over `net` and `ti`, and
    read its milestones off the policy graph; `walk`, the flow's model
    that tracks inventory, is kept with the graph for `_reports` to walk."""
    solved = _solve(flow, flags)
    logger.info(
        "flow %s: %d states, %d actions, %d reachable beliefs, "
        "%d actions pruned, V*=%.6f",
        flow.id, len(flags.states), len(flags.actions),
        solved.reachable_beliefs, solved.pruned, solved.value,
    )
    p_exact = None
    if cfg.mode in ("exact", "both"):
        p_exact = milestone_probabilities(flags, solved.policy)
    naive_note = None
    if cfg.naive_check:
        naive_note = _naive_check(flow, net, ti, cfg, flags, walk, solved.value)
    return _Solved(
        flow, flags, solved.value, p_exact, naive_note,
        None if walk is None else (walk, solved.policy),
    )


def _reports(flows: list[_Solved], cfg: EngineConfig) -> list[FlowReport]:
    """The report of each solved flow, in order. The flows with a walk
    model are walked in one call, which derives each block of episodes'
    uniforms once for all of them."""
    walks = [f.walk for f in flows if f.walk is not None]
    summaries = iter(estimate_expected_rewards(walks, cfg.episodes, cfg.seed) if walks else ())
    return [_report(f, next(summaries) if f.walk is not None else None) for f in flows]


def _report(done: _Solved, summary: SimulationSummary | None) -> FlowReport:
    """The report of a solved flow and its walk's summary, if walked."""
    flow = done.flow
    if done.p_exact is not None:
        p_used, method = done.p_exact, "exact"
        reward = done.value
    else:
        assert summary is not None
        p_used, method = summary.p_n_estimates, "simulated"
        reward = summary.mean_reward

    return FlowReport(
        result=FlowResult(
            flow_id=flow.id,
            p_n=p_used,
            q_flow=flow_cri(flow, p_used),
            expected_attacker_reward=reward,
            method=method,
        ),
        p_n_exact=done.p_exact,
        solver_value=done.value,
        simulation=summary,
        normalized_reward=_normalized_reward(done.flags, reward),
        naive_check=done.naive_check,
    )


def run_campaign(inputs: ValidatedInputs, cfg: EngineConfig | None = None) -> RunOutput:
    """Run the full pipeline over every flow and aggregate the campaign."""
    cfg = cfg or EngineConfig()
    net = inputs.network

    solved: list[_Solved] = []
    assumed_results: list[FlowResult] = []
    full_models: list[Pomdp] = []
    for flow in inputs.flows:
        flags, full = _build(flow, net, inputs.ti, cfg, inventory=True)
        solved.append(_solve_flow(flow, net, inputs.ti, flags, full if _walks(cfg) else None, cfg))
        full_models.append(full)
        base = assumed_p_n(flow, net, inputs.ti)
        assumed_results.append(
            FlowResult(
                flow_id=flow.id,
                p_n=base,
                q_flow=flow_cri(flow, base),
                expected_attacker_reward=0.0,
                method="exact",
            )
        )

    flow_reports = _reports(solved, cfg)

    provenance = dict(cfg.provenance)
    provenance.update(
        {
            "engine_version": __version__,
            "mode": cfg.mode,
            "seed": str(cfg.seed),
            "episodes": str(cfg.episodes if cfg.mode in ("simulate", "both") else 0),
            "horizon": str(cfg.horizon if cfg.horizon is not None else "auto"),
            "inputs_digest": inputs.digest(),
        }
    )
    campaign = campaign_cri(
        [fr.result for fr in flow_reports], cfg.campaign_id, provenance
    )
    assumed = campaign_cri(assumed_results, cfg.campaign_id, dict(provenance, series="assumed"))
    complexity = asdict(complexity_report(net, inputs.flows, full_models))
    return RunOutput(
        campaign=campaign,
        assumed=assumed,
        flow_reports=flow_reports,
        complexity=complexity,
    )


def run_whatif(
    inputs: ValidatedInputs, measures: list[Countermeasure], cfg: EngineConfig | None = None
) -> Iterator[CountermeasureDelta]:
    """Yield one delta per countermeasure, in order. Each flow's flag
    model, and its walk model when the run walks, is built once and solved
    once. Under each countermeasure every baseline model is re-weighted
    under the scaled table (`reweight_pomdp`, which rebuilds where an
    action's shape moves). A flow whose re-weighted flag model is its
    baseline flag model, because no action's probabilities moved, reuses its
    baseline result; the others are solved again, in order. A run that
    walks walks the baseline flows in one call, and under each
    countermeasure the re-solved flows in one call."""
    cfg = cfg or EngineConfig()
    net = inputs.network
    models = [_build(flow, net, inputs.ti, cfg, _walks(cfg)) for flow in inputs.flows]
    baseline = [
        report.result
        for report in _reports(
            [
                _solve_flow(flow, net, inputs.ti, flags, walk, cfg)
                for flow, (flags, walk) in zip(inputs.flows, models)
            ],
            cfg,
        )
    ]
    index_before = campaign_cri(baseline, cfg.campaign_id).index
    for cm in measures:
        ti = inputs.ti.with_multiplier(
            cm.technique_id,
            cm.asset_class,
            p_success_multiplier=cm.p_success_multiplier,
            p_detect_multiplier=cm.p_detect_multiplier,
        )
        solved = [
            None if (moved := reweight_pomdp(flags, ti)) is flags
            else _solve_flow(
                flow, net, ti, moved, None if walk is None else reweight_pomdp(walk, ti), cfg
            )
            for flow, (flags, walk) in zip(inputs.flows, models)
        ]
        reports = iter(_reports([s for s in solved if s is not None], cfg))
        results = [
            before if s is None else next(reports).result
            for s, before in zip(solved, baseline)
        ]
        index_after = campaign_cri(results, cfg.campaign_id).index
        yield evaluate_countermeasure(cm, inputs.ti, index_before, index_after)

"""Pipeline orchestration: validated inputs -> per-flow models -> solved
policies -> simulated/exact probabilities -> campaign result.

Two probability series are produced per run. The "assumed" series combines
raw threat-intel base rates straight through the flow DAG; the "validated"
series runs the attacker emulation (solver and/or Monte Carlo) first and
combines the resulting milestone probabilities.

Every flow goes through one pipeline, `_flow_reports`. It solves each
flow's flag model (`build_pomdp(..., inventory=False)`), whose states are
its flag sets, into one policy graph; then it walks every flow in one call
(`estimate_expected_rewards`), which derives each block of the episodes'
uniforms once for all of them, and puts the flow reports together in flow
order. A walk samples the rows of the flow's model that tracks inventory
while it follows the flag model's graph. What a mode implies is stated
once, on `EngineConfig`: `reads_graph` (P_N read exactly off the graph:
`exact`, `both`) and `walks` (episodes walked: `simulate`, `both`).

`run_campaign` and `run_whatif` build every flow's models (`_built`)
before the first solve, so any build error comes before any solve, and any
error before any walk. `run_campaign` always builds the model that tracks
inventory, whose sizes the complexity report reads; `run_whatif` builds it
only to walk it. Under each countermeasure `run_whatif` first re-weights
every flow's baseline models with the scaled probabilities
(`reweight_pomdp`, which builds a model afresh only where its structure
could move), then sends through the pipeline again only the flows whose
flag model the countermeasure changes.
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
    Pomdp,
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

    @property
    def reads_graph(self) -> bool:
        """Whether P_N is read exactly off the solved policy graph."""
        return self.mode in ("exact", "both")

    @property
    def walks(self) -> bool:
        """Whether Monte Carlo episodes are walked over the model that
        tracks inventory."""
        return self.mode in ("simulate", "both")

    def __post_init__(self):
        if self.mode not in MODES:
            raise ModelError(f"unknown mode {self.mode!r}")
        if self.walks and self.episodes < 1:
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
        records = [r for r in (ti.lookup(node.technique_id, c) for c in classes) if r is not None]
        # the fold starts at 0.0, so a -0.0 base rate reads 0.0
        base = max([0.0, *(r.p_success_base for r in records)])
        tree = flow.trees.get(node.attack_tree_id) if records and node.attack_tree_id else None
        out[node.step] = (
            base if tree is None
            else success_probability(tree, lambda leaf: leaf.param("p_success", base))
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


def _naive_check(flow, net, ti, cfg, flags, full, value) -> str:
    """Check `flags`, the flow's flag model, against its naive flag grid:
    the reachable set and V* (`value`). Then, when the run walks, check the
    reachable set of `full`, the model it walks, against the naive grid
    that tracks inventory. A grid above the size cap skips its comparison; the
    flag grid's skips the walk model's too, whose grid is no smaller."""
    try:
        naive = build_pomdp(flow, net, ti, horizon=cfg.horizon, naive=True, inventory=False)
    except CapacityError as exc:
        return f"skipped: {exc}"
    _check_reachable(flow, naive, flags)
    naive_value = value_iteration(naive).value
    if abs(naive_value - value) > 1e-9:
        raise ModelError(f"flow {flow.id}: naive value {naive_value} != reduced {value}")
    if not cfg.walks:
        return "ok"
    try:
        naive = build_pomdp(flow, net, ti, horizon=cfg.horizon, naive=True)
    except CapacityError as exc:
        return f"flag model ok; walk model skipped: {exc}"
    _check_reachable(flow, naive, full)
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


def _built(
    inputs: ValidatedInputs, cfg: EngineConfig, inventory: bool
) -> list[tuple[AttackFlow, Pomdp, Pomdp | None]]:
    """Each flow of `inputs` with its flag model, which every run solves,
    and, when `inventory`, its model that tracks inventory."""
    net, ti = inputs.network, inputs.ti
    models = []
    for flow in inputs.flows:
        logger.info("building model for flow %s", flow.id)
        flags = build_pomdp(flow, net, ti, horizon=cfg.horizon, inventory=False)
        full = build_pomdp(flow, net, ti, horizon=cfg.horizon) if inventory else None
        models.append((flow, flags, full))
    return models


def _flow_reports(
    models: list[tuple[AttackFlow, Pomdp, Pomdp | None]],
    net: NetworkModel, ti: TiTable, cfg: EngineConfig,
) -> list[FlowReport]:
    """The report of each (flow, flag model, model that tracks inventory)
    of `models` over `net` and `ti`, in order. Each flag model is solved in
    turn; its milestones are read off the policy graph when
    `cfg.reads_graph`, and the graph is kept only when `cfg.walks`. Then
    every kept graph is walked over its flow's model that tracks inventory
    in one call, which derives each block of episodes' uniforms once for
    all of them."""
    solved, walks = [], []
    for flow, flags, full in models:
        result = value_iteration(flags)
        logger.info(
            "flow %s: %d states, %d actions, %d reachable beliefs, "
            "%d actions pruned, V*=%.6f",
            flow.id, len(flags.states), len(flags.actions),
            result.reachable_beliefs, result.pruned, result.value,
        )
        p_exact = milestone_probabilities(flags, result.policy) if cfg.reads_graph else None
        note = None
        if cfg.naive_check:
            note = _naive_check(flow, net, ti, cfg, flags, full, result.value)
        solved.append((flow, flags, result.value, p_exact, note))
        if cfg.walks:
            walks.append((full, result.policy))
        del result  # no unwalked graph outlives its flow's solve
    summaries = (
        estimate_expected_rewards(walks, cfg.episodes, cfg.seed) if cfg.walks
        else [None] * len(solved)
    )
    reports = []
    for (flow, flags, value, p_exact, note), summary in zip(solved, summaries):
        if p_exact is not None:
            p_used, method, reward = p_exact, "exact", value
        else:
            p_used, method, reward = summary.p_n_estimates, "simulated", summary.mean_reward
        reports.append(FlowReport(
            result=FlowResult(
                flow_id=flow.id,
                p_n=p_used,
                q_flow=flow_cri(flow, p_used),
                expected_attacker_reward=reward,
                method=method,
            ),
            p_n_exact=p_exact,
            solver_value=value,
            simulation=summary,
            normalized_reward=_normalized_reward(flags, reward),
            naive_check=note,
        ))
    return reports


def run_campaign(inputs: ValidatedInputs, cfg: EngineConfig | None = None) -> RunOutput:
    """Run the pipeline over every flow and aggregate the campaign. Every
    flow's flag model and its model that tracks inventory are built
    (`_built`) before the first solve (`_flow_reports`), so any error comes
    before any walk; the complexity report reads the models that track
    inventory."""
    cfg = cfg or EngineConfig()
    net = inputs.network
    models = _built(inputs, cfg, True)
    flow_reports = _flow_reports(models, net, inputs.ti, cfg)

    assumed_results: list[FlowResult] = []
    for flow in inputs.flows:
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
    provenance = dict(cfg.provenance)
    provenance.update(
        {
            "engine_version": __version__,
            "mode": cfg.mode,
            "seed": str(cfg.seed),
            "episodes": str(cfg.episodes if cfg.walks else 0),
            "horizon": str(cfg.horizon if cfg.horizon is not None else "auto"),
            "inputs_digest": inputs.digest(),
        }
    )
    campaign = campaign_cri(
        [fr.result for fr in flow_reports], cfg.campaign_id, provenance
    )
    assumed = campaign_cri(assumed_results, cfg.campaign_id, dict(provenance, series="assumed"))
    complexity = asdict(complexity_report(net, inputs.flows, [full for *_, full in models]))
    return RunOutput(
        campaign=campaign,
        assumed=assumed,
        flow_reports=flow_reports,
        complexity=complexity,
    )


def run_whatif(
    inputs: ValidatedInputs, measures: list[Countermeasure], cfg: EngineConfig | None = None
) -> Iterator[CountermeasureDelta]:
    """Yield one delta per countermeasure, in order. The baseline goes
    through the pipeline (`_flow_reports`) as in `run_campaign`: every
    flow's models are built before the first solve, the model that tracks
    inventory only when the run walks, so any error comes before any walk.
    Under each countermeasure every flow's flag model is first re-weighted
    under the scaled table (`reweight_pomdp`, which rebuilds where an
    action's shape moves), and its model that tracks inventory too when
    the flag model moved. A flow whose re-weighted flag model is its
    baseline flag model, because no action's probabilities moved, reuses
    its baseline result; the others go through the pipeline again, and
    their results replace the baseline's. No countermeasure's reports are
    held once its delta is yielded."""
    cfg = cfg or EngineConfig()
    net = inputs.network
    models = _built(inputs, cfg, cfg.walks)
    baseline = [report.result for report in _flow_reports(models, net, inputs.ti, cfg)]
    index_before = campaign_cri(baseline, cfg.campaign_id).index
    for cm in measures:
        ti = inputs.ti.with_multiplier(
            cm.technique_id,
            cm.asset_class,
            p_success_multiplier=cm.p_success_multiplier,
            p_detect_multiplier=cm.p_detect_multiplier,
        )
        moved = {}
        for i, (flow, flags, full) in enumerate(models):
            new = reweight_pomdp(flags, ti)
            if new is not flags:
                moved[i] = (flow, new, None if full is None else reweight_pomdp(full, ti))
        after = {
            i: report.result
            for i, report in zip(moved, _flow_reports(list(moved.values()), net, ti, cfg))
        }
        index_after = campaign_cri(
            [after.get(i, before) for i, before in enumerate(baseline)], cfg.campaign_id
        ).index
        yield evaluate_countermeasure(cm, inputs.ti, index_before, index_after)

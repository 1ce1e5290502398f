"""Unpruned-expectimax and belief-update oracles for the solver.

`expectimax` in `cri.pomdp.solve` skips every action whose QMDP upper bound
cannot beat the best action found so far. This module keeps the search it
must agree with: every offered action is expanded at every belief, in
ascending index order, and the largest q wins with ties toward the lowest
index. `belief_update` gives the single successor of a dense `Belief` for
one (action, observation), against which the policy graph's children are
checked.
"""

from dataclasses import dataclass

from cri.errors import CapacityError, CriError, ModelError, ValidationError
from cri.pomdp.lump import lump
from cri.pomdp.solve import _successors, compile_policy, policy_value
from cri.pomdp.types import PROB_TOL, Pomdp, Support, support_key


def unpruned_expectimax(pomdp: Pomdp, belief_cap: int = 500_000) -> tuple[float, dict]:
    """Memoized expectimax to the model's horizon from b0. Returns the value
    and the action chosen at every expanded (belief key, steps left), None
    meaning stop; raises CapacityError past `belief_cap` beliefs."""
    values: dict[tuple, float] = {}
    chosen: dict[tuple, int | None] = {}

    def solve(support: Support, depth: int) -> float:
        key = (support_key(support), depth)
        if key in values:
            return values[key]
        if len(values) >= belief_cap:
            raise CapacityError("reachable belief tree above cap", len(values))
        if depth == 0:
            values[key] = 0.0
            chosen[key] = None
            return 0.0
        offered = sorted(
            {a for s in support for a in pomdp.applicable.get(s, ())}
        )
        best_q: float | None = None
        best_a: int | None = None
        for a in offered:
            q = sum(support[s] * pomdp.rewards[(s, a)] for s in sorted(support))
            for _, mass, child in _successors(pomdp, support, a):
                q += pomdp.discount * mass * solve(child, depth - 1)
            if best_q is None or q > best_q:
                best_q = q
                best_a = a
        if best_q is None or best_q < 0.0:
            values[key] = 0.0
            chosen[key] = None
        else:
            values[key] = best_q
            chosen[key] = best_a
        return values[key]

    return solve(pomdp.b0_support(), pomdp.horizon), chosen


def unpruned_solve(pomdp: Pomdp):
    """`value_iteration` with the unpruned search: (value, policy graph,
    beliefs expanded) from the expectimax on the model's quotient."""
    quotient = lump(pomdp)
    _, chosen = unpruned_expectimax(quotient)
    policy = compile_policy(pomdp, chosen.get, pomdp.horizon, quotient)
    return policy_value(pomdp, policy), policy, len(chosen)


def unlumped_solve(pomdp: Pomdp):
    """The unpruned search run directly on the model's own states:
    (value, policy graph, beliefs expanded)."""
    value, chosen = unpruned_expectimax(pomdp)
    return value, compile_policy(pomdp, chosen.get, pomdp.horizon), len(chosen)


class InconsistentObservation(CriError):
    """Belief update received an observation with zero probability mass."""


@dataclass(frozen=True)
class Belief:
    """Probability vector over the model's state indices."""

    probs: tuple[float, ...]

    def __post_init__(self):
        if any(p < -PROB_TOL for p in self.probs):
            raise ValidationError("belief entries must be >= 0")
        total = sum(self.probs)
        if abs(total - 1.0) > 1e-6:
            raise ValidationError(f"belief must sum to 1, got {total}")

    def support(self) -> dict[int, float]:
        return {i: p for i, p in enumerate(self.probs) if p > 0.0}


def belief_update(pomdp: Pomdp, belief: Belief, a: int, o: int) -> Belief:
    """b'(s') = w * Z(o|s',a) * sum_s T(s,a,s') b(s); raises
    InconsistentObservation when the observation has zero mass."""
    if not 0 <= a < len(pomdp.actions):
        raise ModelError(f"action index {a} out of range")
    if not 0 <= o < len(pomdp.observations):
        raise ModelError(f"observation index {o} out of range")
    for label, _, child in _successors(pomdp, belief.support(), a):
        if label == o:
            vec = [0.0] * len(pomdp.states)
            for s, p in child.items():
                vec[s] = p
            return Belief(tuple(vec))
    raise InconsistentObservation(
        f"observation {pomdp.observations[o]} impossible after action "
        f"{pomdp.actions[a].id}"
    )

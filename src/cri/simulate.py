"""Monte Carlo episodes under a fixed policy, plus a brute-force oracle.

Episodes are reproducible: each one draws from an independent substream
derived from (master seed, episode index), so serial and parallel runs
produce identical results bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .pomdp.solve import Policy
from .pomdp.types import NetworkState, Pomdp, Support

_Z95 = 1.959963984540054


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval; well behaved at p near 0 and 1."""
    if n <= 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    centre = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == n else min(1.0, centre + half)
    return (lo, hi)


def substream(seed: int, episode_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(episode_index,)))
    )


def _draw(rng: np.random.Generator, pairs) -> int:
    """Sample an index from (index, probability) pairs via one uniform."""
    u = rng.random()
    acc = 0.0
    last = pairs[0][0]
    for idx, p in pairs:
        acc += p
        last = idx
        if u < acc:
            return idx
    return last


@dataclass
class EpisodeStep:
    belief_before: tuple
    action: str
    observation: str
    reward: float
    belief_after: tuple
    state_before: int = 0
    state_after: int = 0


@dataclass
class Episode:
    steps: list[EpisodeStep]
    terminal_state: NetworkState
    cumulative_reward: float
    succeeded: dict[int, bool]
    truncated: bool = False
    abandoned: bool = False


@dataclass
class SimulationSummary:
    num_episodes: int
    sum_rewards: float
    mean_reward: float
    p_n_estimates: dict[int, float]
    p_n_intervals: dict[int, tuple[float, float]]
    std_error: float
    seed: int
    truncated_episodes: int = 0
    rewards: list[float] = field(default_factory=list, repr=False)


def simulate_episode(pomdp: Pomdp, policy: Policy, rng: np.random.Generator) -> Episode:
    """Play one episode: hidden state sampled from b0, the policy's action
    applied at each step, successor/observation sampled, and the policy
    graph followed to the child for that observation."""
    node = policy.root
    state = _draw(rng, sorted(node.support.items()))
    steps: list[EpisodeStep] = []
    total = 0.0
    weight = 1.0
    abandoned = False
    for _ in range(policy.horizon):
        action = node.action
        if action is None:
            abandoned = True
            break
        nxt = _draw(rng, pomdp.transitions[(state, action)])
        reward = pomdp.branch_rewards[(state, action, nxt)]
        obs = _draw(rng, pomdp.observation_probs[(nxt, action)])
        child = policy.nodes[node.children[obs][1]]
        total += weight * reward
        weight *= pomdp.discount
        steps.append(
            EpisodeStep(
                belief_before=node.key,
                action=pomdp.actions[action].id,
                observation=pomdp.observations[obs],
                reward=reward,
                belief_after=child.key,
                state_before=state,
                state_after=nxt,
            )
        )
        node = child
        state = nxt
    terminal = pomdp.states[state]
    succeeded = {
        step: terminal.has_flag(flag) for step, flag in sorted(pomdp.milestones.items())
    }
    truncated = len(steps) == policy.horizon and bool(pomdp.applicable.get(state))
    return Episode(
        steps=steps,
        terminal_state=terminal,
        cumulative_reward=total,
        succeeded=succeeded,
        truncated=truncated,
        abandoned=abandoned,
    )


def estimate_expected_reward(
    pomdp: Pomdp, policy: Policy, num_episodes: int, seed: int
) -> SimulationSummary:
    """Mean cumulative reward over independent episodes, with standard error
    and per-step milestone frequencies."""
    if num_episodes < 1:
        raise ValueError("num_episodes must be >= 1")
    rewards: list[float] = []
    hits = {step: 0 for step in pomdp.milestones}
    truncated = 0
    for i in range(num_episodes):
        episode = simulate_episode(pomdp, policy, substream(seed, i))
        rewards.append(episode.cumulative_reward)
        for step, ok in episode.succeeded.items():
            if ok:
                hits[step] += 1
        if episode.truncated:
            truncated += 1
    total = math.fsum(rewards)
    mean = total / num_episodes
    if num_episodes > 1:
        var = math.fsum((r - mean) ** 2 for r in rewards) / (num_episodes - 1)
        std_error = math.sqrt(var / num_episodes)
    else:
        std_error = 0.0
    return SimulationSummary(
        num_episodes=num_episodes,
        sum_rewards=total,
        mean_reward=mean,
        p_n_estimates={s: hits[s] / num_episodes for s in sorted(hits)},
        p_n_intervals={
            s: wilson_interval(hits[s], num_episodes) for s in sorted(hits)
        },
        std_error=std_error,
        seed=seed,
        truncated_episodes=truncated,
        rewards=rewards,
    )


def estimate_p_n(
    pomdp: Pomdp, policy: Policy, ttp_step: int, num_episodes: int, seed: int
) -> tuple[float, tuple[float, float]]:
    """Fraction of episodes reaching one TTP step's milestone, with a
    Wilson 95% interval."""
    if ttp_step not in pomdp.milestones:
        raise KeyError(f"unknown TTP step {ttp_step}")
    summary = estimate_expected_reward(pomdp, policy, num_episodes, seed)
    return summary.p_n_estimates[ttp_step], summary.p_n_intervals[ttp_step]


def episodes_to_jsonl(episodes: list[Episode]) -> str:
    """One JSON object per line, for external audit."""
    lines = []
    for episode in episodes:
        lines.append(
            json.dumps(
                {
                    "steps": [
                        {
                            "belief_before": list(map(list, s.belief_before)),
                            "action": s.action,
                            "observation": s.observation,
                            "reward": s.reward,
                            "belief_after": list(map(list, s.belief_after)),
                        }
                        for s in episode.steps
                    ],
                    "terminal_state": episode.terminal_state.label(),
                    "cumulative_reward": episode.cumulative_reward,
                    "succeeded": {str(k): v for k, v in sorted(episode.succeeded.items())},
                    "truncated": episode.truncated,
                    "abandoned": episode.abandoned,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def brute_force_value(
    pomdp: Pomdp, horizon: int | None = None, cap: int = 10**6
) -> tuple[float, dict[int, float]]:
    """Exhaustive expectimax over every action/observation sequence, with no
    memoization: an independent oracle for V*(b0) and the exact per-step
    milestone probabilities under the optimal policy."""
    depth = horizon if horizon is not None else pomdp.horizon
    branch = max(1, len(pomdp.actions) * len(pomdp.observations))
    estimate = sum(branch**d for d in range(1, depth + 1))
    if estimate > cap:
        raise CapacityError("brute force enumeration above cap", estimate)

    steps = sorted(pomdp.milestones)
    flags = [pomdp.milestones[s] for s in steps]
    flagged = [tuple(f in st.flags for f in flags) for st in pomdp.states]

    def explore(support: Support, d: int) -> tuple[float, tuple[float, ...]]:
        zeros = tuple(0.0 for _ in flags)
        if d == 0:
            return 0.0, zeros
        offered = sorted({a for s in support for a in pomdp.applicable.get(s, ())})
        best_q: float | None = None
        best_pn: tuple[float, ...] = zeros
        for a in offered:
            q = 0.0
            inflow = [0.0] * len(flags)
            # joint mass over (observation, successor), built independently
            # of the solver's helpers
            joint: dict[int, dict[int, float]] = {}
            for s in sorted(support):
                bs = support[s]
                for s2, p in pomdp.transitions[(s, a)]:
                    w = bs * p
                    if w <= 0.0:
                        continue
                    q += w * pomdp.branch_rewards[(s, a, s2)]
                    for i in range(len(flags)):
                        if flagged[s2][i] and not flagged[s][i]:
                            inflow[i] += w
                    for o, z in pomdp.observation_probs[(s2, a)]:
                        if z <= 0.0:
                            continue
                        bucket = joint.setdefault(o, {})
                        bucket[s2] = bucket.get(s2, 0.0) + w * z
            for o in sorted(joint):
                dist = joint[o]
                mass = sum(dist[s] for s in sorted(dist))
                if mass <= 0.0:
                    continue
                child = {s: w / mass for s, w in sorted(dist.items())}
                sub_v, sub_pn = explore(child, d - 1)
                q += pomdp.discount * mass * sub_v
                for i in range(len(flags)):
                    inflow[i] += mass * sub_pn[i]
            if best_q is None or q > best_q:
                best_q = q
                best_pn = tuple(inflow)
        if best_q is None or best_q < 0.0:
            return 0.0, zeros
        return best_q, best_pn

    value, pn = explore(pomdp.b0_support(), depth)
    return value, {step: min(1.0, max(0.0, pn[i])) for i, step in enumerate(steps)}

"""Single-episode Monte Carlo and brute-force oracles for the simulator.

`estimate_expected_reward` in `cri.simulate` walks episodes a block at a
time from uniforms derived by `block_uniforms`. This module keeps what it
must agree with: each episode's own numpy stream (`substream`), a walk of
one episode at a time that draws from it (`simulate_episode`), and an
exhaustive expectimax with no memoization (`brute_force_value`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cri.errors import CapacityError
from cri.pomdp.solve import Policy
from cri.pomdp.types import NetworkState, Pomdp, Support, support_key


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


def simulate_episode(pomdp: Pomdp, policy: Policy, rng: np.random.Generator) -> Episode:
    """Play one episode: hidden state sampled from b0, the policy's action
    applied at each step, successor/observation sampled, and the policy
    graph followed to the child for that observation."""
    node = policy.nodes[-1]
    state = _draw(rng, sorted(node.support.items()))
    steps: list[EpisodeStep] = []
    total = 0.0
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
        total += reward
        steps.append(
            EpisodeStep(
                belief_before=support_key(node.support),
                action=pomdp.actions[action].id,
                observation=pomdp.observations[obs],
                reward=reward,
                belief_after=support_key(child.support),
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
                q += mass * sub_v
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

"""Monte Carlo episodes under a fixed policy, plus a brute-force oracle.

Episodes are reproducible: each one draws from an independent substream
derived from (master seed, episode index). `estimate_expected_reward`
walks episodes in blocks with numpy over the policy graph flattened into
tables; its estimates equal those of per-episode `simulate_episode` walks
bit for bit. `simulate_episode` stays as the audit path.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CapacityError
from .pomdp.solve import Policy
from .pomdp.types import NetworkState, Pomdp, Support

_Z95 = 1.959963984540054

# Episodes walked together by `estimate_expected_reward`; bounds the
# uniforms held at once to BLOCK * (2 * horizon + 1).
BLOCK = 2048


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


class _WalkTables:
    """The model and a policy graph flattened into arrays for `walk`: per
    policy node its action (-1 = stop) and its child per observation, and
    per (state, action) the walk reaches its transition and observation
    rows (see `_Rows`)."""

    def __init__(self, pomdp: Pomdp, policy: Policy):
        self.discount = pomdp.discount
        used = sorted({n.action for n in policy.nodes if n.action is not None})
        column = {a: j for j, a in enumerate(used)}
        self.action = np.array(
            [-1 if n.action is None else column[n.action] for n in policy.nodes]
        )
        self.child = np.full((len(policy.nodes), len(pomdp.observations)), -1)
        for i, node in enumerate(policy.nodes):
            for obs, (_, child) in node.children.items():
                self.child[i, obs] = child
        self.root = len(policy.nodes) - 1
        # key s * len(used) + j stands for (state s, action used[j])
        self.stride = len(used)
        keys = len(pomdp.states) * len(used)

        def pair(key: int) -> tuple[int, int]:
            return key // len(used), used[key % len(used)]

        def transitions(key: int) -> list[tuple[int, float, float]]:
            s, a = pair(key)
            return [
                (s2, p, pomdp.branch_rewards[(s, a, s2)])
                for s2, p in pomdp.transitions[(s, a)]
            ]

        def observations(key: int) -> list[tuple[int, float, float]]:
            return [(o, p, 0.0) for o, p in pomdp.observation_probs[pair(key)]]

        self.transitions = _Rows(keys, pomdp.transitions.values(), transitions)
        self.observations = _Rows(keys, pomdp.observation_probs.values(), observations)
        b0 = [(s, p, 0.0) for s, p in sorted(policy.root.support.items())]
        self.b0 = _Rows(1, [b0], lambda key: b0)
        steps = sorted(pomdp.milestones)
        self.flagged = np.array(
            [[st.has_flag(pomdp.milestones[m]) for m in steps] for st in pomdp.states],
            dtype=bool,
        )
        self.can_act = np.array(
            [bool(pomdp.applicable.get(s)) for s in range(len(pomdp.states))]
        )

    def walk(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Walk one episode per row of uniforms `u` (2 * horizon + 1 each, in
        `simulate_episode`'s draw order). Returns each episode's cumulative
        reward and terminal state, and the episodes that took every step."""
        n = len(u)
        node = np.full(n, self.root)
        state, _ = self.b0.draw(np.zeros(n, dtype=np.intp), u[:, 0])
        total = np.zeros(n)
        weight = 1.0
        live = np.arange(n)
        for t in range((u.shape[1] - 1) // 2):
            action = self.action[node[live]]
            live, action = live[action >= 0], action[action >= 0]
            if not live.size:
                break
            nxt, reward = self.transitions.draw(
                state[live] * self.stride + action, u[live, 1 + 2 * t]
            )
            obs, _ = self.observations.draw(nxt * self.stride + action, u[live, 2 + 2 * t])
            child = self.child[node[live], obs]
            if (child < 0).any():
                raise KeyError(int(obs[child < 0][0]))
            total[live] += weight * reward
            weight *= self.discount
            node[live] = child
            state[live] = nxt
        return total, state, live


class _Rows:
    """Sampling rows of (outcome, probability, value), added the first time
    the walk reaches their key. Cumulative sums are built left to right as
    `_draw` adds them, and padded with +inf so that every row has a column
    whose sum exceeds any uniform."""

    def __init__(self, keys: int, rows, row: Callable[[int], list]):
        """`row(key)` builds the row of a key in `range(keys)`; `rows` are all
        the rows a key can stand for, which size the columns."""
        width = 1 + max(map(len, rows), default=0)
        self.row = row
        self.slot = np.zeros(keys, dtype=np.intp)  # 1 + row of each key, 0 = not added
        self.outcome = np.zeros((0, width), dtype=np.intp)
        self.value = np.zeros((0, width))
        self.acc = np.zeros((0, width))
        self.last = np.zeros(0, dtype=np.intp)

    def draw(self, keys: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`_draw`'s outcome and its value in each key's row for its uniform:
        the first column whose cumulative sum exceeds the uniform, clamped
        to the row's last entry."""
        new = sorted(set(keys[self.slot[keys] == 0].tolist()))
        if new:
            self._add(new)
        rows = self.slot[keys] - 1
        k = np.minimum(np.argmax(self.acc[rows] > u[:, None], axis=1), self.last[rows])
        return self.outcome[rows, k], self.value[rows, k]

    def _add(self, keys: list[int]) -> None:
        width = self.acc.shape[1]
        outcome, value, acc, last = [], [], [], []
        for key in keys:
            entries = self.row(key)
            pad = width - len(entries)
            outcome.append([o for o, _, _ in entries] + [0] * pad)
            value.append([v for _, _, v in entries] + [0.0] * pad)
            acc.append(list(itertools.accumulate(p for _, p, _ in entries)) + [math.inf] * pad)
            last.append(len(entries) - 1)
        self.slot[keys] = len(self.last) + 1 + np.arange(len(keys))
        self.outcome = np.concatenate([self.outcome, np.array(outcome, dtype=np.intp)])
        self.value = np.concatenate([self.value, value])
        self.acc = np.concatenate([self.acc, acc])
        self.last = np.concatenate([self.last, last])


def estimate_expected_reward(
    pomdp: Pomdp, policy: Policy, num_episodes: int, seed: int
) -> SimulationSummary:
    """Mean cumulative reward over independent episodes, with standard error
    and per-step milestone frequencies. Episode i draws its uniforms from
    `substream(seed, i)`; episodes are walked BLOCK at a time."""
    if num_episodes < 1:
        raise ValueError("num_episodes must be >= 1")
    tables = _WalkTables(pomdp, policy)
    draws = 2 * policy.horizon + 1
    rewards: list[float] = []
    counts = np.zeros(tables.flagged.shape[1], dtype=np.int64)
    truncated = 0
    for start in range(0, num_episodes, BLOCK):
        count = min(BLOCK, num_episodes - start)
        u = np.empty((count, draws))
        for j in range(count):
            substream(seed, start + j).random(out=u[j])
        totals, state, full = tables.walk(u)
        rewards.extend(totals.tolist())
        counts += tables.flagged[state].sum(axis=0)
        truncated += int(tables.can_act[state[full]].sum())
    hits = {step: int(c) for step, c in zip(sorted(pomdp.milestones), counts)}
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

"""Monte Carlo estimates of a fixed policy's reward and milestones.

Episodes are reproducible: episode i of a run with master seed `seed`
draws its uniforms from numpy's
`Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(i,))))`.
`estimate_expected_rewards` walks episodes in blocks with numpy over
each of several (model, policy graph) walks, the graph flattened into
tables, built once per call with sampling rows for just the (state,
action) pairs the graph reaches. It derives each block's uniforms once
for every walk, in numpy (`block_uniforms`), equal bit for bit to those
of each episode's own generator: a walk with a shorter horizon reads a
prefix of each row, which is what its own derivation would draw. So a
run that walks several flows, as the engine's does, derives each block
once, and each flow's summary is that of its walk alone
(`estimate_expected_reward`), summed from a tally of its episodes per
distinct reward. The walk moves between nodes by observation alone, so
the graph may be compiled over a quotient of the walked model, as the
engine's is over the flag model.

numpy is imported inside the functions that touch arrays, so that only a
run that walks episodes (`calc --mode simulate|both`, `whatif --mode
simulate`) pays for loading it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .pomdp.solve import Policy
from .pomdp.types import Pomdp

_Z95 = 1.959963984540054

# Episodes walked together by `estimate_expected_rewards`; bounds the
# uniforms held at once to BLOCK * (2 * H_max + 1), H_max the longest
# horizon of the walks.
BLOCK = 2048


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval; well behaved at p near 0 and 1."""
    if n <= 0:
        return (0.0, 1.0)
    z = _Z95
    phat = successes / n
    denom = 1.0 + z * z / n
    centre = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == n else min(1.0, centre + half)
    return (lo, hi)


# numpy's SeedSequence (a 4-word uint32 pool after O'Neill's seed_seq) and
# PCG64 (128-bit LCG with XSL-RR output; O'Neill 2014, "PCG: a family of
# simple fast space-efficient statistically good algorithms").
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


class _HashMix:
    """SeedSequence's hashmix: xor a word with the hash constant, advance the
    constant, multiply by it and fold the high half down. Words are Python
    ints or uint32 arrays; the arithmetic is mod 2**32 for both."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * self.mult & _MASK32
        value = value * self.const & _MASK32
        return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a pool word `x` with a hashed word `y`."""
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _mix_in(pool: list, hashmix: _HashMix, words) -> list:
    """SeedSequence's tail loop: each word beyond the pool size is hashed
    into every pool word in turn."""
    for word in words:
        pool = [_mix(p, hashmix(word)) for p in pool]
    return pool


def _words(n: int) -> list[int]:
    """`n` as SeedSequence reads an int: little-endian 32-bit words."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> 32 * k & _MASK32 for k in range(max(1, -(-n.bit_length() // 32)))]


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step, state * multiplier + inc mod 2**128, on uint64
    limbs; the high half of lo * _PCG_LO is summed from 32-bit products."""
    l0, l1 = lo & _MASK32, lo >> 32
    m0, m1 = _PCG_LO & _MASK32, _PCG_LO >> 32
    p01, p10 = l0 * m1, l1 * m0
    mid = (l0 * m0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    mulhi = l1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _PCG_LO + inc_lo
    return mulhi + lo * _PCG_HI + hi * _PCG_LO + inc_hi + (new_lo < inc_lo), new_lo


def _pcg_uniforms(pool: list, draws: int) -> np.ndarray:
    """`draws` doubles per row from PCG64 seeded by the SeedSequence whose
    final pool (uint32 arrays, one row per stream) is `pool`."""
    import numpy as np

    hashmix = _HashMix(_INIT_B, _MULT_B)
    s = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # generate_state(4, uint64) pairs the words little-endian; PCG64 takes
    # the first two results as the state and the last two as the stream,
    # each high limb first
    seed_hi, seed_lo, seq_hi, seq_lo = (s[2 * k] | s[2 * k + 1] << 32 for k in range(4))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    # srandom: state = 0, step (state = inc), add the seed, step
    lo = inc_lo + seed_lo
    hi, lo = _pcg_step(inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo)
    out = np.empty((len(lo), draws))
    for d in range(draws):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58  # XSL-RR
        out[:, d] = (x >> rot | x << (64 - rot & 63)) >> 11
    return out * 2.0**-53


def block_uniforms(seed: int, start: int, count: int, draws: int) -> np.ndarray:
    """The first `draws` uniforms of episode i's generator,
    `Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(i,))))`, for
    episodes i in `start .. start + count - 1`, one row each, equal bit for
    bit to its `random(draws)`. The pool mixing of the seed is done once;
    each episode's index words, its PCG64 seeding and its draws are done on
    arrays across the rows."""
    import numpy as np

    words = _words(seed)
    words += [0] * (4 - len(words))  # padded, as when a spawn key follows
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    pool = _mix_in(pool, hashmix, words[4:])
    out = np.empty((count, draws))
    done = 0
    while done < count:
        # a run of rows whose indices share every word above the lowest
        first = start + done
        high = first >> 32
        n = min(count - done, ((high + 1) << 32) - first)
        low = (first & _MASK32) + np.arange(n, dtype=np.uint32)
        index_words = [low] + (_words(high) if high else [])
        spawn = _mix_in(pool, _HashMix(hashmix.const, _MULT_A), index_words)
        out[done : done + n] = _pcg_uniforms(spawn, draws)
        done += n
    return out


@dataclass
class SimulationSummary:
    """One walk's episodes: the mean reward and its standard error, per
    TTP step the milestone frequency and its Wilson interval, and the
    episodes that ran out of horizon while an action was still offered."""

    num_episodes: int
    mean_reward: float
    p_n_estimates: dict[int, float]
    p_n_intervals: dict[int, tuple[float, float]]
    std_error: float
    truncated_episodes: int = 0


class _WalkTables:
    """The model and a policy graph flattened into arrays for `walk`: per
    policy node its action (-1 = stop) and its child per observation, and
    the sampling rows (see `_Rows`) of what the graph can reach: each
    node's action from every state the walk can hold there, and the
    observation row of every arrival. These are found by replaying the
    graph on the model from its own b0 along positive-probability
    transitions and observations, so the graph may be compiled over this
    model or over a quotient of it with the same observations."""

    def __init__(self, pomdp: Pomdp, policy: Policy):
        import numpy as np

        self.action = np.array([-1 if n.action is None else n.action for n in policy.nodes])
        self.child = np.full((len(policy.nodes), len(pomdp.observations)), -1)
        for i, node in enumerate(policy.nodes):
            for obs, (_, child) in node.children.items():
                self.child[i, obs] = child
        self.root = len(policy.nodes) - 1
        # key s * stride + a stands for (state s, action a)
        self.stride = len(pomdp.actions)
        keys = len(pomdp.states) * self.stride
        pairs, seen = set(), set()
        stack = [(self.root, s) for s in pomdp.b0_support()]
        while stack:
            step = stack.pop()
            node, s = policy.nodes[step[0]], step[1]
            if step in seen or node.action is None:
                continue
            seen.add(step)
            pairs.add((s, node.action))
            stack += [
                (node.children[o][1], s2)
                for s2, p in pomdp.transitions[(s, node.action)] if p > 0.0
                for o, z in pomdp.observation_probs[(s2, node.action)] if z > 0.0
            ]
        arrivals = {(s2, a) for s, a in pairs for s2, _ in pomdp.transitions[(s, a)]}
        self.transitions = _Rows(keys, {
            s * self.stride + a: [
                (s2, p, pomdp.branch_rewards[(s, a, s2)]) for s2, p in pomdp.transitions[(s, a)]
            ]
            for s, a in pairs
        })
        self.observations = _Rows(keys, {
            s2 * self.stride + a: [(o, p, 0.0) for o, p in pomdp.observation_probs[(s2, a)]]
            for s2, a in arrivals
        })
        self.b0 = _Rows(1, {0: [(s, p, 0.0) for s, p in sorted(pomdp.b0_support().items())]})
        self.flagged = np.array(pomdp.flagged, dtype=bool)
        self.can_act = np.array(
            [bool(pomdp.applicable.get(s)) for s in range(len(pomdp.states))]
        )

    def walk(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Walk one episode per row of uniforms `u` (2 * horizon + 1 each:
        the initial state's, then a successor's and an observation's per
        step). Returns each episode's cumulative reward and terminal state,
        and the episodes that took every step."""
        import numpy as np

        n = len(u)
        node = np.full(n, self.root)
        state, _ = self.b0.draw(np.zeros(n, dtype=np.intp), u[:, 0])
        total = np.zeros(n)
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
            total[live] += reward
            node[live] = child
            state[live] = nxt
        return total, state, live


class _Rows:
    """Sampling rows of (outcome, probability, value), one per given key.
    Cumulative sums are built left to right over the row's entries, and
    padded with +inf so that every row has a column whose sum exceeds any
    uniform."""

    def __init__(self, keys: int, rows: dict[int, list[tuple[int, float, float]]]):
        """`rows` maps some of the keys in `range(keys)` to their rows."""
        import numpy as np

        width = 1 + max(map(len, rows.values()), default=0)
        outcome, value, acc = [], [], []
        for entries in rows.values():
            pad = width - len(entries)
            outcome.append([o for o, _, _ in entries] + [0] * pad)
            value.append([v for _, _, v in entries] + [0.0] * pad)
            acc.append(list(itertools.accumulate(p for _, p, _ in entries)) + [math.inf] * pad)
        self.slot = np.full(keys, -1, dtype=np.intp)  # row of each key, -1 = none
        self.slot[list(rows)] = np.arange(len(rows))
        self.outcome = np.array(outcome, dtype=np.intp).reshape(-1, width)
        self.value = np.array(value).reshape(-1, width)
        self.acc = np.array(acc).reshape(-1, width)
        self.last = np.array([len(entries) - 1 for entries in rows.values()], dtype=np.intp)

    def draw(self, keys: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The outcome and its value in each key's row for its uniform:
        the first column whose cumulative sum exceeds the uniform, clamped
        to the row's last entry. A key without a row raises KeyError."""
        import numpy as np

        rows = self.slot[keys]
        if (rows < 0).any():
            raise KeyError(int(keys[rows < 0][0]))
        k = np.minimum(np.argmax(self.acc[rows] > u[:, None], axis=1), self.last[rows])
        return self.outcome[rows, k], self.value[rows, k]


def estimate_expected_rewards(
    walks: list[tuple[Pomdp, Policy]], num_episodes: int, seed: int
) -> list[SimulationSummary]:
    """Mean cumulative reward over independent episodes, with standard error
    and per-step milestone frequencies, of each (model, policy graph) walk.
    Episode i draws its uniforms from
    `Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(i,))))` in every
    walk. Episodes are walked BLOCK at a time, each block's uniforms derived
    once by `block_uniforms`, as many per row as the longest horizon takes;
    a walk of horizon h reads the first 2h + 1 columns, which are the draws
    of a derivation at its own horizon, since PCG64 draws in sequence."""
    if num_episodes < 1:
        raise ValueError("num_episodes must be >= 1")
    if not walks:
        return []
    import numpy as np

    tables = [_WalkTables(pomdp, policy) for pomdp, policy in walks]
    draws = [2 * policy.horizon + 1 for _, policy in walks]
    tallies = [Counter() for _ in walks]
    counts = [np.zeros(t.flagged.shape[1], dtype=np.int64) for t in tables]
    truncated = [0] * len(walks)
    for start in range(0, num_episodes, BLOCK):
        count = min(BLOCK, num_episodes - start)
        u = block_uniforms(seed, start, count, max(draws))
        for i, t in enumerate(tables):
            totals, state, full = t.walk(u[:, : draws[i]])
            values, episodes = np.unique(totals, return_counts=True)
            tallies[i].update(dict(zip(values.tolist(), episodes.tolist())))
            counts[i] += t.flagged[state].sum(axis=0)
            truncated[i] += int(t.can_act[state[full]].sum())
        del u  # so that the next block is derived with only itself held
    return [
        _summary(sorted(pomdp.milestones), r, c, n, num_episodes)
        for (pomdp, _), r, c, n in zip(walks, tallies, counts, truncated)
    ]


def estimate_expected_reward(
    pomdp: Pomdp, policy: Policy, num_episodes: int, seed: int
) -> SimulationSummary:
    """`estimate_expected_rewards` of the one walk of `policy` on `pomdp`."""
    return estimate_expected_rewards([(pomdp, policy)], num_episodes, seed)[0]


def _summary(
    steps: list[int], tally: Counter, counts: np.ndarray, truncated: int,
    num_episodes: int,
) -> SimulationSummary:
    """One walk's summary from its tally of episodes per reward, its
    milestone hit counts (in the order of `steps`) and its truncated
    episode count. `math.fsum` is correctly rounded, so the sums over the
    tally have the bits of those over the episodes in walk order."""
    hits = {step: int(c) for step, c in zip(steps, counts)}
    mean = math.fsum(tally.elements()) / num_episodes
    if num_episodes > 1:
        squares = (itertools.repeat((v - mean) ** 2, c) for v, c in tally.items())
        var = math.fsum(itertools.chain.from_iterable(squares)) / (num_episodes - 1)
        std_error = math.sqrt(var / num_episodes)
    else:
        std_error = 0.0
    return SimulationSummary(
        num_episodes=num_episodes,
        mean_reward=mean,
        p_n_estimates={s: hits[s] / num_episodes for s in sorted(hits)},
        p_n_intervals={
            s: wilson_interval(hits[s], num_episodes) for s in sorted(hits)
        },
        std_error=std_error,
        truncated_episodes=truncated,
    )

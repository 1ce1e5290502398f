import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixed_policy
from cri.errors import CapacityError
from cri.pomdp import build_pomdp, value_iteration
from cri.pomdp.types import AttackerAction, NetworkState, Pomdp, support_key
import cri.simulate
from cri.simulate import (
    BLOCK,
    block_uniforms,
    estimate_expected_reward,
    estimate_expected_rewards,
    wilson_interval,
)
from genscen import random_pomdp, random_scenario
from simoracle import brute_force_value, simulate_episode, substream
from solveoracle import Belief, belief_update
from toys import and_chain, bundled_toys, noisy_sensor, single_step


def _reward_lottery():
    """One action fanning into three absorbing states worth 1, 2, 3."""
    s0 = NetworkState()
    branches = tuple(NetworkState(flags=(c,)) for c in "abc")
    act = AttackerAction(
        id="roll", target="n",
        p_success=1.0, p_detect=0.0, reward_success=0.0, penalty_failure=0.0,
        cost=0.0, step=1,
    )
    third = 1.0 / 3.0
    return Pomdp(
        states=(s0,) + branches, actions=(act,), observations=("o1",),
        transitions={
            (0, 0): ((1, third), (2, third), (3, 1.0 - 2 * third)),
            (1, 0): ((1, 1.0),), (2, 0): ((2, 1.0),), (3, 0): ((3, 1.0),),
        },
        observation_probs={(i, 0): ((0, 1.0),) for i in range(4)},
        branch_rewards={
            (0, 0, 1): 1.0, (0, 0, 2): 2.0, (0, 0, 3): 3.0,
            (1, 0, 1): 0.0, (2, 0, 2): 0.0, (3, 0, 3): 0.0,
        },
        initial_belief=(1.0, 0.0, 0.0, 0.0), horizon=1,
        applicable={0: (0,), 1: (), 2: (), 3: ()}, milestones={1: "a"},
    )


class TestSimulateEpisode:
    def test_deterministic_model_has_unique_trace(self):
        pomdp, _ = single_step(p_success=1.0, p_detect=0.0)
        result = value_iteration(pomdp)
        episodes = [
            simulate_episode(pomdp, result.policy, substream(seed, 0))
            for seed in (0, 1, 99)
        ]
        first = episodes[0]
        assert len(first.steps) == 1
        assert first.succeeded == {1: True}
        for other in episodes[1:]:
            assert other.cumulative_reward == first.cumulative_reward
            assert [(s.action, s.observation, s.reward) for s in other.steps] == [
                (s.action, s.observation, s.reward) for s in first.steps
            ]

    def test_forced_failure_accumulates_penalties(self):
        pomdp, _ = single_step(p_success=0.0, penalty=-2.0, cost=1.0, horizon=3)
        policy = fixed_policy(pomdp, 0)
        episode = simulate_episode(pomdp, policy, substream(5, 0))
        assert episode.cumulative_reward == pytest.approx(3 * (-2.0 - 1.0), abs=1e-12)
        assert episode.succeeded == {1: False}
        assert episode.truncated

    def test_golden_trace_seed_42(self):
        # frozen from this implementation's first run; guards cross-version
        # and cross-platform reproducibility
        pomdp, _ = noisy_sensor()
        result = value_iteration(pomdp)
        episode = simulate_episode(pomdp, result.policy, substream(42, 0))
        assert [(s.action, s.observation, s.reward) for s in episode.steps] == [
            ("s1:T0001@srv", "o5", 8.2),
            ("s1:T0001@srv", "o5", -0.8),
            ("s1:T0001@srv", "o5", -0.8),
        ]
        assert episode.cumulative_reward == pytest.approx(6.6, abs=1e-12)
        assert episode.succeeded == {1: True}

    def test_traces_never_use_zero_probability_transitions(self):
        pomdp, _ = noisy_sensor()
        result = value_iteration(pomdp)
        action_index = {act.id: i for i, act in enumerate(pomdp.actions)}
        for i in range(50):
            episode = simulate_episode(pomdp, result.policy, substream(77, i))
            previous = None
            for step in episode.steps:
                a = action_index[step.action]
                if previous is not None:
                    assert step.state_before == previous
                row = dict(pomdp.transitions[(step.state_before, a)])
                assert row.get(step.state_after, 0.0) > 0.0
                assert step.reward == pomdp.branch_rewards[
                    (step.state_before, a, step.state_after)
                ]
                previous = step.state_after
            total = sum(s.reward for s in episode.steps)
            assert total == pytest.approx(episode.cumulative_reward, abs=1e-9)

    def test_belief_after_is_the_policy_graph_child(self):
        rng = random.Random(515)
        for _ in range(6):
            inputs = random_scenario(rng)
            pomdp = build_pomdp(inputs.flows[0], inputs.network, inputs.ti)
            policy = value_iteration(pomdp).policy
            action_index = {act.id: i for i, act in enumerate(pomdp.actions)}
            obs_index = {o: i for i, o in enumerate(pomdp.observations)}
            for i in range(25):
                node = policy.nodes[-1]
                for step in simulate_episode(pomdp, policy, substream(9, i)).steps:
                    assert step.belief_before == support_key(node.support)
                    a, o = action_index[step.action], obs_index[step.observation]
                    assert a == node.action
                    node = policy.nodes[node.children[o][1]]
                    assert step.belief_after == support_key(node.support)
                    before = [0.0] * len(pomdp.states)
                    for s, p in step.belief_before:
                        before[s] = p
                    before = [p / sum(before) for p in before]
                    expected = belief_update(pomdp, Belief(tuple(before)), a, o).probs
                    after = dict(step.belief_after)
                    for s, p in enumerate(expected):
                        assert after.get(s, 0.0) == pytest.approx(p, abs=1e-9)


class TestEstimators:
    def test_bernoulli_mean_within_interval(self):
        pomdp, _ = single_step(p_success=0.6, horizon=1)
        result = value_iteration(pomdp)
        summary = estimate_expected_reward(pomdp, result.policy, 4000, seed=11)
        estimate, (lo, hi) = summary.p_n_estimates[1], summary.p_n_intervals[1]
        assert lo <= 0.6 <= hi
        assert abs(estimate - 0.6) < 0.03

    def test_certain_success_estimates_exactly_one(self):
        pomdp, _ = single_step(p_success=1.0, horizon=1)
        result = value_iteration(pomdp)
        summary = estimate_expected_reward(pomdp, result.policy, 500, seed=1)
        estimate, (lo, hi) = summary.p_n_estimates[1], summary.p_n_intervals[1]
        assert estimate == 1.0
        assert hi == 1.0

    def test_and_chain_product_oracle(self):
        pomdp, _ = and_chain(p1=0.5, p2=0.5, horizon=2)
        result = value_iteration(pomdp)
        summary = estimate_expected_reward(pomdp, result.policy, 6000, seed=23)
        estimate, (lo, hi) = summary.p_n_estimates[2], summary.p_n_intervals[2]
        assert lo <= 0.25 <= hi

    def test_seeded_rewards_average_exactly(self):
        # seed 17 draws the 1, 2 and 3 branches once each across 3 episodes
        pomdp = _reward_lottery()
        policy = fixed_policy(pomdp, 0)
        summary = estimate_expected_reward(pomdp, policy, 3, seed=17)
        assert sorted(episode_totals(pomdp, policy, 3, seed=17).tolist()) == [1.0, 2.0, 3.0]
        assert summary.mean_reward == pytest.approx(2.0, abs=1e-15)
        assert summary.std_error == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)

    def test_deterministic_model_zero_std_error(self):
        pomdp, _ = single_step(p_success=1.0, horizon=1)
        result = value_iteration(pomdp)
        summary = estimate_expected_reward(pomdp, result.policy, 200, seed=3)
        assert summary.std_error == 0.0

    def test_mean_tracks_solver_value(self):
        for name, pomdp in bundled_toys():
            result = value_iteration(pomdp)
            summary = estimate_expected_reward(pomdp, result.policy, 4000, seed=13)
            assert abs(summary.mean_reward - result.value) <= max(
                3 * summary.std_error, 1e-9
            ), name

    def test_bitwise_reproducibility(self):
        pomdp, _ = noisy_sensor()
        result = value_iteration(pomdp)
        a = estimate_expected_reward(pomdp, result.policy, 500, seed=101)
        b = estimate_expected_reward(pomdp, result.policy, 500, seed=101)
        assert a.mean_reward.hex() == b.mean_reward.hex()
        assert a.std_error.hex() == b.std_error.hex()
        assert a == b
        totals = [episode_totals(pomdp, result.policy, 500, seed=101) for _ in range(2)]
        assert totals[0].tobytes() == totals[1].tobytes()

    def test_intervals_within_unit_range(self):
        for successes, n in ((0, 10), (10, 10), (3, 7), (500, 1000)):
            lo, hi = wilson_interval(successes, n)
            assert 0.0 <= lo <= hi <= 1.0


def episode_totals(pomdp, policy, num_episodes, seed):
    """Each episode's cumulative reward, from one walk of `policy` on
    `pomdp` over the first `num_episodes` episodes' uniforms."""
    tables = cri.simulate._WalkTables(pomdp, policy)
    return tables.walk(block_uniforms(seed, 0, num_episodes, 2 * policy.horizon + 1))[0]


def _hex(values):
    return [float(v).hex() for v in values]


def _fold(pomdp, policy, num_episodes, seed):
    """The summary fields, folded from one `simulate_episode` per episode,
    and each episode's reward (under `"rewards"`)."""
    episodes = [
        simulate_episode(pomdp, policy, substream(seed, i)) for i in range(num_episodes)
    ]
    rewards = [e.cumulative_reward for e in episodes]
    mean = math.fsum(rewards) / num_episodes
    if num_episodes > 1:
        var = math.fsum((r - mean) ** 2 for r in rewards) / (num_episodes - 1)
        std_error = math.sqrt(var / num_episodes)
    else:
        std_error = 0.0
    hits = {s: sum(e.succeeded[s] for e in episodes) for s in sorted(pomdp.milestones)}
    return {
        "rewards": rewards,
        "mean_reward": mean,
        "std_error": std_error,
        "p_n_estimates": {s: h / num_episodes for s, h in hits.items()},
        "p_n_intervals": {s: wilson_interval(h, num_episodes) for s, h in hits.items()},
        "truncated_episodes": sum(e.truncated for e in episodes),
    }


def _assert_matches_episode_walks(pomdp, policy, num_episodes, seed, summary=None):
    """`summary` (by default `estimate_expected_reward`'s) holds the
    fields `_fold` folds from per-episode walks, and the walk rewards each
    episode as they do, bit for bit. Returns the summary."""
    summary = summary or estimate_expected_reward(pomdp, policy, num_episodes, seed)
    folded = _fold(pomdp, policy, num_episodes, seed)
    rewards = folded.pop("rewards")
    assert {key: getattr(summary, key) for key in folded} == folded
    assert summary.mean_reward.hex() == folded["mean_reward"].hex()
    assert summary.std_error.hex() == folded["std_error"].hex()
    assert _hex(episode_totals(pomdp, policy, num_episodes, seed)) == _hex(rewards)
    assert summary.num_episodes == num_episodes
    return summary


class _Scripted:
    """Stands in for an episode's substream, handing out given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, out=None):
        if out is None:
            return self.uniforms.pop(0)
        out[:] = self.uniforms[: len(out)]


def _spread(pomdp, rng):
    """`pomdp` with b0 spread over every state."""
    weights = [rng.uniform(0.1, 1.0) for _ in pomdp.states]
    return dataclasses.replace(pomdp, initial_belief=tuple(w / sum(weights) for w in weights))


class TestBlockWalkOracle:
    """`estimate_expected_reward` walks episodes in blocks; every summary
    field must equal the fold of per-episode walks, bit for bit."""

    SMALL_BLOCK = 16
    SIZES = (1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 5)

    def test_uniform_vector_equals_sequential_draws(self):
        rng, again = substream(5, 3), substream(5, 3)
        assert rng.random(7).tolist() == [again.random() for _ in range(7)]

    @pytest.mark.parametrize("num_episodes", (1, BLOCK - 1, BLOCK, BLOCK + 1))
    def test_fixture_flows(self, scenario, num_episodes):
        for flow in scenario.flows:
            pomdp = build_pomdp(flow, scenario.network, scenario.ti)
            policy = value_iteration(pomdp).policy
            _assert_matches_episode_walks(pomdp, policy, num_episodes, seed=7)

    def test_random_scenarios(self, monkeypatch):
        monkeypatch.setattr(cri.simulate, "BLOCK", self.SMALL_BLOCK)
        rng = random.Random(8080)
        for i in range(100):
            inputs = random_scenario(rng)
            pomdp = build_pomdp(inputs.flows[0], inputs.network, inputs.ti)
            policy = value_iteration(pomdp).policy
            _assert_matches_episode_walks(
                pomdp, policy, self.SIZES[i % len(self.SIZES)], seed=rng.randrange(10**6)
            )

    def test_random_models_with_spread_belief(self, monkeypatch):
        monkeypatch.setattr(cri.simulate, "BLOCK", self.SMALL_BLOCK)
        rng = random.Random(9090)
        for i in range(100):
            pomdp = _spread(random_pomdp(rng), rng)
            policy = value_iteration(pomdp).policy
            _assert_matches_episode_walks(
                pomdp, policy, self.SIZES[i % len(self.SIZES)], seed=rng.randrange(10**6)
            )

    def test_policy_stopping_at_the_root(self):
        pomdp, _ = noisy_sensor()
        policy = fixed_policy(pomdp, None)
        summary = _assert_matches_episode_walks(pomdp, policy, 40, 1)
        assert episode_totals(pomdp, policy, 40, 1).tolist() == [0.0] * 40
        assert (summary.mean_reward, summary.std_error) == (0.0, 0.0)
        assert summary.truncated_episodes == 0

    def test_policy_running_to_the_horizon_is_truncated(self, monkeypatch):
        monkeypatch.setattr(cri.simulate, "BLOCK", self.SMALL_BLOCK)
        pomdp, _ = single_step(p_success=0.0, penalty=-2.0, cost=1.0, horizon=3)
        summary = _assert_matches_episode_walks(pomdp, fixed_policy(pomdp, 0), 40, 1)
        assert summary.truncated_episodes == 40
        rng = random.Random(7070)
        for _ in range(50):
            pomdp = _spread(random_pomdp(rng), rng)
            policy = fixed_policy(pomdp, 0)
            _assert_matches_episode_walks(pomdp, policy, 17, seed=rng.randrange(10**6))

    def test_boundary_uniforms_pick_like_draw(self, monkeypatch):
        # uniforms equal to a cumulative sum move on to the next entry, and
        # uniforms at or above a row's total (here 1 - 1e-10) fall through
        # to its last entry
        lottery = _reward_lottery()
        pomdp = dataclasses.replace(
            lottery,
            transitions=lottery.transitions | {(0, 0): ((1, 0.25), (2, 0.25), (3, 0.4999999999))},
            initial_belief=(0.5, 0.5, 0.0, 0.0),
        )
        pomdp.validate()
        scripts = [
            (b0, t, 0.0)
            for b0 in (0.0, 0.5, 0.9999999999999999)
            for t in (0.0, 0.25, 0.5, 0.9999999999, 0.99999999995, 0.9999999999999999)
        ]
        monkeypatch.setattr(
            cri.simulate,
            "block_uniforms",
            lambda seed, start, count, draws: np.array(scripts[start : start + count]),
        )
        policy = fixed_policy(pomdp, 0)
        episodes = [simulate_episode(pomdp, policy, _Scripted(u)) for u in scripts]
        summary = estimate_expected_reward(pomdp, policy, len(scripts), 0)
        totals = cri.simulate._WalkTables(pomdp, policy).walk(np.array(scripts))[0].tolist()
        assert totals == [e.cumulative_reward for e in episodes]
        assert totals[:6] == [1.0, 2.0, 3.0, 3.0, 3.0, 3.0]
        assert summary.mean_reward == math.fsum(totals) / len(scripts)
        hits = sum(e.succeeded[1] for e in episodes)
        assert summary.p_n_estimates == {1: hits / len(scripts)}


def _assert_each_walks_alone(walks, num_episodes, seed):
    """`estimate_expected_rewards` over `walks` gives each walk the
    summary of its walk alone, bit for bit, and each walk over its prefix
    of the widest walk's uniforms rewards each episode as its walk alone
    does. Returns the summaries."""
    together = estimate_expected_rewards(walks, num_episodes, seed)
    assert len(together) == len(walks)
    wide = block_uniforms(
        seed, 0, num_episodes, max(2 * policy.horizon + 1 for _, policy in walks)
    )
    for (pomdp, policy), summary in zip(walks, together):
        alone = estimate_expected_reward(pomdp, policy, num_episodes, seed)
        prefix = wide[:, : 2 * policy.horizon + 1]
        walked = cri.simulate._WalkTables(pomdp, policy).walk(prefix)[0]
        assert _hex(walked) == _hex(episode_totals(pomdp, policy, num_episodes, seed))
        assert summary.mean_reward.hex() == alone.mean_reward.hex()
        assert summary.std_error.hex() == alone.std_error.hex()
        assert summary == alone
    return together


class TestMultiWalk:
    """Walks of several horizons share each block's uniforms, derived once
    at the longest horizon; each walk reads its prefix of every row and
    must get the summary of its walk alone."""

    @staticmethod
    def _fixture_walks(scenario):
        # credential_chain cut to horizon 2, dns_injection at its own 5,
        # and a toy of horizon 3
        walks = []
        for flow, horizon in zip(scenario.flows, (2, None)):
            pomdp = build_pomdp(flow, scenario.network, scenario.ti, horizon=horizon)
            walks.append((pomdp, value_iteration(pomdp).policy))
        pomdp, _ = noisy_sensor()
        walks.append((pomdp, value_iteration(pomdp).policy))
        return walks

    @pytest.mark.parametrize("num_episodes", (BLOCK - 1, BLOCK + 1))
    def test_fixture_flows_at_block_edges(self, scenario, num_episodes):
        walks = self._fixture_walks(scenario)
        assert sorted(policy.horizon for _, policy in walks) == [2, 3, 5]
        _assert_each_walks_alone(walks, num_episodes, seed=7)
        # the longest walk first, as well as last
        _assert_each_walks_alone(walks[::-1], num_episodes, seed=7)

    def test_random_models_match_episode_walks(self, monkeypatch):
        monkeypatch.setattr(cri.simulate, "BLOCK", TestBlockWalkOracle.SMALL_BLOCK)
        sizes = TestBlockWalkOracle.SIZES
        rng = random.Random(6060)
        mixed = 0
        for i in range(40):
            pomdps = [_spread(random_pomdp(rng), rng) for _ in range(rng.randint(2, 4))]
            walks = [(pomdp, value_iteration(pomdp).policy) for pomdp in pomdps]
            num_episodes, seed = sizes[i % len(sizes)], rng.randrange(10**6)
            together = _assert_each_walks_alone(walks, num_episodes, seed)
            for (pomdp, policy), summary in zip(walks, together):
                _assert_matches_episode_walks(pomdp, policy, num_episodes, seed, summary)
            mixed += len({policy.horizon for _, policy in walks}) > 1
        # most groups mix horizons
        assert mixed > 30

    def test_no_walks(self):
        assert estimate_expected_rewards([], 5, 0) == []
        with pytest.raises(ValueError, match="num_episodes must be >= 1"):
            estimate_expected_rewards([], 0, 0)

    def test_each_block_is_derived_once(self, scenario, monkeypatch):
        derived = []

        def counted(seed, start, count, draws):
            derived.append((start, count, draws))
            return block_uniforms(seed, start, count, draws)

        monkeypatch.setattr(cri.simulate, "block_uniforms", counted)
        estimate_expected_rewards(self._fixture_walks(scenario), 2 * BLOCK + 1, 3)
        assert derived == [(0, BLOCK, 11), (BLOCK, BLOCK, 11), (2 * BLOCK, 1, 11)]


class TestMemory:
    """A walk keeps nothing per episode beyond the block it walks, so the
    memory a run peaks at does not grow with its episodes."""

    def test_peak_does_not_grow_with_the_episodes(self, scenario):
        # the engine's walks: each flow's flag graph on its model that
        # tracks inventory
        walks = []
        for flow in scenario.flows:
            flags = build_pomdp(flow, scenario.network, scenario.ti, inventory=False)
            full = build_pomdp(flow, scenario.network, scenario.ti)
            walks.append((full, value_iteration(flags).policy))

        def peak(num_episodes):
            tracemalloc.start()
            try:
                estimate_expected_rewards(walks, num_episodes, seed=7)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # what a first walk loads or caches is not counted
        few, many = peak(2 * BLOCK), peak(32 * BLOCK)
        assert many - few <= 64 * 1024, (few, many)


def _row_pairs(rows, stride):
    return {divmod(int(key), stride) for key in np.flatnonzero(rows.slot >= 0)}


def assert_graph_rows(pomdp, policy, listed=None):
    """`_WalkTables(pomdp, policy)` builds rows for exactly the (state,
    action) pairs that `listed`, a graph over `pomdp`'s own states (by
    default `policy`), lists, and for the states they arrive in. Returns
    the pairs."""
    tables = cri.simulate._WalkTables(pomdp, policy)
    listed = listed or policy
    pairs = {(s, n.action) for n in listed.nodes if n.action is not None for s in n.support}
    arrivals = {(s2, a) for s, a in pairs for s2, _ in pomdp.transitions[(s, a)]}
    assert _row_pairs(tables.transitions, tables.stride) == pairs
    assert _row_pairs(tables.observations, tables.stride) == arrivals
    return pairs


class TestWalkTables:
    """The walk's sampling rows are built once, for exactly the (state,
    action) pairs the policy graph lists and the states they arrive in."""

    def test_fixture_flows(self, scenario):
        sizes = {}
        for flow in scenario.flows:
            pomdp = build_pomdp(flow, scenario.network, scenario.ti)
            pairs = assert_graph_rows(pomdp, value_iteration(pomdp).policy)
            sizes[flow.id] = (len(pairs), len(pomdp.transitions))
        # of every (state, action) pair the model has, the graph lists six
        assert sizes == {"credential_chain": (6, 420), "dns_injection": (6, 4_695)}

    def test_random_scenarios(self):
        rng = random.Random(2929)
        for _ in range(50):
            inputs = random_scenario(rng)
            pomdp = build_pomdp(inputs.flows[0], inputs.network, inputs.ti)
            assert_graph_rows(pomdp, value_iteration(pomdp).policy)

    def test_key_outside_the_graph_raises(self, monkeypatch):
        # a zero-probability trailing entry is never in a belief's support,
        # but a uniform at or above the row's total falls through to it; the
        # next step's key then has no row, and no other row stands in for it
        lottery = _reward_lottery()
        pomdp = dataclasses.replace(
            lottery,
            transitions=lottery.transitions | {(0, 0): ((1, 0.5), (2, 0.4999999999), (3, 0.0))},
            horizon=2,
        )
        pomdp.validate()
        policy = fixed_policy(pomdp, 0)
        assert assert_graph_rows(pomdp, policy) == {(0, 0), (1, 0), (2, 0)}
        script = [0.0, 0.99999999995, 0.0, 0.0, 0.0]
        assert simulate_episode(pomdp, policy, _Scripted(script)).steps[0].state_after == 3
        monkeypatch.setattr(
            cri.simulate, "block_uniforms", lambda seed, start, count, draws: np.array([script])
        )
        with pytest.raises(KeyError):
            estimate_expected_reward(pomdp, policy, 1, 0)


def _substream_rows(seed, start, count, draws):
    rows = [substream(seed, start + j).random(draws) for j in range(count)]
    return np.array(rows).reshape(count, draws)


class TestBlockUniformsOracle:
    """`block_uniforms` must equal the stacked `substream` rows bit for bit."""

    SEEDS = (0, 1, 7, 2**32 + 5, 2**97 - 3, 2**128 - 1, 2**128 + 5, 2**300 - 11)
    STARTS = (0, BLOCK - 1, BLOCK, 2**31, 2**32 - 5)

    def _assert_equal(self, seed, start, count, draws):
        got = block_uniforms(seed, start, count, draws)
        assert got.shape == (count, draws)
        want = _substream_rows(seed, start, count, draws)
        assert (got.view(np.uint64) == want.view(np.uint64)).all()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start", STARTS)
    def test_seeds_and_offsets(self, seed, start):
        # a block at 2**32 - 5 straddles the index that adds a spawn word
        self._assert_equal(seed, start, 9, 2 * (seed % 7) + 1)

    @pytest.mark.parametrize("draws", range(1, 16))
    def test_draw_counts(self, draws):
        self._assert_equal(7, BLOCK - 3, 6, draws)

    def test_indices_past_two_words(self):
        self._assert_equal(2**97 - 3, 2**64 - 4, 8, 5)

    def test_empty_block(self):
        assert block_uniforms(7, 0, 0, 3).shape == (0, 3)

    @pytest.mark.parametrize("start", STARTS)
    def test_column_prefixes_are_narrower_derivations(self, start):
        # what lets walks of shorter horizons read a wider block's prefix
        for seed in (0, 7, 2**40 + 3):
            wide = block_uniforms(seed, start, 9, 21)
            for draws in range(1, 22):
                narrow = block_uniforms(seed, start, 9, draws)
                assert (wide[:, :draws].view(np.uint64) == narrow.view(np.uint64)).all()

    def test_negative_seed_raises_like_substream(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            substream(-1, 0)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            block_uniforms(-1, 0, 4, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**200 - 1),
        start=st.one_of(st.integers(0, 2**33), st.integers(2**32 - 40, 2**32 + 40)),
        count=st.integers(0, 40),
        draws=st.integers(1, 15),
    )
    def test_property(self, seed, start, count, draws):
        self._assert_equal(seed, start, count, draws)


class TestBruteForce:
    def test_single_try_probability_exact(self):
        pomdp, _ = single_step(p_success=0.6, horizon=1)
        value, pn = brute_force_value(pomdp)
        assert pn[1] == pytest.approx(0.6, abs=1e-15)

    def test_capacity_error(self):
        pomdp, _ = noisy_sensor()
        with pytest.raises(CapacityError):
            brute_force_value(pomdp, cap=3)

    def test_interval_coverage_experiment(self):
        # 200 random single-step instances: the Wilson interval from N=300
        # episodes should cover the exact probability ~95% of the time
        rng = random.Random(60601)
        hits = 0
        for _ in range(200):
            p = round(rng.uniform(0.15, 0.9), 3)
            pomdp, _ = single_step(p_success=p, p_detect=rng.choice([0.0, 0.4]), horizon=2)
            result = value_iteration(pomdp)
            _, exact = brute_force_value(pomdp)
            summary = estimate_expected_reward(pomdp, result.policy, 300, rng.randrange(10**6))
            lo, hi = summary.p_n_intervals[1]
            if lo <= exact[1] <= hi:
                hits += 1
        assert 0.92 * 200 <= hits <= 0.98 * 200

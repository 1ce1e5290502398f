import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixed_policy
from cri.errors import CapacityError
from cri.pomdp import belief_update, build_pomdp, value_iteration
from cri.pomdp.types import AttackerAction, Belief, NetworkState, Pomdp
import cri.simulate
from cri.simulate import (
    BLOCK,
    block_uniforms,
    brute_force_value,
    episodes_to_jsonl,
    estimate_expected_reward,
    estimate_p_n,
    simulate_episode,
    substream,
    wilson_interval,
)
from cri.toys import and_chain, bundled_toys, noisy_sensor, single_step
from genscen import random_pomdp, random_scenario


def _reward_lottery():
    """One action fanning into three absorbing states worth 1, 2, 3."""
    s0 = NetworkState.initial()
    branches = tuple(NetworkState(flags=(c,)) for c in "abc")
    act = AttackerAction(
        id="roll", technique_id="T", target="n", kind="tactic-step",
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
        policy = fixed_policy(pomdp, 0, horizon=3)
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
                node = policy.root
                for step in simulate_episode(pomdp, policy, substream(9, i)).steps:
                    assert step.belief_before == node.key
                    a, o = action_index[step.action], obs_index[step.observation]
                    assert a == node.action
                    node = policy.nodes[node.children[o][1]]
                    assert step.belief_after == node.key
                    before = [0.0] * len(pomdp.states)
                    for s, p in step.belief_before:
                        before[s] = p
                    before = [p / sum(before) for p in before]
                    expected = belief_update(pomdp, Belief(tuple(before)), a, o).probs
                    after = dict(step.belief_after)
                    for s, p in enumerate(expected):
                        assert after.get(s, 0.0) == pytest.approx(p, abs=1e-9)

    def test_jsonl_export(self):
        pomdp, _ = single_step()
        result = value_iteration(pomdp)
        episodes = [
            simulate_episode(pomdp, result.policy, substream(1, i)) for i in range(3)
        ]
        text = episodes_to_jsonl(episodes)
        lines = [json.loads(line) for line in text.strip().split("\n")]
        assert len(lines) == 3
        assert all("steps" in line and "cumulative_reward" in line for line in lines)


class TestEstimators:
    def test_bernoulli_mean_within_interval(self):
        pomdp, _ = single_step(p_success=0.6, horizon=1)
        result = value_iteration(pomdp)
        estimate, (lo, hi) = estimate_p_n(pomdp, result.policy, 1, 4000, seed=11)
        assert lo <= 0.6 <= hi
        assert abs(estimate - 0.6) < 0.03

    def test_certain_success_estimates_exactly_one(self):
        pomdp, _ = single_step(p_success=1.0, horizon=1)
        result = value_iteration(pomdp)
        estimate, (lo, hi) = estimate_p_n(pomdp, result.policy, 1, 500, seed=1)
        assert estimate == 1.0
        assert hi == 1.0

    def test_and_chain_product_oracle(self):
        pomdp, _ = and_chain(p1=0.5, p2=0.5, horizon=2)
        result = value_iteration(pomdp)
        estimate, (lo, hi) = estimate_p_n(pomdp, result.policy, 2, 6000, seed=23)
        assert lo <= 0.25 <= hi

    def test_seeded_rewards_average_exactly(self):
        # seed 17 draws the 1, 2 and 3 branches once each across 3 episodes
        pomdp = _reward_lottery()
        summary = estimate_expected_reward(pomdp, fixed_policy(pomdp, 0, horizon=1), 3, seed=17)
        assert sorted(e for e in summary.rewards) == [1.0, 2.0, 3.0]
        assert summary.mean_reward == pytest.approx(2.0, abs=1e-15)

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
        assert a.sum_rewards == b.sum_rewards
        assert a.mean_reward == b.mean_reward
        assert a.std_error == b.std_error
        assert a.p_n_estimates == b.p_n_estimates
        assert a.rewards == b.rewards

    def test_intervals_within_unit_range(self):
        for successes, n in ((0, 10), (10, 10), (3, 7), (500, 1000)):
            lo, hi = wilson_interval(successes, n)
            assert 0.0 <= lo <= hi <= 1.0


def _fold(pomdp, policy, num_episodes, seed):
    """The summary fields, folded from one `simulate_episode` per episode."""
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


def _assert_matches_episode_walks(pomdp, policy, num_episodes, seed):
    summary = estimate_expected_reward(pomdp, policy, num_episodes, seed)
    folded = _fold(pomdp, policy, num_episodes, seed)
    assert {key: getattr(summary, key) for key in folded} == folded
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
    """`pomdp` with b0 spread over every state and a discount below 1."""
    weights = [rng.uniform(0.1, 1.0) for _ in pomdp.states]
    return dataclasses.replace(
        pomdp,
        initial_belief=tuple(w / sum(weights) for w in weights),
        discount=rng.choice((0.5, 0.9, 0.97)),
    )


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

    def test_random_models_with_spread_belief_and_discount(self, monkeypatch):
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
        summary = _assert_matches_episode_walks(pomdp, fixed_policy(pomdp, None, 3), 40, 1)
        assert summary.rewards == [0.0] * 40
        assert summary.truncated_episodes == 0

    def test_policy_running_to_the_horizon_is_truncated(self, monkeypatch):
        monkeypatch.setattr(cri.simulate, "BLOCK", self.SMALL_BLOCK)
        pomdp, _ = single_step(p_success=0.0, penalty=-2.0, cost=1.0, horizon=3)
        summary = _assert_matches_episode_walks(pomdp, fixed_policy(pomdp, 0, 3), 40, 1)
        assert summary.truncated_episodes == 40
        rng = random.Random(7070)
        for _ in range(50):
            pomdp = _spread(random_pomdp(rng), rng)
            policy = fixed_policy(pomdp, 0, pomdp.horizon)
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
        policy = fixed_policy(pomdp, 0, 1)
        episodes = [simulate_episode(pomdp, policy, _Scripted(u)) for u in scripts]
        summary = estimate_expected_reward(pomdp, policy, len(scripts), 0)
        assert summary.rewards == [e.cumulative_reward for e in episodes]
        assert summary.rewards[:6] == [1.0, 2.0, 3.0, 3.0, 3.0, 3.0]
        hits = sum(e.succeeded[1] for e in episodes)
        assert summary.p_n_estimates == {1: hits / len(scripts)}

    def test_estimation_walks_no_single_episode(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("estimate_expected_reward called simulate_episode")

        monkeypatch.setattr(cri.simulate, "simulate_episode", refuse)
        pomdp, _ = noisy_sensor()
        estimate_expected_reward(pomdp, value_iteration(pomdp).policy, 10, 3)


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
            _, (lo, hi) = estimate_p_n(pomdp, result.policy, 1, 300, seed=rng.randrange(10**6))
            if lo <= exact[1] <= hi:
                hits += 1
        assert 0.92 * 200 <= hits <= 0.98 * 200

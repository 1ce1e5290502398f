import json
import random

import pytest

from conftest import fixed_policy
from cri.errors import CapacityError
from cri.pomdp import belief_update, build_pomdp, value_iteration
from cri.pomdp.types import AttackerAction, Belief, NetworkState, Pomdp
from cri.simulate import (
    brute_force_value,
    episodes_to_jsonl,
    estimate_expected_reward,
    estimate_p_n,
    simulate_episode,
    substream,
    wilson_interval,
)
from cri.toys import and_chain, bundled_toys, noisy_sensor, single_step
from genscen import random_scenario


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

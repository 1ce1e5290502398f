import random

import pytest

from cri.errors import CapacityError, InconsistentObservation
from cri.pomdp import belief_update, build_pomdp, milestone_probabilities, value_iteration
from cri.pomdp.types import AttackerAction, Belief, NetworkState, Pomdp, support_key
from cri.simulate import brute_force_value
from cri.toys import and_chain, single_step
from genscen import random_pomdp, random_scenario


def _action(idx, **kwargs):
    defaults = dict(
        id=f"a{idx}", technique_id=f"T{idx}", target="n0", kind="tactic-step",
        p_success=0.5, p_detect=0.0, reward_success=1.0, penalty_failure=0.0,
        cost=0.0, step=idx + 1,
    )
    defaults.update(kwargs)
    return AttackerAction(**defaults)


def _two_state_identity(z0=0.8):
    """Identity transitions; observation o0 has probability z0 in state 0."""
    states = (NetworkState.initial(), NetworkState(flags=("s1",)))
    return Pomdp(
        states=states,
        actions=(_action(0),),
        observations=("o1", "o2"),
        transitions={(0, 0): ((0, 1.0),), (1, 0): ((1, 1.0),)},
        observation_probs={
            (0, 0): ((0, z0), (1, 1.0 - z0)),
            (1, 0): ((0, 1.0 - z0), (1, z0)),
        },
        branch_rewards={(0, 0, 0): 0.0, (1, 0, 1): 0.0},
        initial_belief=(0.5, 0.5),
        horizon=2,
        applicable={0: (0,), 1: (0,)},
        milestones={1: "s1"},
    )


class TestBeliefUpdate:
    def test_identity_transitions_weight_by_observation(self):
        pomdp = _two_state_identity()
        updated = belief_update(pomdp, Belief((0.5, 0.5)), 0, 0)
        assert updated.probs[0] == pytest.approx(0.8, abs=1e-12)
        assert updated.probs[1] == pytest.approx(0.2, abs=1e-12)

    def test_point_mass_deterministic_transition(self):
        states = (NetworkState.initial(), NetworkState(flags=("s1",)))
        pomdp = Pomdp(
            states=states,
            actions=(_action(0, p_success=1.0),),
            observations=("o1", "o2"),
            transitions={(0, 0): ((1, 1.0),), (1, 0): ((1, 1.0),)},
            observation_probs={
                (0, 0): ((0, 0.5), (1, 0.5)),
                (1, 0): ((0, 0.5), (1, 0.5)),
            },
            branch_rewards={(0, 0, 1): 1.0, (1, 0, 1): 0.0},
            initial_belief=(1.0, 0.0),
            horizon=1,
            applicable={0: (0,), 1: ()},
            milestones={1: "s1"},
        )
        for obs in (0, 1):
            updated = belief_update(pomdp, Belief((1.0, 0.0)), 0, obs)
            assert updated.probs == (0.0, 1.0)

    def test_three_state_hand_enumeration(self):
        # frozen instance checked against an explicit two-loop evaluation
        states = (
            NetworkState.initial(),
            NetworkState(flags=("x",)),
            NetworkState(flags=("y",)),
        )
        T = {
            (0, 0): ((0, 0.2), (1, 0.5), (2, 0.3)),
            (1, 0): ((1, 0.6), (2, 0.4)),
            (2, 0): ((2, 1.0),),
        }
        Z = {
            (0, 0): ((0, 0.7), (1, 0.3)),
            (1, 0): ((0, 0.1), (1, 0.9)),
            (2, 0): ((0, 0.5), (1, 0.5)),
        }
        rewards = {(s, 0, s2): 0.0 for (s, _), row in T.items() for s2, _ in row}
        pomdp = Pomdp(
            states=states, actions=(_action(0),), observations=("o1", "o2"),
            transitions=T, observation_probs=Z, branch_rewards=rewards,
            initial_belief=(0.5, 0.3, 0.2), horizon=1,
            applicable={0: (0,), 1: (0,), 2: (0,)}, milestones={1: "x"},
        )
        belief = (0.5, 0.3, 0.2)
        obs = 1
        unnormalized = [0.0, 0.0, 0.0]
        for s, mass in enumerate(belief):
            for s2, p in T[(s, 0)]:
                z = dict(Z[(s2, 0)])[obs]
                unnormalized[s2] += mass * p * z
        total = sum(unnormalized)
        expected = tuple(v / total for v in unnormalized)
        updated = belief_update(pomdp, Belief(belief), 0, obs)
        assert updated.probs == pytest.approx(expected, abs=1e-15)

    def test_simplex_preserved_on_random_models(self):
        rng = random.Random(99)
        for _ in range(40):
            pomdp = random_pomdp(rng)
            belief = [rng.uniform(0.01, 1.0) for _ in pomdp.states]
            total = sum(belief)
            belief = Belief(tuple(b / total for b in belief))
            a = rng.randrange(len(pomdp.actions))
            o = rng.randrange(len(pomdp.observations))
            try:
                updated = belief_update(pomdp, belief, a, o)
            except InconsistentObservation:
                continue
            assert all(p >= 0 for p in updated.probs)
            assert sum(updated.probs) == pytest.approx(1.0, abs=1e-9)

    def test_impossible_observation_raises(self):
        pomdp = _two_state_identity(z0=1.0)
        with pytest.raises(InconsistentObservation):
            belief_update(pomdp, Belief((1.0, 0.0)), 0, 1)


class TestValueIteration:
    def test_degenerate_chain(self):
        state = (NetworkState.initial(),)
        pomdp = Pomdp(
            states=state, actions=(_action(0),), observations=("o1",),
            transitions={(0, 0): ((0, 1.0),)},
            observation_probs={(0, 0): ((0, 1.0),)},
            branch_rewards={(0, 0, 0): 1.0},
            initial_belief=(1.0,), horizon=3,
            applicable={0: (0,)}, milestones={},
        )
        assert value_iteration(pomdp).value == pytest.approx(3.0, abs=1e-12)

    def test_one_step_argmax(self):
        states = (NetworkState.initial(), NetworkState(flags=("w",)))
        acts = (
            _action(0, p_success=0.6, reward_success=10.0, penalty_failure=0.0, cost=1.0),
            _action(1, p_success=0.2, reward_success=10.0, penalty_failure=0.0, cost=1.0),
        )
        T = {}
        R = {}
        Z = {}
        for a in (0, 1):
            p = acts[a].p_success
            T[(0, a)] = ((0, 1.0 - p), (1, p))
            T[(1, a)] = ((1, 1.0),)
            R[(0, a, 1)] = acts[a].reward_success - acts[a].cost
            R[(0, a, 0)] = acts[a].penalty_failure - acts[a].cost
            R[(1, a, 1)] = -acts[a].cost
            Z[(0, a)] = ((1, 1.0),)
            Z[(1, a)] = ((0, 1.0),)
        pomdp = Pomdp(
            states=states, actions=acts, observations=("o1", "o2"),
            transitions=T, observation_probs=Z, branch_rewards=R,
            initial_belief=(1.0, 0.0), horizon=1,
            applicable={0: (0, 1), 1: ()}, milestones={1: "w"},
        )
        result = value_iteration(pomdp)
        assert result.value == pytest.approx(5.0, abs=1e-12)
        assert result.policy.root.action == 0

    def test_all_negative_options_mean_stop(self):
        pomdp, _ = single_step(p_success=0.1, reward=1.0, penalty=-5.0, cost=2.0)
        result = value_iteration(pomdp)
        assert result.value == 0.0
        assert result.policy.root.action is None

    def test_matches_brute_force_on_random_models(self):
        rng = random.Random(7321)
        for _ in range(15):
            pomdp = random_pomdp(rng)
            assert value_iteration(pomdp).value == pytest.approx(
                brute_force_value(pomdp)[0], abs=1e-6
            )

    def test_tie_breaks_to_lowest_index(self):
        pomdp, _ = single_step()
        doubled = Pomdp(
            states=pomdp.states,
            actions=(pomdp.actions[0], pomdp.actions[0]),
            observations=pomdp.observations,
            transitions={(s, a): pomdp.transitions[(s, 0)] for s in range(2) for a in (0, 1)},
            observation_probs={(s, a): pomdp.observation_probs[(s, 0)] for s in range(2) for a in (0, 1)},
            branch_rewards={
                (s, a, s2): r for (s, _, s2), r in pomdp.branch_rewards.items() for a in (0, 1)
            },
            initial_belief=pomdp.initial_belief,
            horizon=pomdp.horizon,
            applicable={s: (0, 1) if pomdp.applicable[s] else () for s in range(2)},
            milestones=pomdp.milestones,
        )
        result = value_iteration(doubled)
        assert result.policy.root.action == 0

    def test_belief_cap_raises(self, scenario):
        pomdp = build_pomdp(scenario.flows[0], scenario.network, scenario.ti)
        with pytest.raises(CapacityError):
            value_iteration(pomdp, belief_cap=10)


class TestMilestoneProbabilities:
    def test_matches_brute_force_on_built_scenarios(self):
        rng = random.Random(2025)
        for _ in range(8):
            inputs = random_scenario(rng)
            pomdp = build_pomdp(inputs.flows[0], inputs.network, inputs.ti)
            result = value_iteration(pomdp)
            exact = milestone_probabilities(pomdp, result.policy)
            _, oracle = brute_force_value(pomdp)
            for step in exact:
                assert exact[step] == pytest.approx(oracle[step], abs=1e-9)

    def test_and_chain_single_try_product(self):
        pomdp, _ = and_chain(p1=0.5, p2=0.5, horizon=2)
        result = value_iteration(pomdp)
        exact = milestone_probabilities(pomdp, result.policy)
        # step 2 gets exactly one attempt at horizon 2: P = p1 * p2; step 1
        # is retried after a first-step failure, so P = p1 + (1 - p1) * p1
        assert exact[2] == pytest.approx(0.25, abs=1e-12)
        assert exact[1] == pytest.approx(0.75, abs=1e-12)


def _dense(pomdp, support):
    vec = [0.0] * len(pomdp.states)
    for s, p in support.items():
        vec[s] = p
    return vec


class TestPolicyGraph:
    def _check_graph(self, pomdp, policy):
        assert policy.root.support == pomdp.b0_support()
        referenced = set()
        for i, node in enumerate(policy.nodes):
            assert node.key == support_key(node.support)
            if node.action is None:
                assert node.children == {}
                continue
            parent = Belief(tuple(_dense(pomdp, node.support)))
            assert sum(m for m, _ in node.children.values()) == pytest.approx(1.0, abs=1e-12)
            for o, (_, child_id) in node.children.items():
                assert child_id < i  # children are placed before parents
                referenced.add(child_id)
                expected = belief_update(pomdp, parent, node.action, o).probs
                actual = _dense(pomdp, policy.nodes[child_id].support)
                assert max(abs(x - y) for x, y in zip(actual, expected)) <= 1e-12
        # every node but the root is reached from some parent
        assert referenced == set(range(len(policy.nodes) - 1))

    def test_children_are_bayes_updates_on_built_scenarios(self):
        rng = random.Random(4242)
        for _ in range(10):
            inputs = random_scenario(rng)
            pomdp = build_pomdp(inputs.flows[0], inputs.network, inputs.ti)
            self._check_graph(pomdp, value_iteration(pomdp).policy)

    def test_children_are_bayes_updates_on_random_models(self):
        rng = random.Random(1717)
        for _ in range(20):
            pomdp = random_pomdp(rng)
            self._check_graph(pomdp, value_iteration(pomdp).policy)

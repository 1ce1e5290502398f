import dataclasses
import gc
import random

import pytest

from cri.engine import _normalized_reward, assumed_p_n
from cri.errors import CapacityError, CriError
from cri.index import parse_countermeasures
from cri.pomdp import (
    build_pomdp,
    milestone_probabilities,
    reweight_pomdp,
    value_iteration,
)
from cri.pomdp.solve import expectimax, informed_bounds
from cri.simulate import BLOCK, estimate_expected_reward, estimate_expected_rewards
from cri.pomdp.types import AttackerAction, NetworkState, Pomdp, support_key
from conftest import SCENARIO, load_scenario
from genscen import chain_scenario, random_pomdp, random_scenario
from simoracle import brute_force_value
from solveoracle import (
    Belief,
    InconsistentObservation,
    belief_update,
    flag_blocks,
    guided_policy,
    lump,
    lump_blocks,
    policy_value,
    qmdp_bounds,
    quotient,
    unlumped_solve,
    unpruned_solve,
)
from test_build_pins import _cases as pinned_cases
from test_simulate import assert_graph_rows, episode_totals
from test_whatif import scaled
from toys import and_chain, single_step

CHAIN = ["T1078", "T1059", "T1005", "T1566", "T1659", "T1078"]


def _action(idx, **kwargs):
    defaults = dict(
        id=f"a{idx}", target="n0",
        p_success=0.5, p_detect=0.0, reward_success=1.0, penalty_failure=0.0,
        cost=0.0, step=idx + 1,
    )
    defaults.update(kwargs)
    return AttackerAction(**defaults)


def _two_state_identity(z0=0.8):
    """Identity transitions; observation o0 has probability z0 in state 0."""
    states = (NetworkState(), NetworkState(flags=("s1",)))
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
        states = (NetworkState(), NetworkState(flags=("s1",)))
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
            NetworkState(),
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
        state = (NetworkState(),)
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
        states = (NetworkState(), NetworkState(flags=("w",)))
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
        assert result.policy.nodes[-1].action == 0

    def test_all_negative_options_mean_stop(self):
        pomdp, _ = single_step(p_success=0.1, reward=1.0, penalty=-5.0, cost=2.0)
        result = value_iteration(pomdp)
        assert result.value == 0.0
        assert result.policy.nodes[-1].action is None

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
        assert result.policy.nodes[-1].action == 0

    def test_belief_cap_raises(self, scenario):
        pomdp = build_pomdp(scenario.flows[0], scenario.network, scenario.ti)
        with pytest.raises(
            CapacityError, match=r"above its cap of 10 beliefs \(flow credential_chain\)$"
        ):
            value_iteration(pomdp, belief_cap=10)


@pytest.mark.parametrize("flow_id", ["credential_chain", "dns_injection"])
def test_build_and_solve_leave_no_reference_cycles(flow_id):
    """Nothing the builds, the assumed series or a solve allocates waits for
    the cyclic collector, also when the solve raises: a stranded belief
    memo would outlive it."""
    # a fresh network, so the builds list its paths too
    scenario = load_scenario()
    flow = next(f for f in scenario.flows if f.id == flow_id)
    # the other flow's walk, as a run walks it beside this one, built on
    # a network of its own
    second = load_scenario()
    other = next(f for f in second.flows if f.id != flow_id)
    other_walk = (
        build_pomdp(other, second.network, second.ti),
        value_iteration(build_pomdp(other, second.network, second.ti, inventory=False)).policy,
    )
    gc.collect()
    gc.disable()
    try:
        models = [
            build_pomdp(flow, scenario.network, scenario.ti, inventory=inventory)
            for inventory in (False, True)
        ]
        assumed_p_n(flow, scenario.network, scenario.ti)
        found = [gc.collect()]
        policies = []
        for pomdp in models:
            policies.append(value_iteration(pomdp).policy)
            found.append(gc.collect())
        with pytest.raises(CapacityError):
            value_iteration(models[0], belief_cap=3)
        found.append(gc.collect())
        # the flow's inventory model walks its flag model's graph
        estimate_expected_rewards([(models[1], policies[0]), other_walk], BLOCK + 1, 7)
        found.append(gc.collect())
    finally:
        gc.enable()
    assert found == [0, 0, 0, 0, 0]


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
        assert policy.nodes[-1].support == pomdp.b0_support()
        referenced = set()
        for i, node in enumerate(policy.nodes):
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


def _with_twin(pomdp, s):
    """`pomdp` plus a bisimilar twin of state `s`: the twin copies the rows
    of `s`, and every move into `s`, and b0's mass on it, is split evenly
    between the two."""
    twin = len(pomdp.states)
    actions = range(len(pomdp.actions))

    def split(row):
        out = []
        for s2, p in row:
            out.extend([(s, p * 0.5), (twin, p * 0.5)] if s2 == s else [(s2, p)])
        return tuple(sorted(out))

    transitions = {key: split(row) for key, row in pomdp.transitions.items()}
    rewards = {}
    for (s1, a, s2), r in pomdp.branch_rewards.items():
        for src in (s1, twin) if s1 == s else (s1,):
            for dst in (s2, twin) if s2 == s else (s2,):
                rewards[(src, a, dst)] = r
    belief = list(pomdp.initial_belief) + [0.0]
    belief[s] = belief[twin] = pomdp.initial_belief[s] * 0.5
    return Pomdp(
        states=pomdp.states + (NetworkState(flags=("twin",)),),
        actions=pomdp.actions,
        observations=pomdp.observations,
        transitions=transitions | {(twin, a): transitions[(s, a)] for a in actions},
        observation_probs=pomdp.observation_probs
        | {(twin, a): pomdp.observation_probs[(s, a)] for a in actions},
        branch_rewards=rewards,
        initial_belief=tuple(belief),
        horizon=pomdp.horizon,
        applicable=pomdp.applicable | {twin: pomdp.applicable[s]},
        milestones=pomdp.milestones,
    )


def _graph(policy):
    return [(n.action, support_key(n.support), n.children) for n in policy.nodes]


def _models(inputs, flow=None, **kwargs):
    """The model of `flow` (by default the first) that tracks inventory,
    and its flag model."""
    flow = flow or inputs.flows[0]
    return (
        build_pomdp(flow, inputs.network, inputs.ti, **kwargs),
        build_pomdp(flow, inputs.network, inputs.ti, inventory=False, **kwargs),
    )


def _guided_graph(full, flags):
    """The flag model's choices compiled over the model that tracks
    inventory."""
    _, chosen, _ = expectimax(flags, 500_000)
    return guided_policy(full, chosen.get, full.horizon, flags)


class TestLumpedSolve:
    """The flag model's solve, with its choices compiled over the model
    that tracks inventory, against the unpruned search on that model's own
    states."""

    def _assert_same_as_unlumped(self, full, flags):
        result = value_iteration(flags)
        value, policy, _ = unlumped_solve(full)
        assert result.value == value
        assert _graph(_guided_graph(full, flags)) == _graph(policy)
        assert milestone_probabilities(flags, result.policy) == milestone_probabilities(
            full, policy
        )
        return result

    def test_fixture_flows_match_unlumped_solve(self, scenario):
        counts = {}
        for flow in scenario.flows:
            full, flags = _models(scenario, flow)
            self._assert_same_as_unlumped(full, flags)
            counts[flow.id] = (len(full.states), len(flags.states), unpruned_solve(flags)[2])
        # unlumped: 22,139 and 5,421 beliefs
        assert counts == {
            "credential_chain": (35, 4, 608),
            "dns_injection": (313, 75, 385),
        }

    def test_random_scenarios_match_unlumped_solve(self):
        rng = random.Random(3131)
        for _ in range(100):
            self._assert_same_as_unlumped(*_models(random_scenario(rng)))

    def test_random_models_match_unlumped_solve(self):
        rng = random.Random(5151)
        for _ in range(100):
            pomdp = random_pomdp(rng)
            self._assert_same_as_unlumped(pomdp, pomdp)

    def test_random_models_with_a_twin_state_match_unlumped_solve(self):
        rng = random.Random(6161)
        for _ in range(100):
            pomdp = random_pomdp(rng)
            twinned = _with_twin(pomdp, rng.randrange(len(pomdp.states)))
            result = self._assert_same_as_unlumped(twinned, twinned)
            # the solver searches the twin as it is; only `lump` merges it
            assert len(lump(twinned).states) < len(twinned.states)
            value, policy, _ = unpruned_solve(twinned)
            assert (value, _graph(policy)) == (result.value, _graph(result.policy))

    def test_five_step_chain_solves_under_cap(self):
        # unlumped, this chain raises CapacityError at the default cap
        full, flags = _models(chain_scenario(CHAIN[:5]))
        value_iteration(flags)
        assert (len(full.states), len(flags.states), unpruned_solve(flags)[2]) == (105, 6, 12_524)

    def test_copies_merge_only_on_exact_equality(self):
        pomdp = _two_state_identity()
        copied = Pomdp(
            states=pomdp.states + (NetworkState(flags=("s2",)),),
            actions=pomdp.actions,
            observations=pomdp.observations,
            transitions=pomdp.transitions | {(2, 0): ((2, 1.0),)},
            observation_probs=pomdp.observation_probs | {(2, 0): pomdp.observation_probs[(1, 0)]},
            branch_rewards=pomdp.branch_rewards | {(2, 0, 2): 0.0},
            initial_belief=(0.5, 0.25, 0.25),
            horizon=pomdp.horizon,
            applicable={0: (0,), 1: (0,), 2: (0,)},
            milestones=pomdp.milestones,
        )
        lumped = lump(copied)
        assert lumped.states == pomdp.states
        assert lumped.initial_belief == (0.5, 0.5)
        assert lumped.transitions == pomdp.transitions
        # one subnormal apart is enough to keep the copy apart
        lumped = lump(
            dataclasses.replace(copied, branch_rewards=copied.branch_rewards | {(2, 0, 2): 5e-324})
        )
        assert lumped.states == copied.states


@pytest.fixture(scope="module")
def pinned_pairs():
    """The models of `test_build_pins` that build, reduced and naive:
    (naive, the model that tracks inventory, its flag model)."""
    pairs = []
    for _, inputs, flow in pinned_cases():
        for naive in (False, True):
            try:
                pairs.append((naive, *_models(inputs, flow, naive=naive)))
            except CriError:
                pass
    return pairs


def _reduced_corpus(scenario, inventory):
    """The reduced-mode models of `test_build_pins` and the fixture flows
    re-weighted under each fixture countermeasure, built with
    `inventory`."""
    models = []
    for _, inputs, flow in pinned_cases():
        try:
            models.append(build_pomdp(flow, inputs.network, inputs.ti, inventory=inventory))
        except CriError:
            pass
    fixture = [
        build_pomdp(flow, scenario.network, scenario.ti, inventory=inventory)
        for flow in scenario.flows
    ]
    for cm in parse_countermeasures((SCENARIO / "countermeasures.json").read_text()):
        models += [reweight_pomdp(base, scaled(scenario.ti, cm)) for base in fixture]
    return models


class TestFlagPartition:
    """`flag_blocks`, the partition the flag model merges the model that
    tracks inventory by, against `lump`'s coarsest bisimulation, which is
    found without it."""

    def test_reduced_models_partition_as_lump_does(self, scenario):
        models = _reduced_corpus(scenario, inventory=True)
        for pomdp in models:
            assert flag_blocks(pomdp) == lump_blocks(pomdp)
        assert len(models) == 412

    def test_naive_flag_blocks_lie_inside_lump_blocks(self, pinned_pairs):
        finer = beliefs = 0
        for full in (full for naive, full, _ in pinned_pairs if naive):
            blocks, coarsest = flag_blocks(full), lump_blocks(full)
            if blocks == coarsest:
                continue
            # the naive grid holds flag sets no state reaches, which `lump`
            # may merge with others
            finer += 1
            assert len(set(zip(blocks, coarsest))) == len(set(blocks))
            result = value_iteration(quotient(full, blocks))
            lumped = value_iteration(quotient(full, coarsest))
            assert result.value == lumped.value
            assert result.reachable_beliefs == lumped.reachable_beliefs
            beliefs += result.reachable_beliefs
        assert (finer, beliefs) == (99, 962)


def _assert_renumbered(merged, flags):
    """`merged` and `flags` are one model up to the order of their
    states, which are matched by their flags."""
    where = {state.flags: i for i, state in enumerate(flags.states)}
    new = [where[state.flags] for state in merged.states]
    assert sorted(new) == list(range(len(flags.states)))
    assert all(state.compromised == () for state in flags.states)
    assert (merged.actions, merged.observations, merged.horizon, merged.milestones) == (
        flags.actions, flags.observations, flags.horizon, flags.milestones
    )
    assert [flags.initial_belief[new[b]] for b in range(len(new))] == list(merged.initial_belief)
    assert merged.transitions.keys() == {(new[b], a) for b, a in flags.transitions}
    for (b, a), row in merged.transitions.items():
        assert tuple(sorted((new[n], p) for n, p in row)) == flags.transitions[(new[b], a)]
        assert merged.observation_probs[(b, a)] == flags.observation_probs[(new[b], a)]
        assert merged.rewards[(b, a)].hex() == flags.rewards[(new[b], a)].hex()
    assert {b: merged.applicable[b] for b in range(len(new))} == {
        b: flags.applicable[new[b]] for b in range(len(new))
    }


def _hex(probabilities):
    return {step: p.hex() for step, p in probabilities.items()}


class TestFlagModel:
    """`build_pomdp(..., inventory=False)`, the model every run solves,
    against the model that tracks inventory merged by `flag_blocks`; and
    the flag model's choices compiled over the model that tracks
    inventory."""

    def test_pinned_models_are_the_flag_quotient_and_solve_alike(self, pinned_pairs):
        compared = smaller = 0
        for _, full, flags in pinned_pairs:
            merged = quotient(full, flag_blocks(full))
            _assert_renumbered(merged, flags)
            solved, flag_solved = value_iteration(merged), value_iteration(flags)
            assert flag_solved.value.hex() == solved.value.hex()
            assert (flag_solved.reachable_beliefs, flag_solved.pruned) == (
                solved.reachable_beliefs, solved.pruned
            )
            guided = _guided_graph(full, flags)
            assert _hex(milestone_probabilities(flags, flag_solved.policy)) == _hex(
                milestone_probabilities(full, guided)
            )
            assert repr(_normalized_reward(flags, flag_solved.value)) == repr(
                _normalized_reward(full, flag_solved.value)
            )
            assert policy_value(flags, flag_solved.policy) == flag_solved.value
            assert policy_value(full, guided) == flag_solved.value
            compared += 1
            smaller += len(flag_solved.policy.nodes) < len(guided.nodes)
        assert (compared, smaller) == (704, 13)


def _assert_walks_alike(pomdp, policy, oracle, seed):
    """Seeded walks on `pomdp` over `policy` and over `oracle` agree bit
    for bit."""
    walked = estimate_expected_reward(pomdp, policy, 32, seed)
    again = estimate_expected_reward(pomdp, oracle, 32, seed)
    assert (walked.mean_reward.hex(), walked.std_error.hex()) == (
        again.mean_reward.hex(), again.std_error.hex()
    )
    totals = [episode_totals(pomdp, graph, 32, seed) for graph in (policy, oracle)]
    assert totals[0].tobytes() == totals[1].tobytes()
    assert _hex(walked.p_n_estimates) == _hex(again.p_n_estimates)
    assert walked.truncated_episodes == again.truncated_episodes


class TestWalkFlagGraph:
    """A walk follows the flag model's graph on the model that tracks
    inventory. It must walk as the oracle's graph over that model's own
    states, compiled from `lump`'s quotient, does."""

    def test_pinned_models_walk_as_the_lump_guided_graph(self, pinned_pairs):
        compared = smaller = 0
        for i, (_, full, flags) in enumerate(pinned_pairs):
            # the walk reads the flag graph's children by the walked
            # model's observation indices
            assert full.observations == flags.observations
            policy = value_iteration(flags).policy
            _, oracle, _ = unpruned_solve(full)
            # no row is built that the oracle's graph does not list
            assert_graph_rows(full, policy, oracle)
            _assert_walks_alike(full, policy, oracle, seed=i)
            compared += 1
            smaller += len(policy.nodes) < len(oracle.nodes)
        assert (compared, smaller) == (704, 13)

    def test_twinned_models_walk_as_the_lump_guided_graph(self):
        # b0 splits its mass on a state with its twin, so the walk must
        # draw its first state from the walked model's b0, not the graph's
        rng = random.Random(6262)
        for i in range(100):
            pomdp = random_pomdp(rng)
            twinned = _with_twin(pomdp, rng.randrange(len(pomdp.states)))
            policy = value_iteration(lump(twinned)).policy
            _, oracle, _ = unpruned_solve(twinned)
            _assert_walks_alike(twinned, policy, oracle, seed=i)


class TestSolveValue:
    """`value_iteration` reads V* off the expectimax; the graph it
    compiles over the model's own states must earn that value."""

    def test_policy_graph_earns_v_star_on_pinned_models(self, scenario):
        models = _reduced_corpus(scenario, inventory=False)
        for pomdp in models:
            result = value_iteration(pomdp)
            assert policy_value(pomdp, result.policy) == result.value
        assert len(models) == 412


def _scaled(pomdp, factor):
    """`pomdp` with every branch reward multiplied by `factor`."""
    return dataclasses.replace(
        pomdp, branch_rewards={k: r * factor for k, r in pomdp.branch_rewards.items()}
    )


def _folded_rewards(pomdp):
    """R(s, a) as hex strings, folded left to right over each transition
    row from the branch rewards, so that -0.0 and every last bit count."""
    folded = {}
    for (s, a), row in pomdp.transitions.items():
        total = 0.0
        for s2, p in row:
            total += p * pomdp.branch_rewards[(s, a, s2)]
        folded[(s, a)] = total.hex()
    return folded


class TestModelRewards:
    """`Pomdp.rewards` is R(s, a) summed from the model's own branch
    rewards, and the quotient's blocks carry their representative's."""

    def _assert_rewards(self, pomdp):
        assert {k: r.hex() for k, r in pomdp.rewards.items()} == _folded_rewards(pomdp)
        lumped = lump(pomdp)
        for (b, a), r in lumped.rewards.items():
            rep = pomdp.states.index(lumped.states[b])
            assert r == pomdp.rewards[(rep, a)]
        # read above, so a stale cache would show here
        doubled = _scaled(pomdp, 2.0)
        assert doubled.rewards == {k: 2.0 * r for k, r in pomdp.rewards.items()}

    def test_fixture_flows(self, scenario):
        for flow in scenario.flows:
            self._assert_rewards(build_pomdp(flow, scenario.network, scenario.ti))

    def test_random_scenarios(self):
        rng = random.Random(4141)
        for _ in range(100):
            inputs = random_scenario(rng)
            self._assert_rewards(build_pomdp(inputs.flows[0], inputs.network, inputs.ti))


def _forced_wasted_move():
    """Horizon 2. At s0, `a1` earns 1 now and 1 next step; `a0` earns 0 and
    moves to s1 or s2 unseen. That belief offers `a0` through s2, and in s1,
    where `a0` is not applicable, the wasted move pays 10, so `a0` is worth
    5. A bound that maxes only over applicable actions values s1 at 0 and
    would skip `a0`."""
    states = (NetworkState(), NetworkState(flags=("x",)), NetworkState(flags=("y",)))
    transitions = {
        (0, 0): ((1, 0.5), (2, 0.5)), (0, 1): ((0, 1.0),),
        (1, 0): ((1, 1.0),), (1, 1): ((1, 1.0),),
        (2, 0): ((2, 1.0),), (2, 1): ((2, 1.0),),
    }
    rewards = {(s, a, s2): 0.0 for (s, a), row in transitions.items() for s2, _ in row}
    rewards[(0, 1, 0)] = 1.0
    rewards[(1, 0, 1)] = 10.0
    return Pomdp(
        states=states,
        actions=(_action(0), _action(1)),
        observations=("o1",),
        transitions=transitions,
        observation_probs={key: ((0, 1.0),) for key in transitions},
        branch_rewards=rewards,
        initial_belief=(1.0, 0.0, 0.0),
        horizon=2,
        applicable={0: (0, 1), 1: (), 2: (0,)},
        milestones={1: "x"},
    )


def _tied_gamble(sure):
    """Horizon 2, fully observed. At s0, `a0` gambles (s1 with 0.75, s2
    with 0.25) on follow-ups worth 3.7 and 0.6, and `a1` pays `sure` into
    the dead end s3."""
    states = tuple(NetworkState(flags=(f"s{i}",)) for i in range(4))
    transitions = {(s, a): ((s, 1.0),) for s in range(1, 4) for a in (0, 1)}
    transitions[(0, 0)] = ((1, 0.75), (2, 0.25))
    transitions[(0, 1)] = ((3, 1.0),)
    rewards = {(s, a, s2): 0.0 for (s, a), row in transitions.items() for s2, _ in row}
    rewards |= {(0, 0, 1): 4.2, (0, 0, 2): 1.2, (0, 1, 3): sure, (1, 0, 1): 3.7, (2, 0, 2): 0.6}
    observations = {key: ((0, 1.0),) for key in transitions}
    observations[(2, 0)] = ((1, 1.0),)
    return Pomdp(
        states=states,
        actions=(_action(0), _action(1)),
        observations=("o1", "o2"),
        transitions=transitions,
        observation_probs=observations,
        branch_rewards=rewards,
        initial_belief=(1.0, 0.0, 0.0, 0.0),
        horizon=2,
        applicable={0: (0, 1), 1: (0, 1), 2: (0, 1), 3: ()},
        milestones={1: "s1"},
    )


class TestPrunedSolve:
    """`value_iteration` skips actions by their fast informed bound and by
    a one-step lookahead over it; the unpruned search in `solveoracle` must
    pick the same policy, to the bit."""

    def _assert_same_as_unpruned(self, pomdp):
        result = value_iteration(pomdp)
        value, policy, beliefs = unpruned_solve(pomdp)
        assert result.value == value
        assert _graph(result.policy) == _graph(policy)
        assert result.reachable_beliefs <= beliefs
        return result

    def test_fixture_flows_match_unpruned_solve(self, scenario, scenario_isolated):
        counts = {}
        for inputs in (scenario, scenario_isolated):
            for flow in inputs.flows:
                pomdp = build_pomdp(flow, inputs.network, inputs.ti, inventory=False)
                result = self._assert_same_as_unpruned(pomdp)
                counts[flow.id, inputs is scenario] = result.reachable_beliefs
        # unpruned: 608, 385 and 351 beliefs
        assert counts == {
            ("credential_chain", True): 25,
            ("dns_injection", True): 87,
            ("credential_chain", False): 21,
        }

    def test_random_scenarios_match_unpruned_solve(self):
        rng = random.Random(7373)
        for _ in range(200):
            inputs = random_scenario(rng)
            self._assert_same_as_unpruned(
                build_pomdp(inputs.flows[0], inputs.network, inputs.ti, inventory=False)
            )

    def test_tree_scenarios_match_unpruned_solve(self):
        rng = random.Random(7474)
        for _ in range(100):
            inputs = random_scenario(rng, tree=True)
            self._assert_same_as_unpruned(
                build_pomdp(inputs.flows[0], inputs.network, inputs.ti, inventory=False)
            )

    @pytest.mark.parametrize("factor", [1.0, 1e9, 1e-9])
    def test_random_models_match_unpruned_solve(self, factor):
        rng = random.Random(8181)
        pruned = 0
        for _ in range(200):
            pruned += self._assert_same_as_unpruned(_scaled(random_pomdp(rng), factor)).pruned
        assert pruned > 0

    def test_pruning_is_scale_free(self):
        # a power-of-two scale rounds every sum alike, so a bound whose
        # slack scales with the model skips exactly the same actions
        rng = random.Random(9191)
        for _ in range(200):
            pomdp = random_pomdp(rng)
            base = value_iteration(pomdp)
            for factor in (2.0**30, 2.0**-30):
                result = value_iteration(_scaled(pomdp, factor))
                assert result.value == base.value * factor
                assert result.pruned == base.pruned
                assert _graph(result.policy) == _graph(base.policy)

    @pytest.mark.parametrize("steps", [3, 4, 5])
    def test_chains_match_unpruned_solve(self, steps):
        inputs = chain_scenario(CHAIN[:steps])
        self._assert_same_as_unpruned(
            build_pomdp(inputs.flows[0], inputs.network, inputs.ti, inventory=False)
        )

    def test_bound_covers_wasted_moves(self):
        pomdp = _forced_wasted_move()
        result = self._assert_same_as_unpruned(pomdp)
        assert result.value == 5.0
        assert result.policy.nodes[-1].action == 0
        assert result.pruned == 1

    def test_bound_rounding_keeps_an_exact_tie(self):
        # `a1` is worth exactly what the search sums `a0` to, and ties go to
        # `a0`; the bound of `a0` is summed in another order and lands one
        # ulp lower, so a bound without slack would skip `a0`
        gamble, _, _ = unpruned_solve(_tied_gamble(0.0))
        pomdp = _tied_gamble(gamble)
        assert informed_bounds(pomdp)[2][0][0] < gamble
        result = self._assert_same_as_unpruned(pomdp)
        assert result.policy.nodes[-1].action == 0
        assert result.value == gamble

    def test_chain_belief_counts(self):
        counts = {}
        for steps in (5, 6):
            inputs = chain_scenario(CHAIN[:steps])
            flags = build_pomdp(inputs.flows[0], inputs.network, inputs.ti, inventory=False)
            result = value_iteration(flags)
            counts[steps] = (
                len(flags.states), result.reachable_beliefs, len(result.policy.nodes),
            )
        # unpruned: 12,524 and 52,918 beliefs; a walk follows the same graph
        assert counts == {5: (6, 60, 50), 6: (7, 82, 66)}

    def test_deep_ladder(self):
        # the QMDP bound without the lookahead expanded 3,392, 13,301 and
        # 53,005 beliefs to the same graphs and values
        ladder = [*CHAIN, "T1059", "T1005"]
        found = {}
        for steps in (6, 7, 8):
            inputs = chain_scenario(ladder[:steps])
            flags = build_pomdp(inputs.flows[0], inputs.network, inputs.ti, inventory=False)
            result = value_iteration(flags)
            found[steps] = (result.reachable_beliefs, len(result.policy.nodes), repr(result.value))
        assert found == {
            6: (82, 66, "18.195722128876284"),
            7: (102, 84, "20.099370227269397"),
            8: (131, 108, "22.796987234589032"),
        }

    def test_long_horizons(self, scenario):
        # the QMDP bound without the lookahead expanded 19,524 and 265,469
        # beliefs to the same values
        flow = scenario.flows[0]
        found = {}
        for horizon in (10, 12):
            flags = build_pomdp(flow, scenario.network, scenario.ti, horizon=horizon, inventory=False)
            result = value_iteration(flags)
            found[horizon] = (result.reachable_beliefs, repr(result.value))
        assert flow.id == "credential_chain"
        assert found == {10: (55, "14.859363548734926"), 12: (67, "14.9379502623809")}


def _revealed(pomdp):
    """`pomdp` with one observation per state, which the state emits with
    certainty on arrival under every action."""
    return dataclasses.replace(
        pomdp,
        observations=tuple(f"at{s}" for s in range(len(pomdp.states))),
        observation_probs={(s, a): ((s, 1.0),) for s, a in pomdp.observation_probs},
    )


class TestInformedBound:
    """`informed_bounds` never exceeds the QMDP table of `solveoracle`, and
    equals it to the bit where every observation reveals the state."""

    def _models(self, *scenarios):
        for inputs in scenarios:
            for flow in inputs.flows:
                yield from _models(inputs, flow)
        rng = random.Random(8181)
        for _ in range(200):
            yield random_pomdp(rng)

    def test_never_above_qmdp(self, scenario, scenario_isolated):
        below = 0
        for pomdp in self._models(scenario, scenario_isolated):
            informed, qmdp = informed_bounds(pomdp), qmdp_bounds(pomdp)
            # summed in another order, two bounds equal in exact arithmetic
            # can differ in the last bits, far inside the solver's 1e-9 slack
            slack = 1e-12 * max(abs(q) for depth in qmdp for row in depth for q in row)
            for depth, depth_qmdp in zip(informed, qmdp):
                for row, row_qmdp in zip(depth, depth_qmdp):
                    assert all(q <= q_qmdp + slack for q, q_qmdp in zip(row, row_qmdp))
                    below += sum(q < q_qmdp - slack for q, q_qmdp in zip(row, row_qmdp))
        assert below > 0

    def test_equals_qmdp_when_observations_reveal_the_state(self, scenario, scenario_isolated):
        for pomdp in map(_revealed, self._models(scenario, scenario_isolated)):
            informed = [[[q.hex() for q in row] for row in depth] for depth in informed_bounds(pomdp)]
            qmdp = [[[q.hex() for q in row] for row in depth] for depth in qmdp_bounds(pomdp)]
            assert informed == qmdp

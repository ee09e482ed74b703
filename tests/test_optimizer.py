import dataclasses
import hashlib
import itertools
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deskchain.errors import LedgerError
from deskchain.optimizer import (
    DeviceGroupMdp, QTable, ReturnParams, TreeFactorGraph, bp_marginals,
    discounted_return, greedy_policy, train, value_iteration,
)
from deskchain.optimizer.files import parse_factor_graph, parse_mdp
from deskchain.optimizer.mdp import (
    MAX_JOINT_PAIRS, MAX_JOINT_STATES, MAX_POISSON_RATE, MAX_TOTAL_CAPACITY, POISSON_PART, three_state_fixture,
)
from deskchain.optimizer.td import best_action

from td_reference import reference_train
from vi_reference import reference_value_iteration


# --- discounted return ---


def test_discounted_return_approaches_analytic_integral():
    # constant reward 1 at beta=0.5: integral of exp(-0.5 t) over [0, inf) = 2
    params = ReturnParams(beta=0.5, dt=0.001, horizon=40_000)
    value = discounted_return([1.0] * params.horizon, params)
    assert abs(value - 2.0) / 2.0 < 0.01


def test_discounted_return_zero_rewards():
    params = ReturnParams(beta=0.5, dt=0.01, horizon=100)
    assert discounted_return([0.0] * 100, params) == 0.0


def test_discounted_return_beta_scaling():
    # doubling beta halves the limit value on constant rewards
    p1 = ReturnParams(beta=0.5, dt=0.001, horizon=40_000)
    p2 = ReturnParams(beta=1.0, dt=0.001, horizon=40_000)
    v1 = discounted_return([1.0] * p1.horizon, p1)
    v2 = discounted_return([1.0] * p2.horizon, p2)
    assert abs(v1 - 2 * v2) < 0.02


def test_discounted_return_riemann_error_bound():
    # first-order bound: |approx - analytic| <= dt * beta * R for constant rewards
    beta = 0.7
    for dt in (0.01, 0.005):
        horizon = int(30 / dt)
        value = discounted_return([1.0] * horizon, ReturnParams(beta, dt, horizon))
        analytic = (1 - math.exp(-beta * horizon * dt)) / beta
        assert abs(value - analytic) <= dt * beta * analytic + dt


# --- update rules ---


def test_sarsa_plug_in():
    q = QTable(alpha=0.5, gamma_d=0.9)
    sarsa_update(q, (0,), (0,), 1.0, (1,), (0,))
    assert q.get((0,), (0,)) == 0.5


def test_sarsa_fixed_point():
    q = QTable(alpha=0.5, gamma_d=1.0)
    q.set((0,), (0,), 2.0)
    q.set((1,), (0,), 2.0)
    sarsa_update(q, (0,), (0,), 0.0, (1,), (0,))
    assert q.get((0,), (0,)) == 2.0


def test_sarsa_alpha_zero_no_change():
    q = QTable(alpha=0.0, gamma_d=0.9)
    sarsa_update(q, (0,), (0,), 5.0, (1,), (0,))
    assert q.get((0,), (0,)) == 0.0


def test_q_update_uses_max():
    q = QTable(alpha=1.0, gamma_d=0.5)
    actions = [(0,), (1,)]
    q.set((1,), (0,), 0.0)
    q.set((1,), (1,), 2.0)
    q_update(q, (0,), (0,), 1.0, (1,), actions)
    assert q.get((0,), (0,)) == 1.0 + 0.5 * 2.0


def test_q_update_tie_invariance():
    actions = [(0,), (1,)]
    q = QTable(alpha=1.0, gamma_d=0.5)
    q.set((1,), (0,), 2.0)
    q.set((1,), (1,), 2.0)
    q_update(q, (0,), (0,), 0.0, (1,), actions)
    assert q.get((0,), (0,)) == 1.0


def test_q_update_alpha_zero_no_change():
    q = QTable(alpha=0.0, gamma_d=0.9)
    q_update(q, (0,), (0,), 5.0, (1,), [(0,)])
    assert q.get((0,), (0,)) == 0.0


# --- the device-group MDP ---


def test_mdp_row_sum_validation():
    with pytest.raises(LedgerError):
        DeviceGroupMdp(
            1, 2, ("a",), (((0.5, 0.4), (0.0, 1.0)),), ((1, 1),)
        )


_RUN_REPAIR = (
    ((0.7, 0.3, 0.0), (0.0, 0.6, 0.4), (0.0, 0.0, 1.0)),
    ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
)


@pytest.mark.parametrize("capacity", [
    ((1,), (0, 0, 0)),          # one entry for three states
    ((1, 1, 0, 1), (0, 0, 0)),  # four entries
    ((-3, 1, 0), (0, 0, 0)),    # negative capacity
    ((1, 1.5, 0), (0, 0, 0)),   # not an int
])
def test_mdp_rejects_bad_capacity_rows(capacity):
    with pytest.raises(LedgerError) as err:
        DeviceGroupMdp(1, 3, ("run", "repair"), _RUN_REPAIR, capacity)
    assert err.value.code == "BadFormat"


@pytest.mark.parametrize("kind", ["constant", "poisson"])
@pytest.mark.parametrize("rate", [-1.0, math.inf, math.nan])
def test_mdp_rejects_bad_arrival_rates(kind, rate):
    with pytest.raises(LedgerError) as err:
        dataclasses.replace(three_state_fixture(), arrival_kind=kind, arrival_rate=rate)
    assert err.value.code == "BadFormat"


def test_parse_mdp_surfaces_constructor_errors():
    for old, new in (
        ("capacity run 1 1 0", "capacity run 1"),
        ("capacity run 1 1 0", "capacity run -3 1 0"),
        ("arrivals constant 1", "arrivals poisson -1"),
    ):
        text = MDP_TEXT.replace(old, new)
        assert text != MDP_TEXT
        with pytest.raises(LedgerError) as err:
            parse_mdp(text)
        assert err.value.code == "BadFormat"


def test_mdp_poisson_expected_reward_matches_truncated_mean():
    mdp = three_state_fixture()
    poisson = dataclasses.replace(mdp, arrival_kind="poisson", arrival_rate=2.0)
    # brute truncated mean for cap=1: P(X>=1) = 1 - exp(-2)
    got = poisson.expected_reward((0,), (0,))
    assert abs(got - (1 - math.exp(-2.0))) < 1e-12


def _one_state(kind, rate, cap):
    return DeviceGroupMdp(1, 1, ("only",), (((1.0,),),), ((cap,),), arrival_kind=kind, arrival_rate=rate)


def _knuth_poisson(rng, rate):
    # one product loop, as every Poisson draw was made before rates were split
    limit = math.exp(-rate)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _poisson_mean_served(rate, cap):
    # E[min(X, cap)] for X ~ Poisson(rate): every log-space pmf term from 0
    # to 60 sigma past the rate, summed exactly
    log_rate = math.log(rate)
    return math.fsum(
        min(k, cap) * math.exp(k * log_rate - rate - math.lgamma(k + 1))
        for k in range(int(rate + 60 * math.sqrt(rate)))
    )


@pytest.mark.parametrize("rate", [0.0, 2.5, POISSON_PART])
def test_poisson_draws_up_to_the_part_are_one_knuth_loop(rate):
    mdp = _one_state("poisson", rate, 1)
    a, b = random.Random(5), random.Random(5)
    assert [mdp.sample_arrivals(a) for _ in range(40)] == [_knuth_poisson(b, rate) for _ in range(40)]


@pytest.mark.parametrize("rate", [1000.0, 5000.0])
def test_poisson_arrivals_above_the_underflow_rate(rate):
    # exp(-rate) underflows to 0.0 past rate ~745: one product loop then drew
    # about 745 whatever the rate, and the pmf recurrence gave the capacity
    mdp = _one_state("poisson", rate, 1)
    n = 200
    rng = random.Random(int(rate))
    mean = statistics.fmean(mdp.sample_arrivals(rng) for _ in range(n))
    assert abs(mean - rate) < 4 * math.sqrt(rate / n)
    for cap in (0, 1, int(rate) - 50, int(rate), int(rate) + 50, MAX_TOTAL_CAPACITY):
        got = _one_state("poisson", rate, cap).expected_reward((0,), (0,))
        assert math.isclose(got, _poisson_mean_served(rate, cap), rel_tol=1e-9), cap


def test_expected_reward_stops_once_the_pmf_underflows():
    # below the cap where p underflows, the value is the full loop's bit for
    # bit; past it the loop returns the served mean alone, as the tail left
    # is below any float, while 1 - sum(p) keeps a rounding residue that a
    # 2^53 capacity would multiply into the result
    def full_loop(rate, cap):
        acc, tail, p = 0.0, 1.0, math.exp(-rate)
        for k in range(cap):
            acc += k * p
            tail -= p
            p *= rate / (k + 1)
        return acc + cap * tail

    for rate in (0.0, 2.5, 40.0, POISSON_PART):
        for cap in (0, 3, int(rate) + 1):
            assert _one_state("poisson", rate, cap).expected_reward((0,), (0,)).hex() == full_loop(rate, cap).hex()
        got = _one_state("poisson", rate, MAX_TOTAL_CAPACITY).expected_reward((0,), (0,))
        assert math.isclose(got, rate, rel_tol=1e-12, abs_tol=1e-300)


def test_a_poisson_rate_past_the_bound_is_refused():
    _one_state("poisson", MAX_POISSON_RATE, 1)
    _one_state("constant", 2 * MAX_POISSON_RATE, 1)
    with pytest.raises(LedgerError, match="Poisson rate") as err:
        _one_state("poisson", 2 * MAX_POISSON_RATE, 1)
    assert err.value.code == "BadFormat"


def test_a_total_capacity_past_2_53_is_refused():
    # two devices of 2^52 serve at most 2^53 requests a step: the largest allowed
    text = MDP_TEXT.replace("devices 1", "devices 2").replace("capacity run 1 1 0", f"capacity run 1 {2**52} 0")
    assert parse_mdp(text).capacity[0] == (1, 2**52, 0)
    line_no = 1 + MDP_TEXT.splitlines().index("capacity run 1 1 0")
    for row in (f"1 {2**52 + 1} 0", "1 1 " + "1" + "0" * 400):
        with pytest.raises(LedgerError, match=f"mdp line {line_no}: capacity run") as err:
            parse_mdp(text.replace(f"capacity run 1 {2**52} 0", f"capacity run {row}"))
        assert err.value.code == "BadFormat"
    with pytest.raises(LedgerError, match="capacity only") as err:
        _one_state("constant", 1.0, MAX_TOTAL_CAPACITY + 1)
    assert err.value.code == "BadFormat"


def test_mdp_sampling_deterministic_per_seed():
    mdp = three_state_fixture()
    r1 = random.Random(3)
    r2 = random.Random(3)
    path1 = [mdp.step(r1, (0,), (0,)) for _ in range(50)]
    path2 = [mdp.step(r2, (0,), (0,)) for _ in range(50)]
    assert path1 == path2


# --- training and the VI oracle ---


def test_value_iteration_single_state_geometric():
    mdp = DeviceGroupMdp(
        1, 1, ("only",), (((1.0,),),), ((1,),), arrival_kind="constant", arrival_rate=1.0
    )
    qstar = value_iteration(mdp, gamma_d=0.5)
    # r=1 forever at gamma 0.5: Q* = 1/(1-0.5) = 2
    assert abs(qstar[((0,), (0,))] - 2.0) < 1e-9


def test_value_iteration_deterministic():
    mdp = three_state_fixture()
    a = value_iteration(mdp, gamma_d=0.5)
    b = value_iteration(mdp, gamma_d=0.5)
    assert a == b


def _policy_value(mdp, policy, gamma):
    # exact policy evaluation by solving the linear system
    states = list(mdp.states())
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    P = np.zeros((n, n))
    r = np.zeros(n)
    for s in states:
        a = policy[s]
        r[index[s]] = mdp.expected_reward(s, a)
        for s2 in states:
            P[index[s], index[s2]] = mdp.transition_prob(s, a, s2)
    v = np.linalg.solve(np.eye(n) - gamma * P, r)
    return {s: v[index[s]] for s in states}


def test_vi_policy_beats_all_policies_exhaustively():
    # enumerate all |A|^|S| = 8 deterministic policies and evaluate exactly
    mdp = three_state_fixture()
    gamma = 0.5
    qstar = value_iteration(mdp, gamma_d=gamma)
    vi_policy = greedy_policy(qstar, mdp)
    vi_value = _policy_value(mdp, vi_policy, gamma)
    states = list(mdp.states())
    actions = list(mdp.actions())
    for assignment in itertools.product(actions, repeat=len(states)):
        policy = dict(zip(states, assignment))
        value = _policy_value(mdp, policy, gamma)
        for s in states:
            assert vi_value[s] >= value[s] - 1e-9
    # and the known optimal shape: run fresh/worn, repair broken
    assert [vi_policy[s][0] for s in states] == [0, 0, 1]


def test_train_deterministic_per_seed():
    mdp = three_state_fixture()
    out = []
    for _ in range(2):
        q = QTable(alpha=None, gamma_d=0.5, epsilon=0.3)
        train(mdp, q, episodes=30, seed=11, mode="off_policy", steps_per_episode=40)
        out.append(sorted(q.values.items()))
    assert out[0] == out[1]


def test_train_no_reward_no_learning():
    mdp = DeviceGroupMdp(
        1, 2, ("a",), (((1.0, 0.0), (0.0, 1.0)),), ((0, 0),),
        arrival_kind="constant", arrival_rate=1.0,
    )
    q = QTable(alpha=0.5, gamma_d=0.9, epsilon=0.0)
    train(mdp, q, episodes=10, seed=0, steps_per_episode=20)
    assert all(v == 0.0 for v in q.values.values())


def test_greedy_reaches_goal_after_training():
    # deterministic chain: action 1 repairs straight to the serving state
    mdp = three_state_fixture()
    q = QTable(alpha=None, gamma_d=0.5, epsilon=0.3)
    train(mdp, q, episodes=500, seed=1, mode="off_policy", steps_per_episode=100)
    qstar = value_iteration(mdp, gamma_d=0.5)
    assert greedy_policy(q, mdp) == greedy_policy(qstar, mdp)


def test_sarsa_converges_with_decaying_epsilon():
    mdp = three_state_fixture()
    qstar = value_iteration(mdp, gamma_d=0.5)
    q = QTable(alpha=None, gamma_d=0.5, epsilon=0.3)
    train(
        mdp, q, episodes=500, seed=2, mode="on_policy", steps_per_episode=100,
        epsilon_schedule=lambda ep: 0.3 / (1 + 0.01 * ep),
    )
    assert greedy_policy(q, mdp) == greedy_policy(qstar, mdp)


def test_train_rejects_oversized_mdp():
    mdp = DeviceGroupMdp(
        11, 2, ("a",), (((1.0, 0.0), (0.0, 1.0)),), ((1, 1),),
    )
    with pytest.raises(LedgerError):
        train(mdp, QTable(), episodes=1, seed=0)


def test_tabular_methods_bound_joint_actions_too():
    # 2^9 = 512 joint states pass the state bound, but 4^9 = 262,144 joint
    # actions make 134 million (state, action) pairs
    step = ((1.0, 0.0), (0.0, 1.0))
    mdp = DeviceGroupMdp(9, 2, ("a", "b", "c", "d"), (step,) * 4, ((1, 1),) * 4)
    assert mdp.joint_size() <= MAX_JOINT_STATES
    with pytest.raises(LedgerError, match="too large"):
        train(mdp, QTable(), episodes=1, seed=0)
    with pytest.raises(LedgerError, match="too large"):
        value_iteration(mdp, gamma_d=0.5)
    # 2^5 states x 3^5 joint actions = 7,776 pairs train
    mdp = DeviceGroupMdp(5, 2, ("a", "b", "c"), (step,) * 3, ((1, 1),) * 3)
    assert mdp.joint_size() * mdp.n_actions ** mdp.n_devices <= MAX_JOINT_PAIRS
    assert train(mdp, QTable(), episodes=1, seed=0, steps_per_episode=5).values


# --- belief propagation ---


def _brute_marginals(graph):
    names = sorted(graph.domains)
    out = {v: np.zeros(graph.domains[v]) for v in names}
    for assign in itertools.product(*[range(graph.domains[v]) for v in names]):
        a = dict(zip(names, assign))
        weight = 1.0
        for v in names:
            weight *= graph.unaries[v][a[v]]
        for u, v, pot in graph.edges:
            weight *= pot[a[u]][a[v]]
        for v in names:
            out[v][a[v]] += weight
    return {v: x / x.sum() for v, x in out.items()}


def test_bp_single_variable_normalizes():
    g = TreeFactorGraph({"x": 2}, {"x": np.array([2.0, 6.0])}, ())
    np.testing.assert_allclose(bp_marginals(g)["x"], [0.25, 0.75], atol=1e-12)


def test_bp_uniform_edge_keeps_independence():
    g = TreeFactorGraph(
        {"x": 2, "y": 2},
        {"x": np.array([1.0, 3.0]), "y": np.array([2.0, 2.0])},
        (("x", "y", np.ones((2, 2))),),
    )
    marginals = bp_marginals(g)
    np.testing.assert_allclose(marginals["x"], [0.25, 0.75], atol=1e-12)
    np.testing.assert_allclose(marginals["y"], [0.5, 0.5], atol=1e-12)


def test_bp_five_node_tree_matches_enumeration():
    rng = random.Random(123)
    domains = {f"v{i}": 3 for i in range(5)}
    unaries = {v: np.array([rng.uniform(0.2, 2.0) for _ in range(3)]) for v in domains}
    edges = tuple(
        (f"v{parent}", f"v{child}", np.array([[rng.uniform(0.2, 2.0) for _ in range(3)] for _ in range(3)]))
        for parent, child in ((0, 1), (0, 2), (1, 3), (1, 4))
    )
    g = TreeFactorGraph(domains, unaries, edges)
    got = bp_marginals(g)
    want = _brute_marginals(g)
    for v in domains:
        np.testing.assert_allclose(got[v], want[v], atol=1e-9)


def test_bp_marginals_sum_to_one():
    g = TreeFactorGraph(
        {"x": 3, "y": 2},
        {"x": np.array([1.0, 2.0, 3.0]), "y": np.array([1.0, 5.0])},
        (("x", "y", np.full((3, 2), 0.5)),),
    )
    for marginal in bp_marginals(g).values():
        assert abs(math.fsum(marginal) - 1.0) <= 1e-12


def test_bp_random_trees_match_brute_force():
    # 100 random trees, up to 6 nodes and 3 states
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randrange(1, 7)
        names = [f"v{i}" for i in range(n)]
        domains = {v: rng.randrange(2, 4) for v in names}
        unaries = {
            v: np.array([rng.uniform(0.1, 3.0) for _ in range(domains[v])]) for v in names
        }
        edges = []
        for i in range(1, n):
            j = rng.randrange(i)
            u, v = names[j], names[i]
            edges.append((u, v, np.array(
                [[rng.uniform(0.1, 3.0) for _ in range(domains[v])] for _ in range(domains[u])]
            )))
        g = TreeFactorGraph(domains, unaries, tuple(edges))
        got = bp_marginals(g)
        want = _brute_marginals(g)
        for v in names:
            np.testing.assert_allclose(got[v], want[v], atol=1e-9)


def test_bp_reads_tuples_and_numpy_arrays_alike():
    rng = random.Random(7)
    domains = {"a": 2, "b": 3, "c": 4}
    unaries = {v: tuple(rng.uniform(0.1, 3.0) for _ in range(k)) for v, k in domains.items()}
    edges = tuple(
        (u, v, tuple(tuple(rng.uniform(0.1, 3.0) for _ in range(domains[v])) for _ in range(domains[u])))
        for u, v in (("b", "a"), ("a", "c"))
    )
    as_tuples = bp_marginals(TreeFactorGraph(domains, unaries, edges))
    as_arrays = bp_marginals(TreeFactorGraph(
        domains, {v: np.array(x) for v, x in unaries.items()},
        tuple((u, v, np.array(pot)) for u, v, pot in edges),
    ))
    assert {v: m.tobytes() for v, m in as_tuples.items()} == {v: m.tobytes() for v, m in as_arrays.items()}


def test_bp_rejects_non_trees():
    square = TreeFactorGraph(
        {"a": 2, "b": 2, "c": 2},
        {v: np.ones(2) for v in "abc"},
        (
            ("a", "b", np.ones((2, 2))),
            ("b", "c", np.ones((2, 2))),
            ("c", "a", np.ones((2, 2))),
        ),
    )
    with pytest.raises(LedgerError) as err:
        bp_marginals(square)
    assert err.value.code == "NotATree"
    disconnected = TreeFactorGraph(
        {"a": 2, "b": 2, "c": 2},
        {v: np.ones(2) for v in "abc"},
        (("a", "b", np.ones((2, 2))),),
    )
    with pytest.raises(LedgerError):
        bp_marginals(disconnected)


def test_bp_rejects_a_variable_without_states():
    with pytest.raises(LedgerError) as err:
        parse_factor_graph("var a 0\nvar b 2\nunary a\nunary b 1 1\nedge a b\n")
    assert err.value.code == "BadFormat"


def test_bp_rejects_nonpositive_potentials():
    with pytest.raises(LedgerError):
        TreeFactorGraph({"a": 2}, {"a": np.array([1.0, 0.0])}, ())


# --- text formats ---

MDP_TEXT = """
devices 1
states 3
actions run repair
arrivals constant 1
capacity run 1 1 0
capacity repair 0 0 0
transition run 0 0.7 0.3 0.0
transition run 1 0.0 0.6 0.4
transition run 2 0.0 0.0 1.0
transition repair 0 1 0 0
transition repair 1 1 0 0
transition repair 2 1 0 0
"""


def test_parse_mdp_matches_fixture():
    assert parse_mdp(MDP_TEXT) == three_state_fixture()


def test_parse_mdp_missing_rows():
    with pytest.raises(LedgerError):
        parse_mdp("devices 1\nstates 2\nactions a\ncapacity a 1 1\ntransition a 0 1 0\n")


def test_parse_factor_graph():
    g = parse_factor_graph("var a 2\nvar b 3\nunary a 1 2\nunary b 1 1 1\nedge a b 1 2 3 4 5 6\n")
    assert g.domains == {"a": 2, "b": 3}
    assert g.edges[0][2] == ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
    got = bp_marginals(g)
    want = _brute_marginals(g)
    for v in g.domains:
        np.testing.assert_allclose(got[v], want[v], atol=1e-12)


# --- pinned training output ---
#
# Taken from the dict-based training loop that the dense-index loop
# replaced; any change to RNG call order, argmax ties or float arithmetic
# shows here. Each digest covers 12 runs (4 seeds x plain, scheduled and
# prefilled) of one MDP, mode and step-size rule.


def _pin_mdps():
    fixture = three_state_fixture()
    # run rows 0 and 1 accumulate to 0.9999999999999999, one ulp below 1.0
    short = ((0.6, 0.3, 0.1), (0.7, 0.2, 0.1), (0.0, 0.0, 1.0))
    repair3 = ((1.0, 0.0, 0.0),) * 3
    return {
        "fixture": fixture,
        "fixture_poisson": dataclasses.replace(fixture, arrival_kind="poisson", arrival_rate=1.5),
        "pair_poisson": DeviceGroupMdp(
            2, 3, ("run", "repair"), (short, repair3), ((2, 1, 0), (0, 0, 0)),
            arrival_kind="poisson", arrival_rate=2.5,
        ),
        "triple_poisson": DeviceGroupMdp(
            3, 2, ("run", "repair"),
            (((0.8, 0.2), (0.0, 1.0)), ((1.0, 0.0), (0.9, 0.1))),
            ((1, 0), (0, 0)), arrival_kind="poisson", arrival_rate=1.0,
        ),
        "pair_three_actions": DeviceGroupMdp(
            2, 3, ("run", "slow", "repair"),
            (((0.5, 0.4, 0.1), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0)),
             ((0.9, 0.1, 0.0), (0.0, 0.8, 0.2), (0.0, 0.1, 0.9)),
             repair3),
            ((2, 1, 0), (1, 1, 0), (0, 0, 0)), arrival_kind="constant", arrival_rate=3.0,
        ),
    }


def _pin_runs(mdp, mode, alpha):
    for seed in range(4):
        for variant in ("plain", "schedule", "prefilled"):
            q = QTable(alpha=alpha, gamma_d=0.8, epsilon=0.25)
            schedule = None
            if variant == "schedule":
                schedule = lambda ep: 0.5 / (1 + ep)  # noqa: E731
            elif variant == "prefilled":
                for i, s in enumerate(mdp.states()):
                    q.set(s, next(iter(mdp.actions())), 0.5 * i)
            train(mdp, q, episodes=12, seed=seed, mode=mode, steps_per_episode=30,
                  epsilon_schedule=schedule)
            yield q


def _values_digest(q):
    return hashlib.sha256(repr(sorted((k, v.hex()) for k, v in q.values.items())).encode()).hexdigest()


TRAIN_DIGESTS = {
    "fixture/off_policy/None": "9e646ea44e993c4b86656beebf88f5e429c8d507c51b0dd35ce0820033f9b37b",
    "fixture/off_policy/0.3": "f8aec5875de4b42edbd9c3999473afec997688824014fbea8119fdccaad88c86",
    "fixture/on_policy/None": "e1f99d22335252f83559e60624a8dcebf159ab12dbe34dc91503addd1143497c",
    "fixture/on_policy/0.3": "7ab30d3a7f9ddf1ac52784417b300d7da7cdbe447317d8170654f157250c10d9",
    "fixture_poisson/off_policy/None": "70624881ffd531b57fb28868083cbc059c6129eef44bb70f927891486203ed9c",
    "fixture_poisson/off_policy/0.3": "8b9e6c661e2317c46aad9270e404b5634af838db122c0061dae217894a67fee6",
    "fixture_poisson/on_policy/None": "4e270effa86a8b353b84589c898eab3db7453d3b88c278034cc2ed062598f785",
    "fixture_poisson/on_policy/0.3": "0c24694285e8f6d6fe7c080bfc2bc2ef401f35d3aebb4a8322135428a39fdaff",
    "pair_poisson/off_policy/None": "3366b262c0dae7f6a50a107d4d5d6f25fe3af62ec1798d549db9d61d1788b652",
    "pair_poisson/off_policy/0.3": "f7ff02b890687b6ba829af7cf34ae804d839c0b37616377703784787106b3eab",
    "pair_poisson/on_policy/None": "cbd065003d9f995de4eaae43851393a7b39cfb70a001c0ee931dfae47b52b7ba",
    "pair_poisson/on_policy/0.3": "5f7e2558fe408ea224f35e01970e1964168b2f49791852f9c19315370f624bbe",
    "triple_poisson/off_policy/None": "094a003d2c93ee92307d68c6a1dd68980d5ee917210a191437cfa2958dd84c57",
    "triple_poisson/off_policy/0.3": "8d6ec1abc3eb4c2b84370b1ea1f7d26ae1d33ebef5437bd459a538fa336fa396",
    "triple_poisson/on_policy/None": "c0e491f26410672a2384892fe06be53e18af2cd650416bc0734e32b236aa6e33",
    "triple_poisson/on_policy/0.3": "91c54b1c7e7645bea804053d466f15400eb209073a457ce2abf072e76372e2e5",
    "pair_three_actions/off_policy/None": "840e1c0f59b4c10a66940c860146ea083b99729e499c762e83cb64f5540d1571",
    "pair_three_actions/off_policy/0.3": "9b065b29b5feb6407c3ebd5b439d7d937dc71f7b4e58dd4cdce7dc724d0b615d",
    "pair_three_actions/on_policy/None": "f2e96251ec60b2afa3ac2584878e6b966194ef6bb7eb3155a66f783e576e4372",
    "pair_three_actions/on_policy/0.3": "b6d69bca9aa4a459bf5ff976741a586c3fbd8fb963e52d96069f8ad8780fe51f",
}


def test_train_output_is_pinned():
    got = {}
    for name, mdp in _pin_mdps().items():
        for mode in ("off_policy", "on_policy"):
            for alpha in (None, 0.3):
                digests = [_values_digest(q) for q in _pin_runs(mdp, mode, alpha)]
                got[f"{name}/{mode}/{alpha}"] = hashlib.sha256(" ".join(digests).encode()).hexdigest()
    assert got == TRAIN_DIGESTS


class _FixedRandom:
    """Stands in for random.Random, returning the given draws in order."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def test_step_picks_the_last_state_past_a_short_cumulative_row():
    mdp = _pin_mdps()["pair_poisson"]
    top = math.nextafter(1.0, 0.0)  # the largest draw random() can return
    assert top >= list(itertools.accumulate(mdp.transitions[0][1]))[-1]
    # arrivals: one draw of 0.0 ends Knuth's loop at k=0; then one draw per device
    assert mdp.step(_FixedRandom([0.0, top, 0.65]), (1, 0), (0, 0)) == ((2, 1), 0)
    assert mdp.step(_FixedRandom([0.0, 0.7, 0.0]), (1, 1), (0, 1)) == ((1, 0), 0)


_CLI_MDP = (
    "devices 1\nstates 3\nactions run repair\narrivals constant 1\n"
    "capacity run 1 1 0\ncapacity repair 0 0 0\n"
    "transition run 0 0.7 0.3 0.0\ntransition run 1 0.0 0.6 0.4\n"
    "transition run 2 0.0 0.0 1.0\ntransition repair 0 1 0 0\n"
    "transition repair 1 1 0 0\ntransition repair 2 1 0 0\n"
)

CLI_STDOUT_DIGESTS = {
    "train": "11601751f69d156d683d14880b09acb8c9886db66d136dea3e652609736e8f5d",
    "evaluate": "a0f5c230d0550aefd25366ad7701957a5a67259d5cccec7130606381bde02c11",
}


@pytest.mark.parametrize("name,argv", [
    ("train", ["optimizer", "train", "--seed", "0", "--episodes", "120", "--steps", "60", "--compare-vi"]),
    ("evaluate", ["optimizer", "evaluate", "--seed", "3", "--episodes", "150", "--steps", "60"]),
])
def test_optimizer_cli_stdout_is_pinned(tmp_path, capsys, name, argv):
    from deskchain.cli import main

    path = tmp_path / "m.mdp"
    path.write_text(_CLI_MDP)
    assert main(argv + ["--mdp", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_STDOUT_DIGESTS[name], out


def test_optimizer_train_cli_rejects_a_nan_probability(tmp_path, capsys):
    from deskchain.cli import main

    path = tmp_path / "m.mdp"
    path.write_text(_CLI_MDP.replace("transition run 0 0.7 0.3 0.0", "transition run 0 nan 0.3 0.7"))
    assert main(["optimizer", "train", "--compare-vi", "--mdp", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "BadFormat" in captured.err


@pytest.mark.parametrize("action,flags,named", [
    ("train", ["--gamma", "1.5", "--compare-vi"], "gamma_d 1.5"),
    ("train", ["--gamma", "nan"], "gamma_d nan"),
    ("train", ["--gamma", "1.0"], "gamma_d 1.0"),
    ("train", ["--gamma", "-0.1"], "gamma_d -0.1"),
    ("train", ["--epsilon", "2", "--episodes", "-5"], "epsilon 2.0"),
    ("train", ["--epsilon", "nan"], "epsilon nan"),
    ("train", ["--episodes", "-5"], "episodes -5"),
    ("train", ["--steps", "-1"], "steps -1"),
    ("evaluate", ["--gamma", "1.0"], "gamma_d 1.0"),
])
def test_optimizer_cli_rejects_parameters_outside_their_domain(tmp_path, capsys, action, flags, named):
    from deskchain.cli import main

    path = tmp_path / "m.mdp"
    path.write_text(_CLI_MDP)
    assert main(["optimizer", action, "--mdp", str(path)] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "BadFormat" in captured.err and named in captured.err


@pytest.mark.parametrize("q,kwargs,named", [
    (QTable(alpha=0.0), {}, "alpha 0.0"),
    (QTable(alpha=1.5), {}, "alpha 1.5"),
    (QTable(alpha=math.nan), {}, "alpha nan"),
    (QTable(gamma_d=math.inf), {}, "gamma_d inf"),
    (QTable(epsilon=-0.5), {}, "epsilon -0.5"),
    (QTable(values={((0,), (1,)): math.inf}), {}, "Q value inf"),
    (QTable(values={((0,), (0,)): math.nan}), {}, "Q value nan"),
    (QTable(), {"episodes": -1}, "episodes -1"),
    (QTable(), {"epsilon_schedule": lambda ep: 1.5}, "epsilon 1.5"),
])
def test_train_rejects_parameters_outside_their_domain(q, kwargs, named):
    args = {"episodes": 2, "seed": 0, "steps_per_episode": 3, **kwargs}
    with pytest.raises(LedgerError, match=named) as err:
        train(three_state_fixture(), q, **args)
    assert err.value.code == "BadFormat"


def test_train_takes_the_ends_of_each_range():
    # gamma_d 0, epsilon 0 and 1, alpha 1, zero episodes or steps all train
    mdp = three_state_fixture()
    for q, episodes, steps in (
        (QTable(alpha=1.0, gamma_d=0.0, epsilon=0.0), 3, 5),
        (QTable(alpha=1.0, gamma_d=0.0, epsilon=1.0), 3, 5),
        (QTable(), 0, 5),
        (QTable(), 3, 0),
    ):
        train(mdp, q, episodes=episodes, seed=0, steps_per_episode=steps)
        assert all(math.isfinite(v) for v in q.values.values())


@pytest.mark.parametrize("gamma_d", [1.0, 1.5, -0.5, math.nan, math.inf])
def test_value_iteration_rejects_a_discount_outside_0_to_1(gamma_d):
    # at 1.0 it would run every sweep before NoConvergence; above 1 it
    # would return infinite values as converged
    with pytest.raises(LedgerError, match="gamma_d") as err:
        value_iteration(three_state_fixture(), gamma_d=gamma_d)
    assert err.value.code == "BadFormat"


def _bp_pin_graphs():
    """The CLI test's one-variable graph, then 20 seeded random trees in the
    text format: shuffled names (so the root lands anywhere), edges written
    in either orientation, and ``repr`` floats over four decades."""
    texts = ["var x 2\nunary x 1 3\n"]
    rng = random.Random("bp-pin")
    for _ in range(20):
        names = rng.sample("abcdefgh", rng.randrange(1, 9))
        domains = {v: rng.randrange(2, 5) for v in names}
        draw = lambda k: " ".join(repr(10 ** rng.uniform(-2, 2)) for _ in range(k))
        lines = [f"var {v} {k}" for v, k in domains.items()]
        lines += [f"unary {v} {draw(k)}" for v, k in domains.items()]
        for i in range(1, len(names)):
            u, v = names[rng.randrange(i)], names[i]
            if rng.random() < 0.5:
                u, v = v, u
            lines.append(f"edge {u} {v} {draw(domains[u] * domains[v])}")
        texts.append("\n".join(lines) + "\n")
    return texts


BP_STDOUT_DIGEST = "e50a4956fb025cca4471160908c95051059b58d437d1f06183b203595842f8d0"


def test_optimizer_bp_stdout_is_pinned(tmp_path, capsys):
    from deskchain.cli import main

    out = []
    for k, text in enumerate(_bp_pin_graphs()):
        path = tmp_path / f"g{k}.graph"
        path.write_text(text)
        assert main(["optimizer", "bp", "--graph", str(path)]) == 0
        out.append(capsys.readouterr().out)
    joined = "".join(out)
    assert hashlib.sha256(joined.encode()).hexdigest() == BP_STDOUT_DIGEST, joined


# --- training against the dict-based reference loop ---


def _reference_step(mdp, rng, state, action):
    arrivals = mdp.sample_arrivals(rng)
    r = min(arrivals, sum(mdp.capacity[a][s] for s, a in zip(state, action)))
    nxt = []
    for s, a in zip(state, action):
        u = rng.random()
        acc = 0.0
        pick = mdp.n_states - 1
        for j, p in enumerate(mdp.transitions[a][s]):
            acc += p
            if u < acc:
                pick = j
                break
        nxt.append(pick)
    return tuple(nxt), r


# the single-step update rules on a QTable: SARSA bootstraps on the action
# taken next, Q-learning on the greedy maximum
def max_q(q, s, actions):
    return max(q.get(s, a) for a in actions)


def sarsa_update(q, s, a, r, s2, a2, alpha=None):
    step = q.alpha if alpha is None else alpha
    delta = r + q.gamma_d * q.get(s2, a2) - q.get(s, a)
    q.set(s, a, q.get(s, a) + step * delta)
    return q


def q_update(q, s, a, r, s2, actions, alpha=None):
    step = q.alpha if alpha is None else alpha
    delta = r + q.gamma_d * max_q(q, s2, actions) - q.get(s, a)
    q.set(s, a, q.get(s, a) + step * delta)
    return q


def _reference_train(mdp, q, episodes, seed, mode, steps_per_episode, epsilon_schedule):
    # the training loop as it stood before it moved to index tables
    rng = random.Random(seed)
    actions = list(mdp.actions())
    visits = {}

    def step_size(s, a):
        if q.alpha is not None:
            return q.alpha
        n = visits.get((s, a), 0)
        visits[(s, a)] = n + 1
        return 1.0 / (1.0 + n)

    def pick(s, eps):
        if rng.random() < eps:
            return actions[rng.randrange(len(actions))]
        return best_action(q, s, actions)

    for episode in range(episodes):
        eps = q.epsilon if epsilon_schedule is None else epsilon_schedule(episode)
        s = mdp.initial_state()
        a = pick(s, eps)
        for _ in range(steps_per_episode):
            s2, r = _reference_step(mdp, rng, s, a)
            if mode == "on_policy":
                a2 = pick(s2, eps)
                sarsa_update(q, s, a, r, s2, a2, alpha=step_size(s, a))
                s, a = s2, a2
            else:
                q_update(q, s, a, r, s2, actions, alpha=step_size(s, a))
                s = s2
                a = pick(s, eps)
    return q


@st.composite
def _small_mdps(draw, min_actions=1):
    n_devices = draw(st.integers(1, 3))
    n_states = draw(st.integers(2, 3))
    n_actions = draw(st.integers(min_actions, 3))

    def row():
        if n_states == 3 and draw(st.booleans()):
            return draw(st.sampled_from([(0.7, 0.2, 0.1), (0.6, 0.3, 0.1), (0.0, 0.0, 1.0)]))
        weights = draw(st.lists(st.integers(0, 5), min_size=n_states, max_size=n_states)
                       .filter(lambda w: sum(w) > 0))
        return tuple(w / sum(weights) for w in weights)

    transitions = tuple(tuple(row() for _ in range(n_states)) for _ in range(n_actions))
    capacity = tuple(
        tuple(draw(st.integers(0, 3)) for _ in range(n_states)) for _ in range(n_actions)
    )
    if draw(st.booleans()):
        kind, rate = "poisson", draw(st.floats(0.0, 3.0))
    else:
        kind, rate = "constant", float(draw(st.integers(0, 4)))
    return DeviceGroupMdp(
        n_devices, n_states, tuple(f"a{i}" for i in range(n_actions)),
        transitions, capacity, arrival_kind=kind, arrival_rate=rate,
    )


@settings(max_examples=80, deadline=None)
@given(
    _small_mdps(),
    st.integers(0, 2**32),
    st.sampled_from(["off_policy", "on_policy"]),
    st.sampled_from([None, 0.3]),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.booleans(),
)
def test_train_matches_the_reference_loop(mdp, seed, mode, alpha, epsilon, scheduled, prefilled):
    tables = [QTable(alpha=alpha, gamma_d=0.9, epsilon=epsilon) for _ in range(2)]
    if prefilled:
        for q in tables:
            for i, (s, a) in enumerate(itertools.product(mdp.states(), mdp.actions())):
                if i % 3 == 0:
                    q.set(s, a, 0.25 * i)
    schedule = (lambda ep: epsilon / (1 + ep)) if scheduled else None
    want = _reference_train(mdp, tables[0], 4, seed, mode, 15, schedule)
    got = train(mdp, tables[1], episodes=4, seed=seed, mode=mode, steps_per_episode=15,
                epsilon_schedule=schedule)
    assert [(k, v.hex()) for k, v in got.values.items()] == [(k, v.hex()) for k, v in want.values.items()]


# --- training against the full-row-scan loop ---
#
# td_reference.py keeps the loop that scanned the whole Q row for every
# greedy pick; train keeps each state's first maximum instead. Prefilled
# rows of exact ties test the tie rule, and a prefilled argmax far above
# any return must fall, which forces a rescan of its row.


def _prefill(mdp, q, kind, seed):
    rng = random.Random(seed)
    actions = list(mdp.actions())
    for s in mdp.states():
        high = rng.choice(actions)
        for a in actions:
            if kind == "ties":
                q.set(s, a, rng.choice((0.0, 0.5, 1.0)))
            elif kind == "falling":
                q.set(s, a, 100.0 if a == high else 0.0)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    _small_mdps(min_actions=2),
    st.integers(0, 2**32),
    st.sampled_from(["off_policy", "on_policy"]),
    st.sampled_from([None, 0.3]),
    st.sampled_from([0.0, 0.5, 0.9]),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.sampled_from(["none", "ties", "falling"]),
)
def test_train_matches_the_full_row_scan_loop(mdp, seed, mode, alpha, gamma_d, epsilon, scheduled, prefill):
    tables = [QTable(alpha=alpha, gamma_d=gamma_d, epsilon=epsilon) for _ in range(2)]
    for q in tables:
        _prefill(mdp, q, prefill, seed)
    schedule = (lambda ep: epsilon / (1 + ep)) if scheduled else None
    want = reference_train(mdp, tables[0], 4, seed, mode, 15, schedule)
    got = train(mdp, tables[1], episodes=4, seed=seed, mode=mode, steps_per_episode=15,
                epsilon_schedule=schedule)
    assert [(k, v.hex()) for k, v in got.values.items()] == [(k, v.hex()) for k, v in want.values.items()]


# --- value iteration against the tuple-keyed loop ---
#
# vi_reference.py keeps the loop that built every pair's successors through
# transition_prob and swept tuple-keyed dicts; value_iteration builds them
# from each device's non-zero next states and sweeps JointTable indices.


def _vi_mdps():
    fixture = three_state_fixture()
    tiny = 1e-200  # two devices' product underflows: the reference drops it, value_iteration adds 0.0
    mdps = {f"fixture_rows/{n}": dataclasses.replace(fixture, n_devices=n) for n in (1, 2, 3, 4)}
    mdps.update(_pin_mdps())
    mdps["single_state"] = _one_state("constant", 1.0, 1)
    mdps["underflow"] = DeviceGroupMdp(
        2, 2, ("a", "b"), (((tiny, 1.0), (0.5, 0.5)), ((1.0, 0.0), (tiny, 1.0))),
        ((1, 2), (0, 1)), arrival_kind="poisson", arrival_rate=1.5,
    )
    return mdps


@pytest.mark.parametrize("name", sorted(_vi_mdps()))
def test_value_iteration_matches_the_tuple_keyed_loop(name):
    mdp = _vi_mdps()[name]
    for gamma_d in (0.0, 0.8):
        want = reference_value_iteration(mdp, gamma_d)
        got = value_iteration(mdp, gamma_d)
        assert [(k, v.hex()) for k, v in got.items()] == [(k, v.hex()) for k, v in want.items()]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_small_mdps(), st.sampled_from([0.0, 0.5, 0.9]))
def test_value_iteration_matches_the_tuple_keyed_loop_on_drawn_groups(mdp, gamma_d):
    want = reference_value_iteration(mdp, gamma_d)
    got = value_iteration(mdp, gamma_d)
    assert [(k, v.hex()) for k, v in got.items()] == [(k, v.hex()) for k, v in want.items()]

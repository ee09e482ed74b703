"""Tabular temporal-difference control and its value-iteration oracle.

The two update rules are the classic ones: SARSA bootstraps on the action
actually taken next, Q-learning on the greedy maximum. Training is seeded
and single-threaded, so a (seed, hyperparameters) pair pins the entire
QTable bit for bit.

``train`` runs over the MDP's ``JointTable``: Q values and visit counts
are per-state lists indexed by joint action. It makes each draw inline: a
random action is ``getrandbits`` of the action count's bit length, drawn
again until below the count, as ``Random.randrange`` does, and a next
state is ``sample_next`` in mdp.py, which ``DeviceGroupMdp.step`` calls.
The greedy action is the first maximum of a state's Q row (ties go to the
lowest action tuple, as in ``best_action``). ``train`` keeps it per state
in ``greedy`` and mends it on each write to that row: the written action
takes over when its value passes the kept maximum, or equals it from a
lower index; when the kept action's own value falls, its row is scanned
again. A greedy pick and the Q-learning target read ``greedy`` rather
than scanning the row. That is exact only while no Q value is NaN, which
the parameter checks ensure, as a step serves at most 2^53: a finite
start, gamma_d in [0, 1) and a step size in (0, 1]. ``best_action`` is
the argmax on a ``QTable``, which ``greedy_policy`` reads a policy from.
``value_iteration`` sweeps the same indices.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import mul, sub

from ..errors import LedgerError
from .mdp import POISSON, Action, DeviceGroupMdp, State

ON_POLICY = "on_policy"
OFF_POLICY = "off_policy"

VI_TOL = 1e-12  # value iteration stops once no Q value moves by this much
VI_MAX_ITER = 1_000_000


@dataclass
class QTable:
    values: dict[tuple[State, Action], float] = field(default_factory=dict)
    alpha: float | None = 0.1   # None: per-visit schedule 1/(1+visits)
    gamma_d: float = 0.9
    epsilon: float = 0.1

    def get(self, s: State, a: Action) -> float:
        return self.values.get((s, a), 0.0)

    def set(self, s: State, a: Action, v: float) -> None:
        self.values[(s, a)] = v


def best_action(q: QTable, s: State, actions: list[Action]) -> Action:
    # deterministic argmax: ties go to the lowest action tuple
    best = actions[0]
    best_v = q.get(s, best)
    for a in actions[1:]:
        v = q.get(s, a)
        if v > best_v:
            best, best_v = a, v
    return best


def _check_gamma(gamma_d: float) -> None:
    if not 0.0 <= gamma_d < 1.0:  # false for NaN too
        raise LedgerError("BadFormat", f"gamma_d {gamma_d!r} must be in [0, 1)")


def _check_epsilon(eps: float) -> float:
    if not 0.0 <= eps <= 1.0:
        raise LedgerError("BadFormat", f"epsilon {eps!r} must be in [0, 1]")
    return eps


def _check_training(q: QTable, episodes: int, steps_per_episode: int) -> None:
    """Reject parameters outside train's domain: gamma_d in [0, 1), epsilon
    in [0, 1], alpha None or in (0, 1], episode and step counts >= 0 and
    every starting Q value finite. Then no Q value training writes is NaN,
    unless a return overflows a float."""
    _check_gamma(q.gamma_d)
    _check_epsilon(q.epsilon)
    if q.alpha is not None and not 0.0 < q.alpha <= 1.0:
        raise LedgerError("BadFormat", f"alpha {q.alpha!r} must be None or in (0, 1]")
    if episodes < 0 or steps_per_episode < 0:
        raise LedgerError("BadFormat", f"episodes {episodes} and steps {steps_per_episode} must be >= 0")
    for key, v in q.values.items():
        if not math.isfinite(v):
            raise LedgerError("BadFormat", f"Q value {v!r} at {key} must be finite")


def train(
    mdp: DeviceGroupMdp,
    q: QTable,
    episodes: int,
    seed: int,
    mode: str = OFF_POLICY,
    steps_per_episode: int = 100,
    epsilon_schedule=None,
) -> QTable:
    """Seeded epsilon-greedy rollouts applying the chosen update rule.

    With q.alpha set to None the step size decays per state-action visit
    as 1/(1+visits). epsilon_schedule maps the episode index to an
    exploration rate, defaulting to the constant q.epsilon. Training starts
    from the values already in q and writes back the pairs it updated, in
    the order they were first updated. A parameter outside the ranges
    ``_check_training`` names, or a scheduled epsilon outside [0, 1],
    raises ``LedgerError("BadFormat")``.
    """
    if mode not in (ON_POLICY, OFF_POLICY):
        raise LedgerError("BadFormat", f"unknown mode {mode}")
    _check_training(q, episodes, steps_per_episode)
    table = mdp.table()
    n_actions = len(table.actions)
    values = [[0.0] * n_actions for _ in table.states]
    for (s, a), v in q.values.items():
        si, ai = table.state_index.get(s), table.action_index.get(a)
        if si is not None and ai is not None:
            values[si][ai] = v
    greedy = [row.index(max(row)) for row in values]
    visits = [[0] * n_actions for _ in table.states]
    update_order: list[tuple[int, int]] = []
    capacity, devices = table.capacity, table.devices
    alpha, gamma_d = q.alpha, q.gamma_d
    off_policy = mode == OFF_POLICY
    start = table.state_index[mdp.initial_state()]
    rng = random.Random(seed)
    uniform, getrandbits = rng.random, rng.getrandbits
    bits = n_actions.bit_length()  # randrange(n_actions) is getrandbits(bits), redrawn until below it
    poisson = mdp.arrival_kind == POISSON
    arrivals = 0 if poisson else mdp.sample_arrivals(rng)  # a constant stream draws nothing

    for episode in range(episodes):
        eps = q.epsilon if epsilon_schedule is None else _check_epsilon(epsilon_schedule(episode))
        si = start
        ai = getrandbits(bits) if uniform() < eps else greedy[si]
        while ai >= n_actions:  # only a random pick can land past the last action
            ai = getrandbits(bits)
        for _ in range(steps_per_episode):
            if poisson:
                arrivals = mdp.sample_arrivals(rng)
            cap = capacity[si][ai]
            r = arrivals if arrivals <= cap else cap  # min(arrivals, cap), without the call
            s2 = 0  # sample_next, inline
            for cum, stride in devices[si][ai]:
                s2 += stride * bisect_right(cum, uniform())
            if off_policy:
                target = values[s2][greedy[s2]]
            else:
                a2 = getrandbits(bits) if uniform() < eps else greedy[s2]
                while a2 >= n_actions:
                    a2 = getrandbits(bits)
                target = values[s2][a2]
            n = visits[si][ai]
            visits[si][ai] = n + 1
            if n == 0:
                update_order.append((si, ai))
            step = 1.0 / (1.0 + n) if alpha is None else alpha
            row = values[si]
            old = row[ai]
            v = old + step * (r + gamma_d * target - old)
            row[ai] = v
            # keep greedy[si] the first maximum of the row just written
            g = greedy[si]
            if ai == g:
                if v < old:
                    greedy[si] = row.index(max(row))
            elif v > row[g] or (v == row[g] and ai < g):
                greedy[si] = ai
            if off_policy:
                si = s2
                ai = getrandbits(bits) if uniform() < eps else greedy[si]
                while ai >= n_actions:
                    ai = getrandbits(bits)
            else:
                si, ai = s2, a2
    for si, ai in update_order:
        q.values[(table.states[si], table.actions[ai])] = values[si][ai]
    return q


def value_iteration(mdp: DeviceGroupMdp, gamma_d: float) -> dict[tuple[State, Action], float]:
    """Bellman-optimality fixed point over the enumerated joint MDP; gamma_d
    must be in [0, 1). A pair's successors are the product of its devices'
    non-zero next states, multiplied in ``transition_prob``'s order."""
    _check_gamma(gamma_d)
    table = mdp.table()
    served = {cap: mdp.expected_served(cap) for row in table.capacity for cap in row}
    expected = [[served[cap] for cap in row] for row in table.capacity]
    # a pair's successors follow from its devices' transition rows alone, so
    # pairs with the same rows share one backup: backup_of[si][ai] numbers it
    shared: dict[tuple, int] = {}
    backup_of = [[shared.setdefault(tuple(mdp.transitions[a_d][s_d] for s_d, a_d in zip(s, a)), len(shared))
                  for a in table.actions] for s in table.states]
    successors = []  # per backup: (probabilities, joint indices)
    for rows in shared:
        nxt = [(0, 1.0)]
        for row in rows:
            nxt = [(i * mdp.n_states + t, p * pt) for i, p in nxt for t, pt in enumerate(row) if pt > 0.0]
        successors.append(([p for _, p in nxt], [i for i, _ in nxt]))
    q = [[0.0] * len(table.actions) for _ in table.states]
    for _ in range(VI_MAX_ITER):
        at = [max(row) for row in q].__getitem__
        backup = [sum(map(mul, probs, map(at, idxs))) for probs, idxs in successors]
        new_q = [[r + gamma_d * backup[k] for r, k in zip(*pair)] for pair in zip(expected, backup_of)]
        delta = max(max(map(abs, map(sub, new_row, row))) for new_row, row in zip(new_q, q))
        q = new_q
        if delta < VI_TOL:
            return {(s, a): v for s, row in zip(table.states, q) for a, v in zip(table.actions, row)}
    raise LedgerError("NoConvergence", f"value iteration after {VI_MAX_ITER} sweeps")


def greedy_policy(q, mdp: DeviceGroupMdp) -> dict[State, Action]:
    """``best_action`` in every state of a QTable or a value-iteration dict."""
    if not isinstance(q, QTable):
        q = QTable(values=q)
    actions = list(mdp.actions())
    return {s: best_action(q, s, actions) for s in mdp.states()}

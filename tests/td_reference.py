"""A reference TD training loop: ``optimizer.td.train`` as it stood before it
kept each state's greedy action, for ``test_optimizer.py`` to hold ``train``
against bit for bit.

It runs over the same ``JointTable`` and ``sample_next`` and makes the same
RNG draws in the same order, but finds every greedy action by scanning the
whole Q row: ``row.index(max(row))``, the first maximum, and the Q-learning
target is ``max`` of the next state's row. It checks no parameter.
"""
import random

from deskchain.optimizer.mdp import POISSON, sample_next


def reference_train(mdp, q, episodes, seed, mode, steps_per_episode, epsilon_schedule=None):
    table = mdp.table()
    n_actions = len(table.actions)
    values = [[0.0] * n_actions for _ in table.states]
    for (s, a), v in q.values.items():
        si, ai = table.state_index.get(s), table.action_index.get(a)
        if si is not None and ai is not None:
            values[si][ai] = v
    visits = [[0] * n_actions for _ in table.states]
    update_order = []
    off_policy = mode == "off_policy"
    rng = random.Random(seed)
    poisson = mdp.arrival_kind == POISSON
    arrivals = 0 if poisson else mdp.sample_arrivals(rng)

    def pick(si, eps):
        if rng.random() < eps:
            return rng.randrange(n_actions)
        row = values[si]
        return row.index(max(row))

    for episode in range(episodes):
        eps = q.epsilon if epsilon_schedule is None else epsilon_schedule(episode)
        si = table.state_index[mdp.initial_state()]
        ai = pick(si, eps)
        for _ in range(steps_per_episode):
            if poisson:
                arrivals = mdp.sample_arrivals(rng)
            r = min(arrivals, table.capacity[si][ai])
            s2 = sample_next(rng.random, table.devices[si][ai])
            if off_policy:
                target = max(values[s2])
            else:
                a2 = pick(s2, eps)
                target = values[s2][a2]
            n = visits[si][ai]
            visits[si][ai] = n + 1
            if n == 0:
                update_order.append((si, ai))
            step = 1.0 / (1.0 + n) if q.alpha is None else q.alpha
            row = values[si]
            row[ai] = row[ai] + step * (r + q.gamma_d * target - row[ai])
            if off_policy:
                si = s2
                ai = pick(si, eps)
            else:
                si, ai = s2, a2
    for si, ai in update_order:
        q.values[(table.states[si], table.actions[ai])] = values[si][ai]
    return q

"""A reference value iteration: ``optimizer.td.value_iteration`` as it stood
before it ran over ``JointTable`` indices, for ``test_optimizer.py`` to hold
``value_iteration`` against bit for bit.

It enumerates every (state, action, next state) triple through
``transition_prob`` and sweeps over tuple-keyed dicts, summing each pair's
successors in joint-state order. It checks no parameter.
"""


def reference_value_iteration(mdp, gamma_d, tol=1e-12, max_iter=1_000_000):
    states = list(mdp.states())
    actions = list(mdp.actions())
    expected = {(s, a): mdp.expected_reward(s, a) for s in states for a in actions}
    probs = {
        (s, a): [(s2, mdp.transition_prob(s, a, s2)) for s2 in states if mdp.transition_prob(s, a, s2) > 0.0]
        for s in states
        for a in actions
    }
    q = {(s, a): 0.0 for s in states for a in actions}
    for _ in range(max_iter):
        delta = 0.0
        new_q = {}
        value = {s: max(q[(s, a)] for a in actions) for s in states}
        for s in states:
            for a in actions:
                v = expected[(s, a)] + gamma_d * sum(p * value[s2] for s2, p in probs[(s, a)])
                new_q[(s, a)] = v
                delta = max(delta, abs(v - q[(s, a)]))
        q = new_q
        if delta < tol:
            return q
    raise AssertionError(f"no convergence after {max_iter} sweeps")

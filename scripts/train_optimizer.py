#!/usr/bin/env python3
"""Train Q-learning and SARSA on the three-state device fixture for SEEDS
seeds of EPISODES episodes and compare against the value-iteration oracle."""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from deskchain.optimizer import QTable, greedy_policy, train, value_iteration
from deskchain.optimizer.mdp import three_state_fixture

SEEDS = 10
EPISODES = 500
STEPS = 100
GAMMA = 0.5
EPSILON = 0.3


def main() -> int:
    mdp = three_state_fixture()
    qstar = value_iteration(mdp, gamma_d=GAMMA)
    target = greedy_policy(qstar, mdp)
    print("value-iteration policy:",
          {s[0]: mdp.action_names[a[0]] for s, a in target.items()})
    print("Q*:", {(s[0], a[0]): round(v, 4) for (s, a), v in qstar.items()})

    for mode, schedule in (
        ("off_policy", None),
        ("on_policy", lambda ep: EPSILON / (1 + 0.01 * ep)),
    ):
        matches = 0
        worst = 0.0
        elapsed = 0.0
        for seed in range(SEEDS):
            q = QTable(alpha=None, gamma_d=GAMMA, epsilon=EPSILON)
            started = time.perf_counter()
            train(mdp, q, episodes=EPISODES, seed=seed, mode=mode,
                  steps_per_episode=STEPS, epsilon_schedule=schedule)
            elapsed += time.perf_counter() - started
            if greedy_policy(q, mdp) == target:
                matches += 1
            worst = max(
                worst,
                max(abs(q.get(s, a) - qstar[(s, a)]) for s in mdp.states() for a in mdp.actions()),
            )
        print(f"{mode}: policy match {matches}/{SEEDS}, max|Q-Q*| {worst:.4f}, "
              f"{1000 * elapsed / SEEDS:.1f} ms per training run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

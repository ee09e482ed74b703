#!/usr/bin/env python3
"""Train Q-learning and SARSA on the three-state device fixture across
seeds and compare against the value-iteration oracle."""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from deskchain.optimizer import QTable, greedy_policy, train, value_iteration
from deskchain.optimizer.mdp import three_state_fixture


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--episodes", type=int, default=500)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--gamma", type=float, default=0.5)
    parser.add_argument("--epsilon", type=float, default=0.3)
    args = parser.parse_args()

    mdp = three_state_fixture()
    qstar = value_iteration(mdp, gamma_d=args.gamma)
    target = greedy_policy(qstar, mdp)
    print("value-iteration policy:",
          {s[0]: mdp.action_names[a[0]] for s, a in target.items()})
    print("Q*:", {(s[0], a[0]): round(v, 4) for (s, a), v in qstar.items()})

    for mode, schedule in (
        ("off_policy", None),
        ("on_policy", lambda ep: args.epsilon / (1 + 0.01 * ep)),
    ):
        matches = 0
        worst = 0.0
        elapsed = 0.0
        for seed in range(args.seeds):
            q = QTable(alpha=None, gamma_d=args.gamma, epsilon=args.epsilon)
            started = time.perf_counter()
            train(mdp, q, episodes=args.episodes, seed=seed, mode=mode,
                  steps_per_episode=args.steps, epsilon_schedule=schedule)
            elapsed += time.perf_counter() - started
            if greedy_policy(q, mdp) == target:
                matches += 1
            worst = max(
                worst,
                max(abs(q.get(s, a) - qstar[(s, a)]) for s in mdp.states() for a in mdp.actions()),
            )
        print(f"{mode}: policy match {matches}/{args.seeds}, max|Q-Q*| {worst:.4f}, "
              f"{1000 * elapsed / args.seeds:.1f} ms per training run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

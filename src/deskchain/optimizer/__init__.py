"""Device-service optimization: semi-Markov returns approximated on a fixed
grid, tabular SARSA and Q-learning over a factored device-group MDP, and
exact sum-product inference on tree factor graphs."""

from .mdp import DeviceGroupMdp, ReturnParams, discounted_return
from .td import QTable, greedy_policy, train, value_iteration
from .bp import TreeFactorGraph, bp_marginals

__all__ = [
    "DeviceGroupMdp", "ReturnParams", "discounted_return",
    "QTable", "greedy_policy", "train", "value_iteration",
    "TreeFactorGraph", "bp_marginals",
]

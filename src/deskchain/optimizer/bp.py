"""Exact sum-product belief propagation on tree factor graphs.

Two passes (leaves to a root, then back) over a tree of discrete variables
with finite, strictly positive unary and pairwise potentials yield exact
marginals. A desk-scale variable has a few states, so plain Python floats
carry the arithmetic. The graph keeps the sequences it is given and reads
them only through ``len``, iteration, ``[i][j]`` and ``float``, so nested
tuples serve as well as array types. The node set and message order are
deterministic, and results match joint enumeration to floating-point
accuracy; the brute-force on small trees lives in the test suite as the
independent oracle.
"""
from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from operator import mul

from ..errors import LedgerError


@dataclass(frozen=True)
class TreeFactorGraph:
    domains: dict[str, int]
    unaries: dict[str, Sequence[float]]
    # edges as (u, v, potential) with potential[i][j] for u = i, v = j
    edges: tuple[tuple[str, str, Sequence[Sequence[float]]], ...]

    def __post_init__(self) -> None:
        if not self.domains or min(self.domains.values()) < 1:
            raise LedgerError("BadFormat", "graph needs at least one variable, each with a state")
        for var, size in self.domains.items():
            unary = self.unaries.get(var)
            if unary is None or len(unary) != size:
                raise LedgerError("BadFormat", f"unary for {var!r} must have {size} values")
            if not all(0 < x < math.inf for x in unary):
                raise LedgerError("BadFormat", f"unary for {var!r} must be finite and strictly positive")
        seen = set()
        for u, v, pot in self.edges:
            if u not in self.domains or v not in self.domains:
                raise LedgerError("BadFormat", f"edge ({u}, {v}) references unknown variable")
            key = (min(u, v), max(u, v))
            if u == v or key in seen:
                raise LedgerError("NotATree", f"duplicate or self edge ({u}, {v})")
            seen.add(key)
            if len(pot) != self.domains[u] or any(len(row) != self.domains[v] for row in pot):
                raise LedgerError("BadFormat", f"potential shape for edge ({u}, {v})")
            if not all(0 < x < math.inf for row in pot for x in row):
                raise LedgerError("BadFormat", "potentials must be finite and strictly positive")


def bp_marginals(graph: TreeFactorGraph) -> dict[str, array]:
    """Per-variable marginals, each normalized to sum to one.

    Each is an ``array('d')``: ``tobytes()`` gives its native-order
    doubles, and array libraries read it through the buffer protocol.
    """
    n = len(graph.domains)
    if len(graph.edges) != n - 1:
        raise LedgerError("NotATree", f"{len(graph.edges)} edges for {n} variables")
    # adj[node][other]: one row per state of other, over node's states, so
    # the message node -> other dots node's belief with each row
    adj: dict[str, dict[str, list[tuple[float, ...]]]] = {v: {} for v in graph.domains}
    for u, v, pot in graph.edges:
        rows = [tuple(map(float, row)) for row in pot]
        adj[u][v] = list(zip(*rows))
        adj[v][u] = rows

    # upward order: children before parents; n - 1 edges reach every node
    # from the root only if they form a tree
    root = min(graph.domains)
    parent: dict[str, str | None] = {root: None}
    order: list[str] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for child in sorted(adj[node]):
            if child not in parent:
                parent[child] = node
                stack.append(child)
    if len(order) != n:
        raise LedgerError("NotATree", "graph is disconnected")

    unaries = {v: [float(x) for x in graph.unaries[v]] for v in graph.domains}
    # messages[(src, dst)] over dst's domain
    messages: dict[tuple[str, str], list[float]] = {}

    def product_at(node: str, skip: str | None) -> list[float]:
        belief = unaries[node]
        for other in adj[node]:
            if other != skip:
                belief = list(map(mul, belief, messages[(other, node)]))
        return belief

    def send(node: str, dst: str) -> None:
        belief = product_at(node, skip=dst)
        messages[(node, dst)] = [sum(map(mul, belief, row)) for row in adj[node][dst]]

    for node in reversed(order):  # leaves first
        if parent[node] is not None:
            send(node, parent[node])
    for node in order:  # root first
        for child in adj[node]:
            if parent[child] == node:
                send(node, child)

    marginals = {}
    for var in graph.domains:
        belief = product_at(var, skip=None)
        total = sum(belief)
        marginals[var] = array("d", [b / total for b in belief])
    return marginals

"""Cuckoo-Cycle proof of work, emission schedule, and stake weights.

The PoW relation: derive 2**edge_bits pseudo-random edges of a bipartite
graph from (header_hash, nonce), and exhibit a cycle of exactly cycle_len
edges whose sorted-edge digest clears the difficulty target. Verification
re-derives only the claimed edges, so it runs in O(cycle_len).

Each graph has one keyed blake2b state (key header_hash || nonce), copied
for every endpoint to hash the message (edge index, side byte). The
messages of the last two graph sizes solved are kept, so a solve reuses
them for every nonce, and each side's digests are unpacked as one array.
The solver tries ascending nonces; per graph it walks the edges in index
order over parent links, kept in two flat lists and labelled with the edge
index that made them. An edge (a in U, b in V) joining two roots, the
common case early in a graph, links them at once. Otherwise a's root path
is listed only when a has a parent, and b is walked to its root without a
list. Different roots: the edge links the trees. Same root: b's path is
listed too, and the edge closes a cycle through the two paths up to where
they meet; with exactly cycle_len distinct edges, a digest that clears the
target and a passing verify, that is the solution, and otherwise the edge
is dropped.

The link is not a true reroot. If a's root path is a=x0->x1->...->xk with
k >= 1, x0..x(k-1) lose their parent links, the old root xk is hung under
x(k-1) with x0's old label, and a is hung under b with the new edge. For
k >= 2 this cuts a's old tree apart and leaves labels naming edges that do
not join the nodes they link, so the search misses most cycles and must
verify what it finds. The ~8% per-nonce success rate at edge_bits=12,
cycle_len=8 comes from this rule, and the calibrated nonce budget
(scripts/calibrate_pow.py) and the pinned fixtures depend on it, so a
correct forest needs a new difficulty target. Verification, not the search
strategy, is the normative part.
"""
from __future__ import annotations

import functools
import hashlib
import struct
import sys
from array import array
from dataclasses import dataclass

from .errors import LedgerError


@dataclass(frozen=True)
class PowParams:
    edge_bits: int = 12
    cycle_len: int = 42
    target: bytes = b"\xff" * 32

    def __post_init__(self) -> None:
        if not 4 <= self.edge_bits <= 31:
            raise LedgerError("BadPowParams", f"edge_bits {self.edge_bits} not in 4..31")
        if self.cycle_len < 4 or self.cycle_len % 2 != 0:
            raise LedgerError("BadPowParams", f"cycle_len {self.cycle_len} is not even and at least 4")
        if len(self.target) != 32:
            raise LedgerError("BadPowParams", "target must be 32 bytes")

    @staticmethod
    def from_config(cfg) -> "PowParams":
        return PowParams(cfg.pow_edge_bits, cfg.pow_cycle_len, cfg.pow_target)


@dataclass(frozen=True)
class CuckooSolution:
    nonce: int
    edges: tuple[int, ...]


def derive_edge(header_hash: bytes, nonce: int, edge_index: int, edge_bits: int) -> tuple[int, int]:
    """Endpoints (u, v) of one edge; u lies in partition U, v in V."""
    (u,), (v,) = _endpoints(header_hash, nonce, edge_bits, _messages((edge_index,)))
    return u, v


def _messages(indices) -> tuple[tuple[bytes, ...], ...]:
    """The hashed messages (edge index, side byte) of the given edges, per side."""
    return tuple(tuple([idx.to_bytes(8, "big") + side for idx in indices]) for side in (b"\x00", b"\x01"))


@functools.lru_cache(maxsize=2)  # a whole graph's _messages, per edge count
def _graph_messages(n_edges: int) -> tuple[tuple[bytes, ...], ...]:
    return _messages(range(n_edges))


def _endpoints(header_hash: bytes, nonce: int, edge_bits: int, messages) -> list[list[int]]:
    """[us, vs] for the edges whose _messages are given: the 8-byte blake2b
    of each message under the graph's keyed state, masked to a side."""
    mask = (1 << (edge_bits - 1)) - 1
    copy = hashlib.blake2b(digest_size=8, key=header_hash + nonce.to_bytes(8, "big")).copy
    sides = []
    for side in messages:
        digests = bytearray()
        for m in side:
            h = copy()
            h.update(m)
            digests += h.digest()
        words = array("Q", digests)
        if sys.byteorder == "little":  # the digests are read big-endian
            words.byteswap()
        sides.append([x & mask for x in words])
    return sides


def solution_digest(header_hash: bytes, edges: tuple[int, ...]) -> bytes:
    """sha256 of the header hash, the u32 edge count and each edge as a u64."""
    return hashlib.sha256(struct.pack(f">32sI{len(edges)}Q", header_hash, len(edges), *edges)).digest()


def meets_target(digest: bytes, target: bytes) -> bool:
    return digest <= target


def verify(header_hash: bytes, solution: CuckooSolution, params: PowParams) -> bool:
    if not 0 <= solution.nonce < 1 << 64:  # the header's u64 field
        return False
    edges = solution.edges
    if len(edges) != params.cycle_len:
        return False
    limit = 1 << params.edge_bits
    if any(not 0 <= e < limit for e in edges):
        return False
    if any(edges[i] >= edges[i + 1] for i in range(len(edges) - 1)):
        return False
    # Each node must touch exactly two of the claimed edges and the edges
    # must chain into one closed walk.
    endpoints = list(zip(*_endpoints(header_hash, solution.nonce, params.edge_bits, _messages(edges))))
    incidence: dict[tuple[int, int], list[int]] = {}
    for i, (u, v) in enumerate(endpoints):
        incidence.setdefault((0, u), []).append(i)
        incidence.setdefault((1, v), []).append(i)
    if any(len(hits) != 2 for hits in incidence.values()):
        return False
    used = [False] * len(edges)
    i = 0
    node = (1, endpoints[0][1])  # leave edge 0 via its V endpoint
    used[0] = True
    for _ in range(len(edges) - 1):
        a, b = incidence[node]
        nxt = b if used[a] else a
        if used[nxt]:
            return False
        used[nxt] = True
        u, v = endpoints[nxt]
        node = (1, v) if node == (0, u) else (0, u)
    if node != (0, endpoints[0][0]):  # walk must re-enter edge 0
        return False
    return meets_target(solution_digest(header_hash, edges), params.target)


def solve(
    header_hash: bytes, params: PowParams, nonce_budget: int, stop=None
) -> CuckooSolution | None:
    """Search ascending nonces; returns the first qualifying solution.

    ``stop`` is an optional zero-argument callable polled before every
    nonce so a caller can abandon the search; the function itself is
    side-effect free.
    """
    n_edges = 1 << params.edge_bits
    half = n_edges >> 1
    messages = _graph_messages(n_edges)
    for nonce in range(nonce_budget):
        if stop is not None and stop():
            return None
        us, vs = _endpoints(header_hash, nonce, params.edge_bits, messages)
        # node u of U is u and node v of V is half + v; parent -1 marks a root
        parent = [-1] * n_edges
        via = [0] * n_edges
        for idx, a, b in zip(range(n_edges), us, vs):
            b += half
            x = parent[a]
            if x < 0:
                if parent[b] < 0:  # two roots: link at once
                    parent[a] = b
                    via[a] = idx
                    continue
                pa = None
                root = a
            else:
                pa = [a, x]
                while (x := parent[x]) >= 0:
                    pa.append(x)
                root = pa[-1]
            rb = b
            while (x := parent[rb]) >= 0:
                rb = x
            if rb != root:
                if pa:  # the link rule in the module docstring
                    for x in pa[1:-1]:
                        parent[x] = -1
                    parent[root] = pa[-2]
                    via[root] = via[a]
                parent[a] = b
                via[a] = idx
                continue
            pa = pa or [a]
            pb = [b]
            while (x := parent[pb[-1]]) >= 0:
                pb.append(x)
            ia, ib = len(pa) - 1, len(pb) - 1
            while ia and ib and pa[ia - 1] == pb[ib - 1]:
                ia -= 1
                ib -= 1
            if ia + ib + 1 != params.cycle_len:
                continue  # wrong length; drop the edge, forest unchanged
            cycle = tuple(sorted([idx] + [via[x] for x in pa[:ia]] + [via[x] for x in pb[:ib]]))
            if len(set(cycle)) != params.cycle_len:
                continue
            digest = solution_digest(header_hash, cycle)
            if meets_target(digest, params.target):
                candidate = CuckooSolution(nonce, cycle)
                if verify(header_hash, candidate, params):
                    return candidate
    return None


def coinbase(height: int, cfg) -> int:
    """Block subsidy: cfg.coinbase_initial halving every cfg.coinbase_halving_blocks."""
    if height < 1:
        raise LedgerError("BadHeight", "no coinbase below height 1")
    halvings = (height - 1) // cfg.coinbase_halving_blocks
    return cfg.coinbase_initial >> halvings


def stake_weight(state, address: bytes) -> int:
    """On-chain balance in base units; locked deposits do not count."""
    account = state.accounts.get(address)
    return account.balance if account is not None else 0

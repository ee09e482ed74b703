"""Cuckoo-Cycle proof of work, emission schedule, and stake weights.

The PoW relation: derive 2**edge_bits pseudo-random edges of a bipartite
graph from (header_hash, nonce), and exhibit a cycle of exactly cycle_len
edges whose sorted-edge digest clears the difficulty target. Verification
re-derives only the claimed edges, so it runs in O(cycle_len).

Each graph has one keyed blake2b state (key header_hash || nonce), copied
for every endpoint to hash the message (edge index, side byte). For the
last two graph sizes solved, the messages and the edge indices (a tuple)
are kept, so a solve reuses them for every nonce. Each side's digests are
read as one big-endian integer, ANDed with the side mask in every 8-byte
lane, ORed with the side's first node (0 for U, half = 2**(edge_bits - 1)
for V) in every lane and unpacked as one array, so V's node v is half + v.
The solver tries ascending nonces; per graph it walks the edges in index
order over parent links, kept in two flat lists and labelled with the edge
index that made them. For an edge (a in U, b in V), a and b are each
walked to their roots without a list. Different roots: the edge links the
trees, and when a has a parent a second walk up a's path clears it and
keeps the node just below the root. Same root: both paths are listed, and
the edge closes a cycle through them up to where they meet; with exactly
cycle_len distinct edges, a digest that clears the target and a passing
verify, that is the solution, and otherwise the edge is dropped.

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
    return u, v - (1 << (edge_bits - 1))


def _messages(indices) -> tuple[tuple[bytes, ...], ...]:
    """The hashed messages (edge index, side byte) of the given edges, per side."""
    return tuple(tuple([idx.to_bytes(8, "big") + side for idx in indices]) for side in (b"\x00", b"\x01"))


@functools.lru_cache(maxsize=2)  # per edge count: a whole graph's U and V _messages, and its indices
def _graph_messages(n_edges: int) -> tuple[tuple, ...]:
    return (*_messages(range(n_edges)), tuple(range(n_edges)))


@functools.lru_cache(maxsize=8)  # per lane count, each side's mask and first node
def _lanes(word: int, lanes: int) -> int:  # word in every 8-byte big-endian lane
    return int.from_bytes(word.to_bytes(8, "big") * lanes, "big")


def _endpoints(header_hash: bytes, nonce: int, edge_bits: int, messages) -> list[list[int]]:
    """[us, vs] for the edges whose _messages are messages[0] and [1]: each
    message's 8-byte keyed blake2b masked to its side, V's numbered after U's."""
    copy = hashlib.blake2b(digest_size=8, key=header_hash + nonce.to_bytes(8, "big")).copy
    half = 1 << (edge_bits - 1)
    sides = []
    for side, first in ((messages[0], 0), (messages[1], half)):
        digests = bytearray()
        for m in side:
            h = copy()
            h.update(m)
            digests += h.digest()
        masked = int.from_bytes(digests, "big") & _lanes(half - 1, len(side)) | _lanes(first, len(side))
        words = array("Q", masked.to_bytes(len(digests), "big"))
        if sys.byteorder == "little":  # the digests are read big-endian
            words.byteswap()
        sides.append(words.tolist())
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
    if any(not 0 <= e < 1 << params.edge_bits for e in edges):
        return False
    if any(edges[i] >= edges[i + 1] for i in range(len(edges) - 1)):
        return False
    # Each node must touch exactly two of the claimed edges, so they form
    # disjoint cycles; the walk from edge 0 must use every edge before it
    # comes back to one, and then it has closed at edge 0's U endpoint.
    endpoints = list(zip(*_endpoints(header_hash, solution.nonce, params.edge_bits, _messages(edges))))
    incidence: dict[tuple[int, int], list[int]] = {}
    for i, (u, v) in enumerate(endpoints):
        incidence.setdefault((0, u), []).append(i)
        incidence.setdefault((1, v), []).append(i)
    if any(len(hits) != 2 for hits in incidence.values()):
        return False
    used = [False] * len(edges)
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
    return meets_target(solution_digest(header_hash, edges), params.target)


def solve(
    header_hash: bytes, params: PowParams, nonce_budget: int, stop=None
) -> CuckooSolution | None:
    """Search ascending nonces; returns the first qualifying solution.

    ``stop`` is an optional zero-argument callable polled before every
    nonce so a caller can abandon the search; solve has no side effects.
    """
    n_edges = 1 << params.edge_bits
    messages = _graph_messages(n_edges)
    for nonce in range(nonce_budget):
        if stop is not None and stop():
            return None
        us, vs = _endpoints(header_hash, nonce, params.edge_bits, messages)
        parent = [-1] * n_edges  # U's nodes, then V's from half; -1 marks a root
        via = [0] * n_edges
        for idx, a, b in zip(messages[2], us, vs):
            rb = b
            while (y := parent[rb]) >= 0:
                rb = y
            x = parent[a]
            if x < 0:  # a is its own root
                if a != rb:
                    parent[a] = b
                    via[a] = idx
                    continue
            else:
                ra = x
                while (y := parent[ra]) >= 0:
                    ra = y
                if ra != rb:  # the link rule in the module docstring
                    below = a
                    while (y := parent[x]) >= 0:
                        parent[x] = -1
                        below, x = x, y
                    parent[x] = below
                    via[x] = via[a]
                    parent[a] = b
                    via[a] = idx
                    continue
            pa = [a]
            while (x := parent[pa[-1]]) >= 0:
                pa.append(x)
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
            if meets_target(solution_digest(header_hash, cycle), params.target):
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

"""Binary Merkle trees over canonical-encoded leaves, shaped as RFC 6962 §2.1.

Conventions (fixed network-wide):
  - a leaf's data is its digest d = H(leaf bytes), so a record or a tx is
    hashed once and every later root reuses it;
  - a leaf node is H(0x00 || d) and an inner node is H(0x01 || left || right),
    so no leaf node can pass for an inner node or for a root of more leaves;
  - a tree of n > 1 leaves splits at the largest power of two below n.
    Built level by level, that is: an odd last node is promoted to the next
    level unchanged, never paired with itself, so [a,b,c] and [a,b,c,c]
    have different roots (the CVE-2012-2459 pattern cannot occur);
  - the root of one leaf is its leaf node H(0x00 || d).

A proof is (leaf_index, bottom-up sibling list). It holds one sibling per
level where the path's node is paired, so its length depends on the index
as well as the leaf count (``proof_len``), and a verifier must be told the
leaf count the root commits to.

``merkle_root`` and the proof functions take raw leaves. ``tree_root``, the
entry point for the seven header commitments, takes leaf digests, or a
``MerkleLevels`` that keeps its levels and rehashes only the paths of the
leaves it was told changed.
"""
from __future__ import annotations

import hashlib

from .codec import U32, Bytes32, Seq, WireRecord
from .crypto import ZERO32, hash256
from .errors import LedgerError


class MerkleProof(WireRecord):
    leaf_index: U32
    siblings: Seq[Bytes32]


_sha256 = hashlib.sha256


def _leaf_node(digest: bytes) -> bytes:
    return _sha256(b"\x00" + digest).digest()


def _inner_node(left: bytes, right: bytes) -> bytes:
    return _sha256(b"\x01" + left + right).digest()


def _level_up(nodes: list[bytes]) -> list[bytes]:
    """Parents of one level; an odd last node is promoted unchanged."""
    pairs = iter(nodes)
    up = [_inner_node(left, right) for left, right in zip(pairs, pairs)]
    if len(nodes) % 2:
        up.append(nodes[-1])
    return up


def _digest_root(digests: list[bytes]) -> bytes:
    nodes = [_leaf_node(d) for d in digests]
    while len(nodes) > 1:
        nodes = _level_up(nodes)
    return nodes[0]


def proof_len(leaf_count: int, index: int) -> int:
    """Siblings on the audit path of leaf ``index`` in a tree of ``leaf_count``."""
    length = 0
    while leaf_count > 1:
        if not (index == leaf_count - 1 and leaf_count % 2):
            length += 1  # paired at this level, not promoted
        index //= 2
        leaf_count = (leaf_count + 1) // 2
    return length


def merkle_root(leaves: list[bytes]) -> bytes:
    if not leaves:
        raise LedgerError("EmptyLeaves", "merkle_root over zero leaves")
    return _digest_root([hash256(leaf) for leaf in leaves])


def merkle_prove(leaves: list[bytes], index: int) -> MerkleProof:
    if not leaves:
        raise LedgerError("EmptyLeaves", "merkle_prove over zero leaves")
    if not 0 <= index < len(leaves):
        raise LedgerError("BadIndex", f"leaf index {index} of {len(leaves)}")
    siblings: list[bytes] = []
    nodes = [_leaf_node(hash256(leaf)) for leaf in leaves]
    i = index
    while len(nodes) > 1:
        if i ^ 1 < len(nodes):
            siblings.append(nodes[i ^ 1])
        nodes = _level_up(nodes)
        i //= 2
    return MerkleProof(index, tuple(siblings))


def merkle_verify(root: bytes, leaf: bytes, proof: MerkleProof, leaf_count: int) -> bool:
    """Whether ``leaf`` sits at ``proof.leaf_index`` of the ``leaf_count``-leaf
    tree with this root. The count fixes where the path is promoted, so it
    must come from a commitment, never from the proof."""
    i = proof.leaf_index
    if leaf_count < 1 or not 0 <= i < leaf_count:
        return False
    if len(proof.siblings) != proof_len(leaf_count, i):
        return False
    acc = _leaf_node(hash256(leaf))
    siblings = iter(proof.siblings)
    n = leaf_count
    while n > 1:
        if i % 2:
            acc = _inner_node(next(siblings), acc)
        elif i + 1 < n:
            acc = _inner_node(acc, next(siblings))
        i //= 2
        n = (n + 1) // 2
    return acc == root


class MerkleLevels:
    """A tree that keeps every level and rehashes only changed paths.

    ``set`` replaces a leaf's digest or appends one at ``len(self)``, and
    ``truncate`` drops the last leaves; the next ``root`` rehashes the
    parents of the leaves touched since the last one, level by level.
    ``copy`` copies the level lists and shares their node bytes.
    """

    __slots__ = ("levels", "dirty")

    def __init__(self, levels: list[list[bytes]] | None = None, dirty: set[int] | None = None):
        self.levels = [[]] if levels is None else levels
        self.dirty = set() if dirty is None else dirty

    def __len__(self) -> int:
        return len(self.levels[0])

    def copy(self) -> "MerkleLevels":
        return MerkleLevels([list(level) for level in self.levels], set(self.dirty))

    def set(self, index: int, digest: bytes) -> None:
        leaves = self.levels[0]
        node = _leaf_node(digest)
        if index == len(leaves):
            leaves.append(node)
        else:
            leaves[index] = node
        self.dirty.add(index)

    def truncate(self, count: int) -> None:
        """Drop every leaf from ``count`` on."""
        levels = self.levels
        del levels[max(count - 1, 0).bit_length() + 1:]
        n = count
        for level in levels:
            del level[n:]
            n = (n + 1) // 2
        self.dirty = {i for i in self.dirty if i < count}
        if count:
            self.dirty.add(count - 1)  # the right edge may now be promoted

    def root(self) -> bytes:
        """Same as ``tree_root`` over the leaf digests, in slot order."""
        levels = self.levels
        if not levels[0]:
            return ZERO32
        changed, self.dirty = self.dirty, set()
        depth = 0
        while len(levels[depth]) > 1:
            nodes = levels[depth]
            count = len(nodes)
            if depth + 1 == len(levels):
                levels.append([])
            up = levels[depth + 1]
            if len(up) < (count + 1) // 2:
                up.extend([ZERO32] * ((count + 1) // 2 - len(up)))  # placeholders, each rehashed below
            parents = {i >> 1 for i in changed}
            for j in parents:
                left = j << 1
                if left + 1 < count:
                    up[j] = _inner_node(nodes[left], nodes[left + 1])
                else:
                    up[j] = nodes[left]  # promoted
            changed = parents
            depth += 1
        return levels[depth][0]


def tree_root(digests) -> bytes:
    """Root of a possibly-empty tree given its leaf digests H(leaf).

    ``tree_root([hash256(l) for l in leaves]) == merkle_root(leaves)``; the
    all-zero hash marks an empty tree. A ``MerkleLevels`` stands for its
    leaf digests and rehashes only its changed paths.
    """
    if isinstance(digests, MerkleLevels):
        return digests.root()
    return _digest_root(digests) if digests else ZERO32

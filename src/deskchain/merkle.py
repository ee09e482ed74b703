"""Binary Merkle trees over canonical-encoded leaves.

Conventions (fixed network-wide):
  - leaf nodes are H(leaf bytes), the leaf digests;
  - a level with an odd node count duplicates its last node;
  - parent = H(left || right);
  - a single-leaf tree hashes its lone node once more, so the root of [L]
    is H(H(L)) and a leaf value can never collide with its own root.

Proofs are (leaf_index, bottom-up sibling list); length is
ceil(log2(leaf_count)) for leaf_count >= 2 and zero for a single leaf.

``merkle_root`` and the proof functions take raw leaves. ``tree_root``, the
entry point for the seven header commitments, takes leaf digests, so a
frozen record can hash its encoding once and every later root reuses it.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .codec import U32, Bytes32, Seq, WireRecord
from .crypto import ZERO32, hash256
from .errors import LedgerError


@dataclass(frozen=True)
class MerkleProof(WireRecord):
    leaf_index: U32
    siblings: Seq[Bytes32]


def proof_len(leaf_count: int) -> int:
    if leaf_count <= 1:
        return 0
    return (leaf_count - 1).bit_length()


_sha256 = hashlib.sha256


def _level_up(nodes: list[bytes]) -> list[bytes]:
    """Parents of one level; an odd last node is paired with itself."""
    pairs = iter(nodes)
    up = [_sha256(left + right).digest() for left, right in zip(pairs, pairs)]
    if len(nodes) % 2:
        up.append(_sha256(nodes[-1] + nodes[-1]).digest())
    return up


def _digest_root(nodes: list[bytes]) -> bytes:
    if len(nodes) == 1:
        return hash256(nodes[0])
    while len(nodes) > 1:
        nodes = _level_up(nodes)
    return nodes[0]


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
    nodes = [hash256(leaf) for leaf in leaves]
    i = index
    while len(nodes) > 1:
        siblings.append(nodes[min(i ^ 1, len(nodes) - 1)])
        nodes = _level_up(nodes)
        i //= 2
    return MerkleProof(index, tuple(siblings))


def merkle_verify(root: bytes, leaf: bytes, proof: MerkleProof, leaf_count: int) -> bool:
    if leaf_count < 1 or not 0 <= proof.leaf_index < leaf_count:
        return False
    if len(proof.siblings) != proof_len(leaf_count):
        return False
    acc = hash256(leaf)
    if leaf_count == 1:
        return hash256(acc) == root
    i = proof.leaf_index
    for sibling in proof.siblings:
        if i % 2 == 0:
            acc = hash256(acc + sibling)
        else:
            acc = hash256(sibling + acc)
        i //= 2
    return acc == root


def tree_root(digests: list[bytes]) -> bytes:
    """Root of a possibly-empty tree given its leaf digests H(leaf).

    ``tree_root([hash256(l) for l in leaves]) == merkle_root(leaves)``; the
    all-zero hash marks an empty tree.
    """
    return _digest_root(digests) if digests else ZERO32

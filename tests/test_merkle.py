"""Merkle tree behavior, checked against hand-expanded hashing.

The oracle here is structural: expected roots are rebuilt inline with raw
sha256 calls, never through the module under test.
"""
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from deskchain.errors import LedgerError
from deskchain.merkle import (
    MerkleProof, merkle_prove, merkle_root, merkle_verify, proof_len, tree_root,
)


def H(b: bytes) -> bytes:
    return hashlib.sha256(b).digest()


def test_single_leaf_is_hash_of_leaf_hash():
    assert merkle_root([b"L"]) == H(H(b"L"))


def test_two_leaves():
    assert merkle_root([b"L1", b"L2"]) == H(H(b"L1") + H(b"L2"))


def test_three_leaves_equals_duplicated_fourth():
    # hand-expanded: [L1,L2,L3] pads to [L1,L2,L3,L3]
    h1, h2, h3 = H(b"L1"), H(b"L2"), H(b"L3")
    expected = H(H(h1 + h2) + H(h3 + h3))
    assert merkle_root([b"L1", b"L2", b"L3"]) == expected
    assert merkle_root([b"L1", b"L2", b"L3"]) == merkle_root([b"L1", b"L2", b"L3", b"L3"])


def test_empty_leaves_rejected():
    with pytest.raises(LedgerError):
        merkle_root([])
    with pytest.raises(LedgerError):
        merkle_prove([], 0)


def test_round_trip_proof():
    leaves = [bytes([i]) * 3 for i in range(5)]
    root = merkle_root(leaves)
    proof = merkle_prove(leaves, 2)
    assert merkle_verify(root, leaves[2], proof, len(leaves))


def test_flipped_leaf_fails():
    leaves = [b"a", b"b", b"c", b"d"]
    root = merkle_root(leaves)
    proof = merkle_prove(leaves, 1)
    assert not merkle_verify(root, b"B", proof, 4)


def test_wrong_index_fails_exhaustively():
    # on a 4-leaf tree only the correct index verifies
    leaves = [b"w", b"x", b"y", b"z"]
    root = merkle_root(leaves)
    for true_index in range(4):
        proof = merkle_prove(leaves, true_index)
        for claimed in range(4):
            tampered = MerkleProof(claimed, proof.siblings)
            ok = merkle_verify(root, leaves[true_index], tampered, 4)
            assert ok == (claimed == true_index)


def test_exhaustive_round_trip_up_to_64():
    for n in range(1, 65):
        leaves = [i.to_bytes(2, "big") for i in range(n)]
        root = merkle_root(leaves)
        for i in range(n):
            proof = merkle_prove(leaves, i)
            assert len(proof.siblings) == proof_len(n)
            assert merkle_verify(root, leaves[i], proof, n)


def test_proof_length_rule():
    assert proof_len(1) == 0
    assert proof_len(2) == 1
    assert proof_len(3) == 2
    assert proof_len(4) == 2
    assert proof_len(5) == 3
    assert proof_len(64) == 6


def test_proof_encoding_round_trip():
    from deskchain.codec import Reader

    proof = merkle_prove([b"a", b"b", b"c"], 2)
    decoded = MerkleProof.read(Reader(proof.encode()))
    assert decoded == proof


def test_tree_root_empty_sentinel():
    assert tree_root([]) == b"\x00" * 32
    assert tree_root([H(b"x")]) == merkle_root([b"x"])


def test_tree_root_over_digests_equals_merkle_root_up_to_64():
    for n in range(1, 65):
        leaves = [i.to_bytes(2, "big") * (1 + i % 3) for i in range(n)]
        digests = [H(leaf) for leaf in leaves]
        assert tree_root(digests) == merkle_root(leaves)
        assert digests == [H(leaf) for leaf in leaves]  # the caller's list is left alone


@settings(max_examples=50)
@given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=24), st.data())
def test_verify_round_trip_property(leaves, data):
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    root = merkle_root(leaves)
    assert merkle_verify(root, leaves[index], merkle_prove(leaves, index), len(leaves))

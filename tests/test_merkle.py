"""Merkle tree behavior, checked against hand-expanded hashing.

The oracle here is structural: expected roots are rebuilt inline with raw
sha256 calls and the RFC 6962 prefixes (0x00 before a leaf digest, 0x01
before two child nodes), never through the module under test.
"""
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from deskchain.errors import LedgerError
from deskchain.merkle import (
    MerkleLevels, MerkleProof, merkle_prove, merkle_root, merkle_verify, proof_len, tree_root,
)


def H(b: bytes) -> bytes:
    return hashlib.sha256(b).digest()


def leaf(b: bytes) -> bytes:
    return H(b"\x00" + H(b))


def node(left: bytes, right: bytes) -> bytes:
    return H(b"\x01" + left + right)


def reference_root(digests: list[bytes]) -> bytes:
    """RFC 6962 §2.1 as written: split at the largest power of two below n."""
    if len(digests) == 1:
        return H(b"\x00" + digests[0])
    k = 1 << (len(digests) - 1).bit_length() - 1
    return node(reference_root(digests[:k]), reference_root(digests[k:]))


def reference_path_sides(index: int, n: int) -> tuple[str, ...]:
    """Which side each audit-path sibling sits on, bottom-up, per RFC 6962 §2.1.1."""
    if n == 1:
        return ()
    k = 1 << (n - 1).bit_length() - 1
    if index < k:
        return reference_path_sides(index, k) + ("right",)
    return reference_path_sides(index - k, n - k) + ("left",)


def test_single_leaf_is_hash_of_leaf_hash():
    assert merkle_root([b"L"]) == H(b"\x00" + H(b"L"))


def test_two_leaves():
    assert merkle_root([b"L1", b"L2"]) == H(b"\x01" + leaf(b"L1") + leaf(b"L2"))


def test_three_leaves_differ_from_duplicated_fourth():
    # hand-expanded: the odd L3 is promoted, never paired with itself
    l1, l2, l3 = leaf(b"L1"), leaf(b"L2"), leaf(b"L3")
    assert merkle_root([b"L1", b"L2", b"L3"]) == node(node(l1, l2), l3)
    assert merkle_root([b"L1", b"L2", b"L3", b"L3"]) == node(node(l1, l2), node(l3, l3))
    assert merkle_root([b"L1", b"L2", b"L3"]) != merkle_root([b"L1", b"L2", b"L3", b"L3"])


def test_five_and_seven_leaves_split_at_the_largest_power_of_two():
    ls = [leaf(bytes([i])) for i in range(7)]
    first4 = node(node(ls[0], ls[1]), node(ls[2], ls[3]))
    assert merkle_root([bytes([i]) for i in range(5)]) == node(first4, ls[4])
    assert merkle_root([bytes([i]) for i in range(7)]) == node(first4, node(node(ls[4], ls[5]), ls[6]))


def test_empty_leaves_rejected():
    with pytest.raises(LedgerError):
        merkle_root([])
    with pytest.raises(LedgerError):
        merkle_prove([], 0)


@pytest.mark.parametrize("index", [-1, 3])
def test_a_proof_of_a_leaf_outside_the_tree_is_refused(index):
    with pytest.raises(LedgerError, match="BadIndex"):
        merkle_prove([b"a", b"b", b"c"], index)


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
    """Every index of every size verifies, and a proof checked against a
    wrong leaf count is rejected unless that count gives the index the very
    same audit path (then the check hashes alike: the count must come from a
    commitment, as the header's tx_count does for tx_root)."""
    for n in range(1, 65):
        leaves = [i.to_bytes(2, "big") for i in range(n)]
        root = merkle_root(leaves)
        for i in range(n):
            proof = merkle_prove(leaves, i)
            assert len(proof.siblings) == proof_len(n, i) == len(reference_path_sides(i, n))
            assert merkle_verify(root, leaves[i], proof, n)
            for m in range(1, 66):
                if m != n:
                    same_path = i < m and reference_path_sides(i, m) == reference_path_sides(i, n)
                    assert merkle_verify(root, leaves[i], proof, m) == same_path, (n, i, m)


def test_proof_length_rule():
    assert proof_len(1, 0) == 0
    assert proof_len(2, 0) == proof_len(2, 1) == 1
    assert [proof_len(3, i) for i in range(3)] == [2, 2, 1]  # leaf 2 is promoted once
    assert [proof_len(4, i) for i in range(4)] == [2, 2, 2, 2]
    assert [proof_len(5, i) for i in range(5)] == [3, 3, 3, 3, 1]
    assert [proof_len(7, i) for i in range(7)] == [3, 3, 3, 3, 3, 3, 2]
    assert all(proof_len(64, i) == 6 for i in range(64))


def test_proof_encoding_round_trip():
    from deskchain.codec import Reader

    proof = merkle_prove([b"a", b"b", b"c"], 2)
    decoded = MerkleProof.read(Reader(proof.encode()))
    assert decoded == proof


def test_tree_root_empty_sentinel():
    assert tree_root([]) == b"\x00" * 32
    assert tree_root([H(b"x")]) == merkle_root([b"x"]) == leaf(b"x")


def test_root_matches_the_rfc_6962_definition_up_to_64():
    for n in range(1, 65):
        digests = [H(i.to_bytes(2, "big")) for i in range(n)]
        assert tree_root(digests) == reference_root(digests), n


def test_no_duplicated_tail_extension_shares_a_root():
    # [a,b,c] against [a,b,c,c] is the CVE-2012-2459 pattern; try every
    # list of up to 64 leaves that repeats a tail of a shorter one
    base = [bytes([i]) for i in range(64)]
    lists = {tuple(base[:n]) for n in range(1, 65)}
    for n in range(1, 64):
        for start in range(n):
            extended = base[:n] + base[start:n]
            if len(extended) <= 64:
                lists.add(tuple(extended))
    roots = {merkle_root(list(leaves)) for leaves in lists}
    assert len(roots) == len(lists)


@settings(max_examples=200)
@given(st.lists(st.binary(max_size=3), min_size=1, max_size=64), st.data())
def test_distinct_leaf_lists_have_distinct_roots(a, data):
    i = data.draw(st.integers(0, len(a) - 1))
    j = data.draw(st.integers(i + 1, len(a)))
    b = data.draw(st.sampled_from([
        a + a[i:j],  # a repeated tail or middle
        a[:j],  # a prefix
        a[:i] + a[j:] or a[:1],  # a cut
        a[:i] + [a[i] + b"\x00"] + a[i + 1:],  # one leaf changed
        data.draw(st.lists(st.binary(max_size=3), min_size=1, max_size=64)),
    ]))[:64]
    assert (merkle_root(a) == merkle_root(b)) == (a == b)


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


_LEVEL_OPS = st.lists(
    st.tuples(st.sampled_from(["append", "set", "truncate", "copy"]), st.integers(0, 80), st.booleans()),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 70), _LEVEL_OPS)
def test_kept_levels_match_a_full_rebuild(size, ops):
    tree, digests = MerkleLevels(), [H(i.to_bytes(2, "big")) for i in range(size)]
    for i, digest in enumerate(digests):
        tree.set(i, digest)
    assert tree_root(tree) == tree_root(digests)
    copies = []  # (copy, its digests then); each must keep its own root
    for op, n, check in ops:
        if op == "append" or (op == "set" and not digests):
            digests.append(H(n.to_bytes(2, "big") + bytes([len(digests) % 256])))
            tree.set(len(digests) - 1, digests[-1])
        elif op == "set":
            digests[n % len(digests)] = H(bytes([n]) * 3)
            tree.set(n % len(digests), digests[n % len(digests)])
        elif op == "truncate":
            del digests[n % (len(digests) + 1):]
            tree.truncate(len(digests))
        else:
            copies.append((tree.copy(), list(digests)))
        assert len(tree) == len(digests)
        if check:  # else the changes pile up for a later root
            assert tree_root(tree) == (reference_root(digests) if digests else b"\x00" * 32)
    assert tree_root(tree) == tree_root(digests)
    for copy, then in copies:
        assert copy.root() == tree_root(then)

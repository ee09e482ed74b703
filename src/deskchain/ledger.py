"""Chain data model: accounts, names, headers, blocks.

Headers commit to seven tree roots, the block's transaction count and
entropy; the PoW input is the header encoding *without* the
solution-derived fields (entropy, nonce, cycle), and entropy is pinned
separately as H(prev_entropy || miner || nonce) so a miner cannot grind it
independently of the solution. The transaction count is the leaf count a
light client checks a ``tx_root`` inclusion proof against.

Accounts, names and headers are ``codec.WireRecord``s, so each is a frozen
record whose ``digest()`` (its state-tree leaf, or a header's block hash) is
computed once and kept.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import pow
from .codec import U32, U64, Bytes32, Maybe, Reader, Seq, Tag, Text, WireRecord, check_amount, decode_whole, frame
from .crypto import ADDRESS_SIZE, ZERO32, hash256
from .errors import BlockError, LedgerError
from .merkle import MerkleProof, merkle_verify

EXTERNAL = "external"
CONTRACT = "contract"
MAX_NAME_BYTES = 64

_KINDS = (EXTERNAL, CONTRACT)
_BASE_SIZE = 8 + 4 + 9 * 32  # BlockHeader.height, prev_hash, tx_count, the seven roots and miner


class Account(WireRecord):
    address: Bytes32
    balance: U64
    counter: U64 = 0
    freshness: U64 = 0
    kind: Tag[_KINDS] = EXTERNAL
    code_hash: Maybe[Bytes32] = None

    def __post_init__(self) -> None:
        if len(self.address) != ADDRESS_SIZE:
            raise LedgerError("BadFormat", "address must be 32 bytes")
        check_amount(self.balance, "balance")
        if self.kind not in _KINDS:
            raise LedgerError("BadFormat", f"unknown account kind {self.kind!r}")
        if self.kind == EXTERNAL and self.code_hash is not None:
            raise LedgerError("BadFormat", "external accounts carry no code")

    def edit(self, balance: int, counter: int, freshness: int) -> "Account":
        """This account with a new balance, counter and freshness, built without
        the constructor, whose checks the other fields passed: only the balance
        is checked. An edit that changes nothing is this record and digest."""
        if balance == self.balance and counter == self.counter and freshness == self.freshness:
            return self
        check_amount(balance, "balance")
        edited = object.__new__(Account)
        fields = edited.__dict__
        fields["address"], fields["kind"], fields["code_hash"] = self.address, self.kind, self.code_hash
        fields["balance"], fields["counter"], fields["freshness"] = balance, counter, freshness
        return edited


def check_name(name: str) -> None:
    """A name is 1..MAX_NAME_BYTES utf-8 bytes: a NameRecord's rule, and
    check_tx's for a NameClaim."""
    if len(name.encode("utf-8")) > MAX_NAME_BYTES or not name:
        raise LedgerError("BadFormat", "name must be 1..64 utf-8 bytes")


class NameRecord(WireRecord):
    name: Text
    target: Bytes32
    owner: Bytes32

    def __post_init__(self) -> None:
        check_name(self.name)
        if len(self.target) != 32:
            raise LedgerError("BadFormat", "name target must be 32 bytes")


class BlockHeader(WireRecord):
    height: U64
    prev_hash: Bytes32
    tx_root: Bytes32
    tx_count: U32
    account_root: Bytes32
    name_root: Bytes32
    wormhole_root: Bytes32
    oracle_open_root: Bytes32
    oracle_answer_root: Bytes32
    proof_root: Bytes32
    miner: Bytes32  # the last field of base_bytes
    entropy: Bytes32
    pow_nonce: U64
    pow_cycle: Seq[U64]

    def base_bytes(self) -> bytes:
        """PoW input: everything the miner fixes before searching, which is
        the encoding up to and including ``miner``."""
        return self.encode()[:_BASE_SIZE]

    def base_hash(self) -> bytes:
        return hash256(self.base_bytes())

    def block_hash(self) -> bytes:
        return self.digest()


def expected_entropy(prev_entropy: bytes, miner: bytes, pow_nonce: int) -> bytes:
    return hash256(prev_entropy + miner + pow_nonce.to_bytes(8, "big"))


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    transactions: tuple  # of tx kinds; see tx.py

    def encode(self) -> bytes:
        """The header framed, the u32 tx count, then each tx framed."""
        txs = [frame(tx.encode()) for tx in self.transactions]
        return b"".join([frame(self.header.encode()), len(txs).to_bytes(4, "big"), *txs])

    @staticmethod
    def read(r: Reader) -> "Block":
        from .tx import decode_tx  # deferred: tx depends on ledger types

        header = BlockHeader.decode(r.blob())
        txs = tuple(decode_tx(r.blob()) for _ in range(r.u32()))
        return Block(header, txs)

    @staticmethod
    def decode(data: bytes) -> "Block":
        """One whole block encoding; trailing bytes are a CodecError."""
        return decode_whole(Block.read, data)


def validate_header(header: BlockHeader, prev: BlockHeader | None, cfg) -> None:
    """Raise BlockError(BadLink|BadHeight|BadPow) unless header extends prev."""
    if prev is None:
        if header.height != 0:
            raise BlockError("BadHeight", f"genesis height {header.height}")
        if header.prev_hash != ZERO32:
            raise BlockError("BadLink", "genesis prev_hash must be zero")
        prev_entropy = ZERO32
    else:
        if header.height != prev.height + 1:
            raise BlockError("BadHeight", f"{header.height} after {prev.height}")
        if header.prev_hash != prev.block_hash():
            raise BlockError("BadLink", "prev_hash mismatch")
        prev_entropy = prev.entropy
    if header.entropy != expected_entropy(prev_entropy, header.miner, header.pow_nonce):
        raise BlockError("BadPow", "entropy not derived from solution")
    params = pow.PowParams.from_config(cfg)
    solution = pow.CuckooSolution(header.pow_nonce, header.pow_cycle)
    if not pow.verify(header.base_hash(), solution, params):
        raise BlockError("BadPow", "cuckoo solution rejected")


def verify_light(headers: list[BlockHeader], tx_bytes: bytes, proof: MerkleProof, cfg) -> bool:
    """Header-only verification: chain links + PoW + inclusion in the tip."""
    if not headers:
        return False
    params = pow.PowParams.from_config(cfg)
    first = headers[0]
    if not pow.verify(first.base_hash(), pow.CuckooSolution(first.pow_nonce, first.pow_cycle), params):
        return False
    try:
        for prev, nxt in zip(headers, headers[1:]):
            validate_header(nxt, prev, cfg)
    except BlockError:
        return False
    return merkle_verify(headers[-1].tx_root, tx_bytes, proof, headers[-1].tx_count)


def charge_maintenance(account: Account, current_height: int, rate_per_block: int) -> tuple[int, int]:
    """Lazy per-block fee since the account's freshness, floored at its balance.

    Returns (balance left, collected); collected goes to burn accounting, and
    the caller writes the balance with freshness ``current_height``.
    """
    if current_height < account.freshness:
        raise LedgerError("BadHeight", "maintenance into the past")
    collected = min(account.balance, rate_per_block * (current_height - account.freshness))
    return account.balance - collected, collected

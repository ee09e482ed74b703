"""Decentralized storage contracts and the compute spot-check primitive.

Data is chunked and committed as a Merkle root. Every
challenge_period_n blocks the previous block hash picks one chunk index;
a provider earns reward_per_proof for a verified possession proof of that
exact chunk. Retrieval is priced per started 64 KiB unit and paid through
superseding channel updates. A block's ``proof_root`` commits one
``ProofLeaf`` per possession proof it applied.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .codec import U32, U64, Bytes32, Flag, WireRecord
from .crypto import hash256
from .errors import LedgerError
from .merkle import MerkleProof, merkle_root, merkle_verify

DEFAULT_CHUNK_SIZE = 65_536


class StorageContract(WireRecord):
    contract_id: Bytes32
    payer: Bytes32
    provider: Bytes32
    data_root: Bytes32
    chunk_count: U64
    chunk_size: U64
    challenge_period_n: U64
    reward_per_proof: U64
    escrow: U64
    last_paid_height: U64 = 0
    closed: Flag = False


class ProofLeaf(WireRecord):
    """One paid possession proof: the chunk index proved for a contract at
    a height, and the hash of the chunk shown."""

    contract_id: Bytes32
    height: U64
    leaf_index: U32
    chunk_hash: Bytes32


@dataclass(frozen=True)
class ComputeTrace:
    step_commitments: tuple[bytes, ...]
    claimed_output: bytes

    def __post_init__(self) -> None:
        if not self.step_commitments:
            raise LedgerError("BadFormat", "trace needs at least one checkpoint")

    def trace_root(self) -> bytes:
        return merkle_root(list(self.step_commitments))


def contract_id_for(payer: bytes, counter: int) -> bytes:
    return hash256(b"store" + payer + counter.to_bytes(8, "big"))


def chunk_data(data: bytes, chunk_size: int) -> list[bytes]:
    """Fixed-size chunks; the last is zero-padded and carries the byte
    length of the original data as an 8-byte suffix, keeping the chunking
    injective."""
    if not data:
        raise LedgerError("BadFormat", "cannot commit empty data")
    if chunk_size < 1:
        raise LedgerError("BadFormat", "chunk_size must be positive")
    chunks = [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)]
    last = chunks[-1].ljust(chunk_size, b"\x00") + len(data).to_bytes(8, "big")
    chunks[-1] = last
    return chunks


def commit_data(data: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE) -> tuple[list[bytes], bytes]:
    """Returns (chunks, data_root)."""
    chunks = chunk_data(data, chunk_size)
    return chunks, merkle_root(chunks)


def challenge_index(prev_block_hash: bytes, contract_id: bytes, chunk_count: int) -> int:
    if chunk_count < 1:
        raise LedgerError("BadFormat", "chunk_count must be >= 1")
    return int.from_bytes(hash256(prev_block_hash + contract_id), "big") % chunk_count


def retrieval_quote(bytes_served: int, cfg) -> int:
    """Price of serving data back: per started retrieval_unit."""
    if bytes_served < 0:
        raise LedgerError("BadFormat", "negative byte count")
    units = -(-bytes_served // cfg.retrieval_unit)
    return units * cfg.retrieval_rate


def spot_check(trace: ComputeTrace, recompute: Callable[[int], bytes], entropy: bytes) -> bool:
    """Re-execute one entropy-chosen checkpoint against its commitment."""
    k = int.from_bytes(hash256(entropy + trace.trace_root()), "big") % len(
        trace.step_commitments
    )
    return recompute(k) == trace.step_commitments[k]


# --- on-chain transitions ---


def create_contract(
    state, contract_id: bytes, payer: bytes, provider: bytes, data_root: bytes,
    chunk_count: int, chunk_size: int, challenge_period_n: int, reward_per_proof: int, escrow: int,
) -> None:
    state.debit(payer, escrow)
    state.storage_contracts[contract_id] = StorageContract(
        contract_id, payer, provider, data_root, chunk_count, chunk_size,
        challenge_period_n, reward_per_proof, escrow,
    )


def prove_and_pay(
    state, contract_id: bytes, chunk: bytes, proof: MerkleProof, prev_block_hash: bytes,
) -> None:
    """Verify a possession proof for the challenged index and pay for it, up
    to the remaining escrow."""
    contract = state.storage_contracts.need(contract_id)
    if contract.closed:
        raise LedgerError("WrongChannel", "storage contract closed")
    if state.height % contract.challenge_period_n != 0:
        raise LedgerError("NotChallengeHeight", f"height {state.height}")
    if contract.last_paid_height == state.height:
        raise LedgerError("AlreadyProved", f"height {state.height}")
    want = challenge_index(prev_block_hash, contract_id, contract.chunk_count)
    if proof.leaf_index != want:
        raise LedgerError("WrongIndex", f"{proof.leaf_index} != {want}")
    if not merkle_verify(contract.data_root, chunk, proof, contract.chunk_count):
        raise LedgerError("BadProof", "chunk does not match commitment")
    paid = min(contract.reward_per_proof, contract.escrow)
    state.credit(contract.provider, paid)
    state.storage_contracts[contract_id] = replace(
        contract, escrow=contract.escrow - paid, last_paid_height=state.height
    )


def close_contract(state, contract_id: bytes, caller: bytes) -> None:
    """Payer ends the contract; the unspent escrow comes back."""
    contract = state.storage_contracts.need(contract_id)
    if contract.closed:
        raise LedgerError("WrongChannel", "storage contract closed")
    if caller != contract.payer:
        raise LedgerError("BadFormat", "only the payer can close")
    state.credit(contract.payer, contract.escrow)
    state.storage_contracts[contract_id] = replace(contract, escrow=0, closed=True)

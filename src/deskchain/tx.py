"""Transaction taxonomy and the block-level state transition.

Application follows a six-step discipline: (1) ``check_tx``; (2) one
savepoint, ``apply_tx``'s; (3) the fee envelope, one write of the sender
that settles its maintenance, deducts the fee (gas*gas_price for a gas
kind), bumps the counter and escrows what a Spend, a ContractCall or a
ContractCreate sends (a create's deposit too); (4) the minted id checked
unused, value moved and contract code run; (5) on failure the state rolls
back to the savepoint and the fee envelope is charged again without the
escrow: the fee, the counter bump and the same maintenance burn; (6) on
success unused gas is refunded to the sender at gas_price. A block's fees
reach its miner in one credit when it closes. ``apply_tx`` takes as plain
arguments the miner and the parent block hash a storage challenge is drawn
from; the height and the config it applies under are the state's own
``height`` and ``cfg``, which every transition below it reads too, so
``_apply_inner`` passes each one only the tx's fields. ``_execute`` alone
sets the height. ``created_id`` is the one map from a tx to the id it
mints, ``_MINTED_IN`` the store it goes into; each opener takes that id.
``_run`` is the one contract run of ContractCreate and ContractCall.

check_tx failures make a user tx inapplicable (an honest miner never
includes it; a block carrying one is invalid), as do an EpochTx's failure
and a CodecError raised while applying. Every other failure produces a
reverted, fee-paying receipt. The split is what lets miners include
transactions without simulating their full outcome.
"""
from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

from . import channels, oracles, pow, rewards, storage
from .channels import SignedState
from .codec import (
    U8, U64, Blob, Bytes32, Flag, I64s, OptionalRecord, Record, Sig, Text, WireRecord, decode_whole,
)
from .crypto import ZERO32, ZERO_SIG, hash256, verify_sig
from .errors import BlockError, CodecError, LedgerError, TxError
from .ledger import Account, Block, BlockHeader, CONTRACT, NameRecord, charge_maintenance, check_name, expected_entropy
from .merkle import MerkleProof, tree_root
from .state import ChainState, Savepoint
from .vm import HALTED, Program, execute

APPLIED = "applied"
REVERTED = "reverted"


class Receipt(NamedTuple):
    tx_hash: bytes
    status: str
    gas_used: int
    fee_paid: int  # the sender's net cost; the block's sum of these credits its miner at close
    reason: str = ""  # revert diagnostics; not part of any commitment

    def render(self) -> str:
        tail = f" reason={self.reason}" if self.reason else ""
        return (
            f"tx={self.tx_hash.hex()} status={self.status} "
            f"gas_used={self.gas_used} fee={self.fee_paid} miner={self.fee_paid}{tail}"
        )


def contract_address(owner: bytes, counter: int) -> bytes:
    return hash256(owner + counter.to_bytes(8, "big"))


# --- transaction kinds -------------------------------------------------
#
# Encoding: u8 TAG, then each field as its annotation's codec writes it.
# Fields encode in declaration order; reordering is a consensus change.
# The first field of every user kind is its sender, the fee payer.


class TxBase(WireRecord):
    def signing_bytes(self) -> bytes:
        """The wire bytes with every Sig field zeroed."""
        return self._encode("zero")


class Spend(TxBase):
    sender: Bytes32
    recipient: Bytes32
    amount: U64
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 0


class ContractCreate(TxBase):
    owner: Bytes32
    code: Record[Program]
    vm_version: U8
    deposit: U64
    amount: U64
    gas: U64
    gas_price: U64
    call_data: I64s
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 1


class ContractCall(TxBase):
    caller: Bytes32
    contract: Bytes32
    amount: U64
    gas: U64
    gas_price: U64
    call_data: I64s
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 2


class DataOnly(TxBase):
    sender: Bytes32
    payload: Blob
    gas_price: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 3


class NameClaim(TxBase):
    owner: Bytes32
    name: Text
    target: Bytes32
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 4


class AccountDelete(TxBase):
    sender: Bytes32
    target: Bytes32
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 5


class ChannelOpen(TxBase):
    party_a: Bytes32
    party_b: Bytes32
    deposit_a: U64
    deposit_b: U64
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG         # party A, the fee payer
    sig_b: Sig = ZERO_SIG       # party B consents to the lock
    TAG = 6


class _ChannelTx(TxBase):
    """The wire shape the four channel-settling kinds share. A ChannelClose
    with no ``state`` settles at the original deposits; ChannelFinalize
    leaves ``state`` unused."""

    sender: Bytes32
    channel_id: Bytes32
    state: OptionalRecord[SignedState]
    program: OptionalRecord[Program]
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG


class ChannelCloseCoop(_ChannelTx):
    TAG = 7


class ChannelClose(_ChannelTx):
    TAG = 8


class ChannelChallenge(_ChannelTx):
    TAG = 9


class ChannelFinalize(_ChannelTx):
    TAG = 10


class OracleRegister(TxBase):
    asker: Bytes32
    question_hash: Bytes32
    start: U64
    end: U64
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 11


class OracleAnswer(TxBase):
    sender: Bytes32
    question_id: Bytes32
    bit: Flag
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 12


class OracleCounter(TxBase):
    sender: Bytes32
    question_id: Bytes32
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 13


class OracleVote(TxBase):
    sender: Bytes32
    question_id: Bytes32
    bit: Flag
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 14


class OracleResolve(TxBase):
    sender: Bytes32
    question_id: Bytes32
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 15


class StorageCreate(TxBase):
    payer: Bytes32
    provider: Bytes32
    data_root: Bytes32
    chunk_count: U64
    chunk_size: U64
    challenge_period_n: U64
    reward_per_proof: U64
    escrow: U64
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 16


class StorageProof(TxBase):
    sender: Bytes32             # the provider claiming the reward
    contract_id: Bytes32
    chunk: Blob
    proof: Record[MerkleProof]
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 17


class StorageClose(TxBase):
    sender: Bytes32
    contract_id: Bytes32
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 18


class AzCreate(TxBase):
    owner: Bytes32
    join_price: U64
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 19


class AzJoin(TxBase):
    sender: Bytes32
    az_id: Bytes32
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 20


class AzRefer(TxBase):
    sender: Bytes32
    user: Bytes32
    az_id: Bytes32
    fee: U64
    counter: U64
    sig: Sig = ZERO_SIG
    TAG = 21


class EpochTx(TxBase):
    """System transaction applied at epoch boundary blocks; unsigned."""

    report: Record[rewards.EpochReport]
    TAG = 22


TX_KINDS = (
    Spend, ContractCreate, ContractCall, DataOnly, NameClaim, AccountDelete,
    ChannelOpen, ChannelCloseCoop, ChannelClose, ChannelChallenge, ChannelFinalize,
    OracleRegister, OracleAnswer, OracleCounter, OracleVote, OracleResolve,
    StorageCreate, StorageProof, StorageClose, AzCreate, AzJoin, AzRefer, EpochTx,
)
_BY_TAG = {cls.TAG: cls for cls in TX_KINDS}
GAS_KINDS = (ContractCreate, ContractCall)
# the kinds whose fee envelope also escrows what the tx sends: its amount,
# and a ContractCreate's deposit as well
ESCROW_KINDS = (Spend, ContractCreate, ContractCall)
# the store each minting kind's ``created_id`` goes into
_MINTED_IN = {ContractCreate: "accounts", ChannelOpen: "channels", OracleRegister: "oracles",
              StorageCreate: "storage_contracts", AzCreate: "azs"}
# the CLI's `channel <action>` and `oracle <action>` verbs, and the DSL's
# `channel-<action>` and `oracle-<action>`, name these kinds
SETTLE_KINDS = {
    "close-coop": ChannelCloseCoop, "close": ChannelClose,
    "challenge": ChannelChallenge, "finalize": ChannelFinalize,
}
ORACLE_KINDS = {
    "answer": OracleAnswer, "counter": OracleCounter, "vote": OracleVote, "resolve": OracleResolve,
}


def encode_tx(tx) -> bytes:
    return tx.encode()


def decode_tx(data: bytes):
    """The tx that ``data`` encodes. Decoding is canonical (``encode_tx``
    of the result is ``data``), so the tx keeps ``hash256(data)`` as its
    ``digest()`` and is never re-encoded to get it."""
    if not data:
        raise CodecError("unexpected end of input")
    cls = _BY_TAG.get(data[0])
    if cls is None:
        raise CodecError(f"unknown tx tag {data[0]}")
    tx = decode_whole(cls.read, data, 1)
    object.__setattr__(tx, "_digest", hash256(data))
    return tx


def tx_sender(tx) -> bytes:
    """A user kind's first field; an EpochTx has no sender."""
    if isinstance(tx, EpochTx):
        raise TypeError("an EpochTx has no sender")
    return getattr(tx, tx._FIELDS[0][0])


def created_id(tx) -> bytes | None:
    """The id a tx mints: its contract, channel, question, storage contract or AZ."""
    if isinstance(tx, ContractCreate):
        return contract_address(tx.owner, tx.counter)
    if isinstance(tx, ChannelOpen):
        return channels.channel_id_for(tx.party_a, tx.party_b, tx.counter)
    if isinstance(tx, OracleRegister):
        return oracles.question_id_for(tx.asker, tx.counter, tx.question_hash)
    if isinstance(tx, StorageCreate):
        return storage.contract_id_for(tx.payer, tx.counter)
    if isinstance(tx, AzCreate):
        return rewards.az_id_for(tx.owner, tx.counter)
    return None


def effective_fee(tx) -> int:
    if isinstance(tx, DataOnly):
        return data_only_cost(len(tx.payload), tx.gas_price)
    return tx.fee


def data_only_cost(payload_len: int, gas_price: int) -> int:
    return gas_price * payload_len


def sign_tx(tx, keypair):
    return replace(tx, sig=keypair.sign(tx.signing_bytes()))


# --- checking ----------------------------------------------------------


def check_tx(state: ChainState, tx) -> None:
    """Format, signature, counter and fee checks; raises TxError."""
    if isinstance(tx, EpochTx):
        return  # system txs carry no envelope; apply_epoch validates them
    try:
        tx.digest()  # encoding runs every range check; a decoded tx passed them on decode
        if isinstance(tx, NameClaim):
            check_name(tx.name)
    except (CodecError, LedgerError) as exc:
        raise TxError("BadFormat", str(exc)) from exc
    if isinstance(tx, GAS_KINDS):
        if tx.gas < 1 or tx.gas_price < 1:
            raise TxError("BadFormat", "gas and gas_price must be >= 1")
        if tx.fee != tx.gas * tx.gas_price:
            raise TxError("BadFormat", f"fee {tx.fee} != gas*gas_price {tx.gas * tx.gas_price}")
    elif not isinstance(tx, DataOnly) and tx.fee < 1:
        # a reverted transaction must still pay something to the miner
        raise TxError("BadFormat", "fee must be at least 1 base unit")
    if isinstance(tx, Spend):  # the most frequent kind first; the kinds below are exclusive
        recipient = state.accounts.get(tx.recipient)
        if recipient is not None and recipient.kind == CONTRACT:
            raise TxError("SpendToContract", "contract accounts take no spends")
    elif isinstance(tx, ContractCreate) and tx.vm_version != tx.code.vm_version:
        raise TxError("BadFormat", "vm_version mismatch")
    elif isinstance(tx, AccountDelete) and tx.target == tx.sender:
        raise TxError("BadFormat", "cannot delete the fee-paying account")
    elif isinstance(tx, ChannelOpen) and tx.party_a == tx.party_b:
        raise TxError("BadFormat", "channel needs two distinct parties")
    elif isinstance(tx, (ChannelCloseCoop, ChannelChallenge)) and tx.state is None:
        raise TxError("BadFormat", f"{type(tx).__name__} needs a signed state")
    elif isinstance(tx, StorageCreate) and (tx.chunk_count < 1 or tx.challenge_period_n < 1):
        raise TxError("BadFormat", "chunk_count and period must be >= 1")

    sender = tx_sender(tx)
    msg = tx.signing_bytes()
    if tx.sig == ZERO_SIG:
        raise TxError("MissingSignature", "unsigned transaction")
    if not verify_sig(sender, msg, tx.sig):
        raise TxError("BadSignature", "envelope signature does not verify")
    if isinstance(tx, ChannelOpen):
        if tx.sig_b == ZERO_SIG:
            raise TxError("MissingSignature", "channel open needs both parties")
        if not verify_sig(tx.party_b, msg, tx.sig_b):
            raise TxError("BadSignature", "party B signature does not verify")

    account = state.accounts.get(sender)
    if account is None or tx.counter != account.counter + 1:
        have = account.counter if account else None
        raise TxError("BadCounter", f"counter {tx.counter}, account at {have}")
    balance, _ = charge_maintenance(account, state.height, state.cfg.maintenance_rate)
    if balance < effective_fee(tx):
        raise TxError("InsufficientForFee", f"{balance} < {effective_fee(tx)}")


# --- application -------------------------------------------------------


def _apply_inner(state: ChainState, tx, prev_hash: bytes) -> int:
    """Kind-specific value movement at ``state.height``, once the fee envelope
    escrowed what the tx sends and the id it mints proved unused. Returns the
    VM gas a ContractCreate, or a ContractCall to a contract, used; a
    DataOnly's payload length; 0 for every other kind."""
    if isinstance(tx, Spend):
        state.credit(tx.recipient, tx.amount)
    elif isinstance(tx, ContractCreate):
        address = created_id(tx)
        code_hash = tx.code.code_hash()
        state.accounts[address] = Account(
            address, tx.deposit + tx.amount, freshness=state.height, kind=CONTRACT, code_hash=code_hash
        )
        state.code[code_hash] = tx.code
        return _run(state, tx.code, tx, tx.owner, address)
    elif isinstance(tx, ContractCall):
        state.credit(tx.contract, tx.amount)
        target = state.accounts.get(tx.contract)
        if target is not None and target.kind == CONTRACT:
            return _run(state, state.code[target.code_hash], tx, tx.caller, tx.contract)
    elif isinstance(tx, DataOnly):
        return len(tx.payload)  # payload is inert; its cost was the fee
    elif isinstance(tx, NameClaim):
        if tx.name in state.names:
            raise LedgerError("NameTaken")
        state.names[tx.name] = NameRecord(tx.name, tx.target, tx.owner)
    elif isinstance(tx, AccountDelete):
        state.touch(tx.target)
        state.delete_account(tx.target)
        reward = min(state.cfg.delete_reward, state.pool.endowment)
        if reward:
            state.pool = replace(state.pool, endowment=state.pool.endowment - reward)
            state.credit(tx.sender, reward)
    elif isinstance(tx, ChannelOpen):
        channels.open_channel(state, created_id(tx), tx.party_a, tx.party_b, tx.deposit_a, tx.deposit_b)
    elif isinstance(tx, _ChannelTx):
        if tx.program is not None:
            state.code[tx.program.code_hash()] = tx.program
        if isinstance(tx, ChannelClose):
            channels.unilateral_close(state, tx.channel_id, tx.state)
        elif isinstance(tx, ChannelFinalize):
            channels.finalize(state, tx.channel_id)
        elif isinstance(tx, ChannelCloseCoop):
            channels.cooperative_close(state, tx.channel_id, tx.state)
        else:
            channels.challenge(state, tx.channel_id, tx.state)
    elif isinstance(tx, OracleRegister):
        oracles.register(state, created_id(tx), tx.asker, tx.question_hash, tx.start, tx.end)
    elif isinstance(tx, OracleAnswer):
        oracles.answer(state, tx.question_id, tx.sender, tx.bit)
    elif isinstance(tx, OracleCounter):
        oracles.counterclaim(state, tx.question_id, tx.sender)
    elif isinstance(tx, OracleVote):
        weight = pow.stake_weight(state, tx.sender)
        oracles.record_vote(state, tx.question_id, tx.sender, tx.bit, weight)
    elif isinstance(tx, OracleResolve):
        oracles.resolve(state, tx.question_id)
    elif isinstance(tx, StorageCreate):
        storage.create_contract(
            state, created_id(tx), tx.payer, tx.provider, tx.data_root, tx.chunk_count,
            tx.chunk_size, tx.challenge_period_n, tx.reward_per_proof, tx.escrow,
        )
    elif isinstance(tx, StorageProof):
        storage.prove_and_pay(state, tx.contract_id, tx.chunk, tx.proof, prev_hash)
    elif isinstance(tx, StorageClose):
        storage.close_contract(state, tx.contract_id, tx.sender)
    elif isinstance(tx, AzCreate):
        rewards.az_create(state, created_id(tx), tx.owner, tx.join_price)
    elif isinstance(tx, AzJoin):
        rewards.az_join(state, tx.sender, tx.az_id)
    elif isinstance(tx, AzRefer):
        rewards.az_refer(state, tx.sender, tx.user, tx.az_id)
    return 0


def _run(state: ChainState, program: Program, tx, caller: bytes, contract: bytes) -> int:
    """Run ``program`` on ``tx``'s call data within its gas; returns the gas
    used. BALANCE's view: handle 0 is ``caller``, 1 ``contract``, others hold 0."""

    def balance_of(handle: int) -> int:
        address = {0: caller, 1: contract}.get(handle)
        account = state.accounts.get(address) if address else None
        return account.balance if account else 0

    result = execute(program, list(tx.call_data), balance_of, tx.gas, state.cfg.pure_space)
    if result.status != HALTED:
        raise LedgerError(result.status)
    return result.gas_used


def apply_tx(state: ChainState, tx, miner: bytes, prev_hash: bytes) -> Receipt:
    """Apply ``tx`` at ``state.height`` in a block ``miner`` mines on ``prev_hash``;
    mutates state and raises TxError if the transaction is inapplicable.

    Transactional: on any raise the state is exactly as it was, so callers
    may probe candidates and skip failures without replay divergence. In a
    block it rolls back to a savepoint in ``_execute``'s journal; called
    alone, it opens its own and settles as a block of one tx: it credits
    ``miner`` the fee before it empties and closes the journal.
    """
    check_tx(state, tx)
    start = state.savepoint()
    try:
        receipt = _apply_checked(state, tx, prev_hash, start)
        if start.opened and receipt.fee_paid:
            state.credit(miner, receipt.fee_paid)
        return receipt
    except Exception:
        state.rollback(start)
        raise
    finally:
        state.release(start)


def _apply_checked(state: ChainState, tx, prev_hash: bytes, start: Savepoint) -> Receipt:
    """The tx's receipt once ``check_tx`` passed; a revert rolls back to
    ``start``, ``apply_tx``'s savepoint, and charges the fee envelope again."""
    this_hash = tx.digest()
    height = state.height
    if isinstance(tx, EpochTx):
        if height == 0 or height % state.cfg.blocks_per_epoch != 0:
            raise TxError("BadFormat", f"epoch tx at non-boundary height {height}")
        rewards.apply_epoch(state, tx.report)
        return Receipt(this_hash, APPLIED, 0, 0)

    sender = tx_sender(tx)
    fee = effective_fee(tx)

    payer = state.accounts[sender]
    balance, burned = charge_maintenance(payer, height, state.cfg.maintenance_rate)
    left = balance - fee  # check_tx saw the fee covered
    sent = 0
    if isinstance(tx, ESCROW_KINDS):
        sent = tx.amount + tx.deposit if isinstance(tx, ContractCreate) else tx.amount
    try:
        if left < sent:
            raise LedgerError("InsufficientFunds", f"{left} < {sent}")
        state.write_account(payer, left - sent, tx.counter, burned)
        store = _MINTED_IN.get(type(tx))
        if store is not None and (minted := created_id(tx)) in getattr(state, store):
            raise LedgerError("AddressCollision", minted.hex())
        gas_used = _apply_inner(state, tx, prev_hash)
    except LedgerError as exc:
        state.rollback(start)
        state.write_account(payer, left, tx.counter, burned)  # a revert keeps the fee and the counter bump
        reverted_gas = tx.gas if isinstance(tx, GAS_KINDS) else 0
        return Receipt(this_hash, REVERTED, reverted_gas, fee, exc.code)

    if isinstance(tx, GAS_KINDS):
        refund = (tx.gas - gas_used) * tx.gas_price
        if refund:
            state.credit(sender, refund)
        return Receipt(this_hash, APPLIED, gas_used, gas_used * tx.gas_price)
    return Receipt(this_hash, APPLIED, gas_used, fee)


# --- blocks ------------------------------------------------------------


def state_roots(state: ChainState) -> dict[str, bytes]:
    return {
        "account_root": state.account_root(),
        "name_root": state.name_root(),
        "wormhole_root": state.wormhole_root(),
        "oracle_open_root": state.oracle_open_root(),
        "oracle_answer_root": state.oracle_answer_root(),
    }


def _execute(state: ChainState, txs, miner: bytes, height: int, prev_hash: bytes, strict: bool):
    """The block transition both the miner and the validator run: clone the
    parent, mint the coinbase, apply ``txs`` in order under one undo
    journal (each ``apply_tx`` takes its own savepoint in it), credit the
    miner the receipts' fees at once, and commit.

    An inapplicable tx (``check_tx``'s ``TxError``, an EpochTx's failure or
    a ``CodecError`` raised while applying; see the module docstring) makes a
    ``strict`` caller, the validator, reject the block with ``BadTx``; the
    miner drops the tx instead. Returns the new state,
    the txs applied, their receipts and the header's commitment fields;
    ``proof_root`` commits a ``storage.ProofLeaf`` per applied StorageProof.
    """
    work = state.clone()
    work.height = height
    included: list = []
    receipts: list[Receipt] = []
    if height > 0:
        work.mint(miner, pow.coinbase(height, state.cfg))
    journal = work.savepoint()
    for tx in txs:
        try:
            receipts.append(apply_tx(work, tx, miner, prev_hash))
        except (LedgerError, CodecError) as exc:
            if strict:
                raise BlockError("BadTx", f"{exc}") from exc
            continue
        included.append(tx)
    if fees := sum(r.fee_paid for r in receipts):
        work.credit(miner, fees)
    work.release(journal)
    proved = [
        storage.ProofLeaf(t.contract_id, height, t.proof.leaf_index, hash256(t.chunk)).digest()
        for t, r in zip(included, receipts)
        if isinstance(t, StorageProof) and r.status == APPLIED
    ]
    commitments = dict(
        tx_root=tree_root([t.digest() for t in included]),
        proof_root=tree_root(proved),
        **state_roots(work),
    )
    return work, included, receipts, commitments


def apply_block(state: ChainState, block: Block) -> tuple[ChainState, list[Receipt]]:
    """Pure block transition; the header must already be validated."""
    header = block.header
    if header.tx_count != len(block.transactions):
        raise BlockError("RootMismatch", "tx_count")
    if header.height == 0 and block.transactions:
        raise BlockError("BadFormat", "genesis carries no transactions")
    work, _, receipts, commitments = _execute(
        state, block.transactions, header.miner, header.height, header.prev_hash, strict=True
    )
    for name, value in commitments.items():
        if getattr(header, name) != value:
            raise BlockError("RootMismatch", name)
    work.check_invariants(state)
    return work, receipts


def build_block(
    state: ChainState, candidate_txs: list, miner: bytes, prev_header: BlockHeader | None
) -> Block | None:
    """Assemble and mine the next block.

    Candidate transactions are taken in (fee density, tx hash) order, but
    each sender's txs fill the places they got in counter order; the epoch
    tx goes last, and inapplicable ones are dropped. Returns None if the
    PoW search exhausts its budget.
    """
    cfg = state.cfg
    height = 0 if prev_header is None else prev_header.height + 1
    prev_hash = ZERO32 if prev_header is None else prev_header.block_hash()
    user = sorted((t for t in candidate_txs if not isinstance(t, EpochTx)), key=_mempool_order)
    queues: dict[bytes, list] = {}  # each sender's txs, the lowest counter last
    for t in sorted(user, key=lambda t: t.counter)[::-1]:
        queues.setdefault(tx_sender(t), []).append(t)
    user = [queues[tx_sender(t)].pop() for t in user]
    system = [t for t in candidate_txs if isinstance(t, EpochTx)]
    txs = user + system if height > 0 else []
    _, included, _, commitments = _execute(state, txs, miner, height, prev_hash, strict=False)
    header_base = dict(
        height=height, prev_hash=prev_hash, tx_count=len(included), miner=miner, **commitments
    )
    probe = BlockHeader(entropy=ZERO32, pow_nonce=0, pow_cycle=(), **header_base)
    solution = pow.solve(probe.base_hash(), pow.PowParams.from_config(cfg), cfg.pow_nonce_budget)
    if solution is None:
        return None
    prev_entropy = ZERO32 if prev_header is None else prev_header.entropy
    header = BlockHeader(
        entropy=expected_entropy(prev_entropy, miner, solution.nonce),
        pow_nonce=solution.nonce,
        pow_cycle=solution.edges,
        **header_base,
    )
    return Block(header, tuple(included))


def _mempool_order(tx):
    size = len(encode_tx(tx))
    density = Fraction(effective_fee(tx), size) if size else Fraction(0)
    return (-density, tx.digest())


def genesis_block(cfg) -> tuple[ChainState, Block]:
    state = ChainState.genesis(cfg)
    block = build_block(state, [], ZERO32, prev_header=None)
    if block is None:
        raise BlockError("BadPow", "genesis mining exhausted its nonce budget")
    applied, _ = apply_block(state, block)
    return applied, block

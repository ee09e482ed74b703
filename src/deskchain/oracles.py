"""Yes/no oracle lifecycle.

A question escrows a deposit proportional to its answer window. The asker
answers for free inside the window; anyone may counter the answer with an
equal deposit, which moves the decision to a stake-weighted ballot. Expiry
without an answer burns the deposit. Every terminal path conserves the
escrow exactly: returned + burned = escrowed.
"""
from __future__ import annotations

from dataclasses import replace

from .codec import U64, Bytes32, Flag, Seq, Tag, WireRecord
from .crypto import ZERO32, hash256
from .errors import LedgerError

PH_OPEN = "open"
PH_ANSWERED = "answered"
PH_CONTESTED = "contested"
PH_RESOLVED = "resolved"
PH_BURNED = "burned"

PENDING = "pending"
BURNED = "burned"


class Vote(WireRecord):
    voter: Bytes32
    bit: Flag
    weight: U64  # stake snapshot when the ballot entered a block


class OracleQuestion(WireRecord):
    question_id: Bytes32
    asker: Bytes32
    question_hash: Bytes32
    start: U64
    end: U64
    deposit: U64
    phase: Tag[PH_OPEN, PH_ANSWERED, PH_CONTESTED, PH_RESOLVED, PH_BURNED] = PH_OPEN
    answer_bit: Flag = False
    answer_height: U64 = 0
    counter_party: Bytes32 = ZERO32
    counter_deposit: U64 = 0
    vote_end: U64 = 0
    votes: Seq[Vote] = ()
    resolved_bit: Flag = False

    def escrowed(self) -> int:
        """Deposits currently held by this question."""
        if self.phase in (PH_OPEN, PH_ANSWERED):
            return self.deposit
        if self.phase == PH_CONTESTED:
            return self.deposit + self.counter_deposit
        return 0


def question_id_for(asker: bytes, counter: int, question_hash: bytes) -> bytes:
    return hash256(b"oracle" + asker + counter.to_bytes(8, "big") + question_hash)


def window_deposit(start: int, end: int, cfg) -> int:
    return cfg.oracle_deposit_rate * (end - start)


def register(state, question_id: bytes, asker: bytes, question_hash: bytes, start: int, end: int) -> None:
    if end <= start or start < state.height:
        raise LedgerError("BadWindow", f"[{start}, {end}) at height {state.height}")
    deposit = window_deposit(start, end, state.cfg)
    state.debit(asker, deposit)
    state.oracles[question_id] = OracleQuestion(
        question_id, asker, question_hash, start, end, deposit
    )


def answer(state, question_id: bytes, caller: bytes, bit: bool) -> None:
    q = state.oracles.need(question_id)
    if q.phase != PH_OPEN:
        raise LedgerError("NotReady", f"phase {q.phase}")
    if caller != q.asker:
        raise LedgerError("NotAsker", "only the asker answers for free")
    if not q.start <= state.height <= q.end:
        raise LedgerError("OutsideWindow", f"height {state.height} not in [{q.start}, {q.end}]")
    state.oracles[question_id] = replace(
        q, phase=PH_ANSWERED, answer_bit=bit, answer_height=state.height
    )


def counterclaim(state, question_id: bytes, challenger: bytes) -> None:
    q = state.oracles.need(question_id)
    if q.phase != PH_ANSWERED:
        raise LedgerError("NotReady", f"phase {q.phase}")
    if state.height > q.end + state.cfg.oracle_challenge_window:
        raise LedgerError("TooLate", "challenge window closed")
    state.debit(challenger, q.deposit)  # same deposit, exactly
    state.oracles[question_id] = replace(
        q,
        phase=PH_CONTESTED,
        counter_party=challenger,
        counter_deposit=q.deposit,
        vote_end=state.height + state.cfg.oracle_vote_window,
    )


def record_vote(state, question_id: bytes, voter: bytes, bit: bool, weight: int) -> None:
    q = state.oracles.need(question_id)
    if q.phase != PH_CONTESTED:
        raise LedgerError("NotReady", f"phase {q.phase}")
    if state.height >= q.vote_end:
        raise LedgerError("TooLate", "vote window closed")
    if any(v.voter == voter for v in q.votes):
        raise LedgerError("AlreadyVoted", voter.hex())
    state.oracles[question_id] = replace(q, votes=q.votes + (Vote(voter, bit, weight),))


def tally(votes: tuple[Vote, ...]) -> tuple[int, int]:
    yes = sum(v.weight for v in votes if v.bit)
    no = sum(v.weight for v in votes if not v.bit)
    return yes, no


def resolve(state, question_id: bytes) -> None:
    q = state.oracles.need(question_id)
    if q.phase == PH_OPEN:
        if state.height <= q.end:
            raise LedgerError("NotReady", "window still open")
        state.burn(q.deposit)
        state.oracles[question_id] = replace(q, phase=PH_BURNED)
    elif q.phase == PH_ANSWERED:
        if state.height <= q.end + state.cfg.oracle_challenge_window:
            raise LedgerError("NotReady", "challenge window still open")
        state.credit(q.asker, q.deposit)
        state.oracles[question_id] = replace(q, phase=PH_RESOLVED, resolved_bit=q.answer_bit)
    elif q.phase == PH_CONTESTED:
        if state.height < q.vote_end:
            raise LedgerError("NotReady", "vote window still open")
        yes, no = tally(q.votes)
        if yes == no:
            bit = q.answer_bit  # tie keeps the original answer
        else:
            bit = yes > no
        if bit == q.answer_bit:
            state.credit(q.asker, q.deposit)
            state.burn(q.counter_deposit)
        else:
            state.credit(q.counter_party, q.counter_deposit)
            state.burn(q.deposit)
        state.oracles[question_id] = replace(q, phase=PH_RESOLVED, resolved_bit=bit)
    else:
        raise LedgerError("NotReady", f"phase {q.phase} is terminal")


def read_answer(state, question_id: bytes):
    """True/False once resolved, PENDING while live, BURNED forever after expiry."""
    q = state.oracles.need(question_id)
    if q.phase == PH_RESOLVED:
        return q.resolved_bit
    if q.phase == PH_BURNED:
        return BURNED
    return PENDING

"""Wormhole state channels.

A channel locks two parties' deposits on-chain; everything after that is
doubly-signed off-chain states with strictly increasing nonces. The chain
re-enters the picture for cooperative close, unilateral close with a
countdown, higher-nonce challenges, and contract-driven settlement, where
the contract is a pure VM program mapping its recorded state to a final
split of the locked total.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .codec import U64, Bytes32, I64s, Maybe, OptionalRecord, Sig, Tag, U64Pair, WireRecord, check_amount
from .crypto import ZERO_SIG, hash256, verify_sig
from .errors import DeskchainError, LedgerError, VmFailure
from .vm import Program, eval_pure

OPEN = "open"
CLOSING = "closing"
CLOSED = "closed"


class SignedState(WireRecord):
    channel_id: Bytes32
    nonce: U64
    balance_a: U64
    balance_b: U64
    contract_hash: Maybe[Bytes32] = None
    contract_state: I64s = ()
    sig_a: Sig = ZERO_SIG
    sig_b: Sig = ZERO_SIG

    def signing_bytes(self) -> bytes:
        """The wire bytes without the two sig fields."""
        return self._encode("omit")


class Channel(WireRecord):
    channel_id: Bytes32
    party_a: Bytes32
    party_b: Bytes32
    deposit_a: U64
    deposit_b: U64
    status: Tag[OPEN, CLOSING, CLOSED] = OPEN
    deadline: U64 = 0
    candidate: OptionalRecord[SignedState] = None
    final_split: Maybe[U64Pair] = None

    @property
    def total(self) -> int:
        return self.deposit_a + self.deposit_b


def channel_id_for(a: bytes, b: bytes, counter_a: int) -> bytes:
    return hash256(b"chan" + a + b + counter_a.to_bytes(8, "big"))


def nonce_zero_state(channel: Channel) -> SignedState:
    """Implicit settlement when no update was ever signed: the deposits."""
    return SignedState(channel.channel_id, 0, channel.deposit_a, channel.deposit_b)


def state_sigs_ok(channel: Channel, ss: SignedState) -> bool:
    if ss.channel_id != channel.channel_id:
        return False
    if ss.nonce == 0:
        return ss == nonce_zero_state(channel)
    msg = ss.signing_bytes()
    return verify_sig(channel.party_a, msg, ss.sig_a) and verify_sig(
        channel.party_b, msg, ss.sig_b
    )


def make_update(
    channel: Channel,
    prev: SignedState,
    new_balances: tuple[int, int],
    contract_hash: bytes | None = None,
    contract_state: tuple[int, ...] = (),
) -> SignedState:
    """Next off-chain state, unsigned; parties sign the signing_bytes."""
    bal_a, bal_b = (check_amount(v, "balance") for v in new_balances)
    if bal_a + bal_b != channel.total:
        raise LedgerError(
            "BalanceSumMismatch", f"{bal_a}+{bal_b} != locked {channel.total}"
        )
    return SignedState(
        channel_id=channel.channel_id,
        nonce=prev.nonce + 1,
        balance_a=bal_a,
        balance_b=bal_b,
        contract_hash=contract_hash,
        contract_state=tuple(contract_state),
    )


def sign_state(ss: SignedState, keypair, side: str) -> SignedState:
    sig = keypair.sign(ss.signing_bytes())
    if side == "a":
        return replace(ss, sig_a=sig)
    if side == "b":
        return replace(ss, sig_b=sig)
    raise ValueError(f"side must be 'a' or 'b', not {side!r}")


@dataclass
class ChannelEndpoint:
    """One holder's durable view of one channel: the doubly signed states in
    nonce order and the programs they name. A simulated party keeps its
    ``side``; the CLI's state directory holds both parties' keys and leaves
    ``side`` unset."""

    channel_id: bytes
    side: str | None = None  # "a" or "b"
    history: list[SignedState] = field(default_factory=list)
    programs: dict[bytes, Program] = field(default_factory=dict)

    def latest(self) -> SignedState | None:
        return self.history[-1] if self.history else None

    def latest_nonce(self) -> int:
        return self.history[-1].nonce if self.history else 0

    def record(self, ss: SignedState) -> None:
        if not self.history or ss.nonce > self.history[-1].nonce:
            self.history.append(ss)

    def by_nonce(self, nonce: int) -> SignedState | None:
        return next((ss for ss in self.history if ss.nonce == nonce), None)

    def program_for(self, ss: SignedState | None) -> Program | None:
        """The program ``ss`` settles by, if it names one this holder has."""
        return self.programs.get(ss.contract_hash) if ss and ss.contract_hash else None

    def settlement(
        self, action: str, channel: Channel | None, nonce: int | None = None
    ) -> tuple[SignedState | None, Program | None]:
        """The state and program a ``tx.SETTLE_KINDS[action]`` tx carries.

        A close or challenge carries the latest recorded state, or for a
        close the one ``nonce`` picks, with the program that state names; a
        close with no recorded state settles at the deposits. A close-coop
        carries the state alone, and a finalize only the program the
        on-chain ``channel``'s candidate names.
        """
        if action == "finalize":
            return None, self.program_for(channel.candidate if channel else None)
        ss = self.latest() if nonce is None else self.by_nonce(nonce)
        if ss is None and nonce is not None:
            raise DeskchainError(f"no recorded state with nonce {nonce}")
        if ss is None and action != "close":
            raise DeskchainError(f"no doubly signed state to {action} with")
        return ss, None if action == "close-coop" else self.program_for(ss)

    def propose(
        self, channel: Channel, balances: tuple[int, int], program: Program | None = None,
        contract_state: tuple[int, ...] = (),
    ) -> SignedState:
        """The unsigned successor of the latest state; remembers its program."""
        contract_hash = None
        if program is not None:
            contract_hash = program.code_hash()
            self.programs[contract_hash] = program
        prev = self.latest() or nonce_zero_state(channel)
        return make_update(channel, prev, balances, contract_hash, contract_state)


def settle_split(
    candidate: SignedState, total: int, program: Program | None, cfg
) -> tuple[int, int]:
    """Final (a, b) split; falls back to the candidate balances whenever the
    contract is missing, fails, or does not account for every locked unit."""
    fallback = (candidate.balance_a, candidate.balance_b)
    if candidate.contract_hash is None:
        return fallback
    if program is None or program.code_hash() != candidate.contract_hash:
        return fallback
    try:
        out = eval_pure(program, list(candidate.contract_state), cfg.pure_gas, cfg.pure_space)
    except VmFailure:
        return fallback
    if len(out) != 2 or out[0] < 0 or out[1] < 0 or out[0] + out[1] != total:
        return fallback
    return out[0], out[1]


# --- on-chain transitions (mutate a working ChainState at its height) ---


def _get_channel(state, channel_id: bytes, *statuses: str) -> Channel:
    channel = state.channels.get(channel_id)
    if channel is None or (statuses and channel.status not in statuses):
        raise LedgerError("WrongChannel", channel_id.hex())
    return channel


def open_channel(state, channel_id: bytes, a: bytes, b: bytes, deposit_a: int, deposit_b: int) -> None:
    state.debit(a, deposit_a)
    state.debit(b, deposit_b)
    state.channels[channel_id] = Channel(channel_id, a, b, deposit_a, deposit_b)


def _apply_split(state, channel: Channel, split: tuple[int, int]) -> None:
    if split[0] + split[1] != channel.total:
        raise LedgerError("BalanceSumMismatch", "settlement must conserve deposits")
    state.credit(channel.party_a, split[0])
    state.credit(channel.party_b, split[1])
    state.channels[channel.channel_id] = replace(
        channel, status=CLOSED, candidate=None, deadline=0, final_split=split
    )


def _settle(state, channel: Channel, ss: SignedState) -> None:
    """Close ``channel`` at ``ss``, by ``settle_split`` with the program ``ss``
    names if the chain's code store holds it."""
    program = state.code.get(ss.contract_hash) if ss.contract_hash else None
    _apply_split(state, channel, settle_split(ss, channel.total, program, state.cfg))


def cooperative_close(state, channel_id: bytes, final: SignedState) -> None:
    channel = _get_channel(state, channel_id, OPEN)
    if not state_sigs_ok(channel, final):
        raise LedgerError("BadSignature", "cooperative close needs both signatures")
    _apply_split(state, channel, (final.balance_a, final.balance_b))


def unilateral_close(state, channel_id: bytes, candidate: SignedState | None) -> None:
    channel = _get_channel(state, channel_id, OPEN)
    candidate = candidate if candidate is not None else nonce_zero_state(channel)
    if not state_sigs_ok(channel, candidate):
        raise LedgerError("BadSignature", "candidate state is not doubly signed")
    state.channels[channel_id] = replace(
        channel,
        status=CLOSING,
        deadline=state.height + state.cfg.countdown_blocks,
        candidate=candidate,
    )


def challenge(state, channel_id: bytes, better: SignedState) -> None:
    channel = _get_channel(state, channel_id, CLOSING)
    if state.height >= channel.deadline:
        raise LedgerError("TooLate", f"deadline {channel.deadline} passed at {state.height}")
    if not state_sigs_ok(channel, better):
        raise LedgerError("BadSignature", "challenge state is not doubly signed")
    assert channel.candidate is not None
    if better.nonce <= channel.candidate.nonce:
        raise LedgerError("NotBetter", f"{better.nonce} <= {channel.candidate.nonce}")
    _settle(state, channel, better)


def finalize(state, channel_id: bytes) -> None:
    channel = _get_channel(state, channel_id, CLOSING)
    if state.height < channel.deadline:
        raise LedgerError("NotYet", f"countdown ends at {channel.deadline}")
    assert channel.candidate is not None
    _settle(state, channel, channel.candidate)

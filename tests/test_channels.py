import dataclasses

import pytest

from deskchain import channels, templates, tx as txmod
from deskchain.channels import ChannelEndpoint, SignedState
from deskchain.crypto import ZERO_SIG, KeyPair
from deskchain.errors import DeskchainError, LedgerError
from deskchain.vm import assemble

from conftest import Bench, make_cfg, payment_split_state

DSD = 1_000_000


def open_channel(bench, a="alice", b="bob", dep_a=5 * DSD, dep_b=5 * DSD):
    kp_a, kp_b = bench.key(a), bench.key(b)
    counter = bench.counter(a)
    tx = txmod.ChannelOpen(kp_a.address, kp_b.address, dep_a, dep_b, 1, counter)
    tx = dataclasses.replace(tx, sig_b=kp_b.sign(tx.signing_bytes()))
    receipt = bench.apply(tx, kp_a)
    assert receipt.status == "applied"
    return channels.channel_id_for(kp_a.address, kp_b.address, counter)


def signed_update(bench, channel_id, balances, nonce=None, a="alice", b="bob",
                  contract_hash=None, contract_state=()):
    channel = bench.state.channels[channel_id]
    prev_nonce = (nonce - 1) if nonce else 0
    prev = dataclasses.replace(channels.nonce_zero_state(channel), nonce=prev_nonce)
    ss = channels.make_update(channel, prev, balances, contract_hash, contract_state)
    ss = channels.sign_state(ss, bench.key(a), "a")
    return channels.sign_state(ss, bench.key(b), "b")


def test_open_locks_funds(bench):
    total_before = sum(a.balance for a in bench.state.accounts.values())
    channel_id = open_channel(bench)
    channel = bench.state.channels[channel_id]
    assert channel.status == "open"
    assert channel.total == 10 * DSD
    assert bench.state.held("channels") == 10 * DSD
    # accounts dropped by deposits plus fee; the fee went to the miner
    total_after = sum(a.balance for a in bench.state.accounts.values())
    assert total_after == total_before - 10 * DSD
    assert bench.conservation_ok()


def test_open_insufficient_funds_reverts(bench):
    kp_a, kp_b = bench.key("alice"), bench.key("bob")
    tx = txmod.ChannelOpen(kp_a.address, kp_b.address, 500 * DSD, 1, 1, 1)
    tx = dataclasses.replace(tx, sig_b=kp_b.sign(tx.signing_bytes()))
    receipt = bench.apply(tx, kp_a)
    assert receipt.status == "reverted"
    assert not bench.state.channels


def test_open_missing_second_signature(bench):
    kp_a = bench.key("alice")
    tx = txmod.ChannelOpen(kp_a.address, bench.addr("bob"), 100, 100, 1, 1)
    from deskchain.errors import TxError

    with pytest.raises(TxError) as err:
        bench.apply(tx, kp_a)
    assert err.value.code == "MissingSignature"


def test_make_update_validations(bench):
    channel_id = open_channel(bench)
    channel = bench.state.channels[channel_id]
    zero = channels.nonce_zero_state(channel)
    ss = channels.make_update(channel, zero, (6 * DSD, 4 * DSD))
    assert ss.nonce == 1
    with pytest.raises(LedgerError) as err:
        channels.make_update(channel, zero, (7 * DSD, 4 * DSD))
    assert err.value.code == "BalanceSumMismatch"


def test_cooperative_close(bench):
    channel_id = open_channel(bench)
    final = signed_update(bench, channel_id, (6 * DSD, 4 * DSD), nonce=1)
    a_before, b_before = bench.balance("alice"), bench.balance("bob")
    kp = bench.key("alice")
    tx = txmod.ChannelCloseCoop(kp.address, channel_id, final, None, 1, bench.counter("alice"))
    assert bench.apply(tx, kp).status == "applied"
    channel = bench.state.channels[channel_id]
    assert channel.status == "closed"
    assert channel.final_split == (6 * DSD, 4 * DSD)
    assert bench.balance("alice") == a_before + 6 * DSD - 1  # minus the fee
    assert bench.balance("bob") == b_before + 4 * DSD
    assert bench.state.held("channels") == 0
    assert bench.conservation_ok()


def test_cooperative_close_needs_both_sigs(bench):
    channel_id = open_channel(bench)
    channel = bench.state.channels[channel_id]
    half = channels.make_update(channel, channels.nonce_zero_state(channel), (6 * DSD, 4 * DSD))
    half = channels.sign_state(half, bench.key("alice"), "a")
    kp = bench.key("alice")
    tx = txmod.ChannelCloseCoop(kp.address, channel_id, half, None, 1, bench.counter("alice"))
    receipt = bench.apply(tx, kp)
    assert receipt.status == "reverted"
    assert bench.state.channels[channel_id].status == "open"


def test_double_close_rejected(bench):
    channel_id = open_channel(bench)
    final = signed_update(bench, channel_id, (6 * DSD, 4 * DSD), nonce=1)
    kp = bench.key("alice")
    tx = txmod.ChannelCloseCoop(kp.address, channel_id, final, None, 1, bench.counter("alice"))
    assert bench.apply(tx, kp).status == "applied"
    tx2 = txmod.ChannelCloseCoop(kp.address, channel_id, final, None, 1, bench.counter("alice"))
    receipt = bench.apply(tx2, kp)
    assert receipt.status == "reverted"


def test_unilateral_close_starts_countdown(bench):
    channel_id = open_channel(bench)
    candidate = signed_update(bench, channel_id, (7 * DSD, 3 * DSD), nonce=5)
    kp = bench.key("bob")
    tx = txmod.ChannelClose(kp.address, channel_id, candidate, None, 1, bench.counter("bob"))
    assert bench.apply(tx, kp).status == "applied"
    channel = bench.state.channels[channel_id]
    assert channel.status == "closing"
    assert channel.deadline == bench.height + bench.cfg.countdown_blocks
    assert channel.candidate.nonce == 5


def test_unilateral_close_without_state_settles_deposits(bench):
    channel_id = open_channel(bench, dep_a=7 * DSD, dep_b=3 * DSD)
    kp = bench.key("alice")
    tx = txmod.ChannelClose(kp.address, channel_id, None, None, 1, bench.counter("alice"))
    assert bench.apply(tx, kp).status == "applied"
    bench.advance(bench.cfg.countdown_blocks)
    fin = txmod.ChannelFinalize(kp.address, channel_id, None, None, 1, bench.counter("alice"))
    assert bench.apply(fin, kp).status == "applied"
    assert bench.state.channels[channel_id].final_split == (7 * DSD, 3 * DSD)


def test_second_unilateral_close_rejected(bench):
    channel_id = open_channel(bench)
    candidate = signed_update(bench, channel_id, (7 * DSD, 3 * DSD), nonce=5)
    kp = bench.key("bob")
    tx = txmod.ChannelClose(kp.address, channel_id, candidate, None, 1, bench.counter("bob"))
    assert bench.apply(tx, kp).status == "applied"
    tx2 = txmod.ChannelClose(kp.address, channel_id, candidate, None, 1, bench.counter("bob"))
    assert bench.apply(tx2, kp).status == "reverted"


def test_challenge_higher_nonce_wins_immediately(bench):
    channel_id = open_channel(bench)
    stale = signed_update(bench, channel_id, (7 * DSD, 3 * DSD), nonce=5)
    better = signed_update(bench, channel_id, (2 * DSD, 8 * DSD), nonce=7)
    bob = bench.key("bob")
    tx = txmod.ChannelClose(bob.address, channel_id, stale, None, 1, bench.counter("bob"))
    assert bench.apply(tx, bob).status == "applied"
    alice = bench.key("alice")
    challenge = txmod.ChannelChallenge(alice.address, channel_id, better, None, 1, bench.counter("alice"))
    assert bench.apply(challenge, alice).status == "applied"
    channel = bench.state.channels[channel_id]
    assert channel.status == "closed"
    assert channel.final_split == (2 * DSD, 8 * DSD)
    assert bench.conservation_ok()


def test_challenge_equal_nonce_rejected(bench):
    channel_id = open_channel(bench)
    stale = signed_update(bench, channel_id, (7 * DSD, 3 * DSD), nonce=5)
    same = signed_update(bench, channel_id, (6 * DSD, 4 * DSD), nonce=5)
    bob = bench.key("bob")
    tx = txmod.ChannelClose(bob.address, channel_id, stale, None, 1, bench.counter("bob"))
    assert bench.apply(tx, bob).status == "applied"
    alice = bench.key("alice")
    challenge = txmod.ChannelChallenge(alice.address, channel_id, same, None, 1, bench.counter("alice"))
    assert bench.apply(challenge, alice).status == "reverted"
    assert bench.state.channels[channel_id].status == "closing"


def test_challenge_at_deadline_too_late(bench):
    channel_id = open_channel(bench)
    stale = signed_update(bench, channel_id, (7 * DSD, 3 * DSD), nonce=5)
    better = signed_update(bench, channel_id, (2 * DSD, 8 * DSD), nonce=7)
    bob = bench.key("bob")
    tx = txmod.ChannelClose(bob.address, channel_id, stale, None, 1, bench.counter("bob"))
    assert bench.apply(tx, bob).status == "applied"
    bench.advance(bench.cfg.countdown_blocks)  # exactly at the deadline
    alice = bench.key("alice")
    challenge = txmod.ChannelChallenge(alice.address, channel_id, better, None, 1, bench.counter("alice"))
    assert bench.apply(challenge, alice).status == "reverted"


def test_finalize_one_block_early_rejected(bench):
    channel_id = open_channel(bench)
    stale = signed_update(bench, channel_id, (7 * DSD, 3 * DSD), nonce=5)
    bob = bench.key("bob")
    tx = txmod.ChannelClose(bob.address, channel_id, stale, None, 1, bench.counter("bob"))
    assert bench.apply(tx, bob).status == "applied"
    bench.advance(bench.cfg.countdown_blocks - 1)
    fin = txmod.ChannelFinalize(bob.address, channel_id, None, None, 1, bench.counter("bob"))
    assert bench.apply(fin, bob).status == "reverted"
    bench.advance(1)
    fin = txmod.ChannelFinalize(bob.address, channel_id, None, None, 1, bench.counter("bob"))
    assert bench.apply(fin, bob).status == "applied"
    assert bench.state.channels[channel_id].final_split == (7 * DSD, 3 * DSD)


def _singly_signed(bench, channel_id, balances, nonce):
    """A state at ``nonce`` that carries party A's signature alone."""
    return dataclasses.replace(signed_update(bench, channel_id, balances, nonce=nonce), sig_b=ZERO_SIG)


def test_a_unilateral_close_needs_a_doubly_signed_state(bench):
    channel_id = open_channel(bench)
    half = _singly_signed(bench, channel_id, (7 * DSD, 3 * DSD), nonce=5)
    kp = bench.key("alice")
    tx = txmod.ChannelClose(kp.address, channel_id, half, None, 1, bench.counter("alice"))
    assert bench.apply(tx, kp).reason == "BadSignature"
    assert bench.state.channels[channel_id].status == "open"


def test_a_challenge_needs_a_doubly_signed_state(bench):
    # a later nonce signed by one side only does not displace the candidate
    channel_id = open_channel(bench)
    stale = signed_update(bench, channel_id, (7 * DSD, 3 * DSD), nonce=5)
    bob = bench.key("bob")
    tx = txmod.ChannelClose(bob.address, channel_id, stale, None, 1, bench.counter("bob"))
    assert bench.apply(tx, bob).status == "applied"
    half = _singly_signed(bench, channel_id, (2 * DSD, 8 * DSD), nonce=7)
    alice = bench.key("alice")
    challenge = txmod.ChannelChallenge(alice.address, channel_id, half, None, 1, bench.counter("alice"))
    assert bench.apply(challenge, alice).reason == "BadSignature"
    assert bench.state.channels[channel_id].candidate == stale


def test_a_cooperative_close_whose_balances_miss_the_deposits_reverts(bench):
    # both signatures do not make a split that mints or burns acceptable
    channel_id = open_channel(bench)
    final = SignedState(channel_id, 1, 6 * DSD, 5 * DSD)
    final = channels.sign_state(channels.sign_state(final, bench.key("alice"), "a"), bench.key("bob"), "b")
    kp = bench.key("alice")
    tx = txmod.ChannelCloseCoop(kp.address, channel_id, final, None, 1, bench.counter("alice"))
    assert bench.apply(tx, kp).reason == "BalanceSumMismatch"
    assert bench.state.channels[channel_id].status == "open"
    assert bench.conservation_ok()


def test_sign_state_signs_as_side_a_or_b_only(bench):
    ss = SignedState(b"\x01" * 32, 1, 4 * DSD, 4 * DSD)
    with pytest.raises(ValueError):
        channels.sign_state(ss, bench.key("alice"), "c")


def test_settle_split_payment_template(cfg):
    program = templates.PAYMENT_SPLIT
    candidate = SignedState(
        b"\x01" * 32, 3, 4 * DSD, 4 * DSD,
        program.code_hash(), tuple(payment_split_state(8 * DSD, 3, 1)),
    )
    split = channels.settle_split(candidate, 8 * DSD, program, cfg)
    assert split == (6 * DSD, 2 * DSD)


def test_settle_split_fallbacks(cfg):
    failing = assemble("FAIL")
    candidate = SignedState(b"\x01" * 32, 3, 4 * DSD, 4 * DSD, failing.code_hash(), ())
    assert channels.settle_split(candidate, 8 * DSD, failing, cfg) == (4 * DSD, 4 * DSD)
    # split not summing to deposits falls back too
    bad_sum = assemble("PUSH 1\nPUSH 1\nSTOP")
    candidate = SignedState(b"\x01" * 32, 3, 4 * DSD, 4 * DSD, bad_sum.code_hash(), ())
    assert channels.settle_split(candidate, 8 * DSD, bad_sum, cfg) == (4 * DSD, 4 * DSD)
    # missing or mismatched program falls back
    assert channels.settle_split(candidate, 8 * DSD, None, cfg) == (4 * DSD, 4 * DSD)
    assert channels.settle_split(candidate, 8 * DSD, failing, cfg) == (4 * DSD, 4 * DSD)


@pytest.mark.parametrize("ratio, split", [((0, 1), (0, 8 * DSD)), ((1, 0), (8 * DSD, 0))])
def test_a_contract_split_that_pays_one_side_nothing_settles_as_the_contract_says(cfg, ratio, split):
    # any two non-negative amounts that sum to the deposits are the split,
    # 0 included; the candidate's balances are only the fallback
    program = templates.PAYMENT_SPLIT
    candidate = SignedState(
        b"\x01" * 32, 3, 4 * DSD, 4 * DSD,
        program.code_hash(), tuple(payment_split_state(8 * DSD, *ratio)),
    )
    assert channels.settle_split(candidate, 8 * DSD, program, cfg) == split


def test_an_endpoint_records_each_nonce_once():
    # a holder keeps the first state it saw at a nonce and never an older one
    cid = b"\x01" * 32
    endpoint = ChannelEndpoint(cid)
    first = SignedState(cid, 1, 4 * DSD, 4 * DSD)
    endpoint.record(first)
    endpoint.record(SignedState(cid, 1, 3 * DSD, 5 * DSD))
    endpoint.record(SignedState(cid, 0, 4 * DSD, 4 * DSD))
    assert endpoint.history == [first]
    later = SignedState(cid, 2, 2 * DSD, 6 * DSD)
    endpoint.record(later)
    assert endpoint.history == [first, later]


def test_htlc_finalize_end_to_end(bench):
    # candidate carries a hash-timelock whose preimage is revealed in the
    # recorded contract state; settlement pays party B the full lock
    channel_id = open_channel(bench)
    program = templates.HASH_TIMELOCK
    cstate = templates.hash_timelock_state(10 * DSD, preimage=424242, deadline=100, height=10)
    candidate = signed_update(
        bench, channel_id, (10 * DSD, 0), nonce=1,
        contract_hash=program.code_hash(), contract_state=tuple(cstate),
    )
    bob = bench.key("bob")
    tx = txmod.ChannelClose(bob.address, channel_id, candidate, program, 1, bench.counter("bob"))
    assert bench.apply(tx, bob).status == "applied"
    bench.advance(bench.cfg.countdown_blocks)
    fin = txmod.ChannelFinalize(bob.address, channel_id, None, program, 1, bench.counter("bob"))
    assert bench.apply(fin, bob).status == "applied"
    assert bench.state.channels[channel_id].final_split == (0, 10 * DSD)
    assert bench.conservation_ok()


def test_funds_safety_every_close_path(bench):
    # no close path mints or burns: final splits always sum to deposits
    for path in ("coop", "unilateral", "challenge"):
        channel_id = open_channel(bench)
        channel = bench.state.channels[channel_id]
        if path == "coop":
            final = signed_update(bench, channel_id, (1 * DSD, 9 * DSD), nonce=1)
            kp = bench.key("alice")
            tx = txmod.ChannelCloseCoop(kp.address, channel_id, final, None, 1, bench.counter("alice"))
            bench.apply(tx, kp)
        elif path == "unilateral":
            stale = signed_update(bench, channel_id, (2 * DSD, 8 * DSD), nonce=1)
            kp = bench.key("bob")
            bench.apply(txmod.ChannelClose(kp.address, channel_id, stale, None, 1, bench.counter("bob")), kp)
            bench.advance(bench.cfg.countdown_blocks)
            bench.apply(txmod.ChannelFinalize(kp.address, channel_id, None, None, 1, bench.counter("bob")), kp)
        else:
            stale = signed_update(bench, channel_id, (2 * DSD, 8 * DSD), nonce=1)
            better = signed_update(bench, channel_id, (9 * DSD, 1 * DSD), nonce=2)
            kp = bench.key("bob")
            bench.apply(txmod.ChannelClose(kp.address, channel_id, stale, None, 1, bench.counter("bob")), kp)
            alice = bench.key("alice")
            bench.apply(txmod.ChannelChallenge(alice.address, channel_id, better, None, 1, bench.counter("alice")), alice)
        closed = bench.state.channels[channel_id]
        assert closed.status == "closed"
        assert sum(closed.final_split) == closed.total
        assert bench.conservation_ok()


def test_disjoint_channels_commute():
    # applying operations on disjoint channels in either order yields the
    # same committed state
    def run(order):
        bench = Bench(make_cfg())
        ch1 = open_channel(bench, "alice", "bob")
        ch2 = open_channel(bench, "carol", "miner", dep_a=2 * DSD, dep_b=2 * DSD)
        ops = {
            "close1": lambda: bench.apply(
                txmod.ChannelCloseCoop(
                    bench.addr("alice"), ch1,
                    signed_update(bench, ch1, (6 * DSD, 4 * DSD), nonce=1),
                    None, 1, bench.counter("alice"),
                ), bench.key("alice")),
            "close2": lambda: bench.apply(
                txmod.ChannelCloseCoop(
                    bench.addr("carol"), ch2,
                    signed_update(bench, ch2, (1 * DSD, 3 * DSD), nonce=1, a="carol", b="miner"),
                    None, 1, bench.counter("carol"),
                ), bench.key("carol")),
        }
        for name in order:
            ops[name]()
        return bench.state

    s1 = run(["close1", "close2"])
    s2 = run(["close2", "close1"])
    assert s1.account_root() == s2.account_root()
    assert s1.wormhole_root() == s2.wormhole_root()


def test_signed_state_encoding_round_trip():
    from deskchain.codec import Reader

    ss = SignedState(b"\x01" * 32, 9, 1, 2, b"\x02" * 32, (3, -4, 5), b"\x0a" * 64, b"\x0b" * 64)
    assert SignedState.read(Reader(ss.encode())) == ss
    assert ss.signing_bytes() != ss.encode()


def _endpoint(*nonces):
    """A holder of plain states at ``nonces`` and, one nonce later, a state
    that settles by the payment-split program, on a channel closing on it."""
    program = templates.PAYMENT_SPLIT
    cid = b"\x01" * 32
    history = [SignedState(cid, n, 4 * DSD, 4 * DSD) for n in nonces]
    history.append(SignedState(cid, len(nonces) + 1, 3 * DSD, 5 * DSD, program.code_hash(), (1,)))
    channel = channels.Channel(
        cid, b"\x0a" * 32, b"\x0b" * 32, 4 * DSD, 4 * DSD, channels.CLOSING, 9, history[-1]
    )
    return ChannelEndpoint(cid, history=history, programs={program.code_hash(): program}), channel


@pytest.mark.parametrize("action, carries_program", [
    ("close", True), ("challenge", True), ("close-coop", False),
])
def test_settlement_carries_the_latest_state_by_default(action, carries_program):
    endpoint, channel = _endpoint(1)
    latest = endpoint.latest()
    program = templates.PAYMENT_SPLIT if carries_program else None
    assert endpoint.settlement(action, channel) == (latest, program)


def test_settlement_close_picks_a_state_by_nonce():
    endpoint, channel = _endpoint(1, 2)
    assert endpoint.settlement("close", channel, nonce=1) == (endpoint.history[0], None)
    assert endpoint.settlement("close", channel, nonce=3) == (endpoint.history[2], templates.PAYMENT_SPLIT)
    with pytest.raises(DeskchainError, match="^no recorded state with nonce 7$"):
        endpoint.settlement("close", channel, nonce=7)


@pytest.mark.parametrize("action", ["close-coop", "challenge"])
def test_settlement_without_a_recorded_state_needs_one_for(action):
    endpoint = ChannelEndpoint(b"\x01" * 32)
    with pytest.raises(DeskchainError, match=f"^no doubly signed state to {action} with$"):
        endpoint.settlement(action, None)
    # a unilateral close with nothing recorded settles at the deposits
    assert endpoint.settlement("close", None) == (None, None)


def test_settlement_finalize_takes_the_candidates_program():
    endpoint, channel = _endpoint()
    assert endpoint.settlement("finalize", channel) == (None, templates.PAYMENT_SPLIT)
    # no on-chain channel, or a holder without the program: nothing to add
    assert endpoint.settlement("finalize", None) == (None, None)
    assert ChannelEndpoint(channel.channel_id).settlement("finalize", channel) == (None, None)


def test_a_state_signed_for_another_channel_is_refused():
    # both parties signed it, so only the channel id tells the two channels apart
    alice, bob = KeyPair.from_name("alice"), KeyPair.from_name("bob")
    channel = channels.Channel(b"\x01" * 32, alice.address, bob.address, 4 * DSD, 4 * DSD)
    ss = channels.make_update(channel, channels.nonce_zero_state(channel), (3 * DSD, 5 * DSD))
    ss = channels.sign_state(channels.sign_state(ss, alice, "a"), bob, "b")
    assert channels.state_sigs_ok(channel, ss)
    other = dataclasses.replace(channel, channel_id=b"\x02" * 32)
    assert not channels.state_sigs_ok(other, ss)

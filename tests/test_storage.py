import pytest

from deskchain import storage, tx as txmod
from deskchain.crypto import hash256
from deskchain.errors import LedgerError
from deskchain.merkle import merkle_prove

from conftest import storage_payout_state




def test_chunking_three_bytes_two_chunks():
    chunks = storage.chunk_data(b"abc", 2)
    assert len(chunks) == 2
    assert chunks[0] == b"ab"
    # last chunk: zero-padded to size, then 8-byte original length
    assert chunks[1] == b"c\x00" + (3).to_bytes(8, "big")


def test_commit_deterministic_and_sensitive():
    _, root1 = storage.commit_data(b"hello world", 4)
    _, root2 = storage.commit_data(b"hello world", 4)
    _, root3 = storage.commit_data(b"hellp world", 4)
    assert root1 == root2
    assert root1 != root3


def test_empty_data_rejected():
    with pytest.raises(LedgerError):
        storage.chunk_data(b"", 4)


def test_challenge_index_mod_one():
    for i in range(5):
        assert storage.challenge_index(hash256(bytes([i])), b"\x01" * 32, 1) == 0


def test_challenge_index_deterministic():
    a = storage.challenge_index(hash256(b"block"), b"\x01" * 32, 16)
    b = storage.challenge_index(hash256(b"block"), b"\x01" * 32, 16)
    assert a == b


def test_challenge_index_histogram():
    # 1,000 simulated block hashes over 16 chunks; frozen bound computed
    # from this seeded run (observed max/min ratio 1.3148) with headroom
    counts = [0] * 16
    for height in range(1000):
        prev = hash256(b"chain" + height.to_bytes(4, "big"))
        counts[storage.challenge_index(prev, b"\x02" * 32, 16)] += 1
    assert min(counts) > 0
    ratio = max(counts) / min(counts)
    assert ratio <= 2.0


def test_challenge_index_reacts_to_prev_hash():
    # sanity: over 100 seeded contracts, flipping one byte of the previous
    # block hash moves the index for at least one contract
    prev = hash256(b"prev")
    flipped = bytes([prev[0] ^ 1]) + prev[1:]
    moved = 0
    for i in range(100):
        cid = hash256(b"contract" + bytes([i]))
        if storage.challenge_index(prev, cid, 16) != storage.challenge_index(flipped, cid, 16):
            moved += 1
    assert moved >= 1


@pytest.mark.parametrize("call", [
    lambda cfg: storage.chunk_data(b"abc", 0),
    lambda cfg: storage.challenge_index(hash256(b"prev"), b"\x01" * 32, 0),
    lambda cfg: storage.retrieval_quote(-1, cfg),
], ids=["chunk-size-0", "chunk-count-0", "negative-bytes"])
def test_chunking_challenges_and_quotes_refuse_values_outside_their_domain(cfg, call):
    with pytest.raises(LedgerError) as err:
        call(cfg)
    assert err.value.code == "BadFormat"


def test_retrieval_quotes(cfg):
    assert storage.retrieval_quote(65_536, cfg) == 100_000  # 0.1 DSD per 64 KiB
    assert storage.retrieval_quote(192 * 1024, cfg) == 300_000
    assert storage.retrieval_quote(1, cfg) == 100_000
    assert storage.retrieval_quote(0, cfg) == 0


def _setup_contract(bench, data=b"0123456789abcdef", chunk_size=4, period=2,
                    reward=50, escrow=200):
    chunks, root = storage.commit_data(data, chunk_size)
    payer = bench.key("alice")
    counter = bench.counter("alice")
    tx = txmod.StorageCreate(
        payer.address, bench.addr("bob"), root, len(chunks), chunk_size,
        period, reward, escrow, 1, counter,
    )
    assert bench.apply(tx, payer).status == "applied"
    return storage.contract_id_for(payer.address, counter), chunks


def _prove(bench, contract_id, chunks, prev, height=None, index=None, chunk=None):
    height = bench.height if height is None else height
    want = storage.challenge_index(prev, contract_id, len(chunks))
    index = want if index is None else index
    proof = merkle_prove(chunks, index)
    kp = bench.key("bob")
    tx = txmod.StorageProof(
        kp.address, contract_id,
        chunks[index] if chunk is None else chunk,
        proof, 1, bench.counter("bob"),
    )
    return bench.apply(tx, kp, prev_block_hash=prev)


@pytest.mark.parametrize("chunk_count, period", [(0, 2), (4, 0)], ids=["chunks-0", "period-0"])
def test_a_storage_create_with_no_chunks_or_no_period_is_inapplicable(bench, chunk_count, period):
    payer = bench.key("alice")
    tx = txmod.StorageCreate(
        payer.address, bench.addr("bob"), hash256(b"root"), chunk_count, 4,
        period, 50, 200, 1, bench.counter("alice"),
    )
    with pytest.raises(LedgerError) as err:
        bench.apply(tx, payer)
    assert err.value.code == "BadFormat"
    assert not bench.state.storage_contracts


def _close(bench, contract_id, sender="alice"):
    kp = bench.key(sender)
    return bench.apply(txmod.StorageClose(kp.address, contract_id, 1, bench.counter(sender)), kp)


def test_a_closed_contract_takes_no_proof_and_no_second_close(bench):
    contract_id, chunks = _setup_contract(bench)
    assert _close(bench, contract_id).status == "applied"
    bench.advance(1)  # height 2, a challenge height for period 2
    bob_before = bench.balance("bob")
    assert _prove(bench, contract_id, chunks, hash256(b"prev-block")).reason == "WrongChannel"
    assert bench.balance("bob") == bob_before - 1  # the fee alone
    alice_before = bench.balance("alice")
    assert _close(bench, contract_id).reason == "WrongChannel"
    assert bench.balance("alice") == alice_before - 1


def test_only_the_payer_closes_a_storage_contract(bench):
    contract_id, _ = _setup_contract(bench)
    contract = bench.state.storage_contracts[contract_id]
    bob_before, counter = bench.balance("bob"), bench.counter("bob")
    receipt = _close(bench, contract_id, sender="bob")
    assert (receipt.status, receipt.reason, receipt.fee_paid) == ("reverted", "BadFormat", 1)
    assert bench.state.storage_contracts[contract_id] == contract  # open, with its escrow
    assert (bench.balance("bob"), bench.counter("bob")) == (bob_before - 1, counter + 1)


def test_prove_and_pay_happy_path(bench):
    contract_id, chunks = _setup_contract(bench)
    bench.advance(1)  # height 2, a challenge height for period 2
    prev = hash256(b"prev-block")
    bob_before = bench.balance("bob")
    receipt = _prove(bench, contract_id, chunks, prev)
    assert receipt.status == "applied"
    assert bench.balance("bob") == bob_before + 50 - 1
    assert bench.state.storage_contracts[contract_id].escrow == 150
    assert bench.conservation_ok()


def test_a_contract_of_one_one_byte_chunk_is_proved_every_block(bench):
    # chunk count, chunk size and challenge period may each be 1
    contract_id, chunks = _setup_contract(bench, data=b"x", chunk_size=1, period=1)
    assert len(chunks) == 1
    for _ in range(2):
        bench.advance(1)
        assert _prove(bench, contract_id, chunks, hash256(b"prev-block")).status == "applied"


def test_prove_wrong_chunk_rejected(bench):
    contract_id, chunks = _setup_contract(bench)
    bench.advance(1)
    prev = hash256(b"prev-block")
    idx = storage.challenge_index(prev, contract_id, len(chunks))
    bad = bytes([chunks[idx][0] ^ 1]) + chunks[idx][1:]
    receipt = _prove(bench, contract_id, chunks, prev, chunk=bad)
    assert receipt.status == "reverted"
    assert bench.state.storage_contracts[contract_id].escrow == 200


def test_prove_wrong_index_rejected(bench):
    contract_id, chunks = _setup_contract(bench)
    bench.advance(1)
    prev = hash256(b"prev-block")
    want = storage.challenge_index(prev, contract_id, len(chunks))
    receipt = _prove(bench, contract_id, chunks, prev, index=(want + 1) % len(chunks))
    assert receipt.status == "reverted"


def test_prove_off_schedule_rejected(bench):
    contract_id, chunks = _setup_contract(bench)
    # height 1 is not a multiple of period 2
    receipt = _prove(bench, contract_id, chunks, hash256(b"x"))
    assert receipt.status == "reverted"


def test_second_proof_same_height_rejected(bench):
    contract_id, chunks = _setup_contract(bench)
    bench.advance(1)
    prev = hash256(b"prev-block")
    assert _prove(bench, contract_id, chunks, prev).status == "applied"
    assert _prove(bench, contract_id, chunks, prev).status == "reverted"


def test_soundness_exhaustive_single_byte_mutations(bench):
    # 8-chunk contract: every single-byte mutation of the challenged chunk
    # must be rejected
    data = bytes(range(32))
    contract_id, chunks = _setup_contract(bench, data=data, chunk_size=4)
    assert len(chunks) == 8
    contract = bench.state.storage_contracts[contract_id]
    prev = hash256(b"mutation-prev")
    idx = storage.challenge_index(prev, contract_id, 8)
    proof = merkle_prove(chunks, idx)
    good = chunks[idx]
    from deskchain.merkle import merkle_verify

    accepted = 0
    for pos in range(len(good)):
        for delta in range(1, 256):
            mutated = bytes(good[:pos]) + bytes([good[pos] ^ delta]) + bytes(good[pos + 1 :])
            if merkle_verify(contract.data_root, mutated, proof, 8):
                accepted += 1
    assert accepted == 0


def test_escrow_conservation_over_lifecycle(bench):
    contract_id, chunks = _setup_contract(bench, period=2, reward=60, escrow=150)
    paid_total = 0
    for step in range(2):
        bench.advance(2 - (bench.height % 2))  # to the next even height
        prev = hash256(b"p" + bytes([step]))
        receipt = _prove(bench, contract_id, chunks, prev)
        assert receipt.status == "applied"
        paid_total += min(60, 150 - paid_total)
    contract = bench.state.storage_contracts[contract_id]
    assert contract.escrow == 150 - paid_total
    alice_before = bench.balance("alice")
    kp = bench.key("alice")
    close = txmod.StorageClose(kp.address, contract_id, 1, bench.counter("alice"))
    assert bench.apply(close, kp).status == "applied"
    refunded = 150 - paid_total
    assert bench.balance("alice") == alice_before + refunded - 1
    contract = bench.state.storage_contracts[contract_id]
    assert contract.closed and contract.escrow == 0
    assert paid_total + refunded == 150
    assert bench.conservation_ok()


def test_spot_check_honest_always_accepts():
    steps = [hash256(b"step" + bytes([i])) for i in range(4)]
    trace = storage.ComputeTrace(tuple(steps), b"out")
    for i in range(20):
        assert storage.spot_check(trace, lambda k: steps[k], hash256(bytes([i])))


def test_spot_check_corruption_detected_at_expected_rate():
    # one corrupted commitment among 4: detection rate 1/4 per draw; over
    # 200 seeded draws the observed rate must sit within 0.25 +/- 0.10
    honest = [hash256(b"step" + bytes([i])) for i in range(4)]
    committed = list(honest)
    committed[2] = hash256(b"lie")
    trace = storage.ComputeTrace(tuple(committed), b"out")
    rejections = 0
    for i in range(200):
        entropy = hash256(b"draw" + i.to_bytes(4, "big"))
        if not storage.spot_check(trace, lambda k: honest[k], entropy):
            rejections += 1
    assert abs(rejections / 200 - 0.25) <= 0.10


def test_spot_check_empty_trace_rejected():
    with pytest.raises(LedgerError):
        storage.ComputeTrace((), b"out")


def test_storage_contract_encoding_round_trip():
    from deskchain.codec import Reader

    contract = storage.StorageContract(
        b"\x01" * 32, b"\x02" * 32, b"\x03" * 32, b"\x04" * 32, 8, 4, 2, 60, 150, 4, False
    )
    assert storage.StorageContract.read(Reader(contract.encode())) == contract


def test_retrieval_paid_via_superseding_channel_updates(bench):
    # the download path: each served 64 KiB unit re-signs the channel with
    # a higher nonce and a bigger provider share; only the last state
    # settles on-chain
    import dataclasses

    from deskchain import channels, tx as txmod

    cfg = bench.cfg
    kp_a, kp_b = bench.key("alice"), bench.key("bob")
    counter = bench.counter("alice")
    open_tx = txmod.ChannelOpen(kp_a.address, kp_b.address, 1_000_000, 0, 1, counter)
    open_tx = dataclasses.replace(open_tx, sig_b=kp_b.sign(open_tx.signing_bytes()))
    assert bench.apply(open_tx, kp_a).status == "applied"
    channel_id = channels.channel_id_for(kp_a.address, kp_b.address, counter)
    channel = bench.state.channels[channel_id]

    prev = channels.nonce_zero_state(channel)
    total = channel.total
    for units_served in (1, 2, 3):  # three 64 KiB units stream across
        owed = storage.retrieval_quote(units_served * cfg.retrieval_unit, cfg)
        ss = channels.make_update(channel, prev, (total - owed, owed))
        ss = channels.sign_state(channels.sign_state(ss, kp_a, "a"), kp_b, "b")
        prev = ss
    assert prev.nonce == 3 and prev.balance_b == 300_000

    close = txmod.ChannelCloseCoop(kp_b.address, channel_id, prev, None, 1, bench.counter("bob"))
    bob_before = bench.balance("bob")
    assert bench.apply(close, kp_b).status == "applied"
    assert bench.balance("bob") == bob_before + 300_000 - 1
    assert bench.conservation_ok()


def test_spot_check_acceptance_settles_channel(bench):
    # accepted spot check -> the storage-payout contract settles the
    # channel escrow in the provider's favor
    import dataclasses

    from deskchain import channels, templates, tx as txmod

    steps = [hash256(b"checkpoint" + bytes([i])) for i in range(4)]
    trace = storage.ComputeTrace(tuple(steps), b"result")
    entropy = hash256(b"beacon")
    assert storage.spot_check(trace, lambda k: steps[k], entropy)

    kp_a, kp_b = bench.key("alice"), bench.key("bob")
    counter = bench.counter("alice")
    open_tx = txmod.ChannelOpen(kp_a.address, kp_b.address, 900, 100, 1, counter)
    open_tx = dataclasses.replace(open_tx, sig_b=kp_b.sign(open_tx.signing_bytes()))
    assert bench.apply(open_tx, kp_a).status == "applied"
    channel_id = channels.channel_id_for(kp_a.address, kp_b.address, counter)
    channel = bench.state.channels[channel_id]

    program = templates.STORAGE_PAYOUT
    cstate = storage_payout_state(escrow=1000, proofs_ok=1, reward_per_proof=600)
    ss = channels.make_update(
        channel, channels.nonce_zero_state(channel), (900, 100),
        program.code_hash(), tuple(cstate),
    )
    ss = channels.sign_state(channels.sign_state(ss, kp_a, "a"), kp_b, "b")
    close = txmod.ChannelClose(kp_b.address, channel_id, ss, program, 1, bench.counter("bob"))
    assert bench.apply(close, kp_b).status == "applied"
    bench.advance(bench.cfg.countdown_blocks)
    fin = txmod.ChannelFinalize(kp_b.address, channel_id, None, program, 1, bench.counter("bob"))
    assert bench.apply(fin, kp_b).status == "applied"
    assert bench.state.channels[channel_id].final_split == (400, 600)
    assert bench.conservation_ok()

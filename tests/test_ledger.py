import copy
import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from deskchain import channels, oracles, rewards, storage, tx as txmod
from deskchain.codec import Reader
from deskchain.crypto import KeyPair, ZERO32
from deskchain.errors import BlockError, CodecError, LedgerError, TxError
from deskchain.ledger import (
    Account, NameRecord, charge_maintenance, expected_entropy, validate_header,
    verify_light,
)
from deskchain.merkle import merkle_prove
from deskchain.state import _STORES, ChainState
from deskchain.vm import assemble

from conftest import Bench, make_cfg


def test_account_encode_round_trip():
    a = Account(b"\x07" * 32, 42, counter=3, freshness=9)
    assert Account.read(Reader(a.encode())) == a
    c = Account(b"\x08" * 32, 0, kind="contract", code_hash=b"\x01" * 32)
    assert Account.read(Reader(c.encode())) == c


def test_external_account_rejects_code():
    with pytest.raises(LedgerError):
        Account(b"\x01" * 32, 0, code_hash=b"\x02" * 32)


def test_name_record_rules():
    NameRecord("plant-7", b"\x03" * 32, b"\x04" * 32)
    with pytest.raises(LedgerError):
        NameRecord("x" * 65, b"\x03" * 32, b"\x04" * 32)
    with pytest.raises(LedgerError):
        NameRecord("ok", b"\x03" * 31, b"\x04" * 32)


def test_a_name_of_64_utf8_bytes_is_claimed_and_one_of_65_refused(bench):
    # a name is 1 to 64 utf-8 bytes; "é" is two of them
    kp = bench.key("alice")
    at_limit = txmod.NameClaim(kp.address, "é" * 32, bench.addr("bob"), 5, bench.counter("alice"))
    assert bench.apply(at_limit, kp).status == "applied"
    assert bench.state.resolve_name("é" * 32) == bench.addr("bob")
    over = txmod.NameClaim(kp.address, "é" * 32 + "x", bench.addr("bob"), 5, bench.counter("alice"))
    with pytest.raises(LedgerError) as err:
        bench.apply(over, kp)
    assert err.value.code == "BadFormat"


def test_charge_maintenance_linear():
    a = Account(b"\x01" * 32, 100, freshness=0)
    balance, collected = charge_maintenance(a, 10, 1)
    assert (balance, collected) == (90, 10)


def test_charge_maintenance_zero_elapsed():
    a = Account(b"\x01" * 32, 100, freshness=5)
    balance, collected = charge_maintenance(a, 5, 7)
    assert (balance, collected) == (100, 0)


def test_charge_maintenance_floors_at_zero():
    a = Account(b"\x01" * 32, 5, freshness=0)
    balance, collected = charge_maintenance(a, 10, 1)
    assert (balance, collected) == (0, 5)


def test_charge_maintenance_idempotent_at_height():
    a = Account(b"\x01" * 32, 100, freshness=0)
    balance, collected1 = charge_maintenance(a, 7, 3)
    settled = a.edit(balance, a.counter, 7)
    assert charge_maintenance(settled, 7, 3) == (balance, 0) and collected1 == 21


def _mine_chain(cfg, n_blocks, txs_at=None):
    state, genesis = txmod.genesis_block(cfg)
    blocks = [genesis]
    for height in range(1, n_blocks + 1):
        candidates = (txs_at or {}).get(height, [])
        block = txmod.build_block(state, candidates, KeyPair.from_name("miner").address, blocks[-1].header)
        assert block is not None
        state, _ = txmod.apply_block(state, block)
        blocks.append(block)
    return state, blocks


def test_genesis_header_validates():
    cfg = make_cfg()
    _, genesis = txmod.genesis_block(cfg)
    validate_header(genesis.header, None, cfg)
    assert genesis.header.prev_hash == ZERO32


@pytest.mark.parametrize("field, value, code", [("height", 1, "BadHeight"), ("prev_hash", b"\x05" * 32, "BadLink")],
                         ids=["height", "prev_hash"])
def test_a_genesis_header_off_height_0_or_the_zero_link_is_rejected(field, value, code):
    cfg = make_cfg()
    _, genesis = txmod.genesis_block(cfg)
    with pytest.raises(BlockError) as err:
        validate_header(dataclasses.replace(genesis.header, **{field: value}), None, cfg)
    assert err.value.code == code


def test_bad_link_rejected():
    cfg = make_cfg()
    _, blocks = _mine_chain(cfg, 2)
    import dataclasses

    tampered = dataclasses.replace(blocks[2].header, prev_hash=b"\x05" * 32)
    with pytest.raises(BlockError) as err:
        validate_header(tampered, blocks[1].header, cfg)
    assert err.value.code == "BadLink"


def test_bad_height_rejected():
    cfg = make_cfg()
    _, blocks = _mine_chain(cfg, 2)
    import dataclasses

    tampered = dataclasses.replace(blocks[2].header, height=5)
    with pytest.raises(BlockError) as err:
        validate_header(tampered, blocks[1].header, cfg)
    assert err.value.code == "BadHeight"


def test_tampered_cycle_rejected():
    # mutate one edge index of a solved cycle; the verifier must reject
    cfg = make_cfg()
    _, blocks = _mine_chain(cfg, 1)
    header = blocks[1].header
    import dataclasses

    cycle = list(header.pow_cycle)
    cycle[0] = (cycle[0] + 1) % (1 << cfg.pow_edge_bits)
    if cycle[0] >= cycle[1]:
        cycle[0] = 0 if cycle[1] != 0 else 1
    tampered = dataclasses.replace(header, pow_cycle=tuple(sorted(set(cycle))))
    with pytest.raises(BlockError) as err:
        validate_header(tampered, blocks[0].header, cfg)
    assert err.value.code == "BadPow"


def test_entropy_rule_enforced():
    cfg = make_cfg()
    _, blocks = _mine_chain(cfg, 1)
    header = blocks[1].header
    assert header.entropy == expected_entropy(
        blocks[0].header.entropy, header.miner, header.pow_nonce
    )
    import dataclasses

    tampered = dataclasses.replace(header, entropy=b"\x09" * 32)
    with pytest.raises(BlockError, match="BadPow"):
        validate_header(tampered, blocks[0].header, cfg)


def test_prefix_closure():
    cfg = make_cfg()
    _, blocks = _mine_chain(cfg, 4)
    headers = [b.header for b in blocks]
    for n in range(1, len(headers) + 1):
        prefix = headers[:n]
        validate_header(prefix[0], None, cfg)
        for prev, nxt in zip(prefix, prefix[1:]):
            validate_header(nxt, prev, cfg)


def _spend(cfg, name, to, amount, fee, counter):
    kp = KeyPair.from_name(name)
    return txmod.sign_tx(
        txmod.Spend(kp.address, KeyPair.from_name(to).address, amount, fee, counter), kp
    )


def test_verify_light_honest_chain():
    cfg = make_cfg()
    spend = _spend(cfg, "alice", "bob", 1000, 5, 1)
    state, blocks = _mine_chain(cfg, 5, txs_at={3: [spend]})
    headers = [b.header for b in blocks]
    target = blocks[3]
    tx_bytes = [t.encode() for t in target.transactions]
    proof = merkle_prove(tx_bytes, 0)
    assert verify_light(headers[: 3 + 1], tx_bytes[0], proof, cfg)


def test_verify_light_broken_link():
    cfg = make_cfg()
    spend = _spend(cfg, "alice", "bob", 1000, 5, 1)
    state, blocks = _mine_chain(cfg, 4, txs_at={4: [spend]})
    headers = [b.header for b in blocks]
    tx_bytes = [t.encode() for t in blocks[4].transactions]
    proof = merkle_prove(tx_bytes, 0)
    import dataclasses

    headers[2] = dataclasses.replace(headers[2], prev_hash=b"\x01" * 32)
    assert not verify_light(headers, tx_bytes[0], proof, cfg)


def test_verify_light_cross_proof():
    # two blocks with different txs: proofs must not transfer
    cfg = make_cfg()
    s1 = _spend(cfg, "alice", "bob", 1000, 5, 1)
    s2 = _spend(cfg, "bob", "carol", 2000, 5, 1)
    state, blocks = _mine_chain(cfg, 4, txs_at={2: [s1], 3: [s2]})
    headers = [b.header for b in blocks]
    t2 = [t.encode() for t in blocks[2].transactions]
    proof2 = merkle_prove(t2, 0)
    # proof for block 2's tx presented against block 3's header range
    assert verify_light(headers[:3], t2[0], proof2, cfg)
    assert not verify_light(headers[:4], t2[0], proof2, cfg)


def test_delete_account_rules(cfg):
    state = ChainState.genesis(cfg)
    addr = KeyPair.from_name("alice").address
    with pytest.raises(LedgerError) as err:
        state.delete_account(addr)
    assert err.value.code == "NonZeroBalance"
    state.accounts[addr] = Account(addr, 0)
    state.delete_account(addr)
    assert addr not in state.accounts


def test_a_genesis_that_lists_one_account_twice_is_refused():
    cfg = make_cfg("genesis.account = alice 5\n")  # alice is listed already
    with pytest.raises(LedgerError, match="BadFormat: duplicate genesis account"):
        ChainState.genesis(cfg)


def test_a_credit_or_debit_outside_the_u64_range_is_refused_and_writes_nothing(cfg):
    state = ChainState.genesis(cfg)
    alice = KeyPair.from_name("alice").address
    before = dict(state.accounts)
    for edit, amount in ((state.credit, -1), (state.debit, -1), (state.credit, 2**64)):
        with pytest.raises(CodecError, match="out of u64 range"):
            edit(alice, amount)
    assert dict(state.accounts) == before


def test_resolve_name(cfg):
    state = ChainState.genesis(cfg)
    with pytest.raises(LedgerError) as err:
        state.resolve_name("missing")
    assert err.value.code == "NotFound"
    state.names["plant-7"] = NameRecord("plant-7", b"\x0a" * 32, b"\x0b" * 32)
    assert state.resolve_name("plant-7") == b"\x0a" * 32


def _rfc6962_root(digests: list[bytes]) -> bytes:
    """RFC 6962 §2.1 over leaf digests, by raw sha256; zero for no leaves."""
    if not digests:
        return ZERO32
    if len(digests) == 1:
        return hashlib.sha256(b"\x00" + digests[0]).digest()
    k = 1 << (len(digests) - 1).bit_length() - 1
    return hashlib.sha256(b"\x01" + _rfc6962_root(digests[:k]) + _rfc6962_root(digests[k:])).digest()


def _reference_roots(state, slots=None) -> dict[str, bytes]:
    """The five state roots from scratch: each record copied (so no cached
    digest comes along) and its raw encoding hashed into an RFC 6962 tree.

    ``slots`` maps "accounts" and "names" to the keys that got a leaf slot
    in an earlier block, in slot order; an absent one is the all-zero
    digest, and the keys with no slot follow in ascending order."""
    slots = slots or {}

    def h(record, tag=b""):
        return hashlib.sha256(tag + dataclasses.replace(record).encode()).digest()

    def slotted(store):
        order = list(slots.get(store, ()))
        records = getattr(state, store)
        order += sorted(set(records) - set(order))
        return [h(records[k]) if k in records else ZERO32 for k in order]

    def by_key(records, tag=b""):
        return [h(records[k], tag) for k in sorted(records)]

    oracles = [state.oracles[k] for k in sorted(state.oracles)]
    wormhole = (by_key(state.channels, b"C") + by_key(state.storage_contracts, b"S")
                + by_key(state.azs, b"Z") + [h(state.pool, b"P")])
    return {
        "account_root": _rfc6962_root(slotted("accounts")),
        "name_root": _rfc6962_root(slotted("names")),
        "wormhole_root": _rfc6962_root(wormhole),
        "oracle_open_root": _rfc6962_root([h(q) for q in oracles if q.phase in ("open", "answered", "contested")]),
        "oracle_answer_root": _rfc6962_root([h(q) for q in oracles if q.phase in ("resolved", "burned")]),
    }


_EDITS = st.lists(
    st.tuples(st.sampled_from(["credit", "debit", "touch", "rename", "clone"]),
              st.integers(0, 11), st.integers(0, 3 * 10**8)),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(0, 6), _EDITS)
def test_state_roots_match_a_from_scratch_reference(n_accounts, n_names, edits):
    cfg = make_cfg("maintenance.rate = 3\n")
    state = ChainState.genesis(cfg)
    addrs = [bytes([i + 1]) * 32 for i in range(12)]
    for a in addrs[:n_accounts]:
        state.credit(a, 1000 + a[0])
    for i in range(n_names):
        state.names[f"n{i}"] = NameRecord(f"n{i}", addrs[i], addrs[-1])
    assert txmod.state_roots(state) == _reference_roots(state)
    held = []  # clones share records and their cached digests
    for height, (op, i, amount) in enumerate(edits, start=1):
        state.height = height
        address = addrs[i]
        try:
            if op == "credit":
                state.credit(address, amount)
            elif op == "debit":
                state.debit(address, amount)
            elif op == "touch":
                state.touch(address)
            elif op == "rename" and state.names:
                key = sorted(state.names)[i % len(state.names)]
                state.names[key] = dataclasses.replace(state.names[key], target=address)
            elif op == "clone":
                held.append((state.clone(), txmod.state_roots(state)))
        except LedgerError:
            pass  # InsufficientFunds / NotFound leave the state as it was
        assert txmod.state_roots(state) == _reference_roots(state)
    for snapshot, roots in held:
        assert txmod.state_roots(snapshot) == roots == _reference_roots(snapshot)


def _deep_fields(state) -> dict:
    """Every field of the state, deep-copied, with each store as a plain dict."""
    return {
        f.name: copy.deepcopy(dict(value) if isinstance(value, dict) else value)
        for f in dataclasses.fields(state)
        for value in [getattr(state, f.name)]
    }


_PROGRAMS = [assemble(f"PUSH {n}\nSTOP") for n in range(4)]
_JOURNAL_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "savepoint", "rollback", "release", "credit", "debit", "touch", "drain", "delete", "name",
            "channel_open", "channel_close", "oracle", "storage", "az", "code", "pool", "burn", "mint",
        ]),
        st.integers(0, 11),
        st.integers(0, 3 * 10**6),
    ),
    max_size=50,
)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2), _JOURNAL_OPS)
def test_rollback_returns_every_field_to_its_savepoint(n_funded, n_empty, ops):
    cfg = make_cfg("maintenance.rate = 3\n")
    state = ChainState.genesis(cfg)
    addrs = [bytes([i + 1]) * 32 for i in range(12)]
    for a in addrs[:n_funded]:
        state.credit(a, 10**6 + a[0])
    for a in addrs[n_funded:n_funded + n_empty]:
        state.credit(a, 0)  # deletable at once
    marks = []  # (savepoint, deep copy taken at it, roots at it), oldest first
    for height, (op, i, amount) in enumerate(ops, start=1):
        state.height = height
        address, other = addrs[i], addrs[(i + 1) % len(addrs)]
        try:
            if op == "savepoint":
                marks.append((state.savepoint(), _deep_fields(state), txmod.state_roots(state)))
            elif op == "rollback" and marks:
                del marks[i % len(marks) + 1:]  # a rollback voids every later savepoint
                mark, before, roots = marks[-1]
                state.rollback(mark)
                assert _deep_fields(state) == before
                assert txmod.state_roots(state) == roots == _reference_roots(state)
            elif op == "release" and marks:
                state.release(marks[0][0])
                marks.clear()
                assert all(getattr(state, name).log is None for name in _STORES)
            elif op == "credit":
                state.credit(address, amount)
            elif op == "debit":
                state.debit(address, amount)
            elif op == "touch":
                state.touch(address)
            elif op == "drain":
                state.debit(address, state.touch(address).balance)
            elif op == "delete":
                empty = sorted(a for a, account in state.accounts.items() if account.balance == 0)
                state.delete_account(empty[i % len(empty)] if empty else address)
            elif op == "name":
                state.names[f"n{i % 5}"] = NameRecord(f"n{i % 5}", address, other)
            elif op == "channel_open":
                channel_id = channels.channel_id_for(address, other, height)
                channels.open_channel(state, channel_id, address, other, amount % 1000, amount % 777)
            elif op == "channel_close" and state.channels:
                channel = state.channels[sorted(state.channels)[i % len(state.channels)]]
                channels.cooperative_close(state, channel.channel_id, channels.nonce_zero_state(channel))
            elif op == "oracle":
                question_id = oracles.question_id_for(address, height, bytes([i]) * 32)
                oracles.register(state, question_id, address, bytes([i]) * 32, height, height + 1 + i % 3)
            elif op == "storage":
                contract_id = storage.contract_id_for(address, height)
                storage.create_contract(state, contract_id, address, other, bytes([i]) * 32, 2, 16, 1, 1, amount % 1000)
            elif op == "az":
                rewards.az_create(state, rewards.az_id_for(address, height), address, amount % 100)
            elif op == "code":
                program = _PROGRAMS[i % len(_PROGRAMS)]
                state.code[program.code_hash()] = program
            elif op == "pool":
                state.pool = dataclasses.replace(state.pool, endowment=state.pool.endowment + amount)
            elif op == "burn":
                state.burn(amount)
            elif op == "mint":
                state.mint(address, amount)
        except LedgerError:
            pass  # a failed edit may leave partial writes; only a rollback undoes them
        assert txmod.state_roots(state) == _reference_roots(state)
    if marks:
        mark, before, _ = marks[0]
        state.rollback(mark)
        state.release(mark)
        assert _deep_fields(state) == before
    assert all(getattr(state, name).log is None for name in _STORES)


_SLOT_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "credit", "debit", "drain", "delete", "name", "unname",
            "savepoint", "rollback", "release", "clone", "switch", "roots",
        ]),
        st.integers(0, 11),
        st.integers(0, 3 * 10**6),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), _SLOT_OPS)
def test_incremental_roots_match_a_slot_order_reference(n_funded, ops):
    """Position-stable account and name leaves against a from-scratch model.

    A model is the keys holding a leaf slot in one state, in slot order: a
    clone starts a block, so there the keys its parent created take the
    next slots in ascending order, and no key ever loses its slot."""
    cfg = make_cfg("maintenance.rate = 3\n")
    addrs = [hashlib.sha256(bytes([i])).digest() for i in range(12)]  # creation order is not key order
    state = ChainState.genesis(cfg)
    for a in addrs[:n_funded]:
        state.credit(a, 10**6 + a[0])
    states, models, marks = [state], [{"accounts": [], "names": []}], [[]]
    cur = 0
    for height, (op, i, amount) in enumerate(ops, start=1):
        state, model = states[cur], models[cur]
        state.height = height
        address, other = addrs[i], addrs[(i + 5) % len(addrs)]
        try:
            if op == "credit":
                state.credit(address, amount)
            elif op == "debit":
                state.debit(address, amount)
            elif op == "drain":
                state.debit(address, state.touch(address).balance)
            elif op == "delete":
                empty = sorted(a for a, account in state.accounts.items() if account.balance == 0)
                state.delete_account(empty[i % len(empty)] if empty else address)
            elif op == "name":
                state.names[f"n{i % 5}"] = NameRecord(f"n{i % 5}", address, other)
            elif op == "unname" and state.names:
                del state.names[sorted(state.names)[i % len(state.names)]]
            elif op == "savepoint":
                marks[cur].append((state.savepoint(), txmod.state_roots(state)))
            elif op == "rollback" and marks[cur]:
                del marks[cur][i % len(marks[cur]) + 1:]
                mark, roots = marks[cur][-1]
                state.rollback(mark)
                assert txmod.state_roots(state) == roots  # rolled-back creations took no slot
            elif op == "release" and marks[cur]:
                state.release(marks[cur][0][0])
                marks[cur].clear()
            elif op == "clone":
                states.append(state.clone())
                models.append({
                    name: order + sorted(set(getattr(state, name)) - set(order))
                    for name, order in model.items()
                })
                marks.append([])
            elif op == "switch":
                cur = i % len(states)
            elif op == "roots":
                assert txmod.state_roots(state) == txmod.state_roots(state)
        except LedgerError:
            pass  # a failed edit may leave partial writes; the roots must still follow them
        assert txmod.state_roots(states[cur]) == _reference_roots(states[cur], models[cur])
    for state, model in zip(states, models):
        assert txmod.state_roots(state) == _reference_roots(state, model)


def test_a_key_a_block_only_deletes_leaves_an_empty_leaf_in_its_slot(cfg):
    # a drained account and a name, both made in the parent block, are
    # deleted in the next block by a bare del: their slots read EMPTY_LEAF
    alice, bob, dave = (KeyPair.from_name(n).address for n in ("alice", "bob", "dave"))
    state = ChainState.genesis(cfg)
    state.accounts[dave] = Account(dave, 0)
    state.names["plant-7"] = NameRecord("plant-7", alice, bob)
    block = state.clone()
    block.height = 1
    block.delete_account(dave)
    del block.names["plant-7"]
    slots = {"accounts": sorted(state.accounts), "names": ["plant-7"]}
    assert txmod.state_roots(block) == _reference_roots(block, slots) != txmod.state_roots(state)


def test_a_rollback_between_two_roots_puts_back_a_slotted_leaf(cfg):
    # alice's account has its slot from the parent; the rollback restores
    # her prior record, and her leaf follows it back
    state = ChainState.genesis(cfg)
    block = state.clone()
    block.height = 1
    alice = KeyPair.from_name("alice").address
    before = txmod.state_roots(block)
    mark = block.savepoint()
    block.credit(alice, 5)
    assert txmod.state_roots(block) != before
    block.rollback(mark)
    block.release(mark)
    slots = {"accounts": sorted(state.accounts), "names": []}
    assert txmod.state_roots(block) == before == _reference_roots(block, slots)


@pytest.mark.parametrize("write", [
    lambda store, key: store.pop(key), lambda store, key: store.popitem(), lambda store, key: store.clear(),
    lambda store, key: store.setdefault(b"\x07" * 32, None), lambda store, key: store.update({key: None}),
    lambda store, key: store.__ior__({key: None}),
], ids=["pop", "popitem", "clear", "setdefault", "update", "ior"])
def test_a_store_refuses_every_write_but_item_assignment_and_del(cfg, write):
    # a write the journal does not log could not be rolled back
    state = ChainState.genesis(cfg)
    key = next(iter(state.accounts))
    before, written = dict(state.accounts), set(state.accounts.written)
    with pytest.raises(TypeError, match="only by item assignment or del"):
        write(state.accounts, key)
    assert (dict(state.accounts), state.accounts.written) == (before, written)


def test_check_invariants_reads_the_keys_written_since_the_parent(cfg):
    state, _ = txmod.genesis_block(cfg)
    alice, bob = (KeyPair.from_name(n).address for n in ("alice", "bob"))
    state.check_invariants()
    block = state.clone()
    block.height = 1
    block.names["plant-7"] = NameRecord("plant-7", alice, bob)
    block.check_invariants()
    for store, key, record, code in (
        ("accounts", alice, dataclasses.replace(state.accounts[alice], address=bob), "BadFormat"),
        ("accounts", alice, dataclasses.replace(state.accounts[alice], freshness=2), "BadHeight"),
        ("names", "plant-8", NameRecord("plant-7", alice, bob), "BadFormat"),
    ):
        work = block.clone()
        getattr(work, store)[key] = record  # stored under the wrong key, or beyond the height
        with pytest.raises(LedgerError) as err:
            work.check_invariants()
        assert err.value.code == code
    # genesis has no parent, so every key is checked there
    genesis = ChainState.genesis(cfg).clone()
    dict.__setitem__(genesis.accounts, alice, dataclasses.replace(genesis.accounts[alice], address=bob))
    with pytest.raises(LedgerError, match="account key mismatch"):
        genesis.check_invariants()


def test_apply_tx_keeps_the_fee_envelope_of_an_address_collision():
    cfg = make_cfg("maintenance.rate = 3\n")  # the touch burns maintenance too
    bench, twin = Bench(cfg, height=5), Bench(cfg, height=5)
    alice = bench.key("alice")
    counter = bench.counter("alice")
    address = txmod.contract_address(alice.address, counter)
    for each in (bench, twin):
        each.state.accounts[address] = Account(address, 0)
    tx = txmod.ContractCreate(alice.address, assemble("PUSH 1\nSTOP"), 1, 10, 0, 5, 2, (), 10, counter)
    receipt = bench.apply(tx, alice)
    assert (receipt.status, receipt.reason, receipt.fee_paid) == ("reverted", "AddressCollision", 10)
    # what stays is the fee envelope alone: the fee, the counter bump and the maintenance burn
    payer = twin.state.accounts[alice.address]
    balance, burned = charge_maintenance(payer, 5, 3)
    twin.state.write_account(payer, balance - 10, counter, burned)
    twin.state.credit(twin.miner.address, 10)
    assert _deep_fields(bench.state) == _deep_fields(twin.state)
    assert all(getattr(bench.state, name).log is None for name in _STORES)


def test_maintenance_that_leaves_less_than_the_fee_refuses_the_tx_and_writes_nothing():
    bench = Bench(make_cfg("maintenance.rate = 3\n"), height=5)
    dave = KeyPair.from_name("dave")
    bench.state.accounts[dave.address] = Account(dave.address, 20)  # fresh at 0: 15 maintenance by height 5 leaves 5 < the fee
    tx = txmod.Spend(dave.address, bench.addr("alice"), 1, 10, 1)
    before = _deep_fields(bench.state)
    with pytest.raises(TxError) as err:
        bench.apply(tx, dave)
    assert err.value.code == "InsufficientForFee"
    assert _deep_fields(bench.state) == before
    assert all(getattr(bench.state, name).log is None for name in _STORES)


def test_an_account_edit_matches_the_constructor_and_drops_the_digest():
    account = Account(b"\x07" * 32, 42, counter=3, freshness=9, kind="contract", code_hash=b"\x01" * 32)
    digest = account.digest()
    assert account.edit(42, 3, 9) is account  # no change: the same record and digest
    edited = account.edit(40, 4, 11)
    assert "_digest" not in vars(edited)
    rebuilt = Account(account.address, 40, 4, 11, "contract", b"\x01" * 32)
    assert edited == rebuilt and edited.digest() == rebuilt.digest() != digest
    with pytest.raises(CodecError):
        account.edit(2**64, 3, 9)

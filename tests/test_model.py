"""Blocks built by ``tx.build_block`` and replayed by ``tx.apply_block`` agree
with the reference ledger model in ``model.py``, block by block, over drawn
tx streams: bad counters, overdrafts, unknown recipients, taken names,
self-deletes, fees equal to the balance, and txs the block's miner sends
after other txs of the same block."""
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from deskchain import tx as txmod
from deskchain.config import parse_config
from deskchain.crypto import KeyPair

from model import Model

CFG = parse_config("""
pow.edge_bits = 8
pow.cycle_len = 8
maintenance.rate = 3
delete.reward = 40
coinbase.initial = 30
coinbase.halving_blocks = 2
genesis.account = u0 400
genesis.account = u1 200
genesis.account = u2 60
genesis.account = u3 0
genesis.endowment = 30
""")
KEYS = [KeyPair.from_name(f"u{i}") for i in range(5)]  # u4 starts with no account
NAMES = ["plant-1", "plant-2"]


def block_order(txs: list) -> list:
    """README's block order: txs are ranked by fee density, then tx hash, and
    each sender's txs then fill the places its txs got, lowest counter first
    (two at one counter keep their rank order)."""
    ranked = sorted(txs, key=lambda t: (-Fraction(txmod.effective_fee(t), len(t.encode())), t.digest()))
    out = list(ranked)
    for sender in {txmod.tx_sender(t) for t in ranked}:
        places = [i for i, t in enumerate(ranked) if txmod.tx_sender(t) == sender]
        by_counter = sorted((ranked[i] for i in places), key=lambda t: t.counter)
        for i, t in zip(places, by_counter):
            out[i] = t
    return out


def addresses():
    return st.one_of(st.sampled_from(KEYS).map(lambda k: k.address), st.binary(min_size=32, max_size=32))


@st.composite
def envelope(draw, model: Model, sender: KeyPair, sent: dict) -> tuple[int, int, int]:
    """A counter (the next one, or one off) and the sender's balance before
    and after the maintenance the next block settles."""
    balance, counter, fresh = model.accounts.get(sender.address, (0, 0, 0))
    counter += 1 + sent.get(sender.address, 0)
    sent[sender.address] = sent.get(sender.address, 0) + 1
    settled = balance - min(balance, CFG.maintenance_rate * (model.height + 1 - fresh))
    return draw(st.sampled_from([counter] * 6 + [counter + 1, counter - 1])), balance, settled


@st.composite
def draw_tx(draw, model: Model, sender: KeyPair, sent: dict):
    counter, balance, settled = draw(envelope(model, sender, sent))
    address = sender.address
    fee = draw(st.one_of(st.integers(1, 12), st.integers(1, 12), st.sampled_from([0, balance, settled])))
    amount = draw(st.one_of(st.integers(0, 80), st.just(balance)))
    kind = draw(st.sampled_from(["spend", "spend", "data", "name", "delete", "delete", "call"]))
    if kind == "spend":
        t = txmod.Spend(address, draw(addresses()), amount, fee, counter)
    elif kind == "data":
        t = txmod.DataOnly(address, bytes(draw(st.integers(0, 6))), draw(st.integers(0, 8)), counter)
    elif kind == "name":
        t = txmod.NameClaim(address, draw(st.sampled_from(NAMES)), draw(addresses()), fee, counter)
    elif kind == "delete":
        t = txmod.AccountDelete(address, draw(st.sampled_from(KEYS)).address, fee, counter)
    else:
        gas, price = draw(st.integers(1, 8)), draw(st.integers(1, 5))
        t = txmod.ContractCall(address, draw(addresses()), amount, gas, price, (), gas * price, counter)
    return txmod.sign_tx(t, sender)


@st.composite
def draw_block(draw, model: Model):
    miner = draw(st.sampled_from(KEYS))
    sent: dict = {}
    senders = st.sampled_from(KEYS[:3] * 3 + KEYS[3:])  # mostly the funded accounts
    txs = [draw(draw_tx(model, draw(senders), sent)) for _ in range(draw(st.integers(1, 6)))]
    # the miner's own spends, at fees low enough to sort after the others,
    # of amounts its balance can cover only with or without that block's fees
    for _ in range(draw(st.integers(0, 2))):
        counter, balance, settled = draw(envelope(model, miner, sent))
        subsidy = CFG.coinbase_initial >> (model.height // CFG.coinbase_halving_blocks)
        amount = draw(st.one_of(st.integers(0, 80), st.sampled_from([balance, settled + subsidy - 1])))
        fee = draw(st.sampled_from([1, 2, settled + subsidy]))
        txs.append(txmod.sign_tx(txmod.Spend(miner.address, draw(addresses()), amount, fee, counter), miner))
    return miner.address, txs


def assert_state_matches(model: Model, state) -> None:
    assert {a: (r.balance, r.counter, r.freshness) for a, r in state.accounts.items()} == model.accounts
    assert {n: (r.target, r.owner) for n, r in state.names.items()} == model.names
    assert (state.minted_total, state.burned_total, state.pool.endowment) == (
        model.minted, model.burned, model.endowment)


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_blocks_agree_with_the_reference_ledger_model(data):
    state, genesis = txmod.genesis_block(CFG)
    model = Model(CFG)
    assert_state_matches(model, state)
    header = genesis.header
    for height in range(1, data.draw(st.integers(2, 5)) + 1):
        miner, candidates = data.draw(draw_block(model))
        block = txmod.build_block(state, candidates, miner, header)
        assert block is not None
        state, receipts = txmod.apply_block(state, block)
        gas_used = {t.digest(): r.gas_used for t, r in zip(block.transactions, receipts)}
        included, expected = model.block(miner, height, block_order(candidates), gas_used)
        assert list(block.transactions) == included
        assert [(r.status, r.reason, r.fee_paid) for r in receipts] == expected
        assert_state_matches(model, state)
        header = block.header

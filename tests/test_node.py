"""A node admits a tx by applying it to its pending state: the tip at the
next height with the mempool applied in admission order."""
import pytest

from deskchain import tx as txmod
from deskchain.crypto import KeyPair
from deskchain.errors import TxError
from deskchain.node import Node

from conftest import make_cfg

ALICE, BOB, DAVE, MINER = (KeyPair.from_name(name) for name in ("alice", "bob", "dave", "miner"))


def _mine(state, header, txs=()):
    block = txmod.build_block(state, list(txs), MINER.address, header)
    state, _ = txmod.apply_block(state, block)
    return state, block.header


@pytest.fixture
def chain():
    """Tips at heights 1 and 2 of a network charging 3 maintenance per block,
    where dave is credited 13 at height 1."""
    state, genesis = txmod.genesis_block(make_cfg("maintenance.rate = 3\n"))
    credit = txmod.sign_tx(txmod.Spend(ALICE.address, DAVE.address, 13, 1, 1), ALICE)
    state1, header1 = _mine(state, genesis.header, [credit])
    assert state1.accounts[DAVE.address].balance == 13
    return (state1, header1), _mine(state1, header1)


def _data(node, fee):
    """dave's DataOnly paying ``fee`` (one unit per payload byte)."""
    return node.make(DAVE, txmod.DataOnly, bytes(fee), fee=1)


def test_admit_checks_the_fee_at_the_height_the_tx_can_enter(chain):
    # at tip height 2 dave holds 13 - 3 = 10; at height 3, where the tx can
    # enter a block, 13 - 6 = 7 covers no fee of 10
    _, tip2 = chain
    node = Node(*tip2)
    with pytest.raises(TxError) as err:
        node.admit(_data(node, 10))
    assert err.value.code == "InsufficientForFee"
    assert not node.mempool
    assert node.next_counter(DAVE.address) == 1


def test_a_pooled_tx_a_new_tip_no_longer_pays_for_leaves_the_pool(chain):
    tip1, tip2 = chain
    node = Node(*tip1)
    t = _data(node, 10)
    assert node.admit(t).status == txmod.APPLIED  # 13 - 3 = 10 at height 2
    assert node.admit(t) is None  # pooled already
    assert node.next_counter(DAVE.address) == 2
    node.set_tip(*tip2)  # a block without it: at height 3 only 7 is left
    assert not node.mempool
    assert _data(node, 5).counter == t.counter


def test_a_second_tx_whose_fee_the_first_drained_is_refused(chain):
    tip1, _ = chain
    node = Node(*tip1)
    first = _data(node, 10)
    node.admit(first)
    with pytest.raises(TxError) as err:
        node.admit(_data(node, 1))
    assert err.value.code == "InsufficientForFee"
    assert list(node.mempool.values()) == [first]
    assert node.pending.accounts[DAVE.address].balance == 0


def test_a_pooled_tx_the_new_tip_carries_leaves_and_the_next_one_stays(chain):
    tip1, _ = chain
    node = Node(*tip1)
    first = node.make(ALICE, txmod.Spend, BOB.address, 1, fee=1)
    node.admit(first)
    second = node.make(ALICE, txmod.Spend, BOB.address, 2, fee=1)
    node.admit(second)
    assert (first.counter, second.counter) == (2, 3)
    node.set_tip(*_mine(*tip1, [first]))
    assert list(node.mempool.values()) == [second]
    assert node.next_counter(ALICE.address) == 4


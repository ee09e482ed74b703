"""A safety net for conservation by delta.

``apply_block`` checks conservation over the keys a block wrote, relative to
its parent. Here the whole-state sum stays the independent oracle on every
fixture block, and two broken value movements (a spend that credits without
debiting, a channel open that locks deposits it never took) must each be
caught at the block they occur in, with the block's roots matching so that
only the conservation check can catch them.
"""
import dataclasses
import glob
import os

import pytest

from deskchain import channels, config, sim, tx as txmod
from deskchain.channels import Channel
from deskchain.crypto import KeyPair
from deskchain.errors import LedgerError
from deskchain.state import ChainState

from conftest import SCENARIO_DIR, make_cfg


def test_every_fixture_block_also_conserves_over_the_whole_state(monkeypatch):
    checked = []
    delta_check = ChainState.check_invariants

    def both_checks(state, parent=None):
        delta_check(state, parent)
        sources, sinks = state.conservation_sides()
        assert sources == sinks, (state.height, sources, sinks)
        if parent is not None and state.height > 0:
            parent_sources, parent_sinks = parent.conservation_sides()
            change = (sources - parent_sources, sinks - parent_sinks)
            assert state._conservation_change(parent) == change, state.height
        checked.append(state.height)

    monkeypatch.setattr(ChainState, "check_invariants", both_checks)
    cfg = config.load_config(os.path.join(SCENARIO_DIR, "net.cfg"))
    paths = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.scn")))
    assert len(paths) == 15
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sim.run(cfg, fh.read(), seed=7, base_dir=SCENARIO_DIR)
    assert sum(height > 0 for height in checked) > 100


def _mine_and_replay(tx_for):
    """Build block 1 holding one tx under the current mutation, then apply it
    under the same mutation: the roots agree, so only conservation can fail."""
    cfg = make_cfg()
    state, genesis = txmod.genesis_block(cfg)
    tx = tx_for({name: KeyPair.from_name(name) for name in ("alice", "bob")})
    block = txmod.build_block(state, [tx], KeyPair.from_name("miner").address, genesis.header)
    assert block.transactions == (tx,)
    with pytest.raises(LedgerError) as err:
        txmod.apply_block(state, block)
    assert err.value.code == "Conservation"


def test_a_spend_credit_with_no_debit_fails_its_block(monkeypatch):
    # the fee envelope debits a Spend's amount; with Spend out of the escrow
    # kinds it takes only the fee, and the recipient's credit stands alone
    monkeypatch.setattr(txmod, "ESCROW_KINDS", (txmod.ContractCall,))
    _mine_and_replay(lambda k: txmod.sign_tx(txmod.Spend(k["alice"].address, k["bob"].address, 700, 5, 1),
                                             k["alice"]))


def test_a_channel_open_with_no_deposit_debit_fails_its_block(monkeypatch):
    def lock_only(state, channel_id, a, b, deposit_a, deposit_b):
        state.channels[channel_id] = Channel(channel_id, a, b, deposit_a, deposit_b)

    monkeypatch.setattr(channels, "open_channel", lock_only)

    def channel_open(k):
        tx = txmod.ChannelOpen(k["alice"].address, k["bob"].address, 3000, 2000, 5, 1)
        tx = txmod.sign_tx(tx, k["alice"])
        return dataclasses.replace(tx, sig_b=k["bob"].sign(tx.signing_bytes()))

    _mine_and_replay(channel_open)

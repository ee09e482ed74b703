"""One node's duties, shared by the CLI and the simulator.

A node builds on one tip (its state and header). It keeps a mempool keyed
by tx hash and one pending state, a clone of the tip at the next height
with the mempool applied in admission order: a tx is admitted when
``apply_tx`` takes it there. A new tip admits the mempool again, so a tx
that no longer follows leaves. The node numbers and signs its txs from the
pending counters, and mines the next block with the epoch-boundary tx.
"""
from __future__ import annotations

from dataclasses import replace

from . import rewards, tx as txmod
from .errors import CodecError, TxError
from .ledger import Block, BlockHeader
from .state import ChainState


class Node:
    def __init__(self, state: ChainState, header: BlockHeader, mempool=()):
        # the next boundary block's report; dropped at that boundary either way
        self.staged_epoch: rewards.EpochReport | None = None
        self.set_tip(state, header, mempool)

    def next_counter(self, address: bytes) -> int:
        """The pending state's counter for ``address``, plus one."""
        account = self.pending.accounts.get(address)
        return (account.counter if account else 0) + 1

    def make(self, keypair, kind, *fields, fee: int, cosigner=None):
        """A signed ``kind`` sent from ``keypair``'s account.

        Every user tx kind is laid out as (sender, *fields, fee or gas_price,
        counter, sig); a channel open also carries party B's ``cosigner`` sig.
        """
        t = kind(keypair.address, *fields, fee, self.next_counter(keypair.address))
        if cosigner is not None:
            t = replace(t, sig_b=cosigner.sign(t.signing_bytes()))
        return txmod.sign_tx(t, keypair)

    def admit(self, t) -> txmod.Receipt | None:
        """Apply ``t`` to the pending state and pool it; returns its receipt,
        or None when it is pooled already. Raises TxError, and changes
        nothing, when the pending state cannot take it."""
        h = t.digest()
        if h in self.mempool:
            return None
        receipt = txmod.apply_tx(self.pending, t, self.header.miner, self.header.block_hash())
        self.mempool[h] = t
        return receipt

    def build_next_block(self, miner: bytes) -> Block | None:
        """Mine the mempool onto the tip; None when the PoW budget runs out.

        A block at an epoch boundary also carries an EpochTx: the staged
        report when it is for the coming epoch, an empty one otherwise.
        """
        candidates = list(self.mempool.values())
        if (self.header.height + 1) % self.state.cfg.blocks_per_epoch == 0:
            report, self.staged_epoch = self.staged_epoch, None
            epoch = self.state.pool.epoch_index + 1
            if report is None or report.epoch_index != epoch:
                report = rewards.EpochReport(epoch, (), (), ())
            candidates.append(txmod.EpochTx(report))
        return txmod.build_block(self.state, candidates, miner, self.header)

    def set_tip(self, state: ChainState, header: BlockHeader, pool=None) -> None:
        """Build on ``state`` and ``header``, and admit ``pool`` (by default
        the mempool) again in order; a tx the new pending state refuses leaves."""
        pooled = list(self.mempool.values()) if pool is None else pool
        self.state, self.header = state, header
        self.mempool: dict[bytes, object] = {}
        self.pending = state.clone()
        self.pending.height = header.height + 1
        self.pending.savepoint()  # never released: apply_tx credits no miner
        for t in pooled:
            try:
                self.admit(t)
            except (TxError, CodecError):
                pass

"""One node's duties, shared by the CLI and the simulator.

A node builds on one tip (its state and header) and keeps a mempool keyed
by tx hash, admitting only the transactions the tip passes through
check_tx. It numbers and signs the transactions it makes, mines the next
block with the epoch-boundary system transaction, and drops from its
mempool every transaction the tip has already passed.
"""
from __future__ import annotations

from dataclasses import replace

from . import rewards, tx as txmod
from .ledger import Block, BlockHeader
from .state import ChainState


class Node:
    def __init__(self, state: ChainState, header: BlockHeader, mempool=()):
        self.state = state
        self.header = header
        self.mempool: dict[bytes, object] = {t.digest(): t for t in mempool}
        # the next boundary block's report; dropped at that boundary either way
        self.staged_epoch: rewards.EpochReport | None = None

    def next_counter(self, address: bytes) -> int:
        """The tip's counter for ``address``, plus its pending txs, plus one."""
        account = self.state.accounts.get(address)
        base = account.counter if account else 0
        pending = sum(1 for t in self.mempool.values() if txmod.tx_sender(t) == address)
        return base + pending + 1

    def make(self, keypair, kind, *fields, fee: int, cosigner=None):
        """A signed ``kind`` sent from ``keypair``'s account.

        Every user tx kind is laid out as (sender, *fields, fee or gas_price,
        counter, sig); a channel open also carries party B's ``cosigner`` sig.
        """
        t = kind(keypair.address, *fields, fee, self.next_counter(keypair.address))
        if cosigner is not None:
            t = replace(t, sig_b=cosigner.sign(t.signing_bytes()))
        return txmod.sign_tx(t, keypair)

    def admit(self, t) -> bool:
        """Pool ``t`` unless it is pooled already (False); raises TxError
        when the tip cannot take it."""
        h = t.digest()
        if h in self.mempool:
            return False
        txmod.check_tx(self.state, t)
        self.mempool[h] = t
        return True

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

    def set_tip(self, state: ChainState, header: BlockHeader) -> None:
        self.state, self.header = state, header
        self.prune()

    def prune(self) -> None:
        """Drop the txs whose counter the tip's account has reached."""
        accounts = self.state.accounts
        for h, t in list(self.mempool.items()):
            account = accounts.get(txmod.tx_sender(t))
            if account and t.counter <= account.counter:
                del self.mempool[h]

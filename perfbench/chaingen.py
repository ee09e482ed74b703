"""Seeded chain generator for the ``sync`` workload.

Builds a chain through the miner's public path (``tx.build_block``) and
writes it with ``StateDir.append_block``, so a later ``StateDir.load_chain``
replays exactly what a CLI user's state directory would hold.

The mix per block is fixed by the plan; only identities, amounts, fees and
names come from the seed. Every transaction is planned to be applicable,
so each block must include every candidate; a share of contract calls is
given too little gas and reverts while still paying its fee.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from deskchain import rewards, templates, tx as txmod
from deskchain.crypto import KeyPair
from deskchain.statedir import StateDir

DSD = 1_000_000
CALL_DATA = (1000, 3, 1)  # payment-split inputs: total, ratio_a, ratio_b
CALL_GAS = 40  # enough for the payment-split program to halt
REVERT_GAS = 3  # runs out of gas: the call reverts and pays its fee
REVERT_EVERY = 4  # every fourth contract call reverts
GAS_PRICE = 2
CREATE_DEPOSIT = 1_000  # payment-split contracts start with this balance
# slots per block given to each kind; spends fill the rest
CREATES_PER_BLOCK = 1
CALLS_PER_BLOCK = 3
NAMES_PER_BLOCK = 1


@dataclass(frozen=True)
class ChainShape:
    blocks: int = 96  # mined blocks after genesis
    txs_per_block: int = 24


@dataclass
class ChainPlan:
    """What the generator put on chain; the workload checks replays against it."""

    blocks: int = 0  # including genesis
    kinds: Counter = field(default_factory=Counter)
    reverts: int = 0
    accounts: int = 0  # genesis + wallets + fresh recipients + contracts + miner
    call_credit: dict = field(default_factory=dict)  # contract -> amount credited by applied calls


def _slot_kinds(shape: ChainShape, rng: random.Random) -> list[str]:
    spends = shape.txs_per_block - CREATES_PER_BLOCK - CALLS_PER_BLOCK - NAMES_PER_BLOCK
    kinds = ["create"] * CREATES_PER_BLOCK + ["call"] * CALLS_PER_BLOCK + ["name"] * NAMES_PER_BLOCK
    kinds += ["spend"] * spends
    rng.shuffle(kinds)
    return kinds


def build_chain(cfg, cfg_text: str, root: str, seed: int, shape: ChainShape = ChainShape()) -> ChainPlan:
    """Mine a seeded chain into a fresh state directory at ``root``."""
    rng = random.Random(f"sync-chain:{seed}")
    sd = StateDir(root)
    sd.write_config(cfg_text)
    state, genesis = txmod.genesis_block(cfg)
    sd.append_block(genesis)
    plan = ChainPlan(blocks=1)

    miner = KeyPair.from_name(f"bench-{seed}-miner")
    funders = [KeyPair.from_name(name) for name, _, _ in cfg.genesis_accounts]
    n_wallets = shape.txs_per_block + 8
    wallets = [KeyPair.from_name(f"bench-{seed}-w{i}") for i in range(n_wallets)]
    counters = Counter()
    contracts: list[bytes] = []  # callable: created in an earlier block
    created: list[bytes] = []
    n_calls = 0
    n_names = 0

    def sign(t, kp):
        counters[kp.address] += 1
        return txmod.sign_tx(t, kp)

    def next_counter(kp):
        return counters[kp.address] + 1

    def candidates_for(height: int) -> list:
        nonlocal n_calls, n_names
        if height == 1:
            # funding: every genesis account pays an equal share of wallets;
            # fees fall with the counter so the miner's fee-density order
            # keeps each sender's spends in counter order
            out = []
            for i, w in enumerate(wallets):
                kp = funders[i % len(funders)]
                fee = 1000 - counters[kp.address]
                out.append(sign(txmod.Spend(kp.address, w.address, 2 * DSD, fee, next_counter(kp)), kp))
            return out
        out = []
        first = (height * shape.txs_per_block) % n_wallets
        for slot, kind in enumerate(_slot_kinds(shape, rng)):
            kp = wallets[(first + slot) % n_wallets]
            if kind == "call" and not contracts:
                kind = "spend"
            if kind == "spend":
                fresh = rng.randbytes(32)
                t = txmod.Spend(kp.address, fresh, rng.randrange(1_000, 5_000), rng.randrange(1, 50), next_counter(kp))
            elif kind == "create":
                gas = CALL_GAS
                counter = next_counter(kp)
                t = txmod.ContractCreate(
                    kp.address, templates.PAYMENT_SPLIT, 1, CREATE_DEPOSIT, 0, gas, GAS_PRICE,
                    CALL_DATA, gas * GAS_PRICE, counter,
                )
                created.append(txmod.contract_address(kp.address, counter))
            elif kind == "call":
                target = contracts[rng.randrange(len(contracts))]
                n_calls += 1
                reverts = n_calls % REVERT_EVERY == 0
                gas = REVERT_GAS if reverts else CALL_GAS
                amount = rng.randrange(1, 500)
                t = txmod.ContractCall(
                    kp.address, target, amount, gas, GAS_PRICE, CALL_DATA, gas * GAS_PRICE, next_counter(kp),
                )
                if reverts:
                    plan.reverts += 1
                else:
                    plan.call_credit[target] = plan.call_credit.get(target, 0) + amount
            else:
                n_names += 1
                t = txmod.NameClaim(kp.address, f"s{seed}-n{n_names}", rng.randbytes(32), rng.randrange(1, 50), next_counter(kp))
            out.append(sign(t, kp))
        if height % cfg.blocks_per_epoch == 0:
            report = rewards.EpochReport(state.pool.epoch_index + 1, (), (), ())
            out.append(txmod.EpochTx(report))
        return out

    prev = genesis
    for height in range(1, shape.blocks + 1):
        candidates = candidates_for(height)
        block = txmod.build_block(state, candidates, miner.address, prev.header)
        if block is None:
            raise RuntimeError(f"PoW budget exhausted at height {height}")
        if len(block.transactions) != len(candidates):
            raise RuntimeError(f"block {height} dropped {len(candidates) - len(block.transactions)} planned txs")
        state, _ = txmod.apply_block(state, block)
        sd.append_block(block)
        plan.kinds.update(type(t).__name__ for t in candidates)
        plan.blocks += 1
        contracts.extend(created)
        created.clear()
        prev = block
    fresh = plan.kinds["Spend"] - n_wallets
    plan.accounts = len(funders) + n_wallets + fresh + plan.kinds["ContractCreate"] + 1
    return plan

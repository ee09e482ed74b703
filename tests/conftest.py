import os

import pytest

from deskchain.config import NetworkConfig, parse_config
from deskchain.crypto import KeyPair
from deskchain.state import ChainState
from deskchain.tx import apply_tx, sign_tx

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(REPO_ROOT, "scenarios")

BASE_CFG_TEXT = """
pow.edge_bits = 8
pow.cycle_len = 8
channel.countdown_blocks = 5
oracle.deposit_rate = 2
oracle.challenge_window = 4
oracle.vote_window = 6
epoch.blocks = 10
az.creation_price = 1000
delete.reward = 500
pool.q0 = 10000
genesis.account = alice 100dsd
genesis.account = bob 100dsd
genesis.account = carol 100dsd
genesis.account = miner 100dsd
genesis.endowment = 1000dsd
"""


# factors files with a value the reward records refuse, and the line and
# message that name it; each record is built at its own line
REFUSED_FACTORS = [
    ("weights 1\nuser {zone} alice\nitem alpha 5 s 1/2 beta 1 usage 2",
     "line 3: item: BadFormat: normalized values must lie in [0, 1]"),
    ("az {zone} 3\nweights 1/2 1/3", "line 2: weights: BadFormat: factor weights must sum to 1"),
    ("az {zone} 3\nweights -1 2", "line 2: weights: BadFormat: negative factor weight"),
    ("weights 1\nuser {zone} alice eps -1", "line 2: user: BadFormat: value weights must be non-negative"),
    ("weights 1\naz {zone} -3", "line 2: az: BadFormat: factors must be non-negative"),
]
REFUSED_IDS = ["item-usage", "weights-sum", "weights-negative", "user-eps", "az-negative"]


def make_cfg(extra: str = "") -> NetworkConfig:
    return parse_config(BASE_CFG_TEXT + extra)


@pytest.fixture
def cfg() -> NetworkConfig:
    return make_cfg()


class Bench:
    """Applies transactions straight to a chain state at scripted heights,
    bypassing PoW; block-level behavior gets its own tests."""

    def __init__(self, cfg: NetworkConfig, height: int = 1, miner: str = "miner"):
        self.cfg = cfg
        self.state = ChainState.genesis(cfg)
        self.height = height
        self.state.height = height
        self.miner = KeyPair.from_name(miner)

    def key(self, name: str) -> KeyPair:
        return KeyPair.from_name(name)

    def addr(self, name: str) -> bytes:
        return self.key(name).address

    def balance(self, name: str) -> int:
        account = self.state.accounts.get(self.addr(name))
        return account.balance if account else 0

    def counter(self, name: str) -> int:
        account = self.state.accounts.get(self.addr(name))
        return (account.counter if account else 0) + 1

    def advance(self, blocks: int = 1) -> None:
        self.height += blocks
        self.state.height = self.height

    def apply(self, tx, signer: KeyPair | None = None, prev_block_hash: bytes = b"\x00" * 32):
        if signer is not None:
            tx = sign_tx(tx, signer)
        self.state.height = self.height
        return apply_tx(self.state, tx, self.miner.address, prev_block_hash)

    def conservation_ok(self) -> bool:
        sources, sinks = self.state.conservation_sides()
        return sources == sinks


@pytest.fixture
def bench(cfg) -> Bench:
    return Bench(cfg)


# contract_state vectors for the stock templates, in each one's input order


def payment_split_state(total: int, ratio_a: int, ratio_b: int) -> list[int]:
    return [total, ratio_a, ratio_b]


def metered_api_state(total: int, calls_made: int, price_per_call: int) -> list[int]:
    return [total, calls_made, price_per_call]


def storage_payout_state(escrow: int, proofs_ok: int, reward_per_proof: int) -> list[int]:
    return [escrow, proofs_ok, reward_per_proof]

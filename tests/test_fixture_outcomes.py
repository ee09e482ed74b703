"""Every fixture reaches the outcome its header line states.

Each ``OUTCOMES`` entry is written from its fixture's first comment line, the
script's own commands and README's rules, not from a run. It gives the
receipts of the final chain's user txs, counted by (tx kind, status, revert
reason), and the final status or phase of each channel, question, storage
contract, name and zone, each named by its scenario handle (a name by its
owner, a zone by its members). Epoch txs follow README's rule rather than
the header: one applied EpochTx in each block at a positive multiple of
``epoch.blocks``, so their count is the final height // ``epoch.blocks``;
an entry whose header claims epochs lists that count among its receipts.

The fixtures send a tx or mine a block one or two ticks after the command
it should follow, and a message takes one or two ticks (``net.cfg``), so at
some seeds a tx misses the block meant for it or two miners fork. Of seeds
0-11, only 3 and 7 run every script as written (ROADMAP item 20).
"""
import collections
import os

import pytest

from deskchain import config, sim
from deskchain.crypto import KeyPair

from conftest import SCENARIO_DIR

SEEDS = (3, 7)
CFG = config.load_config(os.path.join(SCENARIO_DIR, "net.cfg"))
PEOPLE = {KeyPair.from_name(name).address: name for name, _, _ in CFG.genesis_accounts}
EPOCH_TX = ("EpochTx", "applied", "")


def applied(kind: str, count: int = 1) -> dict:
    return {(kind, "applied", ""): count}


def reverted(kind: str, reason: str, count: int = 1) -> dict:
    return {(kind, "reverted", reason): count}


OUTCOMES = {
    # open, two off-chain updates, cooperative close
    "channels_coop.scn": (
        {**applied("ChannelOpen"), **applied("ChannelCloseCoop")},
        {"channels": {"ch1": "closed"}},
    ),
    # stale unilateral close; the honest watcher challenges automatically.
    # Both watchers hold the nonce-2 state and challenge; the first settles
    # the channel, so the second finds it closed (WrongChannel)
    "channels_dispute.scn": (
        {**applied("ChannelOpen"), **applied("ChannelClose"), **applied("ChannelChallenge"),
         **reverted("ChannelChallenge", "WrongChannel")},
        {"channels": {"ch1": "closed"}},
    ),
    # hash-timelock settled through unilateral close and finalize
    "channels_htlc.scn": (
        {**applied("ChannelOpen"), **applied("ChannelClose"), **applied("ChannelFinalize")},
        {"channels": {"ch1": "closed"}},
    ),
    # contract accounts: create, successful call with refund, failing call
    "contracts.scn": (
        {**applied("ContractCreate"), **applied("ContractCall"), **reverted("ContractCall", "failed")},
        {},
    ),
    # channel survives a crash: durable signed states reload on restart
    "crash_restart.scn": (
        {**applied("ChannelOpen"), **applied("ChannelCloseCoop")},
        {"channels": {"ch1": "closed"}},
    ),
    # partition forks the chain; healing converges on the longer branch
    "faults.scn": (applied("Spend"), {}),
    # drain an account to zero and reclaim its slot for the delete reward
    "maintenance_delete.scn": ({**applied("Spend", 2), **applied("AccountDelete")}, {}),
    # a bit of everything across two epochs. The resolve at t=27 lands at
    # height 9, before end 9 + oracle.challenge_window 3 has passed
    "mixed.scn": (
        {**applied("Spend"), **applied("ChannelOpen"), **applied("OracleRegister"),
         **applied("OracleAnswer"), **applied("ChannelCloseCoop"), **reverted("OracleResolve", "NotReady"),
         **applied("AzCreate", 2), EPOCH_TX: 2},
        {"channels": {"chx": "closed"}, "questions": {"qx": "answered"},
         "zones": {"zone1": ["alice"], "zone2": ["carol"]}},
    ),
    # naming: claim, duplicate claim bounces, target reuse after mining
    "names.scn": (
        {**applied("NameClaim", 2), **reverted("NameClaim", "NameTaken")},
        {"names": {"plant-7": "alice", "press-2": "bob"}},
    ),
    # ask, asker answers inside the window, unchallenged resolution
    "oracle_accept.scn": (
        {**applied("OracleRegister"), **applied("OracleAnswer"), **applied("OracleResolve")},
        {"questions": {"q1": "resolved"}},
    ),
    # never answered: the window lapses and the deposit burns
    "oracle_burn.scn": (
        {**applied("OracleRegister"), **applied("OracleResolve")},
        {"questions": {"q1": "burned"}},
    ),
    # answer countered; stake-weighted ballots decide against the asker
    "oracle_contest.scn": (
        {**applied("OracleRegister"), **applied("OracleAnswer"), **applied("OracleCounter"),
         **applied("OracleVote", 2), **applied("OracleResolve")},
        {"questions": {"q1": "resolved"}},
    ),
    # zones, joins, a referral, then a POV/POC epoch distribution
    "rewards_epoch.scn": (
        {**applied("AzCreate", 2), **applied("AzJoin", 2), **applied("AzRefer"), EPOCH_TX: 1},
        {"zones": {"plant": ["alice", "carol"], "lab": ["bob", "dave"]}},
    ),
    # plain value transfer, data payloads, miner fees
    "spends.scn": ({**applied("Spend", 3), **applied("DataOnly")}, {}),
    # commit, two paid possession proofs at challenge heights, close refund
    "storage.scn": (
        {**applied("StorageCreate"), **applied("StorageProof", 2), **applied("StorageClose")},
        {"storage": {"store1": "closed"}},
    ),
}


def outcome(result) -> tuple[collections.Counter, dict]:
    """The final chain's receipts by (kind, status, reason), and each
    non-empty store's records by handle."""
    txs = [t for block in result.chain for t in block.transactions]
    receipts = collections.Counter(
        (type(t).__name__, r.status, r.reason) for t, r in zip(txs, result.receipts, strict=True)
    )
    name = {**PEOPLE, **{key: handle for handle, key in result.handles.items()}}
    state = result.state
    records = {
        "channels": {name[k]: c.status for k, c in state.channels.items()},
        "questions": {name[k]: q.phase for k, q in state.oracles.items()},
        "storage": {name[k]: "closed" if c.closed else "open" for k, c in state.storage_contracts.items()},
        "names": {k: name[r.owner] for k, r in state.names.items()},
        "zones": {name[k]: sorted(name[m] for m in z.members) for k, z in state.azs.items()},
    }
    return receipts, {store: held for store, held in records.items() if held}


def test_every_fixture_has_an_entry():
    assert sorted(OUTCOMES) == sorted(f for f in os.listdir(SCENARIO_DIR) if f.endswith(".scn"))


@pytest.mark.parametrize("seed", SEEDS)
def test_every_fixture_reaches_the_outcome_its_header_states(seed):
    missed = {}
    for fixture, (receipts, records) in sorted(OUTCOMES.items()):
        with open(os.path.join(SCENARIO_DIR, fixture)) as fh:
            result = sim.run(CFG, fh.read(), seed=seed, base_dir=SCENARIO_DIR)
        got = outcome(result)
        epochs = result.state.height // CFG.blocks_per_epoch
        want = (collections.Counter({EPOCH_TX: epochs, **receipts}), records)
        if got != want or got[0][EPOCH_TX] != epochs:
            missed[fixture] = (got, want)
    assert not missed, "\n".join(f"{f}: got {g}, want {w}" for f, (g, w) in missed.items())

import ast
import glob
import hashlib
import inspect
import os

import pytest

from deskchain import channels, config, sim, tx as txmod
from deskchain.crypto import KeyPair
from deskchain.ledger import CONTRACT
from deskchain.errors import CodecError, ScenarioError

from conftest import REFUSED_FACTORS, REFUSED_IDS, SCENARIO_DIR

CFG = config.load_config(os.path.join(SCENARIO_DIR, "net.cfg"))


def run(text, seed=7):
    return sim.run(CFG, text, seed=seed, base_dir=SCENARIO_DIR)


def run_file(name, seed=7):
    with open(os.path.join(SCENARIO_DIR, name), "r", encoding="utf-8") as fh:
        return run(fh.read(), seed=seed)


def test_empty_scenario_genesis_only():
    result = run("")
    assert result.chain[-1].header.height == 0
    header = result.chain[0].header
    assert result.final_tip == header.block_hash()
    roots = (header.account_root, header.name_root, header.wormhole_root,
             header.oracle_open_root, header.oracle_answer_root)
    assert result.final_state_root == hashlib.sha256(b"".join(roots)).digest()


def test_same_seed_identical_logs():
    text = open(os.path.join(SCENARIO_DIR, "mixed.scn")).read()
    a = run(text, seed=5)
    b = run(text, seed=5)
    assert a.event_log == b.event_log
    assert (a.final_tip, a.final_state_root) == (b.final_tip, b.final_state_root)


def test_different_seed_may_differ_but_converges():
    text = open(os.path.join(SCENARIO_DIR, "spends.scn")).read()
    a = run(text, seed=1)
    b = run(text, seed=2)
    # same commands, same final chain contents even if latencies differ
    assert a.chain[-1].header.height == b.chain[-1].header.height


def test_scenario_error_carries_line_number():
    with pytest.raises(ScenarioError) as err:
        run("0 mine alice\n2 frobnicate alice\n")
    assert err.value.line_no == 2
    with pytest.raises(ScenarioError):
        run("5 mine alice\n2 mine alice\n")  # times must be non-decreasing
    with pytest.raises(ScenarioError):
        run("0 mine mallory\n")
    # a helper that raises mid-command reports the command's line
    with pytest.raises(ScenarioError) as err:
        run("0 mine alice\n1 mine bob\n2 channel-update alice hex:" + "ab" * 32 + " 6dsd 4dsd\n")
    assert err.value.line_no == 3
    assert str(err.value) == "line 3: channel unknown at proposer"
    # an `as` with no handle after it
    with pytest.raises(ScenarioError) as err:
        run("0 mine alice\n1 az-create alice 5dsd as\n")
    assert err.value.line_no == 2


def test_a_contract_create_at_an_address_a_spend_funded_first_is_mined_reverted():
    # the create's address already holds bob's spend, so the create reverts
    # with AddressCollision in the t=12 block rather than staying pooled; its
    # sender's next tx is then counted from the tip alone and mined too
    address = txmod.contract_address(KeyPair.from_name("alice").address, 1)
    simulation = sim.Simulation(CFG, 7)
    result = simulation.run_scenario(
        f"0 spend bob bob hex:{address.hex()} 1\n1 mine bob\n"
        "5 contract-create alice alice template:payment-split 1000 0 40 2 call=1000,3,1\n"
        "12 mine bob\n14 spend alice alice bob 5\n15 mine alice\n", SCENARIO_DIR)
    assert "t=12 node=bob ev=mine height=2" in result.event_log
    receipts = iter(result.receipts)
    mined = {block.header.height: [(type(t).__name__, next(receipts)) for t in block.transactions]
             for block in result.chain}
    [(kind, receipt)] = mined[2]
    assert (kind, receipt.status, receipt.reason) == ("ContractCreate", "reverted", "AddressCollision")
    assert [(kind, receipt.status) for kind, receipt in mined[3]] == [("Spend", "applied")]
    assert not simulation.nodes["alice"].mempool
    assert result.state.accounts[address].kind != CONTRACT


def test_budget_exhaustion_detected():
    with pytest.raises(ScenarioError) as err:
        run("0 budget 3\n1 mine alice\n2 mine alice\n3 mine alice\n4 mine alice\n")
    assert "budget" in str(err.value)


def test_dispute_scenario_settles_at_higher_nonce():
    result = run_file("channels_dispute.scn")
    channel = result.state.channels[result.handles["ch1"]]
    assert channel.status == "closed"
    # stale close carried nonce 1 (6,4); the watcher's challenge enforced
    # nonce 2 (2,8)
    assert channel.final_split == (2_000_000, 8_000_000)


def test_htlc_scenario_settles_by_template():
    result = run_file("channels_htlc.scn")
    channel = result.state.channels[result.handles["ch1"]]
    assert channel.status == "closed"
    assert channel.final_split == (0, 10_000_000)


def test_finalizing_without_an_endpoint_creates_none():
    # carol is no party: she finalizes the hash-timelock channel by the
    # program the chain registered at the close, holding no endpoint
    with open(os.path.join(SCENARIO_DIR, "channels_htlc.scn"), "r", encoding="utf-8") as fh:
        text = fh.read().replace("channel-finalize bob", "channel-finalize carol")
    text += "36 crash carol\n37 restart carol\n"
    simulation = sim.Simulation(CFG, 7)
    result = simulation.run_scenario(text, SCENARIO_DIR)
    assert simulation.nodes["carol"].endpoints == {}
    assert "node=carol ev=restart channels=0" in result.event_log
    assert "node=carol ev=tx kind=ChannelFinalize" in result.event_log
    assert result.state.channels[result.handles["ch1"]].final_split == (0, 10_000_000)


def test_a_bad_factors_file_names_its_line_at_the_scenario_line(tmp_path):
    (tmp_path / "bad.factors").write_text("weights 1\naz nowhere 3\n")
    with pytest.raises(ScenarioError) as err:
        sim.run(CFG, "0 mine alice\n1 epoch-factors alice bad.factors\n", seed=7, base_dir=str(tmp_path))
    assert str(err.value) == (
        "line 2: bad.factors line 2: az: unknown zone 'nowhere': not a handle or a 64-hex id"
    )


@pytest.mark.parametrize("bad, named", [
    ("user {zone} alice eps", "line 2: user: eps has no value"),
    ("user {zone} alice epsilon 3 theta 2", "line 2: user: unknown key 'epsilon'"),
    ("user {zone} alice\nitem alhpa 5 s 1/2 beta 1 usage 1", "line 3: item: unknown key 'alhpa'"),
], ids=["no-value", "user-key", "item-key"])
def test_a_factors_key_without_a_value_or_unknown_is_refused_at_its_line(tmp_path, bad, named):
    # a user line takes eps and theta, an item line alpha, s, beta and usage,
    # each with its value; any other key would silently keep its default weight
    (tmp_path / "bad.factors").write_text("weights 1\n" + bad.format(zone="0a" * 32) + "\n")
    with pytest.raises(ScenarioError) as err:
        sim.run(CFG, "0 mine alice\n1 epoch-factors alice bad.factors\n", seed=7, base_dir=str(tmp_path))
    assert str(err.value) == f"line 2: bad.factors {named}"


@pytest.mark.parametrize("bad, named", REFUSED_FACTORS, ids=REFUSED_IDS)
def test_a_factors_value_the_reward_records_refuse_is_named_at_its_line(tmp_path, bad, named):
    # not a protocol rejection logged as ev=rejected: the scenario stops at the
    # epoch-factors line, naming the factors file's line too
    (tmp_path / "bad.factors").write_text(bad.format(zone="0a" * 32) + "\n")
    with pytest.raises(ScenarioError) as err:
        sim.run(CFG, "0 mine alice\n1 epoch-factors alice bad.factors\n", seed=7, base_dir=str(tmp_path))
    assert str(err.value) == f"line 2: bad.factors {named}"


def test_oracle_contest_scenario_challenger_wins():
    result = run_file("oracle_contest.scn")
    question = result.state.oracles[result.handles["q1"]]
    assert question.phase == "resolved"
    assert question.resolved_bit is False


def test_storage_scenario_pays_provider():
    result = run_file("storage.scn")
    contract = result.state.storage_contracts[result.handles["store1"]]
    assert contract.closed
    assert contract.escrow == 0
    proofs = [r for r in result.receipts if r.status == "applied"]
    assert len(result.receipts) >= 4
    # blocks carrying accepted possession proofs commit them in proof_root
    proof_roots = [
        b.header.proof_root for b in result.chain if b.header.proof_root != b"\x00" * 32
    ]
    assert len(proof_roots) == 2


def test_fault_scenario_converges_after_heal():
    result = run_file("faults.scn")
    # carol's 3-block branch beats alice's 2-block branch after healing
    heights = result.chain[-1].header.height
    assert heights >= 5
    sim_obj = sim.Simulation(CFG, seed=7)
    out = sim_obj.run_scenario(open(os.path.join(SCENARIO_DIR, "faults.scn")).read(), SCENARIO_DIR)
    tips = {name: node.header.block_hash() for name, node in sim_obj.nodes.items()}
    assert len(set(tips.values())) == 1  # everyone on the same tip


def test_crash_restart_channel_survives():
    result = run_file("crash_restart.scn")
    channel = result.state.channels[result.handles["ch1"]]
    assert channel.status == "closed"
    # the post-restart update (nonce 2) settled the close
    assert channel.final_split == (7_000_000, 3_000_000)


def test_all_fixture_scenarios_conserve_and_terminate():
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.scn"))):
        result = run_file(os.path.basename(path))
        sources, sinks = result.state.conservation_sides()
        assert sources == sinks, path
        result.state.check_invariants()


def test_no_fixture_log_holds_a_bad_counter():
    # a node numbers its txs from its pending state, so none of the
    # fixtures' own txs is refused for its counter
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.scn"))):
        assert "BadCounter" not in run_file(os.path.basename(path)).event_log, path


def test_a_second_tx_before_the_next_block_is_admitted_and_mined():
    # alice's t=27 oracle-resolve is still pooled at t=31, when her az-create
    # is admitted on top of it; carol's t=35 block takes both, in counter order
    result = run_file("mixed.scn")
    assert "t=31 node=alice ev=tx kind=AzCreate " in result.event_log
    alice = KeyPair.from_name("alice").address
    receipts = {r.tx_hash: r for r in result.receipts}
    mined = [(type(t).__name__, t.counter, receipts[t.digest()].status)
             for block in result.chain for t in block.transactions
             if not isinstance(t, txmod.EpochTx) and txmod.tx_sender(t) == alice]
    resolve, create = mined[-2:]
    assert resolve[:2] == ("OracleResolve", create[1] - 1)
    assert create[0::2] == ("AzCreate", "applied")
    assert result.state.azs[result.handles["zone1"]].owner == alice


def test_double_sign_registry_catches_conflicts():
    simulation = sim.Simulation(CFG, seed=3)
    text = "0 mine alice\n2 channel-open alice alice bob 1dsd 1dsd as ch\n4 mine alice\n"
    simulation.run_scenario(text, SCENARIO_DIR)
    channel_id = simulation.handles["ch"]
    node = simulation.nodes["alice"]
    state = node.state
    channel = state.channels[channel_id]
    a, b = KeyPair.from_name("alice"), KeyPair.from_name("bob")
    one = channels.make_update(channel, channels.nonce_zero_state(channel), (1_500_000, 500_000))
    one = channels.sign_state(channels.sign_state(one, a, "a"), b, "b")
    two = channels.make_update(channel, channels.nonce_zero_state(channel), (500_000, 1_500_000))
    two = channels.sign_state(channels.sign_state(two, a, "a"), b, "b")
    simulation._register_signed(node, one)
    with pytest.raises(Exception):
        simulation._register_signed(node, two)


def test_channel_messages_with_trailing_bytes_are_rejected():
    simulation = sim.Simulation(CFG, seed=3)
    text = "0 mine alice\n2 channel-open alice alice bob 1dsd 1dsd as ch\n4 mine alice\n"
    simulation.run_scenario(text, SCENARIO_DIR)
    channel_id = simulation.handles["ch"]
    channel = simulation.nodes["bob"].state.channels[channel_id]
    a, b = KeyPair.from_name("alice"), KeyPair.from_name("bob")
    half = channels.sign_state(
        channels.make_update(channel, channels.nonce_zero_state(channel), (1_500_000, 500_000)), a, "a"
    )
    full = channels.sign_state(half, b, "b")
    with pytest.raises(CodecError, match="trailing"):
        simulation._on_propose(simulation.nodes["bob"], "alice", (channel_id, half.encode() + b"junk", b""))
    with pytest.raises(CodecError, match="trailing"):
        simulation._on_ack(simulation.nodes["alice"], "bob", (channel_id, full.encode() + b"junk"))


def test_a_proposal_that_skips_a_nonce_is_ignored():
    simulation = sim.Simulation(CFG, seed=3)
    text = "0 mine alice\n2 channel-open alice alice bob 1dsd 1dsd as ch\n4 mine alice\n"
    simulation.run_scenario(text, SCENARIO_DIR)
    channel_id = simulation.handles["ch"]
    bob = simulation.nodes["bob"]
    channel = bob.state.channels[channel_id]
    one = channels.make_update(channel, channels.nonce_zero_state(channel), (1_500_000, 500_000))
    two = channels.sign_state(
        channels.make_update(channel, one, (500_000, 1_500_000)), KeyPair.from_name("alice"), "a"
    )
    assert simulation.endpoint_for(bob, channel_id).latest_nonce() == 0
    simulation.dispatch(sim.CHAN_PROPOSE, ("alice", "bob", (channel_id, two.encode(), b"")))
    assert simulation.log_lines[-1].endswith("node=bob ev=chan_ignore reason=bad_nonce nonce=2")
    assert simulation.endpoint_for(bob, channel_id).latest_nonce() == 0


def test_event_log_format():
    result = run("0 mine alice\n")
    lines = result.event_log.strip().splitlines()
    assert all(line.startswith("t=") for line in lines)
    assert any("ev=mine" in line for line in lines)
    assert lines[-1].startswith("t=") and "ev=final" in lines[-1]


_SPLIT_ASM = """\
; stack in: total ratio_a ratio_b; out: a = total*ra/(ra+rb), b = total - a
STORE 2
STORE 1
STORE 0
LOAD 0
LOAD 1
MUL
LOAD 1
LOAD 2
ADD
DIV
STORE 3
LOAD 0
LOAD 3
SUB
STORE 4
LOAD 3
LOAD 4
STOP
"""

# an explicit channel-challenge carrying an asm: program, asm: contract code
# and file: storage data; no committed fixture reaches these paths
_UNCOVERED_SCENARIO = """\
0 mine alice
1 storage-commit alice alice bob file:data.bin 8 2 50 600 as store1
2 channel-open bob bob carol 5dsd 5dsd as ch1
3 contract-create dave dave asm:split.asm 1000 0 40 2 call=1000,3,1 as c1
4 mine bob
6 channel-update bob ch1 6dsd 4dsd
10 channel-update carol ch1 3dsd 7dsd contract=asm:split.asm cstate=10dsd,3,7
14 channel-close bob ch1 nonce=1 fee=5
15 channel-challenge carol ch1
17 mine dave
20 mine dave 2
23 storage-prove bob bob store1
24 contract-call alice alice c1 0 30 2 call=900,1,2
25 mine bob
27 mine alice 2
"""

UNCOVERED_EVENT_LOG_DIGEST = "343c0b4bb156fcac60bc2ed3bf77f0437b85ef2ca73188f1b1d13643e5b70450"


def test_uncovered_verbs_are_pinned(tmp_path):
    (tmp_path / "split.asm").write_text(_SPLIT_ASM)
    (tmp_path / "data.bin").write_bytes(bytes(range(40)))
    result = sim.run(CFG, _UNCOVERED_SCENARIO, seed=7, base_dir=str(tmp_path))
    # carol's nonce-2 state, settled by the program: 10dsd split 3:7
    assert result.state.channels[result.handles["ch1"]].final_split == (3_000_000, 7_000_000)
    assert all(r.status == "applied" for r in result.receipts) and len(result.receipts) == 7
    digest = hashlib.sha256(result.event_log.encode()).hexdigest()
    assert digest == UNCOVERED_EVENT_LOG_DIGEST, result.event_log


def test_unknown_template_names_the_line():
    with pytest.raises(ScenarioError) as err:
        run("0 mine alice\n1 contract-create alice alice template:nope 0 0 10 1\n")
    assert str(err.value) == "line 2: unknown template 'nope'"


def test_every_event_kind_the_queue_takes_is_one_dispatch_handles():
    # schedule is the queue's one writer; its kind, and the kind send and
    # broadcast pass on to it, is always one of the five constants, and
    # dispatch has a branch for each; so dispatch needs no unknown-kind guard
    kinds = {"BLOCK", "TX", "CHAN_PROPOSE", "CHAN_ACK", "COMMAND"}
    assert len({getattr(sim, name) for name in kinds}) == 5
    kind_at = {"schedule": 1, "send": 2, "broadcast": 1}  # positional index of the kind
    tree = ast.parse(inspect.getsource(sim))
    for function in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        for call in (n for n in ast.walk(function) if isinstance(n, ast.Call)):
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            if name == "heappush":
                assert function.name == "schedule"
            if name in kind_at:
                kind = call.args[kind_at[name]]
                forwarded = function.name in ("send", "broadcast") and kind.id == "kind"
                assert forwarded or kind.id in kinds, (function.name, ast.unparse(call))
    dispatch = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "dispatch")
    handled = {c.comparators[0].id for c in ast.walk(dispatch)
               if isinstance(c, ast.Compare) and getattr(c.left, "id", None) == "kind"}
    assert handled == kinds

import glob
import hashlib
import os

import pytest

from deskchain import channels, config, sim
from deskchain.crypto import KeyPair
from deskchain.errors import ScenarioError

from conftest import SCENARIO_DIR

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
    tips = {name: node.tip for name, node in sim_obj.nodes.items()}
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


def test_double_sign_registry_catches_conflicts():
    simulation = sim.Simulation(CFG, seed=3)
    text = "0 mine alice\n2 channel-open alice alice bob 1dsd 1dsd as ch\n4 mine alice\n"
    simulation.run_scenario(text, SCENARIO_DIR)
    channel_id = simulation.handles["ch"]
    node = simulation.nodes["alice"]
    state = node.tip_state()
    channel = state.channels[channel_id]
    a, b = KeyPair.from_name("alice"), KeyPair.from_name("bob")
    one = channels.make_update(channel, channels.nonce_zero_state(channel), (1_500_000, 500_000))
    one = channels.sign_state(channels.sign_state(one, a, "a"), b, "b")
    two = channels.make_update(channel, channels.nonce_zero_state(channel), (500_000, 1_500_000))
    two = channels.sign_state(channels.sign_state(two, a, "a"), b, "b")
    simulation._register_signed(node, one)
    with pytest.raises(Exception):
        simulation._register_signed(node, two)


def test_event_log_format():
    result = run("0 mine alice\n")
    lines = result.event_log.strip().splitlines()
    assert all(line.startswith("t=") for line in lines)
    assert any("ev=mine" in line for line in lines)
    assert lines[-1].startswith("t=") and "ev=final" in lines[-1]

import hashlib
import os
import subprocess
import sys

import pytest

from deskchain.cli import main
from deskchain.crypto import KeyPair
from deskchain.statedir import StateDir

from conftest import REFUSED_FACTORS, REFUSED_IDS, REPO_ROOT, SCENARIO_DIR

NET_CFG = """
pow.edge_bits = 8
epoch.blocks = 10
pool.q0 = 50000
genesis.account = alice 100dsd
genesis.account = bob 50dsd
genesis.endowment = 200dsd
"""


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "net.cfg"
    cfg.write_text(NET_CFG)
    return tmp_path


def run(workdir, *argv):
    return main(["--state-dir", str(workdir / "state"), *argv])


def test_usage_error_exits_2(capsys):
    scenario = os.path.join(SCENARIO_DIR, "spends.scn")
    cfg = os.path.join(SCENARIO_DIR, "net.cfg")
    for argv in (
        ["definitely-not-a-command"],
        # --seed and --config belong to the subcommands that read them
        ["--seed", "5", "sim", "run", scenario, "--config", cfg],
        ["--config", "x", "storage", "quote", "--bytes", "1"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


def test_optimizer_evaluate_takes_no_compare_vi_flag(tmp_path, capsys):
    # only train compares its Q table with value iteration
    with pytest.raises(SystemExit) as err:
        main(["optimizer", "evaluate", "--mdp", str(tmp_path / "m.mdp"), "--compare-vi"])
    assert err.value.code == 2


def test_cli_import_leaves_numpy_unloaded():
    # a fresh interpreter: this one has numpy loaded by other tests
    path = os.pathsep.join([os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH", "")])
    subprocess.run(
        [sys.executable, "-c", "import deskchain.cli, sys; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60,
    )


def test_keygen_prints_address(workdir, capsys):
    assert run(workdir, "keygen", "alice") == 0
    out = capsys.readouterr().out
    assert "name=alice" in out and "address=" in out


def test_genesis_send_mine_flow(workdir, capsys):
    assert run(workdir, "genesis", "--config", str(workdir / "net.cfg")) == 0
    assert run(workdir, "send", "--from", "alice", "--to", "bob", "--amount", "5dsd", "--fee", "9") == 0
    assert run(workdir, "mine", "--miner", "bob") == 0
    out = capsys.readouterr().out
    assert "status=applied" in out and "fee=9" in out


def test_three_sends_before_one_mine_all_enter_the_block_in_counter_order(workdir, capsys):
    # each send is admitted on top of the pooled ones; the later ones pay
    # more, so by fee density alone they would go first
    assert run(workdir, "genesis", "--config", str(workdir / "net.cfg")) == 0
    for amount, fee in (("1dsd", "9"), ("2dsd", "20"), ("3dsd", "40")):
        assert run(workdir, "send", "--from", "alice", "--to", "bob", "--amount", amount, "--fee", fee) == 0
    assert run(workdir, "mine", "--miner", "bob") == 0
    _, _, blocks = StateDir(str(workdir / "state")).load_chain()
    assert [(t.counter, t.amount) for t in blocks[-1].transactions] == [
        (1, 1_000_000), (2, 2_000_000), (3, 3_000_000)]
    assert capsys.readouterr().out.count("status=applied") == 3
    assert (workdir / "state" / "mempool.bin").read_bytes() == b""


def test_send_without_genesis_fails_1(workdir, capsys):
    assert run(workdir, "send", "--from", "alice", "--to", "bob", "--amount", "1") == 1
    assert "error:" in capsys.readouterr().err


def test_insufficient_funds_fails_1(workdir, capsys):
    run(workdir, "genesis", "--config", str(workdir / "net.cfg"))
    capsys.readouterr()
    code = run(workdir, "send", "--from", "bob", "--to", "alice", "--amount", "900dsd")
    assert code == 1
    assert "InsufficientFunds" in capsys.readouterr().err


def test_missing_input_files_fail_1(workdir, capsys):
    run(workdir, "genesis", "--config", str(workdir / "net.cfg"))
    capsys.readouterr()
    missing_code = str(workdir / "missing.asm")
    assert run(workdir, "contract", "create", "--owner", "alice", "--code", missing_code) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.asm" in err
    missing_scenario = str(workdir / "missing.scn")
    assert run(workdir, "sim", "run", missing_scenario, "--config", str(workdir / "net.cfg")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.scn" in err


_HEX_ZONE = "0a" * 32


@pytest.mark.parametrize("argv, text, named", [
    (["send", "--from", "alice", "--to", "bob", "--amount", "abc"], "", "'abc'"),
    (["genesis", "--config", "{file}"], NET_CFG + "pow.edge_bits = x\n", "line 8"),
    (["genesis", "--config", "{file}"], NET_CFG + "pow.target_hex = zz\n", "line 8"),
    (["contract", "create", "--owner", "alice", "--code", "template:payment-split",
      "--call-data", "1,x"], "", "'1,x'"),
    (["channel", "update", "--channel", "{channel}", "--balance-a", "1dsd",
      "--balance-b", "2dsd", "--cstate", "7,seven"], "", "'7,seven'"),
    (["epoch", "run", "--factors", "{file}", "--gamma", "1001"],
     "weights 1\naz zz 10\n", "'zz'"),
    (["epoch", "run", "--factors", "{file}", "--gamma", "1001"],
     f"weights 1\naz {_HEX_ZONE} x\n", "line 2"),
    (["epoch", "run", "--factors", os.path.join(SCENARIO_DIR, "epoch1.factors"),
      "--gamma", "1dsd"], "", "unknown zone 'plant'"),
], ids=["amount", "config-int", "config-hex", "call-data", "cstate", "zone-id", "factor", "readme"])
def test_a_malformed_number_is_an_error_not_a_traceback(workdir, capsys, argv, text, named):
    run(workdir, "genesis", "--config", str(workdir / "net.cfg"))
    run(workdir, "channel", "open", "--a", "alice", "--b", "bob",
        "--deposit-a", "2dsd", "--deposit-b", "1dsd")
    channel = capsys.readouterr().out.split("channel=")[1].split()[0]
    run(workdir, "mine", "--miner", "alice")
    (workdir / "input").write_text(text)
    capsys.readouterr()
    assert run(workdir, *(a.format(file=workdir / "input", channel=channel) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err


def test_genesis_over_a_used_state_dir_drops_the_old_mempool_and_channels(workdir, capsys):
    run(workdir, "genesis", "--config", str(workdir / "net.cfg"))
    run(workdir, "channel", "open", "--a", "alice", "--b", "bob",
        "--deposit-a", "2dsd", "--deposit-b", "1dsd")
    channel = capsys.readouterr().out.split("channel=")[1].split()[0]
    run(workdir, "mine", "--miner", "alice")
    assert run(workdir, "channel", "update", "--channel", channel,
               "--balance-a", "1dsd", "--balance-b", "2dsd") == 0
    assert run(workdir, "send", "--from", "alice", "--to", "bob", "--amount", "5dsd") == 0
    assert run(workdir, "genesis", "--config", str(workdir / "net.cfg")) == 0
    capsys.readouterr()
    assert run(workdir, "mine", "--miner", "bob") == 0
    out = capsys.readouterr().out
    assert out.startswith("block height=1 ") and "tx=" not in out, out
    assert sorted(os.listdir(workdir / "state")) == ["chain.bin", "config.cfg", "keys", "mempool.bin"]


def test_a_bad_genesis_config_leaves_the_state_dir_as_it_was(workdir, capsys):
    assert run(workdir, "genesis", "--config", str(workdir / "net.cfg")) == 0
    config = (workdir / "state" / "config.cfg").read_bytes()
    (workdir / "bad.cfg").write_text(NET_CFG + "pow.target_hex = zz\n")
    capsys.readouterr()
    assert run(workdir, "genesis", "--config", str(workdir / "bad.cfg")) == 1
    assert "line 8" in capsys.readouterr().err
    assert (workdir / "state" / "config.cfg").read_bytes() == config
    assert run(workdir, "send", "--from", "alice", "--to", "bob", "--amount", "5dsd", "--fee", "9") == 0
    assert run(workdir, "mine", "--miner", "bob") == 0
    assert "status=applied" in capsys.readouterr().out


def test_a_genesis_whose_supply_passes_the_u64_ceiling_leaves_the_state_dir_as_it_was(workdir, capsys):
    # no balance can pass 2^64 - 1 when the genesis total plus every coinbase stays within it
    assert run(workdir, "genesis", "--config", str(workdir / "net.cfg")) == 0
    before = {name: (workdir / "state" / name).read_bytes() for name in ("config.cfg", "chain.bin")}
    (workdir / "rich.cfg").write_text(f"pow.edge_bits = 8\ngenesis.account = rich {2**64 - 10}\n")
    capsys.readouterr()
    assert run(workdir, "genesis", "--config", str(workdir / "rich.cfg")) == 1
    assert "line 2: genesis total" in capsys.readouterr().err
    assert {name: (workdir / "state" / name).read_bytes() for name in before} == before


def test_name_claim_resolve(workdir, capsys):
    run(workdir, "genesis", "--config", str(workdir / "net.cfg"))
    run(workdir, "name", "claim", "--owner", "alice", "--name", "plant-7", "--target", "bob")
    run(workdir, "mine", "--miner", "alice")
    capsys.readouterr()
    assert run(workdir, "name", "resolve", "--name", "plant-7") == 0
    resolved = capsys.readouterr().out.strip()
    from deskchain.crypto import KeyPair

    assert resolved == KeyPair.from_name("bob").address.hex()


def test_name_resolve_of_an_unclaimed_name_is_not_found(workdir, capsys):
    run(workdir, "genesis", "--config", str(workdir / "net.cfg"))
    capsys.readouterr()
    assert run(workdir, "name", "resolve", "--name", "plant-7") == 1
    assert capsys.readouterr().err == "error: NotFound: plant-7\n"


def test_channel_cycle_via_cli(workdir, capsys):
    run(workdir, "genesis", "--config", str(workdir / "net.cfg"))
    run(workdir, "channel", "open", "--a", "alice", "--b", "bob",
        "--deposit-a", "2dsd", "--deposit-b", "1dsd")
    out = capsys.readouterr().out
    channel_id = [l for l in out.splitlines() if l.startswith("channel=")][0].split("=")[1]
    run(workdir, "mine", "--miner", "alice")
    assert run(workdir, "channel", "update", "--channel", channel_id,
               "--balance-a", "1dsd", "--balance-b", "2dsd") == 0
    assert run(workdir, "channel", "close-coop", "--channel", channel_id, "--sender", "bob") == 0
    run(workdir, "mine", "--miner", "alice")
    capsys.readouterr()
    # closing again is refused up front: the channel is already closed
    assert run(workdir, "channel", "close", "--channel", channel_id, "--sender", "alice") == 1
    err = capsys.readouterr().err
    assert "would revert" in err


def test_contract_call_to_a_plain_account_is_refused_up_front(workdir, capsys):
    # README: a ContractCall to an account without code reverts (NotFound),
    # so the CLI refuses it before it reaches the pool
    run(workdir, "genesis", "--config", str(workdir / "net.cfg"))
    capsys.readouterr()
    bob = KeyPair.from_name("bob").address.hex()
    assert run(workdir, "contract", "call", "--caller", "alice", "--contract", bob,
               "--amount", "700", "--gas", "5") == 1
    assert capsys.readouterr().err == "error: transaction would revert: NotFound\n"
    assert StateDir(str(workdir / "state")).mempool() == []


def test_oracle_cycle_via_cli(workdir, capsys):
    run(workdir, "genesis", "--config", str(workdir / "net.cfg"))
    run(workdir, "mine", "--miner", "alice")
    capsys.readouterr()
    run(workdir, "oracle", "ask", "--asker", "alice", "--question", "ok?",
        "--start", "2", "--end", "4")
    out = capsys.readouterr().out
    qid = [l for l in out.splitlines() if l.startswith("question=")][0].split("=")[1]
    run(workdir, "mine", "--miner", "alice")
    run(workdir, "oracle", "answer", "--sender", "alice", "--question-id", qid, "--bit", "yes")
    run(workdir, "mine", "--miner", "alice")
    for _ in range(12):
        run(workdir, "mine", "--miner", "bob")
    run(workdir, "oracle", "resolve", "--sender", "bob", "--question-id", qid)
    run(workdir, "mine", "--miner", "bob")
    capsys.readouterr()
    assert run(workdir, "oracle", "read", "--question-id", qid) == 0
    assert capsys.readouterr().out.strip() == "answer=yes"


def test_storage_quote(workdir, capsys):
    assert run(workdir, "storage", "quote", "--bytes", "65536") == 0
    assert capsys.readouterr().out.strip() == "quote=100000"


def test_storage_commit_prove_from_chunk_dir(workdir, capsys):
    run(workdir, "genesis", "--config", str(workdir / "net.cfg"))
    chunk_dir = workdir / "chunks"
    chunk_dir.mkdir()
    for i in range(4):
        (chunk_dir / f"{i:04d}.bin").write_bytes(bytes([i]) * 8)
    run(workdir, "mine", "--miner", "alice")
    capsys.readouterr()
    run(workdir, "storage", "commit", "--payer", "alice", "--provider", "bob",
        "--chunk-dir", str(chunk_dir), "--period", "2", "--reward", "10",
        "--escrow", "100")
    out = capsys.readouterr().out
    contract_id = [l for l in out.splitlines() if l.startswith("contract=")][0].split("=")[1].split()[0]
    run(workdir, "mine", "--miner", "alice")  # height 2? no: 3
    run(workdir, "mine", "--miner", "alice")
    capsys.readouterr()
    # next block is height 4, a challenge height for period 2
    assert run(workdir, "storage", "prove", "--provider", "bob",
               "--contract", contract_id, "--chunk-dir", str(chunk_dir)) == 0
    run(workdir, "mine", "--miner", "alice")
    out = capsys.readouterr().out
    assert "status=applied" in out


def test_epoch_run_report_sums(workdir, capsys):
    factors = workdir / "f.factors"
    factors.write_text(
        "weights 1/2 1/2\n"
        "az " + "0a" * 32 + " 10 0\n"
        "az " + "0b" * 32 + " 0 4\n"
        "user " + "0a" * 32 + " alice eps 1 theta 0\n"
        "item alpha 1 s 1/2 beta 1 usage\n"
        "user " + "0b" * 32 + " bob eps 1 theta 0\n"
        "item alpha 1 s 1 beta 1 usage\n"
    )
    assert run(workdir, "epoch", "run", "--factors", str(factors), "--gamma", "1001") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    az_lines = [l for l in lines if l.startswith("az ")]
    assert sum(int(l.rsplit(" ", 1)[1]) for l in az_lines) == 1001
    user_lines = [l for l in lines if l.startswith("user ")]
    assert sum(int(l.rsplit(" ", 1)[1]) for l in user_lines) == 1001


@pytest.mark.parametrize("bad, named", [
    ("eps", "line 2: user: eps has no value"),
    ("epsilon 3 theta 2", "line 2: user: unknown key 'epsilon'"),
    ("eps 1\nitem alhpa 5 s 1/2 beta 1 usage 1", "line 3: item: unknown key 'alhpa'"),
], ids=["no-value", "user-key", "item-key"])
def test_epoch_run_refuses_a_factors_key_without_a_value_or_unknown(workdir, capsys, bad, named):
    factors = workdir / "f.factors"
    factors.write_text("az " + "0a" * 32 + " 10\nuser " + "0a" * 32 + f" alice {bad}\n")
    assert run(workdir, "epoch", "run", "--factors", str(factors), "--gamma", "1001") == 1
    assert capsys.readouterr().err == f"error: {named}\n"


@pytest.mark.parametrize("bad, named", REFUSED_FACTORS, ids=REFUSED_IDS)
def test_epoch_run_refuses_a_factors_value_the_reward_records_refuse(workdir, capsys, bad, named):
    factors = workdir / "f.factors"
    factors.write_text(bad.format(zone="0a" * 32) + "\n")
    assert run(workdir, "epoch", "run", "--factors", str(factors), "--gamma", "1001") == 1
    assert capsys.readouterr().err == f"error: {named}\n"


def test_optimizer_bp_cli(workdir, tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("var x 2\nunary x 1 3\n")
    assert main(["optimizer", "bp", "--graph", str(graph)]) == 0
    assert capsys.readouterr().out.strip() == "x: 0.250000000 0.750000000"


def test_optimizer_bp_cli_rejects_an_infinite_potential(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("var x 2\nunary x inf 1\n")
    assert main(["optimizer", "bp", "--graph", str(graph)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "BadFormat" in captured.err


def test_optimizer_train_cli(tmp_path, capsys):
    mdp = tmp_path / "m.mdp"
    mdp.write_text(
        "devices 1\nstates 3\nactions run repair\narrivals constant 1\n"
        "capacity run 1 1 0\ncapacity repair 0 0 0\n"
        "transition run 0 0.7 0.3 0.0\ntransition run 1 0.0 0.6 0.4\n"
        "transition run 2 0.0 0.0 1.0\ntransition repair 0 1 0 0\n"
        "transition repair 1 1 0 0\ntransition repair 2 1 0 0\n"
    )
    assert main([
        "optimizer", "train", "--mdp", str(mdp), "--seed", "0",
        "--episodes", "120", "--steps", "60", "--compare-vi",
    ]) == 0
    out = capsys.readouterr().out
    assert "vi_policy_match=3/3" in out


# stdout of `sim run spends.scn --config net.cfg --seed 5`
SIM_RUN_SEED_5_DIGEST = "4afa337c27606613a1b131daf55f9db6c3a4775da4ca4bc5b6cf2ef0ce6d08a7"


def test_sim_run_cli_deterministic(capsys):
    scenario = os.path.join(SCENARIO_DIR, "spends.scn")
    cfg = os.path.join(SCENARIO_DIR, "net.cfg")
    assert main(["sim", "run", scenario, "--config", cfg, "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["sim", "run", scenario, "--config", cfg, "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "final_state_root=" in first
    assert main(["sim", "run", scenario, "--config", cfg, "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SIM_RUN_SEED_5_DIGEST, out


def test_optimizer_evaluate_cli(tmp_path, capsys):
    mdp = tmp_path / "m.mdp"
    mdp.write_text(
        "devices 1\nstates 3\nactions run repair\narrivals constant 1\n"
        "capacity run 1 1 0\ncapacity repair 0 0 0\n"
        "transition run 0 0.7 0.3 0.0\ntransition run 1 0.0 0.6 0.4\n"
        "transition run 2 0.0 0.0 1.0\ntransition repair 0 1 0 0\n"
        "transition repair 1 1 0 0\ntransition repair 2 1 0 0\n"
    )
    assert main([
        "optimizer", "evaluate", "--mdp", str(mdp), "--seed", "3",
        "--episodes", "150", "--steps", "60",
    ]) == 0
    out = capsys.readouterr().out
    learned = float(out.split("learned_policy_reward_per_step=")[1].splitlines()[0])
    optimal = float(out.split("optimal_policy_reward_per_step=")[1].splitlines()[0])
    assert learned >= optimal - 0.05


_FLOW_CFG = """
pow.edge_bits = 8
channel.countdown_blocks = 3
oracle.deposit_rate = 2
oracle.challenge_window = 3
oracle.vote_window = 4
epoch.blocks = 8
pool.q0 = 50000
genesis.account = alice 100dsd
genesis.account = bob 100dsd
genesis.account = carol 100dsd
genesis.endowment = 200dsd
"""

# one command per line, continued after a trailing backslash; {name} is
# filled from an earlier command's `contract=`, `channel=` or `question=`
# output, numbered in order of minting
_FLOW = """
send --from alice --to bob --amount 5dsd --fee 9
contract create --owner bob --code template:payment-split --deposit 1000 \\
    --gas 40 --gas-price 2 --call-data 1000,3,1
name claim --owner carol --name plant-7 --target bob
mine --miner carol
name resolve --name plant-7
contract call --caller alice --contract {contract0} --amount 500 \\
    --gas 30 --gas-price 2 --call-data 1000,3,1
channel open --a bob --b carol --deposit-a 2dsd --deposit-b 1dsd
mine --miner alice
channel update --channel {channel0} --balance-a 1dsd --balance-b 2dsd
channel close-coop --channel {channel0} --sender carol
channel open --a alice --b bob --deposit-a 5dsd --deposit-b 5dsd
mine --miner carol
channel update --channel {channel1} --balance-a 6dsd --balance-b 4dsd
channel update --channel {channel1} --balance-a 2dsd --balance-b 8dsd
channel close --channel {channel1} --sender alice --nonce 1
oracle ask --asker carol --question lot-9-shipped --start 4 --end 9
mine --miner bob
channel challenge --channel {channel1} --sender bob
oracle answer --sender carol --question-id {question0} --bit yes
channel open --a alice --b carol --deposit-a 1dsd --deposit-b 1dsd
mine --miner bob
oracle counter --sender alice --question-id {question0}
channel close --channel {channel2} --sender carol
mine --miner bob --count 3
channel finalize --channel {channel1} --sender bob
channel finalize --channel {channel2} --sender carol
oracle vote --sender bob --question-id {question0} --bit no
mine --miner alice
storage commit --payer alice --provider bob --data-file {data} --chunk-size 8 \\
    --period 2 --reward 50 --escrow 600
mine --miner alice --count 4
oracle resolve --sender alice --question-id {question0}
storage prove --provider bob --contract {contract1} --data-file {data} --chunk-size 8
mine --miner carol
oracle read --question-id {question0}
storage close --payer alice --contract {contract1}
mine --miner carol --count 2
send --from bob --to alice --amount 1dsd
"""

CLI_FLOW_DIGESTS = {
    "stdout": "2c1fd7f7f402d82aa7e39e9fdfab931331eccef3e33cc6922c8e3df44290705f",
    # the first finalize exits 1: bob's challenge already settled that channel
    "exit_codes": "0000000000000000000000001000000000000",
    "chain.bin": "04c0620067e55fa79a413e7cd8e25b864e8223e8e20336fa3a44d07b6673679b",
    "mempool.bin": "229c8772091838927460d53a8114b228fdd1d86371b042204052f2f671d7e659",
}


def test_cli_flow_is_pinned(tmp_path, capsys):
    """Every tx verb through the CLI, across an epoch boundary, byte for byte."""
    import hashlib

    (tmp_path / "net.cfg").write_text(_FLOW_CFG)
    (tmp_path / "data.bin").write_bytes(bytes(range(40)))
    ids = {"data": str(tmp_path / "data.bin")}
    assert run(tmp_path, "genesis", "--config", str(tmp_path / "net.cfg")) == 0
    stdout, codes = [capsys.readouterr().out], []
    for line in _FLOW.replace("\\\n", "").strip().splitlines():
        argv = line.format(**ids).split()
        codes.append(run(tmp_path, *argv))
        out = capsys.readouterr().out
        stdout.append(out)
        if argv[1] in ("create", "open", "ask", "commit"):
            key, value = out.split()[0].split("=")
            ids[f"{key}{sum(k.startswith(key) for k in ids)}"] = value
    state = tmp_path / "state"
    got = {
        "stdout": hashlib.sha256("".join(stdout).encode()).hexdigest(),
        "exit_codes": "".join(map(str, codes)),
        "chain.bin": hashlib.sha256((state / "chain.bin").read_bytes()).hexdigest(),
        "mempool.bin": hashlib.sha256((state / "mempool.bin").read_bytes()).hexdigest(),
    }
    assert got == CLI_FLOW_DIGESTS, "".join(stdout)


def test_unknown_template_is_a_clean_error(workdir, capsys):
    run(workdir, "genesis", "--config", str(workdir / "net.cfg"))
    capsys.readouterr()
    assert run(workdir, "contract", "create", "--owner", "alice", "--code", "template:nope") == 1
    assert capsys.readouterr().err == "error: unknown template 'nope'\n"


@pytest.mark.parametrize("argv", [
    ["channel", "close", "--channel", "zz", "--sender", "alice"],
    ["contract", "call", "--caller", "alice", "--contract", "0g"],
    ["oracle", "read", "--question-id", "abc"],
    ["send", "--from", "alice", "--to", "hex:nothex", "--amount", "1"],
])
def test_malformed_hex_is_a_usage_error(workdir, capsys, argv):
    with pytest.raises(SystemExit) as err:
        run(workdir, *argv)
    assert err.value.code == 2
    assert "not hex" in capsys.readouterr().err


def test_storage_data_source_is_checked_and_chunk_files_closed(workdir, capsys):
    import warnings

    run(workdir, "genesis", "--config", str(workdir / "net.cfg"))
    chunk_dir = workdir / "chunks"
    chunk_dir.mkdir()
    commit = ["storage", "commit", "--payer", "alice", "--provider", "bob",
              "--chunk-dir", str(chunk_dir)]
    capsys.readouterr()
    assert run(workdir, *commit[:-2]) == 1
    assert capsys.readouterr().err == "error: storage data needs --data-file or --chunk-dir\n"
    assert run(workdir, *commit) == 1
    assert capsys.readouterr().err == f"error: no chunk files in {chunk_dir}\n"
    for i in range(3):
        (chunk_dir / f"{i:04d}.bin").write_bytes(bytes([i]) * 8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(workdir, *commit) == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert "chunks=3" in capsys.readouterr().out

import os
import re

import pytest

from deskchain import config, pow, sim
from deskchain.config import ConfigError, parse_config
from deskchain.errors import DeskchainError
from deskchain.optimizer.files import parse_factor_graph, parse_mdp
from deskchain.vm import assemble

from conftest import REPO_ROOT


def _readme_keys() -> set[str]:
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Config keys", 1)[1].split("\n## ", 1)[0]
    return {token.split()[0] for token in re.findall(r"`([^`]+)`", section)}


def _accepted(key: str) -> bool:
    try:
        parse_config(f"{key} = x\n")
    except ConfigError as exc:
        return "unknown key" not in str(exc)
    return True


def test_readme_config_keys_are_the_keys_parse_config_accepts():
    listed = _readme_keys()
    tables = {*config._INT_KEYS, *config._AMOUNT_KEYS, *config._FRACTION_KEYS}
    # the two keys parse_config matches by name rather than through a table
    assert listed == tables | {"pow.target_hex", "genesis.account"}
    assert all(_accepted(key) for key in listed)
    assert not any(_accepted(key) for key in ("no.such_key", "sim.max_events", "sim.auto_challenge"))


@pytest.mark.parametrize("bad, least", [
    ("epoch.blocks = 0", "epoch.blocks = 1"),
    ("coinbase.halving_blocks = 0", "coinbase.halving_blocks = 1"),
    ("storage.retrieval_unit = 0", "storage.retrieval_unit = 1"),
    ("sim.latency_min = -5", "sim.latency_min = 0"),
    ("sim.latency_min = 3", "sim.latency_min = 2"),  # net.cfg sets sim.latency_max = 2
    ("sim.latency_max = 0", "sim.latency_max = 1"),  # under net.cfg's sim.latency_min = 1
    ("channel.countdown_blocks = 0", "channel.countdown_blocks = 1"),
    ("oracle.vote_window = -3", "oracle.vote_window = 1"),
    ("oracle.vote_window = 0", "oracle.vote_window = 1"),
    ("oracle.challenge_window = -1", "oracle.challenge_window = 0"),
    ("vm.pure_gas = -1", "vm.pure_gas = 1"),
    ("vm.pure_gas = 0", "vm.pure_gas = 1"),
    ("vm.pure_space = -1", "vm.pure_space = 1"),
    ("vm.pure_space = 0", "vm.pure_space = 1"),
    ("sim.drop_rate = 2", "sim.drop_rate = 1"),
    ("sim.drop_rate = 11/10", "sim.drop_rate = 1"),
    ("sim.drop_rate = -1/2", "sim.drop_rate = 0"),
    ("pool.alpha = 3", "pool.alpha = 1"),
    ("pool.alpha = -1", "pool.alpha = 0"),
    ("pool.mu = -2", "pool.mu = 0"),
    ("pool.mu = 2", "pool.mu = 1"),
    ("pow.nonce_budget = -5", "pow.nonce_budget = 1"),
    ("pow.nonce_budget = 0", "pow.nonce_budget = 1"),
    ("pow.edge_bits = 3", "pow.edge_bits = 4"),
    ("pow.edge_bits = 32", "pow.edge_bits = 31"),  # parsed only: mining it allocates 2^31-entry lists
    ("pow.cycle_len = 2", "pow.cycle_len = 4"),
    ("pow.cycle_len = 7", "pow.cycle_len = 8"),
])
def test_a_value_a_later_command_cannot_run_with_is_rejected_at_its_line(bad, least):
    with open(os.path.join(REPO_ROOT, "scenarios", "net.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    line_no = len(text.splitlines()) + 1
    with pytest.raises(ConfigError, match=rf"^line {line_no}: "):
        parse_config(f"{text}{bad}\n")
    parse_config(f"{text}{least}\n")


_HALVINGS = "coinbase.initial = 30\ncoinbase.halving_blocks = 2\n"  # mints 2 * (30 + 15 + 7 + 3 + 1) = 112


@pytest.mark.parametrize("text, line_no", [
    # no coinbase, but the genesis balances alone pass 2^64 - 1
    (f"coinbase.initial = 0\ngenesis.account = rich {2**64 - 1}\ngenesis.account = alice 1000\n", 3),
    # the default coinbase pays far more than the 9 base units left under the ceiling
    (f"genesis.account = rich {2**64 - 10}\n", 1),
    # one unit more than the supply accepted below
    (f"{_HALVINGS}genesis.account = rich {2**64 - 112}\n", 3),
])
def test_a_supply_that_can_pass_the_u64_ceiling_is_rejected(text, line_no):
    with pytest.raises(ConfigError, match=rf"^line {line_no}: genesis total .* exceeds the u64 maximum"):
        parse_config(text)


def test_a_supply_of_exactly_the_u64_maximum_counting_every_coinbase_is_accepted():
    cfg = parse_config(f"{_HALVINGS}genesis.account = rich {2**64 - 1 - 112}\n")
    assert cfg.genesis_total + sum(pow.coinbase(height, cfg) for height in range(1, 2 * 64)) == 2**64 - 1


# (reader, comment marker, a good line, a bad line)
_TEXT_FORMATS = {
    "config": (parse_config, "#", "epoch.blocks = 5", "epoch.blocks five"),
    "scenario": (lambda text: sim.run(config.load_config(os.path.join(REPO_ROOT, "scenarios", "net.cfg")),
                                      text, seed=7), "#", "0 mine alice", "then mine alice"),
    "factors": (lambda text: sim.parse_factors(text, 1, {}), "#", "weights 1", "weight 1"),
    "mdp": (parse_mdp, "#", "devices 1", "states three"),
    "graph": (parse_factor_graph, "#", "var a 2", "edge a b 1 2"),
    "asm": (assemble, ";", "PUSH 1", "PUSH"),
}


@pytest.mark.parametrize("name", sorted(_TEXT_FORMATS))
def test_every_text_format_names_the_bad_line_counting_blank_and_comment_lines(name):
    # line 1 blank, line 2 a comment, line 3 a good line with a trailing
    # comment, line 4 the bad line: every format counts from 1 over all lines
    read, comment, good, bad = _TEXT_FORMATS[name]
    with pytest.raises(DeskchainError) as err:
        read(f"\n{comment} a comment\n{good}  {comment} trailing\n{bad}\n")
    assert re.findall(r"\bline (\d+)", str(err.value)) == ["4"]

import os
import re

from deskchain import config
from deskchain.config import ConfigError, parse_config

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

"""Network configuration and genesis description.

One flat key=value text format serves both: consensus constants and the
genesis allocation live in the same file so a single artifact pins a whole
network. Unknown keys are rejected loudly; silently-ignored config is how
desk experiments stop being reproducible.

Amounts accept either bare base units ("2500000") or a DSD suffix
("2.5dsd"); 1 DSD = 10**6 base units, and anything that does not land on an
integer number of base units is an error. Rationals ("1/10" or "0.1") are
parsed exactly via Fraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codec import U64_MAX, check_amount
from .errors import DeskchainError

BASE_UNITS_PER_DSD = 1_000_000


class ConfigError(DeskchainError):
    pass


def parse_amount(text: str) -> int:
    t = text.strip().lower()
    try:
        frac = Fraction(t[:-3]) * BASE_UNITS_PER_DSD if t.endswith("dsd") else Fraction(int(t, 10))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad amount {text!r}") from exc
    if frac.denominator != 1:
        raise ConfigError(f"amount {text!r} is not a whole number of base units")
    return check_amount(int(frac), text)


def parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers, as call data and contract states are given."""
    try:
        return tuple(int(v) for v in text.split(",") if v)
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


def text_lines(text: str, comment: str = "#"):
    """``(line number, line)`` for each line of a text input left non-blank once
    cut at ``comment`` and stripped, numbered from 1 over every line. Config,
    scenario, factors, device-group, factor-graph and assembly text are read so."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(comment, 1)[0].strip()
        if line:
            yield line_no, line


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}") from exc


@dataclass(frozen=True)
class NetworkConfig:
    # consensus-pow (desk-scale defaults; production Cuckoo runs 2^29, 42)
    pow_edge_bits: int = 10
    pow_cycle_len: int = 8
    pow_target: bytes = b"\xff" * 32
    pow_nonce_budget: int = 10_000
    coinbase_initial: int = 50 * BASE_UNITS_PER_DSD
    coinbase_halving_blocks: int = 100_000
    # ledger
    maintenance_rate: int = 0
    delete_reward: int = 1_000
    # channels
    countdown_blocks: int = 20
    # oracles
    oracle_deposit_rate: int = 1
    oracle_challenge_window: int = 10
    oracle_vote_window: int = 20
    # storage
    retrieval_unit: int = 65_536
    retrieval_rate: int = 100_000
    # rewards
    blocks_per_epoch: int = 30
    az_creation_price: int = 1 * BASE_UNITS_PER_DSD
    pool_alpha: Fraction = Fraction(1, 10)
    pool_mu: Fraction = Fraction(9, 10)
    pool_q0: int = 0
    # vm meters for in-channel pure evaluation
    pure_gas: int = 100_000
    pure_space: int = 4_096
    # simulator
    sim_latency_min: int = 1
    sim_latency_max: int = 3
    sim_drop_rate: Fraction = Fraction(0)
    # genesis: (name, address, balance); names are simulator/CLI handles
    genesis_accounts: tuple[tuple[str, bytes, int], ...] = ()
    genesis_endowment: int = 0

    @property
    def genesis_total(self) -> int:
        return sum(b for _, _, b in self.genesis_accounts) + self.genesis_endowment


# key -> (field, floor); a floor of None leaves the range to PowParams or to
# latency_min <= latency_max. A 0 divides by zero later, a 0 countdown or vote
# window closes a dispute before anyone can act, a meter or nonce budget below
# 1 runs nothing, and a negative window or latency runs time backwards
_INT_KEYS = {
    "pow.edge_bits": ("pow_edge_bits", None),
    "pow.cycle_len": ("pow_cycle_len", None),
    "pow.nonce_budget": ("pow_nonce_budget", 1),
    "coinbase.halving_blocks": ("coinbase_halving_blocks", 1),
    "channel.countdown_blocks": ("countdown_blocks", 1),
    "oracle.challenge_window": ("oracle_challenge_window", 0),
    "oracle.vote_window": ("oracle_vote_window", 1),
    "storage.retrieval_unit": ("retrieval_unit", 1),
    "epoch.blocks": ("blocks_per_epoch", 1),
    "vm.pure_gas": ("pure_gas", 1),
    "vm.pure_space": ("pure_space", 1),
    "sim.latency_min": ("sim_latency_min", 0),
    "sim.latency_max": ("sim_latency_max", None),
}

_AMOUNT_KEYS = {
    "coinbase.initial": "coinbase_initial",
    "maintenance.rate": "maintenance_rate",
    "delete.reward": "delete_reward",
    "oracle.deposit_rate": "oracle_deposit_rate",
    "storage.retrieval_rate": "retrieval_rate",
    "az.creation_price": "az_creation_price",
    "pool.q0": "pool_q0",
    "genesis.endowment": "genesis_endowment",
}

# rates in [0, 1]: a learning rate or discount outside it moves the
# pool's Q away from its target, a drop rate outside it is no probability
_FRACTION_KEYS = {
    "pool.alpha": "pool_alpha",
    "pool.mu": "pool_mu",
    "sim.drop_rate": "sim_drop_rate",
}


def parse_config(text: str) -> NetworkConfig:
    from .crypto import KeyPair  # local imports to keep config standalone
    from .pow import PowParams

    updates: dict[str, object] = {}
    accounts: list[tuple[str, bytes, int]] = []
    line_of: dict[str, int] = {}  # key -> the last line that set it
    for line_no, line in text_lines(text):
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        line_of[key] = line_no
        try:
            if key in _INT_KEYS:
                field, floor = _INT_KEYS[key]
                updates[field] = n = int(value, 10)
                if floor is not None and n < floor:
                    raise ConfigError(f"{key} must be at least {floor}, got {n}")
                if key in ("pow.edge_bits", "pow.cycle_len"):
                    PowParams(**{key[4:]: n})  # PowParams' own range check
            elif key in _AMOUNT_KEYS:
                updates[_AMOUNT_KEYS[key]] = parse_amount(value)
            elif key in _FRACTION_KEYS:
                updates[_FRACTION_KEYS[key]] = f = parse_fraction(value)
                if not 0 <= f <= 1:
                    raise ConfigError(f"{key} must be in [0, 1], got {f}")
            elif key == "pow.target_hex":
                target = bytes.fromhex(value)
                if len(target) != 32:
                    raise ConfigError("target must be 32 bytes of hex")
                updates["pow_target"] = target
            elif key == "genesis.account":
                # "<name> <amount>"; the address derives from the name's keypair
                parts = value.split()
                if len(parts) != 2:
                    raise ConfigError("genesis.account wants 'name amount'")
                name, amount = parts
                accounts.append((name, KeyPair.from_name(name).address, parse_amount(amount)))
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ValueError as exc:  # int() or bytes.fromhex()
            raise ConfigError(f"line {line_no}: bad {key} value {value!r}") from exc
        except DeskchainError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from exc
    cfg = NetworkConfig(genesis_accounts=tuple(accounts), **updates)
    # every coinbase pow.coinbase pays: halving_blocks blocks at each halving
    emission = cfg.coinbase_halving_blocks * sum(cfg.coinbase_initial >> k for k in range(64))
    for keys, broken, why in (
        (("sim.latency_min", "sim.latency_max"), cfg.sim_latency_min > cfg.sim_latency_max,
         f"sim.latency_min {cfg.sim_latency_min} exceeds sim.latency_max {cfg.sim_latency_max}"),
        # a balance is a u64, and none can exceed the whole supply
        (("genesis.account", "genesis.endowment", "coinbase.initial", "coinbase.halving_blocks"),
         cfg.genesis_total + emission > U64_MAX,
         f"genesis total {cfg.genesis_total} plus coinbase emission {emission} exceeds the u64 maximum"),
    ):
        if broken:
            raise ConfigError(f"line {max(line_of.get(key, 0) for key in keys)}: {why}")
    return cfg


def load_config(path: str) -> NetworkConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

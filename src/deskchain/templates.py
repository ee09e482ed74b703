"""Stock channel-contract programs.

Each template is a pure program that reads its inputs from the initial
stack and leaves exactly [amount_a, amount_b] behind; the two outputs must
sum to the channel total or settlement falls back to the last agreed
balances. A contract_state is a template's inputs in the order its
comment lists them; ``hash_timelock_state`` builds the hash-timelock's.
"""
from __future__ import annotations

import os

from .errors import DeskchainError
from .vm import Program, assemble, hash_int

# total ratio_a ratio_b -> a = total*ratio_a // (ratio_a+ratio_b), b = rest
PAYMENT_SPLIT = assemble(
    """
    ; stack in: total ratio_a ratio_b
    STORE 2
    STORE 1
    STORE 0
    LOAD 0
    LOAD 1
    MUL
    LOAD 1
    LOAD 2
    ADD
    DIV       ; a = total*ra / (ra+rb)
    STORE 3
    LOAD 0
    LOAD 3
    SUB       ; b = total - a
    STORE 4
    LOAD 3
    LOAD 4
    STOP
    """
)

# total hashlock deadline height preimage -> all to B on a timely reveal
HASH_TIMELOCK = assemble(
    """
    ; stack in: total hashlock deadline height preimage
    STORE 4
    STORE 3
    STORE 2
    STORE 1
    STORE 0
    LOAD 4
    HASH
    LOAD 1
    EQ        ; preimage opens the lock
    LOAD 2
    LOAD 3
    LT
    NOT       ; height <= deadline
    MUL       ; claim ok
    LOAD 0
    MUL       ; b = ok * total
    STORE 5
    LOAD 0
    LOAD 5
    SUB
    STORE 6
    LOAD 6
    LOAD 5
    STOP
    """
)

# total calls price -> provider earns min(total, calls*price); the storage
# payout is the same program over escrow proofs_ok reward_per_proof
METERED_API = STORAGE_PAYOUT = assemble(
    """
    ; stack in: total calls_made price_per_call
    STORE 2
    STORE 1
    STORE 0
    LOAD 1
    LOAD 2
    MUL       ; cost
    STORE 3
    LOAD 0
    LOAD 3
    LOAD 3
    LOAD 0
    LT        ; cost < total
    SELECT    ; b = min(cost, total)
    STORE 4
    LOAD 0
    LOAD 4
    SUB
    LOAD 4
    STOP
    """
)

TEMPLATES: dict[str, Program] = {
    "payment-split": PAYMENT_SPLIT,
    "hash-timelock": HASH_TIMELOCK,
    "metered-api": METERED_API,
    "storage-payout": STORAGE_PAYOUT,
}


def load_program(token: str, base_dir: str = "", asm_prefix: str = "asm:") -> Program:
    """``template:NAME``, or ``asm_prefix`` and an assembly file under base_dir.

    The scenario DSL spells files ``asm:FILE``; the CLI passes an empty
    prefix, so any other token is a file path.
    """
    if token.startswith("template:"):
        name = token[len("template:"):]
        if name not in TEMPLATES:
            raise DeskchainError(f"unknown template {name!r}")
        return TEMPLATES[name]
    if not token.startswith(asm_prefix):
        raise DeskchainError(f"expected template:NAME or asm:FILE, got {token!r}")
    with open(os.path.join(base_dir, token[len(asm_prefix):]), "r", encoding="utf-8") as fh:
        return assemble(fh.read())


def hash_timelock_state(total: int, preimage: int, deadline: int, height: int) -> list[int]:
    return [total, hash_int(preimage), deadline, height, preimage]

#!/usr/bin/env python3
"""Print one JSON line of microseconds per call for the codec paths of a
chain replay, each the median of REPEAT timeit runs of NUMBER calls:
header, account, name and program encodes, a fresh account edit's digest,
and the decode and signing bytes of a Spend, a ContractCreate and a
ContractCall."""
import json
import os
import statistics
import sys
import timeit
from functools import partial

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from deskchain import tx as txmod
from deskchain.crypto import KeyPair
from deskchain.ledger import Account, BlockHeader, NameRecord
from deskchain.templates import PAYMENT_SPLIT
from deskchain.vm import Program

REPEAT, NUMBER = 7, 20000


def _edited_digest(account: Account) -> bytes:
    return account.edit(account.balance + 1, account.counter, account.freshness).digest()


def main() -> None:
    alice, bob = KeyPair.from_name("alice"), KeyPair.from_name("bob")
    spend = txmod.sign_tx(txmod.Spend(alice.address, bob.address, 5 * 10**6, 9, 1), alice)
    create = txmod.sign_tx(txmod.ContractCreate(
        alice.address, PAYMENT_SPLIT, 1, 1000, 0, 200, 1, (1000, 1, 3), 200, 2,
    ), alice)
    call = txmod.sign_tx(txmod.ContractCall(alice.address, bob.address, 50, 200, 1, (1000, 1, 3), 200, 3), alice)
    roots = [bytes([i]) * 32 for i in range(10)]
    header = BlockHeader(97, *roots[:2], 24, *roots[2:], 2**40 + 3, tuple(range(1000, 1008)))
    account = Account(alice.address, 10**9, 3, 7)
    paths = {
        "account_encode": account.encode,
        "account_digest": partial(_edited_digest, account),
        "spend_encode_tx": partial(txmod.encode_tx, spend),
        "decode_tx": partial(txmod.decode_tx, txmod.encode_tx(spend)),
        "signing_bytes": spend.signing_bytes,
        "header_encode": header.encode,
        "name_record_encode": NameRecord("plant-7", bob.address, alice.address).encode,
        "program_decode": partial(Program.decode, PAYMENT_SPLIT.encode()),
        "program_encode": PAYMENT_SPLIT.encode,
        "contract_create_decode_tx": partial(txmod.decode_tx, txmod.encode_tx(create)),
        "contract_create_signing_bytes": create.signing_bytes,
        "contract_call_decode_tx": partial(txmod.decode_tx, txmod.encode_tx(call)),
    }
    runs = {name: timeit.repeat(fn, repeat=REPEAT, number=NUMBER) for name, fn in paths.items()}
    print(json.dumps({name: round(statistics.median(t) / NUMBER * 1e6, 3) for name, t in runs.items()}))


if __name__ == "__main__":
    main()

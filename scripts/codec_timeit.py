#!/usr/bin/env python3
"""Print one JSON line of microseconds per call for five codec paths, each
the median of REPEAT timeit runs of NUMBER calls."""
import json
import os
import statistics
import sys
import timeit
from functools import partial

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from deskchain import tx as txmod
from deskchain.crypto import KeyPair
from deskchain.ledger import Account, BlockHeader

REPEAT, NUMBER = 7, 20000


def main() -> None:
    alice, bob = KeyPair.from_name("alice"), KeyPair.from_name("bob")
    spend = txmod.sign_tx(txmod.Spend(alice.address, bob.address, 5 * 10**6, 9, 1), alice)
    roots = [bytes([i]) * 32 for i in range(10)]
    header = BlockHeader(97, *roots[:2], 24, *roots[2:], 2**40 + 3, tuple(range(1000, 1008)))
    paths = {
        "account_encode": Account(alice.address, 10**9, 3, 7).encode,
        "spend_encode_tx": partial(txmod.encode_tx, spend),
        "decode_tx": partial(txmod.decode_tx, txmod.encode_tx(spend)),
        "signing_bytes": spend.signing_bytes,
        "header_encode": header.encode,
    }
    runs = {name: timeit.repeat(fn, repeat=REPEAT, number=NUMBER) for name, fn in paths.items()}
    print(json.dumps({name: round(statistics.median(t) / NUMBER * 1e6, 3) for name, t in runs.items()}))


if __name__ == "__main__":
    main()

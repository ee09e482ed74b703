import os

import pytest

from deskchain import tx as txmod
from deskchain.crypto import KeyPair
from deskchain.errors import CodecError
from deskchain.statedir import StateDir


def test_failed_mempool_write_leaves_the_previous_file(tmp_path):
    sd = StateDir(str(tmp_path))
    alice, bob = KeyPair.from_name("alice"), KeyPair.from_name("bob").address
    txs = [txmod.sign_tx(txmod.Spend(alice.address, bob, 5, 1, c), alice) for c in (1, 2)]
    sd.write_mempool(txs)
    before = (tmp_path / "mempool.bin").read_bytes()
    unencodable = txmod.Spend(alice.address, bob, -1, 1, 3)  # amount out of u64 range
    with pytest.raises(CodecError):
        sd.write_mempool([txs[0], unencodable, txs[1]])
    assert (tmp_path / "mempool.bin").read_bytes() == before
    assert sd.mempool() == txs
    assert os.listdir(tmp_path) == ["mempool.bin"]

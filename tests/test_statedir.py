import os

import pytest

from deskchain import channels, tx as txmod
from deskchain.crypto import KeyPair
from deskchain.errors import CodecError, DeskchainError
from deskchain.ledger import Block, BlockHeader
from deskchain.statedir import StateDir

from wire_reference import Writer


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


def _two_block_chain(sd):
    alice, bob = KeyPair.from_name("alice"), KeyPair.from_name("bob").address
    spend = txmod.sign_tx(txmod.Spend(alice.address, bob, 5, 1, 1), alice)
    blocks = [
        Block(BlockHeader(h, *[bytes([h]) * 32] * 2, len(txs), *[bytes([h]) * 32] * 6, alice.address, bytes(32), h,
                          (1, 2)), txs)
        for h, txs in ((0, ()), (1, (spend,)))
    ]
    for block in blocks:
        sd.append_block(block)
    assert sd.blocks() == blocks
    return blocks


def test_blocks_rejects_a_padded_record(tmp_path):
    sd = StateDir(str(tmp_path))
    first, second = _two_block_chain(sd)
    offset = 4 + len(first.encode())
    padded = second.encode() + b"\0\0\0"
    (tmp_path / "chain.bin").write_bytes(
        (tmp_path / "chain.bin").read_bytes()[:offset] + len(padded).to_bytes(4, "big") + padded
    )
    with pytest.raises(CodecError, match=f"record 1 at byte {offset}: 3 trailing bytes"):
        sd.blocks()


def test_blocks_rejects_a_padded_header(tmp_path):
    # one block has one encoding: its header blob must read to its end
    sd = StateDir(str(tmp_path))
    first, second = _two_block_chain(sd)
    header = second.header.encode()
    encoded = second.encode()
    padded = Writer().blob(header + b"\0" * 4).done() + encoded[4 + len(header):]
    with pytest.raises(CodecError, match="4 trailing bytes"):
        Block.decode(padded)
    offset = 4 + len(first.encode())
    chain = tmp_path / "chain.bin"
    chain.write_bytes(chain.read_bytes()[:offset] + len(padded).to_bytes(4, "big") + padded)
    with pytest.raises(CodecError, match=f"record 1 at byte {offset}: 4 trailing bytes"):
        sd.blocks()


def test_blocks_reports_a_torn_tail(tmp_path):
    sd = StateDir(str(tmp_path))
    first, _ = _two_block_chain(sd)
    chain = tmp_path / "chain.bin"
    for cut in (5, len(chain.read_bytes()) - 4 - len(first.encode()) - 2):
        data = (tmp_path / "chain.bin").read_bytes()
        chain.write_bytes(data[:-cut])
        with pytest.raises(DeskchainError, match=f"record 1 at byte {4 + len(first.encode())} runs past the end"):
            sd.blocks()
        chain.write_bytes(data)


def test_mempool_reports_a_torn_or_padded_record(tmp_path):
    sd = StateDir(str(tmp_path))
    alice, bob = KeyPair.from_name("alice"), KeyPair.from_name("bob").address
    txs = [txmod.sign_tx(txmod.Spend(alice.address, bob, 5, 1, c), alice) for c in (1, 2)]
    sd.write_mempool(txs)
    path = tmp_path / "mempool.bin"
    data = path.read_bytes()
    offset = 4 + len(txs[0].encode())
    path.write_bytes(data[:-3])
    with pytest.raises(DeskchainError, match=f"mempool.bin: record 1 at byte {offset} runs past"):
        sd.mempool()
    padded = txs[1].encode() + b"\0\0"
    path.write_bytes(data[:offset] + len(padded).to_bytes(4, "big") + padded)
    with pytest.raises(CodecError, match=f"mempool.bin: record 1 at byte {offset}: 2 trailing"):
        sd.mempool()


def test_channel_states_rejects_a_padded_state(tmp_path):
    sd = StateDir(str(tmp_path))
    alice, bob = KeyPair.from_name("alice").address, KeyPair.from_name("bob").address
    channel = channels.Channel(b"\x01" * 32, alice, bob, 60, 40)
    ss = channels.nonce_zero_state(channel)
    sd.write_channel_states(channel.channel_id, [ss], {})
    assert sd.channel_states(channel.channel_id) == ([ss], {})
    padded = Writer().u32(1).blob(ss.encode() + b"\0").u32(0).done()
    (tmp_path / f"channel_{channel.channel_id.hex()}.bin").write_bytes(padded)
    # the error names the file, as torn or padded chain.bin and mempool.bin records do
    with pytest.raises(CodecError, match=f"channel_{channel.channel_id.hex()}.bin: 1 trailing bytes"):
        sd.channel_states(channel.channel_id)

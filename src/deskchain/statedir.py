"""On-disk layout for the CLI: a state directory holding the network
config, name-derived keys, the chain (canonical block encodings, length
prefixed), the local mempool, and per-channel signed-state history. State
is reconstructed by replaying the chain, which keeps the files minimal and
the replay deterministic. Rewritten files (config, keys, mempool, channel
states) are replaced atomically: a failed write leaves the old file whole."""
from __future__ import annotations

import os

from . import tx as txmod
from .codec import Reader, Record, Seq, WireRecord, frame
from .config import NetworkConfig, load_config
from .crypto import KeyPair
from .errors import CodecError, DeskchainError
from .ledger import Block, validate_header
from .channels import SignedState
from .state import ChainState
from .vm import Program


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over
    ``path``; readers see the old file or the new one, never a torn mix."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _ChannelFile(WireRecord):
    """``channel_<id>.bin``: one endpoint's signed states, then the programs
    they name, in code-hash order."""

    states: Seq[Record[SignedState]]
    programs: Seq[Record[Program]]


class StateDir:
    def __init__(self, root: str):
        self.root = root

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)

    # --- config ---

    def write_config(self, text: str) -> None:
        os.makedirs(self.root, exist_ok=True)
        _write_atomic(self.path("config.cfg"), text.encode("utf-8"))

    def config(self) -> NetworkConfig:
        path = self.path("config.cfg")
        if not os.path.exists(path):
            raise DeskchainError(f"no config at {path}; run genesis first")
        return load_config(path)

    # --- keys ---

    def keygen(self, name: str) -> KeyPair:
        os.makedirs(self.path("keys"), exist_ok=True)
        kp = KeyPair.from_name(name)
        _write_atomic(self.path("keys", f"{name}.key"), (kp.seed.hex() + "\n").encode("utf-8"))
        return kp

    def key(self, name: str) -> KeyPair:
        path = self.path("keys", f"{name}.key")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                return KeyPair(bytes.fromhex(fh.read().strip()))
        return KeyPair.from_name(name)

    # --- chain ---

    def _records(self, name: str, decode) -> list:
        """Decode every framed record of one file; a torn or padded
        record is reported with its index and byte offset."""
        path = self.path(name)
        with open(path, "rb") as fh:
            r = Reader(fh.read())
        out = []
        while (pos := r._pos) < len(r._data):
            try:
                record = r.blob()
            except CodecError:
                raise DeskchainError(
                    f"{path}: record {len(out)} at byte {pos} runs past the end of the file (torn tail)"
                ) from None
            try:
                out.append(decode(record))
            except CodecError as exc:
                raise CodecError(f"{path}: record {len(out)} at byte {pos}: {exc}") from exc
        return out

    def append_block(self, block: Block) -> None:
        with open(self.path("chain.bin"), "ab") as fh:
            fh.write(frame(block.encode()))

    def blocks(self) -> list[Block]:
        if not os.path.exists(self.path("chain.bin")):
            raise DeskchainError(f"no chain at {self.path('chain.bin')}; run genesis first")
        return self._records("chain.bin", Block.decode)

    def load_chain(self) -> tuple[NetworkConfig, ChainState, list[Block]]:
        cfg = self.config()
        blocks = self.blocks()
        state = ChainState.genesis(cfg)
        prev = None
        for block in blocks:
            validate_header(block.header, prev.header if prev else None, cfg)
            state, _ = txmod.apply_block(state, block)
            prev = block
        return cfg, state, blocks

    # --- mempool ---

    def mempool(self) -> list:
        if not os.path.exists(self.path("mempool.bin")):
            return []
        return self._records("mempool.bin", txmod.decode_tx)

    def write_mempool(self, txs: list) -> None:
        _write_atomic(self.path("mempool.bin"), b"".join(frame(t.encode()) for t in txs))

    # --- channel endpoints ---

    def channel_states(self, channel_id: bytes) -> tuple[list[SignedState], dict[bytes, Program]]:
        path = self.path(f"channel_{channel_id.hex()}.bin")
        if not os.path.exists(path):
            return [], {}
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            saved = _ChannelFile.decode(data)
        except CodecError as exc:
            raise CodecError(f"{path}: {exc}") from exc
        return list(saved.states), {program.code_hash(): program for program in saved.programs}

    def write_channel_states(
        self, channel_id: bytes, states: list[SignedState], programs: dict[bytes, Program]
    ) -> None:
        saved = _ChannelFile(tuple(states), tuple(programs[key] for key in sorted(programs)))
        _write_atomic(self.path(f"channel_{channel_id.hex()}.bin"), saved.encode())

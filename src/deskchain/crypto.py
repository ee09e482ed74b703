"""Digest and signature primitives.

The network digest is SHA-256 over canonical encodings. Signatures use
one *transparent* test scheme (the signature embeds the 32-byte private
seed), which makes key handling trivial in the simulator while still
rejecting wrong keys and tampered messages; protocol logic checks them
only through ``verify_sig``. Do not mistake it for cryptography.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

SIG_SIZE = 64
ADDRESS_SIZE = 32

ZERO32 = b"\x00" * 32
ZERO_SIG = b"\x00" * SIG_SIZE


def hash256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def address_of_seed(seed: bytes) -> bytes:
    return hash256(b"dsd/addr" + seed)


@dataclass(frozen=True)
class KeyPair:
    seed: bytes

    def __post_init__(self) -> None:
        if len(self.seed) != 32:
            raise ValueError("seed must be 32 bytes")

    @property
    def address(self) -> bytes:
        return address_of_seed(self.seed)

    def sign(self, message: bytes) -> bytes:
        tag = hash256(b"dsd/sig" + self.seed + hash256(message))
        return self.seed + tag

    @staticmethod
    def from_name(name: str) -> "KeyPair":
        """Deterministic keypair for fixtures and scenario identities."""
        return KeyPair(hash256(b"dsd/key" + name.encode("utf-8")))


def verify_sig(address: bytes, message: bytes, sig: bytes) -> bool:
    """True iff ``sig`` is ``KeyPair.sign(message)`` by the key of ``address``."""
    if len(sig) != SIG_SIZE:
        return False
    seed, tag = sig[:32], sig[32:]
    if address_of_seed(seed) != address:
        return False
    return hash256(b"dsd/sig" + seed + hash256(message)) == tag

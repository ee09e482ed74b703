"""Canonical binary encoding.

Every hashed or signed object in the protocol is serialized through this
module: fixed field order, big-endian integers, length-prefixed byte strings.
The encoding is injective by construction; decode(encode(x)) == x and
encode(decode(b)) == b are asserted property-style in the test suite.

Records whose wire form is just their fields in order declare it once, on
the fields themselves: each annotation is one of the ``Annotated`` aliases
below (``U64``, ``Bytes32``, ``Record[Program]``, ...), and ``wire_fields``
turns a class's annotations into its ``(name, write, read, is_sig)`` schema.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Annotated, Any, Callable, get_type_hints

from .crypto import SIG_SIZE
from .errors import CodecError

U64_MAX = 2**64 - 1
I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


def check_amount(n: int, what: str = "amount") -> int:
    """Reject anything that does not fit an unsigned 64-bit token amount."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise CodecError(f"{what} must be an int, got {type(n).__name__}")
    if n < 0 or n > U64_MAX:
        raise CodecError(f"{what} out of u64 range: {n}")
    return n


class Writer:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, n: int) -> "Writer":
        if not 0 <= n <= 0xFF:
            raise CodecError(f"u8 out of range: {n}")
        self._parts.append(n.to_bytes(1, "big"))
        return self

    def u16(self, n: int) -> "Writer":
        if not 0 <= n <= 0xFFFF:
            raise CodecError(f"u16 out of range: {n}")
        self._parts.append(n.to_bytes(2, "big"))
        return self

    def u32(self, n: int) -> "Writer":
        if not 0 <= n <= 0xFFFFFFFF:
            raise CodecError(f"u32 out of range: {n}")
        self._parts.append(n.to_bytes(4, "big"))
        return self

    def u64(self, n: int) -> "Writer":
        if not 0 <= n <= U64_MAX:
            raise CodecError(f"u64 out of range: {n}")
        self._parts.append(n.to_bytes(8, "big"))
        return self

    def i64(self, n: int) -> "Writer":
        if not I64_MIN <= n <= I64_MAX:
            raise CodecError(f"i64 out of range: {n}")
        self._parts.append(n.to_bytes(8, "big", signed=True))
        return self

    def fixed(self, b: bytes, size: int) -> "Writer":
        if len(b) != size:
            raise CodecError(f"expected {size} bytes, got {len(b)}")
        self._parts.append(bytes(b))
        return self

    def blob(self, b: bytes) -> "Writer":
        self.u32(len(b))
        self._parts.append(bytes(b))
        return self

    def text(self, s: str) -> "Writer":
        return self.blob(s.encode("utf-8"))

    def flag(self, b: bool) -> "Writer":
        return self.u8(1 if b else 0)

    def done(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CodecError("unexpected end of input")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self._take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def i64(self) -> int:
        return int.from_bytes(self._take(8), "big", signed=True)

    def fixed(self, size: int) -> bytes:
        return self._take(size)

    def blob(self) -> bytes:
        return self._take(self.u32())

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8: {exc}") from exc

    def flag(self) -> bool:
        v = self.u8()
        if v not in (0, 1):
            raise CodecError(f"flag byte must be 0 or 1, got {v}")
        return v == 1

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise CodecError(f"{len(self._data) - self._pos} trailing bytes")


# --- field codecs --------------------------------------------------------


@dataclass(frozen=True)
class FieldCodec:
    """How one field is written and read; ``is_sig`` fields are zeroed in
    signing bytes."""

    write: Callable[[Writer, Any], Any]
    read: Callable[[Reader], Any]
    is_sig: bool = False


def _write_i64s(w: Writer, values: tuple[int, ...]) -> None:
    w.u32(len(values))
    for v in values:
        w.i64(v)


def _read_i64s(r: Reader) -> tuple[int, ...]:
    return tuple(r.i64() for _ in range(r.u32()))


def _write_record(w: Writer, record) -> None:
    w.blob(record.encode())


def _read_record(record_type, r: Reader):
    sub = Reader(r.blob())
    record = record_type.read(sub)
    sub.expect_end()
    return record


def _write_optional(w: Writer, record) -> None:
    w.flag(record is not None)
    if record is not None:
        _write_record(w, record)


def _read_optional(record_type, r: Reader):
    return _read_record(record_type, r) if r.flag() else None


U8 = Annotated[int, FieldCodec(Writer.u8, Reader.u8)]
U64 = Annotated[int, FieldCodec(Writer.u64, Reader.u64)]
Bytes32 = Annotated[bytes, FieldCodec(lambda w, v: w.fixed(v, 32), lambda r: r.fixed(32))]
Sig = Annotated[bytes, FieldCodec(
    lambda w, v: w.fixed(v, SIG_SIZE), lambda r: r.fixed(SIG_SIZE), is_sig=True
)]
Blob = Annotated[bytes, FieldCodec(Writer.blob, Reader.blob)]
Text = Annotated[str, FieldCodec(Writer.text, Reader.text)]
Flag = Annotated[bool, FieldCodec(Writer.flag, Reader.flag)]
I64s = Annotated[tuple[int, ...], FieldCodec(_write_i64s, _read_i64s)]


class Record:
    """``Record[T]``: a nested T, as a blob that must read exactly to its end."""

    def __class_getitem__(cls, record_type):
        return Annotated[record_type, FieldCodec(_write_record, partial(_read_record, record_type))]


class OptionalRecord:
    """``OptionalRecord[T]``: a flag, then ``Record[T]`` when the flag is set."""

    def __class_getitem__(cls, record_type):
        return Annotated[record_type | None, FieldCodec(_write_optional, partial(_read_optional, record_type))]


def wire_fields(cls) -> tuple[tuple[str, Callable, Callable, bool], ...]:
    """``(name, write, read, is_sig)`` for each annotated field of ``cls``,
    in declaration order, which is the wire order."""
    schema = []
    for name, hint in get_type_hints(cls, include_extras=True).items():
        codec = next((m for m in getattr(hint, "__metadata__", ()) if isinstance(m, FieldCodec)), None)
        if codec is None:
            raise TypeError(f"{cls.__name__}.{name} has no wire codec")
        schema.append((name, codec.write, codec.read, codec.is_sig))
    return tuple(schema)

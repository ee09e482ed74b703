"""Canonical binary encoding.

Every hashed or signed object in the protocol is serialized through this
module: fixed field order, big-endian integers, length-prefixed byte strings.
The encoding is injective by construction; decode(encode(x)) == x and
encode(decode(b)) == b are asserted property-style in the test suite.

A record is declared once, by its fields: it subclasses ``WireRecord`` and
annotates each field with one of the aliases below (``U64``, ``Bytes32``,
``Seq[Ratio]``, ``Record[Program]``, ...), and the base class makes it a
frozen dataclass of those fields. Its wire form is the fields in
declaration order, so reordering fields is a consensus change.
``wire_fields`` turns the annotations into the ``(name, FieldCodec)``
schema; ``encode`` and ``read`` run plans compiled from it at first use,
one ``struct`` call per fixed-width run. A record's identity is
``digest()``, hash256 of its encoding, kept on the record after the first
call.
Every tx kind (after its u8 tag) and every state record is written this
way: Account, NameRecord, Channel, SignedState, OracleQuestion, Vote,
StorageContract, MerkleProof, AZ, RewardPoolState, and the EpochReport with
its AZFactors, UserContribution and WorkItem rows. So are ``BlockHeader``
(its PoW input ``base_bytes`` is the prefix of its encoding up to
``miner``), ``Program`` (a version byte, then ``Seq[vm.Op]``, where each
opcode decides whether an argument follows it) and the CLI's channel file.

One type writes its own bytes: ``Block``, whose txs are of any kind, each
read by its u8 tag through ``tx.decode_tx``.

Signing bytes follow one of two rules, each written once. A transaction
signs its wire bytes with every ``Sig`` field zeroed
(``tx.TxBase.signing_bytes``); a channel state signs its wire bytes with the
``Sig`` fields left out (``channels.SignedState.signing_bytes``).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Annotated, Any, Callable, get_type_hints

from .crypto import SIG_SIZE, ZERO_SIG, hash256
from .errors import CodecError, LedgerError

U64_MAX = 2**64 - 1
I64_MIN = -(2**63)
I64_MAX = 2**63 - 1
_BAD_VALUE = (CodecError, struct.error, TypeError, ValueError, AttributeError)  # encoding a bad value


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
    """How one field is written and read; ``is_sig`` fields are the ones a
    record's signing bytes zero or leave out."""

    write: Callable[[Writer, Any], Any]
    read: Callable[[Reader], Any]
    is_sig: bool = False
    fmt: str = ""  # a fixed-width field's struct format
    names: tuple = ()  # the values a Tag or Flag byte indexes


def _split(hint) -> tuple[Any, FieldCodec]:
    """The base type and codec of a field annotation. A bare WireRecord
    class is that record's fields inline, with no length prefix."""
    if isinstance(hint, type) and issubclass(hint, WireRecord):
        return hint, FieldCodec(lambda w, record: w._parts.append(record.encode()), hint.read)
    codec = next((m for m in getattr(hint, "__metadata__", ()) if isinstance(m, FieldCodec)), None)
    if codec is None:
        raise TypeError(f"no wire codec for {hint!r}")
    return hint.__origin__, codec


def _write_record(w: Writer, record) -> None:
    w.blob(record.encode())


def _write_ratio(w: Writer, f: Fraction) -> None:
    w.u64(f.numerator).u64(f.denominator)


def _read_ratio(r: Reader) -> Fraction:
    num, den = r.u64(), r.u64()
    if den == 0 or gcd(num, den) != 1:
        raise CodecError(f"fraction {num}/{den} is not in lowest terms")
    return Fraction(num, den)


def _write_u64_pair(w: Writer, pair: tuple[int, int]) -> None:
    a, b = pair
    w.u64(a).u64(b)


U8 = Annotated[int, FieldCodec(Writer.u8, Reader.u8, fmt="B")]
U32 = Annotated[int, FieldCodec(Writer.u32, Reader.u32, fmt="I")]
U64 = Annotated[int, FieldCodec(Writer.u64, Reader.u64, fmt="Q")]
I64 = Annotated[int, FieldCodec(Writer.i64, Reader.i64, fmt="q")]
Bytes32 = Annotated[bytes, FieldCodec(lambda w, v: w.fixed(v, 32), lambda r: r.fixed(32), fmt="32s")]
Sig = Annotated[bytes, FieldCodec(lambda w, v: w.fixed(v, SIG_SIZE), lambda r: r.fixed(SIG_SIZE),
                                  is_sig=True, fmt=f"{SIG_SIZE}s")]
Blob = Annotated[bytes, FieldCodec(Writer.blob, Reader.blob)]
Text = Annotated[str, FieldCodec(Writer.text, Reader.text)]
Flag = Annotated[bool, FieldCodec(Writer.flag, Reader.flag, fmt="?", names=(False, True))]
Ratio = Annotated[Fraction, FieldCodec(_write_ratio, _read_ratio)]  # u64 numerator, u64 denominator
U64Pair = Annotated[tuple[int, int], FieldCodec(_write_u64_pair, lambda r: (r.u64(), r.u64()))]


class Tag:
    """``Tag[a, b, ...]``: one of the listed names, as its u8 index."""

    def __class_getitem__(cls, names: tuple):
        index = {name: i for i, name in enumerate(names)}

        def write(w: Writer, name) -> None:
            if name not in index:
                raise CodecError(f"{name!r} is not one of {names}")
            w.u8(index[name])

        def read(r: Reader):
            i = r.u8()
            if i >= len(names):
                raise CodecError(f"tag {i} names none of {names}")
            return names[i]

        return Annotated[str, FieldCodec(write, read, fmt="B", names=names)]


class Maybe:
    """``Maybe[X]``: a flag, then X when the value is not None."""

    def __class_getitem__(cls, alias):
        base, codec = _split(alias)

        def write(w: Writer, value) -> None:
            w.flag(value is not None)
            if value is not None:
                codec.write(w, value)

        def read(r: Reader):
            return codec.read(r) if r.flag() else None

        return Annotated[base | None, FieldCodec(write, read)]


class Seq:
    """``Seq[X]``: a u32 count, then each item as X writes it."""

    def __class_getitem__(cls, alias):
        base, codec = _split(alias)

        def write(w: Writer, items) -> None:
            w.u32(len(items))
            for item in items:
                codec.write(w, item)

        def read(r: Reader) -> tuple:
            return tuple(codec.read(r) for _ in range(r.u32()))

        return Annotated[tuple[base, ...], FieldCodec(write, read)]


class Record:
    """``Record[T]``: a nested T, as a blob that must read exactly to its end."""

    def __class_getitem__(cls, record_type):
        return Annotated[record_type, FieldCodec(_write_record, lambda r: record_type.decode(r.blob()))]


class OptionalRecord:
    """``OptionalRecord[T]``: ``Maybe[Record[T]]``."""

    def __class_getitem__(cls, record_type):
        return Maybe[Record[record_type]]


I64s = Seq[I64]
_, _addresses = _split(Seq[Bytes32])


def _read_address_set(r: Reader) -> frozenset[bytes]:
    addresses = _addresses.read(r)
    if any(a >= b for a, b in zip(addresses, addresses[1:])):
        raise CodecError("address set is not strictly ascending")
    return frozenset(addresses)


# a set of 32-byte addresses, as a Seq in ascending order
AddressSet = Annotated[frozenset[bytes], FieldCodec(
    lambda w, v: _addresses.write(w, sorted(v)), _read_address_set
)]


def wire_fields(cls) -> tuple[tuple[str, FieldCodec], ...]:
    """``(name, codec)`` for each annotated field of ``cls``, in declaration
    order, which is the wire order."""
    schema = []
    for name, hint in get_type_hints(cls, include_extras=True).items():
        try:
            schema.append((name, _split(hint)[1]))
        except TypeError as exc:
            raise TypeError(f"{cls.__name__}.{name}: {exc}") from None
    return tuple(schema)


def _compile(cls, mode: str) -> Callable:
    """Generate and keep ``cls``'s encoder for Sig fields "keep", "zero" or
    "omit", or its reader ("read"), as ``dataclasses`` generates methods; a
    reader fills the record's ``__dict__``, then runs ``__post_init__``."""
    reading = mode == "read"
    env = {"cls": cls, "Writer": Writer, "CodecError": CodecError, "ZERO_SIG": ZERO_SIG, "new": object.__new__}
    run = [("B", str(cls.TAG))] if cls.TAG is not None and not reading else []
    lines, packs, sizes, checks, fills = [], [], [], [], []

    def flush() -> None:
        if run:
            key = f"s{len(lines)}"
            values = ", ".join(value for _, value in run)
            env[key] = packer = struct.Struct(">" + "".join(fmt for fmt, _ in run))
            if reading:
                unpack = f"{values}, = {key}.unpack_from(r._data, r._pos)"
                lines.extend([unpack, f"r._pos += {packer.size}", *checks])
            else:
                packs.append(f"{key}.pack({values})")
                lines.append(f"p({packs[-1]})")
            del run[:], checks[:]

    for i, (name, codec) in enumerate(cls._FIELDS):
        if codec.is_sig and mode == "omit":
            continue
        value = f"v{i}" if reading else f"self.{name}"
        env[f"n{i}"] = codec.names  # a Tag's or Flag's byte indexes its names
        if not codec.fmt:
            flush()
            env[f"c{i}"] = codec.read if reading else codec.write
            lines.append(f"v{i} = c{i}(r)" if reading else f"c{i}(w, {value})")
        elif reading:  # a Tag or Flag byte past its names is malformed
            run.append((codec.fmt.replace("?", "B"), value))
            if codec.names:
                checks.append(f"if {value} >= {len(codec.names)}: raise CodecError("
                              f"f'{cls.__name__}.{name}: byte {{{value}}} names none of {{n{i}}}')")
                value = f"n{i}[{value}]"
        elif codec.is_sig and mode == "zero":
            run.append((codec.fmt, "ZERO_SIG"))
        else:  # a Flag packs as "?", a Tag as its index; struct pads a short Bytes32 or Sig
            run.append((codec.fmt, f"n{i}.index({value})" if codec.fmt == "B" and codec.names else value))
            if codec.fmt.endswith("s"):
                sizes.append(f"len({value}) != {codec.fmt[:-1]}")
        fills.append(f"d[{name!r}] = {value}")
    flush()
    if reading:
        post = ["o.__post_init__()"] if hasattr(cls, "__post_init__") else []
        lines += ["o = new(cls)", "d = o.__dict__", *fills, *post, "return o"]
    elif len(packs) < len(lines):  # some field writes through its codec callable
        lines = ["w = Writer()", "p = w._parts.append", *lines, "return w.done()"]
    else:  # fixed-width fields only, so one run: its pack is the whole encoding
        lines = [f"return {packs[0]}" if packs else 'return b""']
    lines[:0] = [f"if {' or '.join(sizes)}: raise ValueError"] if sizes else []
    exec(f"def plan({'r' if reading else 'self'}):\n    " + "\n    ".join(lines), env)
    return cls._plans.setdefault(mode, env["plan"])


class WireRecord:
    """The base of every record: a subclass is made a frozen dataclass of
    its annotated fields, and its wire form is those fields in declaration
    order: ``encode`` writes them and ``read`` builds the record from them.
    A class with a ``TAG`` writes it first, as a u8; whoever reads the
    tagged union (``tx.decode_tx``) reads the tag."""

    TAG = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        dataclass(frozen=True)(cls)
        cls._FIELDS = wire_fields(cls)
        cls._plans = {}  # mode -> plan, compiled at first use (see _compile)

    def encode(self) -> bytes:
        return self._encode("keep")

    def digest(self) -> bytes:
        """hash256 of ``encode()``: the record's identity, as its tx hash,
        block hash, code hash or state-tree leaf. It is kept after the first
        call, which is sound because the record is frozen; an edit builds a
        new record, which never sees the old digest."""
        try:
            return self._digest  # not via __dict__, which would build one per record
        except AttributeError:
            digest = hash256(self.encode())
            object.__setattr__(self, "_digest", digest)
            return digest

    def _encode(self, sigs: str) -> bytes:
        """The wire bytes with every Sig field kept, "zero"ed or "omit"ted."""
        plan = self._plans.get(sigs) or _compile(type(self), sigs)
        try:
            return plan(self)
        except _BAD_VALUE as exc:  # name the first field that fails through its own codec
            for name, codec in self._FIELDS:
                try:
                    if not codec.is_sig or sigs == "keep":
                        codec.write(Writer(), getattr(self, name))
                except _BAD_VALUE as field_exc:
                    raise CodecError(f"{type(self).__name__}.{name}: {field_exc}") from exc
            raise CodecError(f"{type(self).__name__}: {exc!r}") from exc

    @classmethod
    def decode(cls, data: bytes):
        """One untagged record's whole encoding; trailing bytes are a
        CodecError."""
        r = Reader(data)
        record = cls.read(r)
        r.expect_end()
        return record

    @classmethod
    def read(cls, r: Reader):
        """The record from its fields; short input, an unnamed tag byte or a
        value the constructor rejects is a CodecError, like any malformed input."""
        plan = cls._plans.get("read") or _compile(cls, "read")
        try:
            return plan(r)
        except struct.error:
            raise CodecError("unexpected end of input") from None
        except LedgerError as exc:
            raise CodecError(f"{cls.__name__}: {exc}") from exc

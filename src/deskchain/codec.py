"""Canonical binary encoding.

Every hashed or signed object in the protocol is serialized through this
module: fixed field order, big-endian integers, length-prefixed byte strings.
The encoding is injective by construction; decode(encode(x)) == x and
encode(decode(b)) == b are asserted property-style in the test suite.

A record is declared once, by its fields: it subclasses ``WireRecord`` and
annotates each field with one of the aliases below, and the base class makes
it a frozen dataclass of those fields. Its wire form is the fields in
declaration order (reordering them is a consensus change), each as its alias
writes it: an integer big-endian, ``Bytes32`` and ``Sig`` as they are, a
``Flag`` as a byte 0 or 1, a ``Tag`` as the u8 index of its name, ``Maybe``
as a flag byte and the value if any, ``Seq`` as a u32 count and the items,
and ``Blob``, ``Text`` (utf-8) and ``Record`` framed: a u32 length and the
bytes, by ``frame``, the one framer (``Block`` and the CLI's chain and
mempool files use it too). ``encode`` and ``read`` run plans generated from
the annotations at a class's first use, with one ``struct`` call per run of
fixed-width fields; they are the only byte writer. A record's identity is
``digest()``, hash256 of its encoding, kept once computed or decoded. Every
tx kind (after its u8 tag), state record, ``BlockHeader`` (its PoW input
``base_bytes`` is the prefix of its encoding up to ``miner``), ``Program``
and the CLI's channel file is written this way; only ``Block``, whose txs
are of any kind, each read by its u8 tag through ``tx.decode_tx``, writes
its own bytes.

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
_U32 = struct.Struct(">I")
# what encoding a value its codec cannot write raises
_BAD_VALUE = (CodecError, struct.error, TypeError, ValueError, AttributeError, LookupError)


def check_amount(n: int, what: str = "amount") -> int:
    """Reject anything that does not fit an unsigned 64-bit token amount."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise CodecError(f"{what} must be an int, got {type(n).__name__}")
    if n < 0 or n > U64_MAX:
        raise CodecError(f"{what} out of u64 range: {n}")
    return n


def frame(data: bytes) -> bytes:
    """``data`` framed as every blob is: its u32 big-endian length, then its bytes."""
    return _U32.pack(len(data)) + data


class Reader:
    def __init__(self, data: bytes, pos: int = 0) -> None:
        self._data = data
        self._pos = pos

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CodecError("unexpected end of input")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def blob(self) -> bytes:
        return self._take(self.u32())

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise CodecError(f"{len(self._data) - self._pos} trailing bytes")


def decode_whole(read: Callable[[Reader], Any], data: bytes, pos: int = 0):
    """What ``read`` reads from ``data`` at ``pos``, which must be the rest of
    ``data``: trailing bytes are a CodecError. Every whole encoding (a
    record, a block, a tx after its tag) is decoded through it."""
    r = Reader(data, pos)
    value = read(r)
    r.expect_end()
    return value


# --- field codecs --------------------------------------------------------


@dataclass(frozen=True)
class FieldCodec:
    """How one field is written and read, as source for ``_compile``'s plans.
    A fixed-width value has a struct ``fmt`` and joins the run of them around
    it (``names``: the values a Tag or Flag byte indexes; ``is_sig``: what
    signing bytes zero or leave out). Any other value's bytes are ``put(plan,
    value)``; ``take(plan, target)`` adds lines reading it at ``data[pos]``."""

    fmt: str = ""
    names: tuple = ()
    is_sig: bool = False
    put: Callable | None = None
    take: Callable | None = None


def _fail(message: str):
    raise ValueError(message)


class _Plan:
    """A plan's source while it is generated: its lines, the objects they
    name, and the run of fixed-width values one struct call packs or unpacks
    next. A reader names the field it is in (``where``) in its errors."""

    def __init__(self, reading: bool, record: str) -> None:
        self.reading, self.record, self.said, self.depth, self.vars = reading, record, record, 1, 0
        self.lines, self.run, self.parts = [], [], []
        self.env = {"CodecError": CodecError, "struct_error": struct.error, "fail": _fail,
                    "U32": _U32, "frame": frame, "pack": struct.pack, "unpack_from": struct.unpack_from}

    def ref(self, obj) -> str:
        self.env[key := f"e{len(self.env)}"] = obj
        return key

    def var(self) -> str:  # a fresh local name
        self.vars += 1
        return f"t{self.vars}"

    def line(self, source: str) -> None:
        self.lines.append("    " * self.depth + source)

    def say(self, where: str | None) -> None:
        if where and where != self.said:  # top-level values only: a nested one keeps its field's
            self.line(f"where = {where!r}")
            self.said = where

    def flush(self) -> None:
        run, self.run = self.run, []
        if not run:
            return
        packer = struct.Struct(">" + "".join(fmt for fmt, *_ in run))
        if not self.reading:
            return self.parts.append(f"{self.ref(packer)}.pack({', '.join(arg for _, arg in run)})")
        self.say(self.record if run[0][3] else None)
        self.line(f"{', '.join(target for _, target, *_ in run)}, = {self.ref(packer)}.unpack_from(data, pos)")
        self.line(f"pos += {packer.size}")
        for _, target, names, where in run:
            if names:  # a Tag or Flag byte past its names is malformed
                self.say(where)
                self.line(f"{target} = {(key := self.ref(names))}[{target}] if {target} < {len(names)} "
                          f"else fail(f'byte {{{target}}} names none of {{{key}}}')")

    def arg(self, codec: FieldCodec, value: str) -> str:
        """A fixed-width value as struct packs it; it would pad or cut bytes."""
        if codec.fmt.endswith("s"):
            return f"({value} if len({value}) == {codec.fmt[:-1]} else fail('bytes of the wrong length'))"
        return f"{self.ref(codec.names)}.index({value})" if codec.fmt == "B" and codec.names else value

    def expr(self, codec: FieldCodec, value: str) -> str:
        """A nested value's bytes, as one expression."""
        if not codec.fmt:
            return codec.put(self, value)
        arg = self.arg(codec, value)
        return arg if codec.fmt.endswith("s") else f"{self.ref(struct.Struct('>' + codec.fmt))}.pack({arg})"

    def take(self, codec: FieldCodec, target: str, where: str | None = None) -> None:
        """Read a value into ``target``: a fixed-width one joins the run."""
        if codec.fmt:
            return self.run.append((codec.fmt.replace("?", "B"), target, codec.names, where))
        self.flush()
        self.say(where)
        codec.take(self, target)

    def nest(self, header: str, codec: FieldCodec, target: str) -> None:
        """A ``header`` block that reads ``codec`` into ``target``."""
        self.line(header)
        self.depth += 1
        self.take(codec, target)
        self.flush()
        self.depth -= 1

    def writer(self, fields) -> Callable:
        for codec, value in fields:
            if codec.fmt:
                self.run.append((codec.fmt, self.arg(codec, value)))
            else:
                self.flush()
                self.parts.append(codec.put(self, value))
        self.flush()
        exec("def plan(self):\n    return " + (" + ".join(self.parts) or "b''"), self.env)
        return self.env["plan"]

    def reader(self, fields, tail: list[str]) -> Callable:
        for codec, target, where in fields:
            self.take(codec, target, where)
        self.flush()
        lines = ["data = r._data", "pos = r._pos", f"where = {self.record!r}", "try:", *self.lines,
                 "    r._pos = pos", "except (struct_error, IndexError):",
                 "    raise CodecError(f'{where}: unexpected end of input') from None",
                 "except ValueError as exc:", "    raise CodecError(f'{where}: {exc}') from exc", *tail]
        exec("def plan(r):\n    " + "\n    ".join(lines), self.env)
        return self.env["plan"]


def _split(hint) -> tuple[Any, FieldCodec]:
    """The base type and codec of a field annotation. A bare WireRecord
    class is that record's fields inline, with no length prefix."""
    if isinstance(hint, type) and issubclass(hint, WireRecord):
        def take(g: _Plan, target: str) -> None:
            g.line("r._pos = pos")
            g.line(f"{target} = {g.ref(hint.read)}(r)")
            g.line("pos = r._pos")

        return hint, FieldCodec(put=lambda g, value: f"{value}.encode()", take=take)
    codec = next((m for m in getattr(hint, "__metadata__", ()) if isinstance(m, FieldCodec)), None)
    if codec is None:
        raise TypeError(f"no wire codec for {hint!r}")
    return hint.__origin__, codec


def _take_blob(g: _Plan, target: str) -> None:
    g.line(f"{(size := g.var())}, = U32.unpack_from(data, pos)")
    g.line(f"{target} = data[pos + 4:pos + 4 + {size}]")
    g.line(f"pos += 4 + {size}")
    g.line(f"if len({target}) != {size}: raise IndexError")


def _take_pair(g: _Plan, target: str) -> None:
    g.line(f"{target} = {g.ref(_PAIR)}.unpack_from(data, pos)")
    g.line("pos += 16")


def _adapted(codec: FieldCodec, to_wire: str, from_wire: Callable) -> FieldCodec:
    """A value ``codec`` writes as ``to_wire`` ({0}: the value) and reads back through ``from_wire``."""

    def take(g: _Plan, target: str) -> None:
        g.take(codec, target)
        g.flush()
        g.line(f"{target} = {g.ref(from_wire)}({target})")

    return FieldCodec(put=lambda g, value: g.expr(codec, to_wire.format(value)), take=take)


def _ratio(pair: tuple[int, int]) -> Fraction:
    if pair[1] == 0 or gcd(*pair) != 1:
        raise ValueError(f"fraction {pair[0]}/{pair[1]} is not in lowest terms")
    return Fraction(*pair)


def _address_set(addresses: tuple) -> frozenset[bytes]:
    if any(a >= b for a, b in zip(addresses, addresses[1:])):
        raise ValueError("address set is not strictly ascending")
    return frozenset(addresses)


_PAIR = struct.Struct(">QQ")
U8 = Annotated[int, FieldCodec(fmt="B")]
U32 = Annotated[int, FieldCodec(fmt="I")]
U64 = Annotated[int, FieldCodec(fmt="Q")]
I64 = Annotated[int, FieldCodec(fmt="q")]
Bytes32 = Annotated[bytes, FieldCodec(fmt="32s")]
Sig = Annotated[bytes, FieldCodec(fmt=f"{SIG_SIZE}s", is_sig=True)]
Flag = Annotated[bool, FieldCodec(fmt="?", names=(False, True))]
Blob = Annotated[bytes, FieldCodec(put=lambda g, v: f"frame({v})", take=_take_blob)]
Text = Annotated[str, _adapted(_split(Blob)[1], "{0}.encode()", bytes.decode)]  # utf-8
U64Pair = Annotated[tuple[int, int], FieldCodec(put=lambda g, v: f"{g.ref(_PAIR)}.pack(*{v})",
                                                take=_take_pair)]
Ratio = Annotated[Fraction, _adapted(_split(U64Pair)[1], "({0}.numerator, {0}.denominator)", _ratio)]


class Tag:
    """``Tag[a, b, ...]``: one of the listed names, as its u8 index."""

    def __class_getitem__(cls, names: tuple):
        return Annotated[str, FieldCodec(fmt="B", names=names)]


class Maybe:
    """``Maybe[X]``: a flag byte, then X when the value is not None."""

    def __class_getitem__(cls, alias):
        base, item = _split(alias)

        def take(g: _Plan, target: str) -> None:
            g.line(f"{(flag := g.var())} = data[pos]")
            g.line("pos += 1")
            g.line(f"if {flag} > 1: raise ValueError(f'flag byte must be 0 or 1, got {{{flag}}}')")
            g.line(f"{target} = None")
            g.nest(f"if {flag}:", item, target)

        put = lambda g, value: f"(b'\\0' if {value} is None else b'\\1' + {g.expr(item, value)})"  # noqa: E731
        return Annotated[base | None, FieldCodec(put=put, take=take)]


class Seq:
    """``Seq[X]``: a u32 count, then each item as X writes it (numbers in one struct call)."""

    def __class_getitem__(cls, alias):
        base, item = _split(alias)
        numbers = len(item.fmt) == 1 and not item.names

        def put(g: _Plan, items: str) -> str:
            if numbers:
                return f"pack(f'>I{{len({items})}}{item.fmt}', len({items}), *{items})"
            return f"U32.pack(len({items})) + b''.join([{g.expr(item, x := g.var())} for {x} in {items}])"

        def take(g: _Plan, target: str) -> None:
            g.line(f"{(count := g.var())}, = U32.unpack_from(data, pos)")
            g.line("pos += 4")
            if numbers:
                g.line(f"{target} = unpack_from(f'>{{{count}}}{item.fmt}', data, pos)")
                return g.line(f"pos += {struct.calcsize(item.fmt)} * {count}")
            g.line(f"{target} = []")
            g.nest(f"for _ in range({count}):", item, x := g.var())
            g.line(f"    {target}.append({x})")
            g.line(f"{target} = tuple({target})")

        return Annotated[tuple[base, ...], FieldCodec(put=put, take=take)]


class Record:
    """``Record[T]``: a nested T, as a blob that must read exactly to its end."""

    def __class_getitem__(cls, record_type):
        return Annotated[record_type, _adapted(_split(Blob)[1], "{0}.encode()", record_type.decode)]


class OptionalRecord:
    """``OptionalRecord[T]``: ``Maybe[Record[T]]``."""

    def __class_getitem__(cls, record_type):
        return Maybe[Record[record_type]]


I64s = Seq[I64]
# a set of 32-byte addresses, as a Seq in ascending order
AddressSet = Annotated[frozenset[bytes], _adapted(_split(Seq[Bytes32])[1], "sorted({0})", _address_set)]


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


def _compile(cls, mode: str, fields: tuple | None = None) -> Callable:
    """Generate and keep ``cls``'s encoder for Sig fields "keep", "zero" or "omit", or its
    reader ("read"), as ``dataclasses`` generates methods; with ``fields``, an encoder of
    those alone, not kept. A reader fills the record's ``__dict__``, then runs ``__post_init__``."""
    g = _Plan(mode == "read", cls.__name__)
    g.env.update(cls=cls, new=object.__new__)
    if g.reading:
        values = [(codec, f"v{i}", f"{cls.__name__}.{name}") for i, (name, codec) in enumerate(cls._FIELDS)]
        fills = [f"od[{name!r}] = v{i}" for i, (name, _) in enumerate(cls._FIELDS)]
        post = ["o.__post_init__()"] if hasattr(cls, "__post_init__") else []
        plan = g.reader(values, ["o = new(cls)", "od = o.__dict__", *fills, *post, "return o"])
    else:
        g.run += [("B", str(cls.TAG))] if cls.TAG is not None and fields is None else []
        plan = g.writer([(codec, g.ref(ZERO_SIG) if codec.is_sig and mode == "zero" else f"self.{name}")
                         for name, codec in fields or cls._FIELDS if not codec.is_sig or mode != "omit"])
    return cls._plans.setdefault(mode, plan) if fields is None else plan


class WireRecord:
    """The base of every record: a subclass is made a frozen dataclass of
    its annotated fields, and its wire form is those fields in declaration
    order: ``encode`` writes them and ``read`` builds the record from them.
    A class with a ``TAG`` writes it first, as a u8; whoever reads the
    tagged union (``tx.decode_tx``) reads the tag."""

    TAG = None
    _digest = None  # hash256(encode()), kept by digest()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        dataclass(frozen=True)(cls)
        cls._FIELDS = wire_fields(cls)
        cls._plans = {}  # mode -> plan, compiled at first use (see _compile)

    def encode(self) -> bytes:
        return self._encode("keep")

    def digest(self) -> bytes:
        """hash256 of ``encode()``: the record's identity, as its tx hash,
        block hash, code hash or state-tree leaf. The first call keeps it on
        the record, over the class's None, which is sound because the record
        is frozen; an edit builds a new record, which never sees it."""
        digest = self._digest
        if digest is None:
            digest = hash256(self.encode())
            object.__setattr__(self, "_digest", digest)
        return digest

    def _encode(self, sigs: str) -> bytes:
        """The wire bytes with every Sig field kept, "zero"ed or "omit"ted."""
        plan = self._plans.get(sigs) or _compile(type(self), sigs)
        try:
            return plan(self)
        except _BAD_VALUE as exc:  # name the first field that fails in a plan of its own
            for field in self._FIELDS:
                try:
                    _compile(type(self), sigs, (field,))(self)
                except _BAD_VALUE as field_exc:
                    raise CodecError(f"{type(self).__name__}.{field[0]}: {field_exc}") from exc
            raise CodecError(f"{type(self).__name__}: {exc!r}") from exc

    @classmethod
    def decode(cls, data: bytes):
        """A record's whole encoding; trailing bytes are a CodecError. Decoding is canonical,
        so an untagged record keeps ``hash256(data)`` as its ``digest()``."""
        record = decode_whole(cls.read, data)
        if cls.TAG is None:
            object.__setattr__(record, "_digest", hash256(data))
        return record

    @classmethod
    def read(cls, r: Reader):
        """The record from its fields. Malformed input is a CodecError naming
        its field, and a value the constructor rejects one naming the record."""
        plan = cls._plans.get("read") or _compile(cls, "read")
        try:
            return plan(r)
        except LedgerError as exc:
            raise CodecError(f"{cls.__name__}: {exc}") from exc

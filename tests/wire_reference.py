"""A reference encoder for the wire records, and Hypothesis strategies that
draw them.

It writes each field through the ``Writer`` primitives below by the wire
rules that codec.py's docstring states, so it imports no writer from the code
it checks. A field's rule comes from its annotation
as declared (``"Maybe[Bytes32]"``, ``"Seq[Record[WorkItem]]"``, ...),
evaluated with every codec alias standing for a rule below, so nothing here
reads the compiled plans or their field codecs.
"""
from __future__ import annotations

import sys
from fractions import Fraction

from hypothesis import strategies as st

from deskchain.codec import WireRecord
from deskchain.crypto import SIG_SIZE
from deskchain.errors import CodecError
from deskchain.vm import OPS, Instr

U64_MAX = 2**64 - 1


class Writer:
    """Wire primitives appended in order: integers big-endian, fixed-size
    bytes as they are, a blob or utf-8 text as a u32 length and the bytes."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def _int(self, n: int, size: int, signed: bool = False) -> "Writer":
        try:
            self._parts.append(n.to_bytes(size, "big", signed=signed))
        except OverflowError:
            raise CodecError(f"{'i' if signed else 'u'}{8 * size} out of range: {n}") from None
        return self

    def u8(self, n: int) -> "Writer":
        return self._int(n, 1)

    def u32(self, n: int) -> "Writer":
        return self._int(n, 4)

    def u64(self, n: int) -> "Writer":
        return self._int(n, 8)

    def i64(self, n: int) -> "Writer":
        return self._int(n, 8, signed=True)

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


class Rule:
    sig = False

    def write(self, w: Writer, value) -> None:
        raise NotImplementedError

    def values(self) -> st.SearchStrategy:
        raise NotImplementedError


class Int(Rule):
    def __init__(self, primitive: str, lo: int, hi: int) -> None:
        self.primitive, self.lo, self.hi = primitive, lo, hi

    def write(self, w, value):
        getattr(w, self.primitive)(value)

    def values(self):
        return st.integers(self.lo, self.hi)


class Fixed(Rule):
    def __init__(self, size: int, sig: bool = False) -> None:
        self.size, self.sig = size, sig

    def write(self, w, value):
        w.fixed(value, self.size)

    def values(self):
        return st.binary(min_size=self.size, max_size=self.size)


class Flag(Rule):
    def write(self, w, value):
        w.flag(value)

    def values(self):
        return st.booleans()


class Tag(Rule):
    def __init__(self, names: tuple) -> None:
        self.names = names

    def write(self, w, value):
        w.u8(self.names.index(value))

    def values(self):
        return st.sampled_from(self.names)


class Blob(Rule):
    def write(self, w, value):
        w.blob(value)

    def values(self):
        return st.binary(max_size=40)


class Text(Rule):
    def write(self, w, value):
        w.text(value)

    def values(self):  # multibyte characters among the rest
        return st.text(st.sampled_from("aé€𝄞") | st.characters(codec="utf-8"), max_size=8)


class Maybe(Rule):
    def __init__(self, inner: Rule) -> None:
        self.inner = inner

    def write(self, w, value):
        w.flag(value is not None)
        if value is not None:
            self.inner.write(w, value)

    def values(self):
        return st.none() | self.inner.values()


class Seq(Rule):
    def __init__(self, item: Rule) -> None:
        self.item = item

    def write(self, w, value):
        w.u32(len(value))
        for item in value:
            self.item.write(w, item)

    def values(self):
        return st.lists(self.item.values(), max_size=4).map(tuple)


class Inline(Rule):
    """A bare WireRecord class: its encoding, unprefixed."""

    def __init__(self, cls) -> None:
        self.cls = cls

    def write(self, w, value):
        encoded = encode(value)
        w.fixed(encoded, len(encoded))

    def values(self):
        return records(self.cls)


class Nested(Inline):
    """``Record[T]``: T's encoding as a blob."""

    def write(self, w, value):
        w.blob(encode(value))


class Ratio(Rule):
    def write(self, w, value):
        w.u64(value.numerator).u64(value.denominator)

    def values(self):
        return st.builds(Fraction, st.integers(0, U64_MAX), st.integers(1, U64_MAX))


class U64Pair(Rule):
    def write(self, w, value):
        w.u64(value[0]).u64(value[1])

    def values(self):
        return st.tuples(st.integers(0, U64_MAX), st.integers(0, U64_MAX))


class AddressSet(Rule):
    def write(self, w, value):
        w.u32(len(value))
        for address in sorted(value):
            w.fixed(address, 32)

    def values(self):
        return st.frozensets(st.binary(min_size=32, max_size=32), max_size=3)


class Op(Rule):
    """An opcode byte, then PUSH's i64 or STORE's and LOAD's u16 argument."""

    def write(self, w, value):
        w.u8(OPS.index(value.op))
        if value.op == "PUSH":
            w.i64(value.arg)
        elif value.op in ("STORE", "LOAD"):
            w.fixed(value.arg.to_bytes(2, "big"), 2)

    def values(self):
        return st.sampled_from(OPS).flatmap(lambda op: st.builds(Instr, st.just(op), (
            st.integers(-(2**63), 2**63 - 1) if op == "PUSH"
            else st.integers(0, 0xFFFF) if op in ("STORE", "LOAD") else st.just(0)
        )))


def _rule(value) -> Rule:
    return Inline(value) if isinstance(value, type) and issubclass(value, WireRecord) else value


class _Of:
    """``Name[x]`` in an annotation: the rule ``build`` makes of ``x``."""

    def __init__(self, build) -> None:
        self.build = build

    def __getitem__(self, item):
        return self.build(item)


ALIASES = {
    "U8": Int("u8", 0, 0xFF), "U32": Int("u32", 0, 0xFFFF_FFFF), "U64": Int("u64", 0, U64_MAX),
    "I64": Int("i64", -(2**63), 2**63 - 1), "Bytes32": Fixed(32), "Sig": Fixed(SIG_SIZE, sig=True),
    "Flag": Flag(), "Blob": Blob(), "Text": Text(), "Ratio": Ratio(), "U64Pair": U64Pair(),
    "AddressSet": AddressSet(), "Op": Op(),
    "Tag": _Of(lambda names: Tag(names if isinstance(names, tuple) else (names,))),
    "Maybe": _Of(lambda inner: Maybe(_rule(inner))),
    "Seq": _Of(lambda item: Seq(_rule(item))),
    "Record": _Of(Nested),
    "OptionalRecord": _Of(lambda cls: Maybe(Nested(cls))),
}
ALIASES["I64s"] = Seq(ALIASES["I64"])


def field_rules(cls) -> dict[str, Rule]:
    """Each field's rule, in declaration order, from the annotations as written."""
    rules = {}
    for klass in reversed(cls.__mro__):
        namespace = {**vars(sys.modules[klass.__module__]), **ALIASES}
        for name, text in vars(klass).get("__annotations__", {}).items():
            rules[name] = _rule(eval(text, namespace))
    return rules


def encode(record, sigs: str = "keep") -> bytes:
    """``record``'s bytes by the reference rules: its TAG byte if it has
    one, then each field, with Sig fields kept, zeroed or left out."""
    w = Writer()
    if record.TAG is not None:
        w.u8(record.TAG)
    for name, rule in field_rules(type(record)).items():
        if rule.sig and sigs == "zero":
            w.fixed(bytes(SIG_SIZE), SIG_SIZE)
        elif not (rule.sig and sigs == "omit"):
            rule.write(w, getattr(record, name))
    return w.done()


def _raw(cls, fields: dict):
    record = object.__new__(cls)  # past the constructor, whose checks the test runs apart
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


# constructor rules a random draw seldom meets, met on half the draws so that
# accepted and refused records both occur
_MET = {
    "Program": lambda fields: {**fields, "vm_version": 1},
    "AZ": lambda fields: {**fields, "admins": fields["admins"] | {fields["owner"]}},
}


def records(cls) -> st.SearchStrategy:
    """Records of ``cls`` whose every field encodes, built past the
    constructor, so some break its rules."""
    fields = st.fixed_dictionaries({name: rule.values() for name, rule in field_rules(cls).items()})
    met = _MET.get(cls.__name__)
    if met is not None:
        fields = st.tuples(fields, st.booleans()).map(lambda drawn: met(drawn[0]) if drawn[1] else drawn[0])
    return fields.map(lambda drawn: _raw(cls, drawn))


def nested(record):
    """The records inside ``record``'s fields, depth first."""
    for value in vars(record).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, WireRecord):
                yield item
                yield from nested(item)

import functools
import hashlib
import types

import pytest
from hypothesis import given, strategies as st

from deskchain import codec
from deskchain.codec import CodecError, Reader, check_amount

from wire_reference import Writer


@functools.cache
def _field(alias):
    # reads one value of a wire alias from a Reader, through a record of that field alone
    record = type("OneField", (codec.WireRecord,), {"__annotations__": {"value": alias}})
    return types.SimpleNamespace(read=lambda r: record.read(r).value)


def test_u64_round_trip():
    data = Writer().u64(0).u64(2**64 - 1).u64(12345).done()
    r = Reader(data)
    u64 = _field(codec.U64)
    assert (u64.read(r), u64.read(r), u64.read(r)) == (0, 2**64 - 1, 12345)
    r.expect_end()


def test_out_of_range_rejected():
    with pytest.raises(CodecError):
        Writer().u64(-1)
    with pytest.raises(CodecError):
        Writer().u64(2**64)
    with pytest.raises(CodecError):
        Writer().i64(2**63)
    with pytest.raises(CodecError):
        Writer().u8(256)


def test_fixed_length_enforced():
    with pytest.raises(CodecError):
        Writer().fixed(b"abc", 4)


def test_trailing_bytes_detected():
    r = Reader(Writer().u32(5).done() + b"x")
    r.u32()
    with pytest.raises(CodecError):
        r.expect_end()


def test_truncated_input_detected():
    r = Reader(b"\x00\x01")
    with pytest.raises(CodecError):
        _field(codec.U64).read(r)


def test_check_amount():
    assert check_amount(0) == 0
    assert check_amount(2**64 - 1) == 2**64 - 1
    with pytest.raises(CodecError):
        check_amount(-1)
    with pytest.raises(CodecError):
        check_amount(2**64)
    with pytest.raises(CodecError):
        check_amount(True)


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_i64_round_trip(value):
    assert _field(codec.I64).read(Reader(Writer().i64(value).done())) == value


@given(st.binary(max_size=64), st.text(max_size=32))
def test_blob_text_round_trip(blob, text):
    data = Writer().blob(blob).text(text).done()
    r = Reader(data)
    assert r.blob() == blob
    assert _field(codec.Text).read(r) == text
    r.expect_end()


@given(st.booleans())
def test_flag_round_trip(flag):
    assert _field(codec.Flag).read(Reader(Writer().flag(flag).done())) == flag


def test_flag_rejects_other_bytes():
    with pytest.raises(CodecError):
        _field(codec.Flag).read(Reader(b"\x02"))


def _state_record_examples():
    from fractions import Fraction

    from deskchain.channels import Channel, SignedState
    from deskchain.ledger import Account, NameRecord
    from deskchain.merkle import MerkleProof
    from deskchain.oracles import OracleQuestion, Vote
    from deskchain.rewards import AZ, AZFactors, EpochReport, RewardPoolState, UserContribution, WorkItem
    from deskchain.storage import StorageContract

    candidate = SignedState(b"\x01" * 32, 4, 30, 70, b"\x02" * 32, (9, -9), b"\x0c" * 64, b"\x0d" * 64)
    item = WorkItem(Fraction(1, 2), Fraction(3, 4), Fraction(2), (Fraction(0), Fraction(1, 3)))
    report = EpochReport(
        3,
        (Fraction(1, 4), Fraction(3, 4)),
        (AZFactors(b"\x0b" * 32, (5, 0)), AZFactors(b"\x0e" * 32, (1, 2))),
        (
            UserContribution(b"\x0b" * 32, b"\x0c" * 32, Fraction(1), Fraction(2, 3), (item,)),
            UserContribution(b"\x0b" * 32, b"\x0d" * 32, Fraction(0), Fraction(1), ()),
        ),
    )
    return {
        "Channel.closing": Channel(b"\x01" * 32, b"\x03" * 32, b"\x04" * 32, 60, 40, "closing", 17, candidate, None),
        "Channel.closed": Channel(b"\x05" * 32, b"\x03" * 32, b"\x04" * 32, 60, 40, "closed", 0, None, (55, 45)),
        "OracleQuestion": OracleQuestion(
            b"\x06" * 32, b"\x07" * 32, b"\x08" * 32, 3, 9, 12, "contested",
            True, 5, b"\x09" * 32, 12, 15, (Vote(b"\x0a" * 32, False, 1000),), False,
        ),
        "AZ": AZ(b"\x0b" * 32, b"\x0c" * 32, 77, frozenset({b"\x0c" * 32}), frozenset({b"\x0c" * 32, b"\x0d" * 32}), frozenset()),
        "RewardPoolState": RewardPoolState(5, 6, 7, 8, 9),
        "Account.external": Account(b"\x10" * 32, 1234, 3, 7),
        "Account.contract": Account(b"\x11" * 32, 0, 1, 2, "contract", b"\x12" * 32),
        "NameRecord": NameRecord("plant-7", b"\x13" * 32, b"\x14" * 32),
        "StorageContract": StorageContract(
            b"\x15" * 32, b"\x16" * 32, b"\x17" * 32, b"\x18" * 32, 4, 16, 5, 10, 100, 9, True,
        ),
        "SignedState": candidate,
        "MerkleProof": MerkleProof(5, (b"\x19" * 32, b"\x1a" * 32, b"\x1b" * 32)),
        "EpochReport": report,
    }


# sha256 of each example's encode(), and of the signed state's signing bytes
RECORD_DIGESTS = {
    "Channel.closing": "e31a3dcf1db23777ceb99fa61492b94a4c7e7eb9a8b9773581874a0d0ff74faf",
    "Channel.closed": "9e2ec041ef042a119503776b6dd22a83f898d4ac15256da5cfcffc4f99816e15",
    "OracleQuestion": "d8eb433ad9fbfef0fe266045e412b45dc69520a9c3a462f917cf1a616d34e6b1",
    "AZ": "965fec80f22e1b61d38979d1fdfd6cece5c5401f68df0af2420caf2462480a58",
    "RewardPoolState": "cd3e00aaa5409c74f93f999c123d60ba5ef3673f1cfc827e1de8cec2feb47ea9",
    "Account.external": "3b0196cf3ad3365db8ce75df87f15c60511f5737374d13dfefaf57484e85b851",
    "Account.contract": "fbcd9af4cbbce504c9ac4a0e7e2716736f40f2709c29d4caf18630fd010e5b90",
    "NameRecord": "5f7bf777700ec12452b005abe152de29d753f8288e0292eb63a07c6385f40af8",
    "StorageContract": "3f90319faca9298d49b6000f9cd4b4a3178aa8c0ee841815b635eef218e52f9a",
    "SignedState": "3bd0fdbee0616cbf7aec5ee517772fa25221a5498786f575f97282fb61ce79db",
    "MerkleProof": "e7b3b284d30b5baf221f438e72eb88b4a4e5b92d43d6d50962c9adcb4162223d",
    "EpochReport": "a59500d5f0c219b55cc0053eb17fe32552215af8540868b661b3ed41d52102e0",
    "SignedState.signing_bytes": "3f146ca638aa8be6646412ab41316f3c2317d64db077b79ce3434f5205c6619b",
}


def test_state_records_round_trip():
    # every committed record type: encode -> decode -> encode byte-identical
    examples = _state_record_examples()
    for label, record in examples.items():
        encoded = record.encode()
        r = Reader(encoded)
        decoded = type(record).read(r)
        r.expect_end()
        assert decoded == record
        assert decoded.encode() == encoded
        assert hashlib.sha256(encoded).hexdigest() == RECORD_DIGESTS[label], label
    signing = examples["SignedState"].signing_bytes()
    assert hashlib.sha256(signing).hexdigest() == RECORD_DIGESTS["SignedState.signing_bytes"]


def test_record_decode_rejects_trailing_bytes():
    for label, record in _state_record_examples().items():
        encoded = record.encode()
        assert type(record).decode(encoded) == record, label
        with pytest.raises(CodecError, match="trailing"):
            type(record).decode(encoded + b"junk")


def test_record_decode_rejects_non_canonical_fractions_and_address_sets():
    # a decoded record re-encodes to its own bytes, so the one encoding of
    # a fraction is in lowest terms and an address set is strictly ascending
    from fractions import Fraction

    from deskchain.rewards import AZ, WorkItem

    item = WorkItem(Fraction(1, 2), Fraction(0), Fraction(1), ()).encode()
    unreduced = Writer().u64(2).u64(4).done() + item[16:]  # alpha = 2/4
    with pytest.raises(CodecError):
        WorkItem.read(Reader(unreduced))
    a, b = b"\x01" * 32, b"\x02" * 32
    az = AZ(b"\x0b" * 32, a, 5, frozenset({a}), frozenset({a, b}), frozenset()).encode()
    swapped = az.replace(a + b, b + a)
    for bad in (swapped, az.replace(a + b, a + a)):
        with pytest.raises(CodecError):
            AZ.read(Reader(bad))


def test_only_layout_dependent_records_write_their_own_codec():
    # every other record's wire form is its field annotations (codec.WireRecord)
    import importlib
    import inspect
    import pkgutil

    import deskchain
    from deskchain.codec import WireRecord

    own = set()
    for info in pkgutil.walk_packages(deskchain.__path__, "deskchain."):
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and cls is not WireRecord:
                if "encode" in vars(cls) or "read" in vars(cls):
                    own.add(name)
    assert own == {"Block"}


def _layout_examples(tmp_path):
    # built by keyword or from assembly text, so no example depends on the
    # constructor's positional order
    from deskchain.channels import SignedState
    from deskchain.ledger import BlockHeader
    from deskchain.statedir import StateDir
    from deskchain.vm import assemble

    header = BlockHeader(
        height=7, prev_hash=b"\x21" * 32, tx_root=b"\x22" * 32, tx_count=2**32 - 2, account_root=b"\x23" * 32,
        name_root=b"\x24" * 32, wormhole_root=b"\x25" * 32, oracle_open_root=b"\x26" * 32,
        oracle_answer_root=b"\x27" * 32, proof_root=b"\x28" * 32, entropy=b"\x29" * 32,
        miner=b"\x2a" * 32, pow_nonce=2**40 + 3, pow_cycle=(5, 17, 2**33, 255),
    )
    every_op = assemble(
        "PUSH -9223372036854775808\nPOP\nDUP\nSWAP\nADD\nSUB\nMUL\nDIV\nLT\nEQ\nNOT\n"
        "SELECT\nHASH\nSIGOK\nBALANCE\nSTORE 65535\nLOAD 0\nSTOP\nFAIL\nPUSH 42"
    )
    split = assemble("PUSH 3\nPUSH -1\nSTOP")
    states = [
        SignedState(b"\x31" * 32, 0, 60, 40),
        SignedState(b"\x31" * 32, 3, 30, 70, split.code_hash(), (9, -9), b"\x32" * 64, b"\x33" * 64),
    ]
    channel_id = b"\x31" * 32
    sd = StateDir(str(tmp_path))
    sd.write_channel_states(channel_id, states, {p.code_hash(): p for p in (every_op, split)})
    channel_file = (tmp_path / f"channel_{channel_id.hex()}.bin").read_bytes()
    return header, every_op, split, states, sd, channel_file


# sha256 of the bytes of the three layouts whose codec is not a plain field list
LAYOUT_DIGESTS = {
    "BlockHeader": "23738ba362c30b37d73347bc1c67635c3b437ed63f30fc2aba0fc9124adafcc0",
    "BlockHeader.base_bytes": "9c8ce16afc47f40973558dd334510199adbea01a52c6e7e3a778a2095b2db138",
    "Program": "6904a796df315b8e63f97aa095cb2c5baba9bce6de2d5fc1d81ab4051574383e",
    "channel file": "77a95cab44a118d8d657565bc5132b3e3e2187fdb929063d26719fb1e74a0645",
}


def test_header_program_and_channel_file_bytes_are_pinned(tmp_path):
    from deskchain.ledger import BlockHeader
    from deskchain.vm import Program

    header, every_op, split, states, sd, channel_file = _layout_examples(tmp_path)
    for label, data in (
        ("BlockHeader", header.encode()),
        ("BlockHeader.base_bytes", header.base_bytes()),
        ("Program", every_op.encode()),
        ("channel file", channel_file),
    ):
        assert hashlib.sha256(data).hexdigest() == LAYOUT_DIGESTS[label], label
    assert len(header.base_bytes()) == 8 + 4 + 9 * 32
    assert header.encode().startswith(header.base_bytes())
    assert BlockHeader.read(Reader(header.encode())) == header
    assert Program.decode(every_op.encode()) == every_op
    assert sd.channel_states(b"\x31" * 32) == (states, {p.code_hash(): p for p in (every_op, split)})


def _wire_record_classes():
    # every WireRecord subclass with fields, found as the test above finds classes
    import importlib
    import inspect
    import pkgutil

    import deskchain
    from deskchain.codec import WireRecord

    found = {}
    for info in pkgutil.walk_packages(deskchain.__path__, "deskchain."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, WireRecord) and cls is not WireRecord and cls._FIELDS:
                found[cls.__qualname__] = cls
    return [found[name] for name in sorted(found)]


def _encodable(cls):
    """A ``cls`` whose every field encodes, built past the constructor: each
    field holds what its codec reads from zero bytes, or an encodable nested
    record, or 1 for a ratio."""
    import typing
    from fractions import Fraction

    from deskchain.codec import WireRecord

    hints = typing.get_type_hints(cls, include_extras=True)
    record = object.__new__(cls)
    for name, _ in cls._FIELDS:
        base = getattr(hints[name], "__origin__", hints[name])
        if base is Fraction:
            value = Fraction(1)
        elif isinstance(base, type) and issubclass(base, WireRecord):
            value = _encodable(base)
        else:
            value = _field(hints[name]).read(Reader(bytes(64)))
        object.__setattr__(record, name, value)
    return record


def test_a_record_subclass_needs_no_decorator():
    # WireRecord makes each subclass a frozen dataclass of its annotated fields
    import dataclasses

    from deskchain.codec import U64, Bytes32, Maybe, WireRecord

    class Pair(WireRecord):
        left: U64
        right: Bytes32
        extra: Maybe[U64] = None

    a = Pair(1, b"\x02" * 32)
    assert a == Pair(left=1, right=b"\x02" * 32, extra=None) and a != Pair(1, b"\x02" * 32, 3)
    assert hash(a) == hash(Pair(1, b"\x02" * 32))
    assert repr(a).endswith(f".Pair(left=1, right={a.right!r}, extra=None)")
    assert [f.name for f in dataclasses.fields(Pair)] == [name for name, _ in Pair._FIELDS]
    assert Pair.decode(a.encode()) == a and Pair.decode(Pair(7, a.right, 9).encode()).extra == 9
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.left = 2
    assert dataclasses.replace(a, left=2) == Pair(2, a.right)


def test_a_record_digest_is_the_hash_of_its_encoding_kept_once():
    from deskchain.crypto import hash256

    classes = _wire_record_classes()
    assert len(classes) >= 40
    for cls in classes:
        record = _encodable(cls)
        digest = record.digest()
        assert digest == hash256(record.encode()), cls.__name__
        assert record.digest() is digest, cls.__name__  # kept, not recomputed
        for name in ("block_hash", "code_hash"):  # BlockHeader's and Program's names for it
            if callable(getattr(cls, name, None)):
                assert getattr(record, name)() == digest, cls.__name__


def _bad_values(hint):
    from deskchain import codec

    if hint == codec.U8:
        return [-1, 2**8]
    if hint == codec.U32:
        return [-1, 2**32]
    if hint == codec.U64:
        return [-1, 2**64]
    if hint == codec.I64:
        return [2**63]
    if hint == codec.Bytes32:
        return [b"\x01" * 31, b"\x01" * 33]
    if hint == codec.Sig:
        return [b"\x01" * 63]
    if getattr(hint, "__origin__", None) is str and hint != codec.Text:  # a Tag[...]
        return ["no-such-name"]
    return []


def test_every_fixed_width_field_rejects_what_it_cannot_encode():
    import copy
    import typing

    checked = 0
    for cls in _wire_record_classes():
        good = _encodable(cls)
        good.encode()
        hints = typing.get_type_hints(cls, include_extras=True)
        for name, codec in cls._FIELDS:
            for value in _bad_values(hints[name]):
                bad = copy.copy(good)
                object.__setattr__(bad, name, value)
                forms = [bad.encode]
                if hasattr(bad, "signing_bytes") and not codec.is_sig:
                    forms.append(bad.signing_bytes)
                for form in forms:
                    with pytest.raises(CodecError, match=rf"^{cls.__name__}\.{name}: "):
                        form()
                    checked += 1
    assert checked > 300


def test_every_proper_prefix_of_a_record_is_a_codec_error():
    for label, record in _state_record_examples().items():
        encoded = record.encode()
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                type(record).decode(encoded[:cut])


def test_a_tag_or_flag_byte_past_its_names_is_a_codec_error_naming_the_field():
    import copy

    checked = 0
    for cls in _wire_record_classes():
        good = _encodable(cls)
        for name, codec in cls._FIELDS:
            names = codec.names  # a Tag's or Flag's
            if not names:
                continue
            other = copy.copy(good)
            object.__setattr__(other, name, names[1])
            data, flipped = good.encode()[cls.TAG is not None:], other.encode()[cls.TAG is not None:]
            (at,) = [i for i, (a, b) in enumerate(zip(data, flipped)) if a != b]
            bad = data[:at] + b"\xff" + data[at + 1:]
            with pytest.raises(CodecError, match=rf"^{cls.__name__}\.{name}: byte 255 names none of "):
                cls.read(Reader(bad))
            checked += 1
    assert checked >= 9


def test_importing_the_cli_compiles_no_codec_plan():
    # plans are compiled at a class's first encode or read, so start-up pays
    # for none of them; a fresh interpreter, as other tests have encoded
    import os
    import subprocess
    import sys

    from conftest import REPO_ROOT

    script = (
        "import deskchain.cli\n"
        "from deskchain.codec import WireRecord\n"
        "todo, seen = [WireRecord], 0\n"
        "while todo:\n"
        "    cls = todo.pop()\n"
        "    todo += cls.__subclasses__()\n"
        "    seen += 1\n"
        "    assert not vars(cls).get('_plans'), cls\n"
        "assert seen > 40, seen\n"
    )
    path = os.pathsep.join([os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60)


def _bad_variable_width_values(hint):
    # values a variable-width field's codec cannot write, by the field's type
    from deskchain.vm import Instr

    def instr(op, arg):  # set past the constructor, which would refuse it
        ins = object.__new__(Instr)
        ins.__dict__.update(op=op, arg=arg)
        return ins

    origin = getattr(hint, "__origin__", None)
    if origin == bytes | None:  # Maybe[Bytes32]
        return [b"\x01" * 31, b"\x01" * 33]
    if hint == codec.I64s:
        return [(1, 2**63)]
    if origin == tuple[int, ...]:  # Seq[U64]
        return [(-1,), (5, 2**64)]
    if hint == codec.Text:
        return ["\ud800", "lone \udfff"]
    if origin == tuple[Instr, ...]:  # Seq[vm.Op]
        return [(instr("PUSH", 2**63),), (instr("STOP", 0), instr("STORE", 65536))]
    return []


def test_every_variable_width_field_rejects_what_it_cannot_encode():
    import copy
    import typing

    checked = set()
    for cls in _wire_record_classes():
        good = _encodable(cls)
        good.encode()
        hints = typing.get_type_hints(cls, include_extras=True)
        for name, _ in cls._FIELDS:
            for value in _bad_variable_width_values(hints[name]):
                bad = copy.copy(good)
                object.__setattr__(bad, name, value)
                for form in [bad.encode] + ([bad.signing_bytes] if hasattr(bad, "signing_bytes") else []):
                    with pytest.raises(CodecError, match=rf"^{cls.__name__}\.{name}: "):
                        form()
                checked.add(f"{cls.__name__}.{name}")
    assert checked >= {
        "Account.code_hash", "SignedState.contract_hash", "SignedState.contract_state", "ContractCall.call_data",
        "BlockHeader.pow_cycle", "AZFactors.raw", "NameRecord.name", "NameClaim.name", "Program.instructions",
    }


def test_a_read_error_names_the_field_it_is_in():
    from deskchain.ledger import Account, NameRecord
    from deskchain.merkle import MerkleProof
    from deskchain.vm import Program

    account = Account(b"\x11" * 32, 0, 1, 2, "contract", b"\x12" * 32).encode()
    name = NameRecord("plant-7", b"\x13" * 32, b"\x14" * 32).encode()
    proof = MerkleProof(5, (b"\x19" * 32, b"\x1a" * 32)).encode()
    cases = [
        (Account, account[:-33] + b"\x02" + account[-32:], r"Account\.code_hash: flag byte must be 0 or 1, got 2"),
        (NameRecord, name.replace(b"plant-7", b"plant\xff7"), r"NameRecord\.name: .*utf-8.* decode byte 0xff"),
        (Program, bytes([1, 0, 0, 0, 1, 99]), r"Program\.instructions: bad opcode 99"),
        (MerkleProof, proof[:4] + (3).to_bytes(4, "big") + proof[8:], r"MerkleProof\.siblings: unexpected end"),
    ]
    for cls, data, message in cases:
        with pytest.raises(CodecError, match=rf"^{message}"):
            cls.decode(data)


def _accepted(record) -> bool:
    # the constructor's checks, on the record and on every record inside it
    import wire_reference
    from deskchain.errors import LedgerError

    for each in (record, *wire_reference.nested(record)):
        try:
            if hasattr(each, "__post_init__"):
                each.__post_init__()
        except (LedgerError, CodecError):
            return False
    return True


@pytest.mark.parametrize("cls", _wire_record_classes(), ids=lambda cls: cls.__qualname__)
def test_compiled_plans_agree_with_a_reference_encoder(cls):
    # encode() is the bytes wire_reference writes through Writer primitives;
    # read gives the record back, or refuses it when its constructor would
    import wire_reference
    from hypothesis import HealthCheck, settings

    from deskchain.tx import TxBase

    outcomes = set()

    @settings(max_examples=12, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(wire_reference.records(cls))
    def check(record):
        encoded = record.encode()
        assert encoded == wire_reference.encode(record)
        if hasattr(record, "signing_bytes"):
            sigs = "zero" if isinstance(record, TxBase) else "omit"
            assert record.signing_bytes() == wire_reference.encode(record, sigs)
        body = encoded[cls.TAG is not None:]
        if _accepted(record):
            assert cls.decode(body) == record
            outcomes.add("accepted")
        else:
            with pytest.raises(CodecError):
                cls.decode(body)
            outcomes.add("refused")

    check()
    assert "accepted" in outcomes


@pytest.mark.parametrize("cls", [cls for cls in _wire_record_classes() if cls.TAG is None],
                         ids=lambda cls: cls.__qualname__)
def test_a_decoded_record_keeps_the_hash_of_its_encoding(cls):
    # decoding is canonical, so the digest kept from the decoded bytes is the
    # hash of the record's encoding, for the record and every record decoded
    # inside it
    import wire_reference
    from hypothesis import HealthCheck, settings

    from deskchain.crypto import hash256

    kept = []

    @settings(max_examples=12, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(wire_reference.records(cls))
    def check(record):
        if not _accepted(record):
            return
        decoded = cls.decode(wire_reference.encode(record))
        assert "_digest" in vars(decoded)
        for each in (decoded, *wire_reference.nested(decoded)):
            if "_digest" in vars(each):
                assert vars(each)["_digest"] == hash256(each.encode())
                kept.append(each)

    check()
    assert kept


def test_a_program_of_every_opcode_agrees_with_the_reference_encoder():
    import wire_reference
    from deskchain.vm import OPS, Instr, Program

    args = {"PUSH": -7, "STORE": 513, "LOAD": 65535}
    program = Program(1, tuple(Instr(op, args.get(op, 0)) for op in OPS))
    assert program.encode() == wire_reference.encode(program)
    assert Program.decode(program.encode()) == program

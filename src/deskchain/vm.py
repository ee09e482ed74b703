"""Deterministic stack machine with dual metering.

Every instruction costs exactly one gas unit; space, the stack depth plus
occupied store cells, is a hard limit rather than a priced resource.
Values are 64-bit signed integers; any overflow, bad division, or stack
underflow traps the run with status "failed". The machine is a pure
function of its inputs: the one chain view, BALANCE's ``balance_of``, is
read-only, and results are returned, never applied. SIGOK is a reserved
opcode with no signature view behind it, so it always traps.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Annotated, Callable, NamedTuple

from .codec import I64_MAX, I64_MIN, U8, FieldCodec, Seq, WireRecord
from .config import text_lines
from .errors import LedgerError, VmFailure
from .crypto import hash256

MAX_PROGRAM_LEN = 65_536

# opcode table; order fixes the binary encoding
OPS = (
    "PUSH", "POP", "DUP", "SWAP", "ADD", "SUB", "MUL", "DIV", "LT", "EQ",
    "NOT", "SELECT", "HASH", "SIGOK", "BALANCE", "STORE", "LOAD", "STOP", "FAIL",
)
_OPCODE = {name: i for i, name in enumerate(OPS)}
_HAS_IMM = {"PUSH"}
_HAS_IDX = {"STORE", "LOAD"}
ENV_OPS = {"SIGOK", "BALANCE"}

HALTED = "halted"
FAILED = "failed"
OUT_OF_GAS = "out_of_gas"
OUT_OF_SPACE = "out_of_space"


@dataclass(frozen=True)
class Instr:
    op: str
    arg: int = 0

    def __post_init__(self) -> None:
        if self.op not in _OPCODE:
            raise LedgerError("BadFormat", f"unknown instruction {self.op!r}")
        if self.op in _HAS_IMM and not I64_MIN <= self.arg <= I64_MAX:
            raise LedgerError("BadFormat", f"PUSH immediate out of range: {self.arg}")
        if self.op in _HAS_IDX and not 0 <= self.arg <= 0xFFFF:
            raise LedgerError("BadFormat", f"store index out of range: {self.arg}")

    def __str__(self) -> str:
        if self.op in _HAS_IMM or self.op in _HAS_IDX:
            return f"{self.op} {self.arg}"
        return self.op


# PUSH's i64 immediate or STORE's and LOAD's u16 index, by opcode; any other
# instruction is one shared Instr, as an Instr is frozen
_ARG = {_OPCODE[op]: struct.Struct(">q" if op in _HAS_IMM else ">H") for op in _HAS_IMM | _HAS_IDX}
_PLAIN = tuple(None if code in _ARG else Instr(op) for code, op in enumerate(OPS))
_BYTE = {op: bytes([code]) for code, op in enumerate(OPS) if code not in _ARG}
_PACK = {OPS[code]: struct.Struct(">B" + arg.format[1:]) for code, arg in _ARG.items()}


def _take_op(g, ins: str) -> None:
    """Read one instruction, built without the checks ``Instr`` runs (by
    ``object.__setattr__``: writing ``__dict__`` would slow every read of it)."""
    code, arg, args = g.var(), g.var(), g.ref(_ARG)
    g.line(f"{code} = data[pos]")
    g.line("pos += 1")
    g.line(f"if {code} >= {len(OPS)}: raise ValueError(f'bad opcode {{{code}}}')")
    g.line(f"{ins} = {g.ref(_PLAIN)}[{code}]")
    g.line(f"if {ins} is None:")
    g.line(f"    {arg}, = {args}[{code}].unpack_from(data, pos)")
    g.line(f"    pos += {args}[{code}].size")
    g.line(f"    {ins} = {g.ref(object.__new__)}({g.ref(Instr)})")
    g.line(f"    {g.ref(object.__setattr__)}({ins}, 'op', {g.ref(OPS)}[{code}])")
    g.line(f"    {g.ref(object.__setattr__)}({ins}, 'arg', {arg})")


# one instruction: its opcode byte, then its argument if it has one
Op = Annotated[Instr, FieldCodec(take=_take_op, put=lambda g, ins: (
    f"({g.ref(_BYTE)}.get({ins}.op) or {g.ref(_PACK)}[{ins}.op].pack({g.ref(_OPCODE)}[{ins}.op], {ins}.arg))"))]


class Program(WireRecord):
    vm_version: U8
    instructions: Seq[Op]

    def __post_init__(self) -> None:
        if self.vm_version != 1:
            raise LedgerError("BadFormat", f"vm_version must be 1, got {self.vm_version}")
        if len(self.instructions) > MAX_PROGRAM_LEN:
            raise LedgerError("BadFormat", "program too long")

    def uses_env(self) -> bool:
        return any(i.op in ENV_OPS for i in self.instructions)

    def code_hash(self) -> bytes:
        return self.digest()


def assemble(text: str) -> Program:
    """One instruction per line; ';' starts a comment."""
    instrs = []
    for line_no, line in text_lines(text, ";"):
        parts = line.split()
        op = parts[0].upper()
        if op not in _OPCODE:
            raise LedgerError("BadFormat", f"asm line {line_no}: unknown op {parts[0]!r}")
        wants_arg = op in _HAS_IMM or op in _HAS_IDX
        if wants_arg != (len(parts) == 2) or len(parts) > 2:
            raise LedgerError("BadFormat", f"asm line {line_no}: bad operands")
        instrs.append(Instr(op, int(parts[1], 10)) if wants_arg else Instr(op))
    return Program(1, tuple(instrs))


def hash_int(x: int) -> int:
    """The HASH instruction: the first 8 bytes of hash256 of ``x``, both as
    big-endian signed 64-bit integers."""
    digest = hash256(x.to_bytes(8, "big", signed=True))
    return int.from_bytes(digest[:8], "big", signed=True)


class VmResult(NamedTuple):
    status: str
    gas_used: int
    stack: tuple[int, ...]


class _Trap(Exception):
    pass


def execute(
    program: Program,
    call_data: list[int],
    balance_of: Callable[[int], int] | None,
    gas_limit: int,
    space_limit: int,
) -> VmResult:
    """Run ``program`` on ``call_data`` pushed in order. BALANCE reads
    ``balance_of(handle)``; with ``balance_of=None`` it traps."""
    stack: list[int] = []
    store: dict[int, int] = {}
    gas_used = 0

    def check_range(v: int) -> int:
        if not I64_MIN <= v <= I64_MAX:
            raise _Trap("value out of 64-bit range")
        return v

    def push(v: int) -> None:
        stack.append(check_range(v))

    def pop() -> int:
        if not stack:
            raise _Trap("stack underflow")
        return stack.pop()

    def result(status: str) -> VmResult:
        return VmResult(status, gas_used, tuple(stack))

    try:
        for v in call_data:
            push(v)
    except _Trap:
        return result(FAILED)
    if len(stack) > space_limit:
        return result(OUT_OF_SPACE)

    for ins in program.instructions:
        if gas_used >= gas_limit:
            return result(OUT_OF_GAS)
        gas_used += 1
        op = ins.op
        try:
            if op == "PUSH":
                push(ins.arg)
            elif op == "POP":
                pop()
            elif op == "DUP":
                v = pop()
                push(v)
                push(v)
            elif op == "SWAP":
                y, x = pop(), pop()
                push(y)
                push(x)
            elif op == "ADD":
                y, x = pop(), pop()
                push(x + y)
            elif op == "SUB":
                y, x = pop(), pop()
                push(x - y)
            elif op == "MUL":
                y, x = pop(), pop()
                push(x * y)
            elif op == "DIV":
                y, x = pop(), pop()
                if y == 0:
                    raise _Trap("division by zero")
                push(x // y)
            elif op == "LT":
                y, x = pop(), pop()
                push(1 if x < y else 0)
            elif op == "EQ":
                y, x = pop(), pop()
                push(1 if x == y else 0)
            elif op == "NOT":
                push(1 if pop() == 0 else 0)
            elif op == "SELECT":
                cond, t, f = pop(), pop(), pop()
                push(t if cond != 0 else f)
            elif op == "HASH":
                push(hash_int(pop()))
            elif op == "SIGOK":
                raise _Trap("no signature view")
            elif op == "BALANCE":
                if balance_of is None:
                    raise _Trap("no balance view")
                push(balance_of(pop()))
            elif op == "STORE":
                store[ins.arg] = pop()
            elif op == "LOAD":
                push(store.get(ins.arg, 0))
            elif op == "STOP":
                return result(HALTED)
            elif op == "FAIL":
                return result(FAILED)
        except _Trap:
            return result(FAILED)
        if len(stack) + len(store) > space_limit:
            return result(OUT_OF_SPACE)
    return result(HALTED)  # fell off the end of the code


def eval_pure(program: Program, state_in: list[int], gas_limit: int, space_limit: int) -> list[int]:
    """Channel-contract evaluation: state in on the stack, final stack out.

    Raises VmFailure unless the run halts cleanly; contracts that peek at
    chain state (BALANCE/SIGOK) are rejected up front.
    """
    if program.uses_env():
        raise VmFailure(FAILED, "pure contracts cannot use BALANCE/SIGOK")
    out = execute(program, state_in, None, gas_limit, space_limit)
    if out.status != HALTED:
        raise VmFailure(out.status)
    return list(out.stack)

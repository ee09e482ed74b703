import random

import pytest
from hypothesis import given, settings, strategies as st

from deskchain import templates
from deskchain.config import NetworkConfig
from deskchain.errors import CodecError, LedgerError, VmFailure
from deskchain.vm import (
    FAILED, HALTED, OPS, OUT_OF_GAS, OUT_OF_SPACE, Instr, Program, assemble,
    eval_pure, execute,
)

from conftest import metered_api_state, payment_split_state, storage_payout_state
from wire_reference import Writer

PURE = (NetworkConfig().pure_gas, NetworkConfig().pure_space)  # eval_pure's meters


def disassemble(program: Program) -> str:
    return "\n".join(str(i) for i in program.instructions) + "\n"


def run(src, call_data=(), gas=1000, space=100, balance_of=None):
    return execute(assemble(src), list(call_data), balance_of, gas, space)


def test_push_add_counts_gas():
    out = run("PUSH 2\nPUSH 3\nADD\nSTOP", gas=10)
    assert (out.status, out.stack[-1], out.gas_used) == (HALTED, 5, 4)


def test_out_of_gas_before_stop():
    out = run("PUSH 1\nSTOP", gas=1)
    assert out.status == OUT_OF_GAS
    assert out.gas_used == 1


def test_div_by_zero_fails():
    out = run("PUSH 7\nPUSH 0\nDIV")
    assert out.status == FAILED


def test_overflow_fails():
    out = run(f"PUSH {2**63 - 1}\nPUSH 1\nADD\nSTOP")
    assert out.status == FAILED


def test_stack_underflow_fails():
    assert run("POP").status == FAILED
    assert run("ADD").status == FAILED


def test_fail_instruction():
    assert run("PUSH 1\nFAIL").status == FAILED


def test_select_semantics():
    assert run("PUSH 10\nPUSH 20\nPUSH 1\nSELECT\nSTOP").stack[-1] == 20
    assert run("PUSH 10\nPUSH 20\nPUSH 0\nSELECT\nSTOP").stack[-1] == 10


def test_store_load_and_space():
    src = "PUSH 5\nSTORE 0\nLOAD 0\nLOAD 0\nADD\nSTOP"
    out = run(src)
    assert out.stack[-1] == 10
    # peak: one stored cell plus two stack slots
    assert run(src, space=2).status == OUT_OF_SPACE
    assert run(src, space=3).status == HALTED


def test_out_of_space():
    out = run("PUSH 1\nPUSH 2\nPUSH 3\nSTOP", space=2)
    assert out.status == OUT_OF_SPACE


def test_call_data_counts_toward_space():
    out = execute(assemble("STOP"), [1, 2, 3], None, 10, 2)
    assert out.status == OUT_OF_SPACE


def test_balance_and_sigok_views():
    balance_of = lambda h: {0: 500}.get(h, 0)
    out = run("PUSH 0\nBALANCE\nSTOP", balance_of=balance_of)
    assert out.stack[-1] == 500
    out = run("PUSH 4\nPUSH 4\nSIGOK\nSTOP", balance_of=balance_of)
    assert out.status == FAILED
    out = run("PUSH 0\nBALANCE\nSTOP", balance_of=None)
    assert out.status == FAILED


def test_purity_env_never_mutated():
    lookups = []
    out = run("PUSH 1\nBALANCE\nPOP\nSTOP", balance_of=lambda h: lookups.append(h) or 7)
    assert out.status == HALTED
    assert lookups == [1]


def test_identity_program_returns_state():
    assert eval_pure(assemble("STOP"), [4, 2], *PURE) == [4, 2]


def test_eval_pure_deterministic():
    program = templates.PAYMENT_SPLIT
    state = payment_split_state(1000, 1, 3)
    assert eval_pure(program, list(state), *PURE) == eval_pure(program, list(state), *PURE)


def test_eval_pure_rejects_env_ops():
    with pytest.raises(VmFailure):
        eval_pure(assemble("PUSH 0\nBALANCE\nSTOP"), [], *PURE)


def test_eval_pure_raises_on_failure():
    with pytest.raises(VmFailure) as err:
        eval_pure(assemble("FAIL"), [], *PURE)
    assert err.value.status == FAILED


def test_gas_exactness_on_halting_programs():
    # gas_used equals executed instruction count for STOP-halting programs
    rng = random.Random(1)
    # from two or more stack items, each entry leaves two or more, so no trap fires
    pool = ["PUSH 1", "PUSH 2", "DUP", "ADD\nPUSH 1", "POP\nPUSH 3", "SWAP"]
    for _ in range(50):
        body = ["PUSH 9", "PUSH 9"]
        for _ in range(rng.randrange(0, 12)):
            body.append(rng.choice(pool))
        src = "\n".join(body) + "\nSTOP"
        program = assemble(src)
        out = execute(program, [], None, 10_000, 10_000)
        assert out.status == HALTED
        executed = src.count("\n") + 1
        assert out.gas_used == executed


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_gas_monotonicity(gas_small, extra):
    # raising the limit never changes a halted result
    program = assemble("PUSH 1\nPUSH 2\nADD\nDUP\nMUL\nSTOP")
    lo = execute(program, [], None, gas_small, 100)
    hi = execute(program, [], None, gas_small + extra, 100)
    if lo.status == HALTED:
        assert (hi.status, hi.stack, hi.gas_used) == (lo.status, lo.stack, lo.gas_used)
    elif hi.status == HALTED:
        assert lo.status == OUT_OF_GAS


def test_program_length_cap():
    with pytest.raises(LedgerError):
        Program(1, tuple(Instr("POP") for _ in range(65_537)))


def test_vm_version_must_be_one():
    with pytest.raises(LedgerError):
        Program(2, (Instr("STOP"),))


def test_assembler_round_trip():
    src = "PUSH -5\nDUP\nADD\nSTORE 3\nLOAD 3\nSTOP"
    program = assemble(src)
    assert assemble(disassemble(program)) == program


def test_assembler_rejects_garbage():
    with pytest.raises(LedgerError):
        assemble("FLY 1")
    with pytest.raises(LedgerError):
        assemble("PUSH")
    with pytest.raises(LedgerError):
        assemble("ADD 3")


def test_binary_round_trip_all_ops():
    src = (
        "PUSH 7\nPOP\nPUSH 1\nDUP\nSWAP\nADD\nPUSH 2\nSUB\nPUSH 3\nMUL\n"
        "PUSH 1\nDIV\nPUSH 0\nLT\nPUSH 0\nEQ\nNOT\nPUSH 1\nPUSH 2\nSELECT\n"
        "HASH\nSTORE 0\nLOAD 0\nSTOP\nFAIL"
    )
    program = assemble(src)
    assert Program.decode(program.encode()) == program
    env_src = "PUSH 0\nBALANCE\nPUSH 1\nPUSH 1\nSIGOK\nSTOP"
    program = assemble(env_src)
    assert Program.decode(program.encode()) == program


def test_comments_and_blank_lines():
    program = assemble("; leading comment\n\nPUSH 1 ; trailing\nSTOP\n")
    assert program == assemble("PUSH 1\nSTOP")


# --- templates ---


def test_payment_split_example():
    out = eval_pure(
        templates.PAYMENT_SPLIT, payment_split_state(8_000_000, 3, 1), *PURE
    )
    assert out == [6_000_000, 2_000_000]


def test_hash_timelock_claim_and_refund():
    total = 10_000
    good = templates.hash_timelock_state(total, preimage=99, deadline=50, height=40)
    assert eval_pure(templates.HASH_TIMELOCK, good, *PURE) == [0, total]
    bad_preimage = list(good)
    bad_preimage[4] = 98
    assert eval_pure(templates.HASH_TIMELOCK, bad_preimage, *PURE) == [total, 0]
    late = templates.hash_timelock_state(total, preimage=99, deadline=50, height=51)
    assert eval_pure(templates.HASH_TIMELOCK, late, *PURE) == [total, 0]


def test_metered_api_capped_by_total():
    assert eval_pure(templates.METERED_API, metered_api_state(500, 7, 60), *PURE) == [80, 420]
    assert eval_pure(templates.METERED_API, metered_api_state(500, 100, 60), *PURE) == [0, 500]


def test_storage_payout_template():
    out = eval_pure(templates.STORAGE_PAYOUT, storage_payout_state(1000, 3, 100), *PURE)
    assert out == [700, 300]


def test_templates_round_trip_binary():
    for name, program in templates.TEMPLATES.items():
        assert Program.decode(program.encode()) == program
        assert assemble(disassemble(program)) == program


def test_program_decode_rejects_malformed_input():
    stop = Writer().u8(OPS.index("STOP")).done()
    pops = bytes([OPS.index("POP")]) * 65_537
    for bad in (
        Writer().u8(2).u32(1).done() + stop,  # vm_version 2
        Writer().u8(1).u32(1).u8(len(OPS)).done(),  # opcode 19
        Writer().u8(1).u32(65_537).done() + pops,  # one past the length cap
        Writer().u8(1).u32(1).u8(OPS.index("PUSH")).done() + b"\0" * 7,  # truncated immediate
    ):
        with pytest.raises(CodecError):
            Program.decode(bad)
    assert Program.decode(Writer().u8(1).u32(1).done() + stop) == assemble("STOP")

import ast
import dataclasses
import glob
import hashlib
import inspect
import os
import random
import textwrap
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deskchain import codec, oracles, pow, storage, tx as txmod
from deskchain.config import parse_config
from deskchain.channels import SignedState
from deskchain.crypto import ZERO_SIG, KeyPair, hash256, verify_sig
from deskchain.errors import BlockError, CodecError, LedgerError, TxError
from deskchain.ledger import CONTRACT, Account, Block
from deskchain.node import Node
from deskchain.state import _STORES, ChainState, StateDict
from deskchain.merkle import MerkleProof, merkle_prove, tree_root
from deskchain.rewards import AZFactors, EpochReport, UserContribution, WorkItem
from deskchain.vm import MAX_PROGRAM_LEN, Program, assemble

from conftest import Bench, make_cfg

DSD = 1_000_000


def spend(bench, frm, to, amount, fee, counter=None):
    kp = bench.key(frm)
    counter = counter if counter is not None else bench.counter(frm)
    return txmod.Spend(kp.address, bench.addr(to), amount, fee, counter)


def test_a_receipt_renders_its_reason_only_when_it_has_one():
    applied = txmod.Receipt(b"\x01" * 32, "applied", 3, 6)
    assert applied.render() == f"tx={'01' * 32} status=applied gas_used=3 fee=6 miner=6"
    reverted = applied._replace(status="reverted", reason="NameTaken")
    assert reverted.render() == f"tx={'01' * 32} status=reverted gas_used=3 fee=6 miner=6 reason=NameTaken"


def test_every_user_kind_names_its_sender_and_an_epoch_tx_none(bench):
    spend_tx = spend(bench, "alice", "bob", 1, 1)
    assert txmod.tx_sender(spend_tx) == bench.addr("alice")
    with pytest.raises(TypeError, match="an EpochTx has no sender"):
        txmod.tx_sender(txmod.EpochTx(EpochReport(1, (), (), ())))


def test_check_tx_refuses_a_field_outside_its_wire_range_as_bad_format(bench):
    # the encoding's range checks run first, so even an unsigned tx is refused for its format
    with pytest.raises(TxError) as err:
        txmod.check_tx(bench.state, spend(bench, "alice", "bob", 1 << 64, 1))
    assert err.value.code == "BadFormat"


def test_check_tx_happy_path(bench):
    tx = txmod.sign_tx(spend(bench, "alice", "bob", 100, 5), bench.key("alice"))
    txmod.check_tx(bench.state, tx)


def test_counter_off_by_one(bench):
    tx = txmod.sign_tx(spend(bench, "alice", "bob", 100, 5, counter=2), bench.key("alice"))
    with pytest.raises(TxError) as err:
        txmod.check_tx(bench.state, tx)
    assert err.value.code == "BadCounter"


def test_wrong_key_signature(bench):
    tx = txmod.sign_tx(spend(bench, "alice", "bob", 100, 5), bench.key("bob"))
    with pytest.raises(TxError) as err:
        txmod.check_tx(bench.state, tx)
    assert err.value.code == "BadSignature"


def test_unsigned_rejected(bench):
    with pytest.raises(TxError) as err:
        txmod.check_tx(bench.state, spend(bench, "alice", "bob", 100, 5))
    assert err.value.code == "MissingSignature"


def test_tampered_body_breaks_signature(bench):
    tx = txmod.sign_tx(spend(bench, "alice", "bob", 100, 5), bench.key("alice"))
    tampered = dataclasses.replace(tx, amount=101)
    with pytest.raises(TxError) as err:
        txmod.check_tx(bench.state, tampered)
    assert err.value.code == "BadSignature"


def test_a_signature_of_63_or_65_bytes_is_refused():
    # a signature is the signer's 32-byte seed and a 32-byte tag
    kp = KeyPair.from_name("alice")
    sig = kp.sign(b"message")
    assert verify_sig(kp.address, b"message", sig)
    for wrong in (sig[:63], sig + b"\x00"):
        assert not verify_sig(kp.address, b"message", wrong)


def test_fee_must_match_gas_product(bench):
    kp = bench.key("alice")
    tx = txmod.ContractCall(
        kp.address, bench.addr("bob"), 0, gas=10, gas_price=3, call_data=(),
        fee=29, counter=1,
    )
    with pytest.raises(TxError) as err:
        txmod.check_tx(bench.state, txmod.sign_tx(tx, kp))
    assert err.value.code == "BadFormat"


def test_spend_moves_value_and_fee(bench):
    # spend 10 DSD with gas 21 at price 3: fee 63 to the miner
    receipt = bench.apply(spend(bench, "alice", "bob", 10 * DSD, 63), bench.key("alice"))
    assert receipt.status == "applied"
    assert bench.balance("bob") == 110 * DSD
    assert bench.balance("alice") == 100 * DSD - 10 * DSD - 63
    assert bench.balance("miner") == 100 * DSD + 63
    assert receipt.fee_paid == 63
    assert bench.conservation_ok()


def test_spend_insufficient_value_reverts_but_pays_fee(bench):
    receipt = bench.apply(spend(bench, "alice", "bob", 500 * DSD, 40), bench.key("alice"))
    assert receipt.status == "reverted"
    assert receipt.fee_paid == 40
    assert bench.balance("bob") == 100 * DSD
    assert bench.balance("alice") == 100 * DSD - 40
    assert bench.conservation_ok()


def test_replay_rejected(bench):
    tx = txmod.sign_tx(spend(bench, "alice", "bob", 100, 5), bench.key("alice"))
    assert bench.apply(tx).status == "applied"
    with pytest.raises(TxError) as err:
        bench.apply(tx)
    assert err.value.code == "BadCounter"


def test_data_only_cost():
    assert txmod.data_only_cost(100, 2) == 200
    assert txmod.data_only_cost(0, 7) == 0
    assert txmod.data_only_cost(65_536, 1) == 65_536


def test_data_only_apply(bench):
    kp = bench.key("alice")
    tx = txmod.DataOnly(kp.address, b"\xab" * 100, 2, 1)
    receipt = bench.apply(tx, kp)
    assert receipt.status == "applied"
    assert receipt.fee_paid == 200
    assert receipt.gas_used == 100
    assert bench.balance("miner") == 100 * DSD + 200


def test_contract_create_address_definition(bench):
    owner = bench.addr("alice")
    assert txmod.contract_address(owner, 5) == txmod.contract_address(owner, 5)
    assert txmod.contract_address(owner, 5) != txmod.contract_address(owner, 6)
    import hashlib

    expected = hashlib.sha256(owner + (5).to_bytes(8, "big")).digest()
    assert txmod.contract_address(owner, 5) == expected


def _create_contract(bench, owner_name="alice", code="PUSH 1\nSTOP", deposit=1000,
                     amount=500, gas=50, gas_price=2, call_data=()):
    kp = bench.key(owner_name)
    counter = bench.counter(owner_name)
    tx = txmod.ContractCreate(
        kp.address, assemble(code), 1, deposit, amount, gas, gas_price,
        tuple(call_data), gas * gas_price, counter,
    )
    receipt = bench.apply(tx, kp)
    return receipt, txmod.contract_address(kp.address, counter)


def test_contract_create_holds_deposit_and_amount(bench):
    receipt, address = _create_contract(bench)
    assert receipt.status == "applied"
    account = bench.state.accounts[address]
    assert account.kind == CONTRACT
    assert account.balance == 1500
    # constructor ran 2 instructions at price 2; 48 unused gas refunded
    assert receipt.gas_used == 2
    assert receipt.fee_paid == 4
    assert bench.balance("alice") == 100 * DSD - 1500 - 4
    assert bench.conservation_ok()


def test_spend_to_contract_rejected(bench):
    _, address = _create_contract(bench)
    kp = bench.key("bob")
    tx = txmod.Spend(kp.address, address, 100, 5, 1)
    with pytest.raises(TxError) as err:
        txmod.check_tx(bench.state, txmod.sign_tx(tx, kp))
    assert err.value.code == "SpendToContract"


def test_failing_call_reverts_value_but_pays_full_fee(bench):
    _, address = _create_contract(bench, code="FAIL")
    # creation reverted? no: constructor is "FAIL" -> creation itself reverts
    assert address not in bench.state.accounts
    # now create a contract whose body fails only when called with input 0
    receipt, address = _create_contract(bench, code="NOT\nNOT\nSTOP", call_data=(1,))
    assert receipt.status == "applied"
    kp = bench.key("bob")
    tx = txmod.ContractCall(
        kp.address, address, 250, gas=10, gas_price=3, call_data=(), fee=30, counter=1
    )
    before = bench.balance("bob")
    receipt = bench.apply(tx, kp)
    assert receipt.status == "reverted"  # NOT on an empty stack traps
    assert receipt.fee_paid == 30
    assert bench.balance("bob") == before - 30
    assert bench.state.accounts[address].balance == 1500  # amount returned
    assert bench.conservation_ok()


def test_partial_gas_refund(bench):
    # call halting after 4 of 10 gas: refund 6*price, miner keeps 4*price
    _, address = _create_contract(bench, code="PUSH 1\nPUSH 2\nADD\nSTOP")
    kp = bench.key("bob")
    miner_before = bench.balance("miner")
    bob_before = bench.balance("bob")
    tx = txmod.ContractCall(
        kp.address, address, 0, gas=10, gas_price=3, call_data=(), fee=30, counter=1
    )
    receipt = bench.apply(tx, kp)
    assert receipt.status == "applied"
    assert receipt.gas_used == 4
    assert receipt.fee_paid == 12
    assert bench.balance("miner") == miner_before + 12
    assert bench.balance("bob") == bob_before - 12
    assert bench.conservation_ok()


@pytest.mark.parametrize("target", ["carol", "absent"])
def test_a_call_to_an_account_without_code_reverts_and_pays_its_gas(bench, target):
    # README: a ContractCall always runs code; one to an account without
    # code, or to no account, reverts with NotFound and pays gas * gas_price
    # like any other revert, and what it would send stays with the caller
    kp = bench.key("alice")
    address = bench.addr("carol") if target == "carol" else hash256(b"no account here")
    alice, carol, miner = bench.balance("alice"), bench.balance("carol"), bench.balance("miner")
    tx = txmod.ContractCall(kp.address, address, 700, gas=5, gas_price=1, call_data=(), fee=5, counter=1)
    receipt = bench.apply(tx, kp)
    assert (receipt.status, receipt.reason, receipt.gas_used, receipt.fee_paid) == ("reverted", "NotFound", 5, 5)
    assert bench.balance("miner") == miner + 5
    assert bench.balance("alice") == alice - 5
    assert bench.balance("carol") == carol
    assert (address in bench.state.accounts) == (target == "carol")
    assert bench.state.accounts[kp.address].counter == 1
    assert bench.conservation_ok()


def test_name_claim_and_reclaim(bench):
    kp = bench.key("alice")
    target = bench.addr("bob")
    tx = txmod.NameClaim(kp.address, "plant-7", target, 5, 1)
    assert bench.apply(tx, kp).status == "applied"
    assert bench.state.resolve_name("plant-7") == target
    # second claim by someone else reverts and leaves the original
    kp2 = bench.key("carol")
    tx2 = txmod.NameClaim(kp2.address, "plant-7", bench.addr("carol"), 5, 1)
    receipt = bench.apply(tx2, kp2)
    assert receipt.status == "reverted"
    assert bench.state.resolve_name("plant-7") == target


def test_delete_account_and_recreate(bench):
    cfg = bench.cfg
    # drain bob to zero, delete, then a fresh account reuses the address
    bob = bench.key("bob")
    tx = spend(bench, "bob", "alice", 100 * DSD - 5, 5)
    assert bench.apply(tx, bob).status == "applied"
    assert bench.balance("bob") == 0
    pool_before = bench.state.pool.endowment
    kp = bench.key("alice")
    del_tx = txmod.AccountDelete(kp.address, bob.address, 3, bench.counter("alice"))
    receipt = bench.apply(del_tx, kp)
    assert receipt.status == "applied"
    assert bob.address not in bench.state.accounts
    assert bench.state.pool.endowment == pool_before - cfg.delete_reward
    assert bench.conservation_ok()
    # recreate by spending to the address: fresh counter
    tx = spend(bench, "alice", "bob", 1000, 5)
    assert bench.apply(tx, kp).status == "applied"
    assert bench.state.accounts[bob.address].counter == 0


def test_account_delete_settles_its_targets_maintenance_first():
    # dave owes all 12 units it holds as maintenance, so settled it holds 0 and is deleted
    bench = Bench(make_cfg("maintenance.rate = 3\n"))
    dave = KeyPair.from_name("dave")
    assert bench.apply(spend(bench, "alice", "dave", 12, 1), bench.key("alice")).status == "applied"
    bench.advance(4)
    delete = txmod.AccountDelete(bench.addr("bob"), dave.address, 1, bench.counter("bob"))
    assert bench.apply(delete, bench.key("bob")).status == "applied"
    assert dave.address not in bench.state.accounts


def test_delete_nonzero_balance_reverts(bench):
    kp = bench.key("alice")
    del_tx = txmod.AccountDelete(kp.address, bench.addr("bob"), 3, 1)
    receipt = bench.apply(del_tx, kp)
    assert receipt.status == "reverted"
    assert bench.addr("bob") in bench.state.accounts


def test_maintenance_charged_on_touch():
    cfg = make_cfg("maintenance.rate = 2\n")
    bench = Bench(cfg, height=11)
    burned_before = bench.state.burned_total
    receipt = bench.apply(spend(bench, "alice", "bob", 100, 5), bench.key("alice"))
    assert receipt.status == "applied"
    # alice and bob both pay 11 blocks * rate 2; the miner pays as well on credit
    assert bench.state.burned_total >= burned_before + 2 * 22
    assert bench.conservation_ok()


def test_a_fee_equal_to_the_whole_balance_is_taken(bench):
    # a sender may pay its whole balance as the fee, and not one unit more
    dave = KeyPair.from_name("dave")
    assert bench.apply(spend(bench, "alice", "dave", 20, 1), bench.key("alice")).status == "applied"
    over = txmod.sign_tx(txmod.DataOnly(dave.address, b"abcdefg", 3, 1), dave)  # fee 21
    with pytest.raises(TxError) as err:
        txmod.check_tx(bench.state, over)
    assert err.value.code == "InsufficientForFee"
    whole = txmod.sign_tx(txmod.DataOnly(dave.address, b"abcd", 5, 1), dave)  # fee 20
    txmod.check_tx(bench.state, whole)
    assert bench.apply(whole).status == "applied"
    assert bench.balance("dave") == 0
    assert bench.conservation_ok()


def test_a_fee_equal_to_the_balance_left_after_maintenance_is_taken():
    # maintenance is charged first; the fee may then take all that is left
    bench = Bench(make_cfg("maintenance.rate = 3\n"))
    dave = KeyPair.from_name("dave")
    assert bench.apply(spend(bench, "alice", "dave", 20, 1), bench.key("alice")).status == "applied"
    bench.advance(5)  # 15 maintenance leaves 5
    tx = txmod.DataOnly(dave.address, b"a", 5, 1)  # fee 5
    assert bench.apply(tx, dave).status == "applied"
    assert bench.balance("dave") == 0
    assert bench.conservation_ok()


# dave holds 100, owes 5 blocks of maintenance at rate 3 and pays a fee of 4,
# so 81 is left to send: a Spend's or a ContractCall's amount, escrowed with
# the fee, or a ContractCreate's deposit and amount, debited after it
ESCROW_LEFT = 100 - 15 - 4
SENDS = ["Spend", "ContractCall", "ContractCreate"]


def _send_from_dave(kind, amount):
    """Apply dave's one tx that sends ``amount``: a Spend to the absent erin,
    a ContractCall to a contract, or a ContractCreate with a deposit of 1.
    Each contract run takes all 4 of the tx's gas, and every other account it
    touches is fresh, so only dave's maintenance is due. Returns the bench,
    the receipt, the recipient's address and its balance and the burned
    total before the tx."""
    bench = Bench(make_cfg("maintenance.rate = 3\n"))
    dave = KeyPair.from_name("dave")
    assert bench.apply(spend(bench, "alice", "dave", 100, 1), bench.key("alice")).status == "applied"
    bench.advance(5)
    code = "PUSH 1\nPUSH 2\nADD\nSTOP"
    created, contract = _create_contract(bench, code=code)
    assert created.status == "applied"
    if kind == "Spend":
        target = bench.addr("erin")
        tx = txmod.Spend(dave.address, target, amount, 4, 1)
    elif kind == "ContractCall":
        target = contract
        tx = txmod.ContractCall(dave.address, target, amount, gas=4, gas_price=1, call_data=(), fee=4, counter=1)
    else:
        target = txmod.contract_address(dave.address, 1)
        tx = txmod.ContractCreate(dave.address, assemble(code), 1, 1, amount - 1, 4, 1, (), 4, 1)
    held = bench.state.accounts[target].balance if target in bench.state.accounts else 0
    burned = bench.state.burned_total
    return bench, bench.apply(tx, dave), target, held, burned


@pytest.mark.parametrize("kind", SENDS)
def test_a_send_may_take_all_that_the_fee_and_maintenance_leave(kind):
    bench, receipt, target, held, burned = _send_from_dave(kind, ESCROW_LEFT)
    assert (receipt.status, receipt.fee_paid) == ("applied", 4)
    assert bench.balance("dave") == 0
    assert bench.state.accounts[target].balance == held + ESCROW_LEFT
    assert bench.state.burned_total == burned + 15
    assert bench.conservation_ok()


@pytest.mark.parametrize("kind", SENDS)
def test_a_send_one_unit_over_reverts_and_charges_the_fee_envelope_once(kind):
    bench, receipt, target, held, burned = _send_from_dave(kind, ESCROW_LEFT + 1)
    assert (receipt.status, receipt.reason, receipt.fee_paid) == ("reverted", "InsufficientFunds", 4)
    dave = bench.state.accounts[bench.addr("dave")]
    assert (dave.balance, dave.counter, dave.freshness) == (ESCROW_LEFT, 1, bench.height)
    recipient = bench.state.accounts.get(target)
    assert (recipient.balance if recipient else 0) == held  # the amount stays with dave
    assert bench.state.burned_total == burned + 15
    assert bench.conservation_ok()


# sha256 of encode() and signing_bytes() for each signed example below.
# Field order is the wire order, a consensus rule: a refactor of the codec
# must leave every digest unchanged.
WIRE_DIGESTS = {
    "Spend": (
        "03a2566672575fe5b85e03a179a2a3a80fa79498b781c4b1abf7790acffa2719",
        "fc414300f3022c2a05acb606cc0880e9d2346a2a87e300cd4e33c91120b1bdf7",
    ),
    "ContractCreate": (
        "e8c5151354a3f2d3d15f81e8ead484c8aa0a59566cebd4cccf7ec1584330114a",
        "55521bbcfb2eb84e620ade70eb178e7bb8ebef79b640922eaed8952cb3e498c8",
    ),
    "ContractCall": (
        "9a70397ff0bce2d8ee7af1c00228868de37f06e725d6344a8c212149ee534460",
        "6a2611d97207667ba5b6001668fc29bc5d4ffcdab424019cdd9f84420b1f2804",
    ),
    "DataOnly": (
        "1bb980c08ac7756990799e6c2e093feecd3a1e230c4ed195d77fa59f0dbee244",
        "4fc4629803b241a8a0797f0ff26ad27696217484f8557e622aaaf415c8324160",
    ),
    "NameClaim": (
        "d615f1adde895d0fc11228ea624ab8d33d0cfab4c5da152d07627a384f3b6db9",
        "0db218b6b0c17e7c13469cf966ba51cac27afe19be9dd49aef84a361f4fa80e1",
    ),
    "AccountDelete": (
        "8c1947968cab7fb73cdfda08cacc7fbe73c98462a7fd4275eb98e0dea2bbf612",
        "9ad38e4284cca2137562e62c98532763d352f0997ad34d41ea9edd67e810e141",
    ),
    "ChannelOpen": (
        "29f147ff7f7a784a4b07e54296265ea4d3466f6f25bb85f3e35107e6a2ebfaab",
        "7e545ca2b9a2ade354ad3c219cb5975257d85dc09c4b889a5aae708bbe87de83",
    ),
    "ChannelCloseCoop": (
        "ecc4a6e51d32e486aff6d555158baebc020f9a3701f535745afe812affd5a5a9",
        "beb4455e627c02fd4427f9c985b3726041f56e70457607f288198a07389df9f1",
    ),
    "ChannelClose": (
        "29c402fe04c1f898bf6fcab285b62bcbb6bb3c45775af104beae630eb477fb8f",
        "8503433845e7070948941eeea645e562e48b0c5fffb31be2011ed03f60a2c7e0",
    ),
    "ChannelChallenge": (
        "43f773295e797b34e74c51862c2f31f36a1e0fc395a62d30d120b3a749b5edae",
        "de301bc2f0e05467f6fb45d9d8486844b8ec95470cc3258bfa39e421887e175c",
    ),
    "ChannelFinalize": (
        "b2c054256fca756a002af65f6e4e214c1982db2c0c341c4b5da36b8597378806",
        "50e2834db269f0ba43b4e4fd627c6f00eab8e6313cb4082482d318849ea971f7",
    ),
    "OracleRegister": (
        "fbee1cabddf78a93a9ac6c079bc45ec0e282c305095bbd3baa893aef2b8bb6c0",
        "388d46fc15190350020dec0534318626b9efa3aef8c816ef0240d867e5549857",
    ),
    "OracleAnswer": (
        "3e835a9f35b973fef34a7814fe8410b0e3e5495627439ed8cc66d11549772a59",
        "b0c6d3b84011925579423abd5ad43c4d8eb1ff9384fe0f5ae762dda2084a1d29",
    ),
    "OracleCounter": (
        "66a489bbcf8cb98ab7eb9b69b7aeab99050031a332fdbc80d4bc8c4734dabb73",
        "375d7b9682e30f23f264f799588b84e008430e334f0f53645a0bcf70a00698f5",
    ),
    "OracleVote": (
        "95438d191aad58de96a1a385f69aa144e77416189260fbf4f017e51bd0413b12",
        "00e1aed608b754e4e8c163345df8fd887d05370c19c0cb196761d2b729db7d1a",
    ),
    "OracleResolve": (
        "d09eea4d9bcc9e2b538e085d53f9467f217adb62ce76356a1939d6b8dc265436",
        "7469a09300b0fee33390166fae4b0f5619881fdf0483a67073dfa9d5cc927c5b",
    ),
    "StorageCreate": (
        "6bd9482de0d127b11077f8fab2c48ca6df6f43b17adaee3e61dff94c3f2fd752",
        "0e5a0c045404c0ca3d239f8384d25f9464eca8ca1e8d8851ac15db066ffa5486",
    ),
    "StorageProof": (
        "ed9d95e95285bcbba1d2ea667560a6d912fe856cabb535f81a998e35bf42f838",
        "c4f9945708c69d3e5e66aad69127c16aa11123b1cc1c7a4581384e6134ec24b8",
    ),
    "StorageClose": (
        "2482634136a7ff53037201d8d41421e0276d7a585a064b1dfb93578761d1b58f",
        "796e1a470fe39576ae024a9d4d202dd4b707f86d061132019cc70d66b2e9790b",
    ),
    "AzCreate": (
        "a744a70379e2b35ec13f04fc8a733ef7d93d49b43d211de721c0e13704666589",
        "23652f15cef6369304f743e856d076c9847e55ccc015d67886dca8be0ec3f957",
    ),
    "AzJoin": (
        "48c3ed04993769c276ee156bfc0968e4c9511918c7ba6f59e78b2f13459825e7",
        "1c1fe3938378c2fdb4513f005b42088f713018225b66cd470e875d031129572e",
    ),
    "AzRefer": (
        "2eb3882d6f2b44a41deca5473ffc49c1371c7be105e6a82af83321747e6e96f9",
        "f0ce27be473b4433b6070bb81cb72fa3059664a7afa2aa573f5ef415eb949a58",
    ),
    "EpochTx": (
        "e653b9fcf247c30934280919d6df6c5836f386522fead02870a8c6f5e3e49860",
        "e653b9fcf247c30934280919d6df6c5836f386522fead02870a8c6f5e3e49860",
    ),
}


# nested records carried by tx kinds; the examples and the strategies share them
PROGRAM = assemble("PUSH 1\nSTOP")
SIGNED_STATE = SignedState(b"\x01" * 32, 2, 600, 400, None, (1, 2))
PROOF = MerkleProof(1, (b"\x06" * 32,))
REPORT = EpochReport(
    1, (Fraction(1, 2), Fraction(1, 2)),
    (AZFactors(b"\x08" * 32, (3, 4)),),
    (UserContribution(b"\x08" * 32, KeyPair.from_name("alice").address, Fraction(1), Fraction(1, 2),
                      (WorkItem(Fraction(1), Fraction(1, 2), Fraction(1), (Fraction(1, 4),)),)),),
)


def test_tx_encode_round_trip_all_kinds(bench):
    alice, bob = bench.key("alice"), bench.key("bob")
    program, ss = PROGRAM, SIGNED_STATE
    examples = [
        txmod.Spend(alice.address, bob.address, 5, 1, 1),
        txmod.ContractCreate(alice.address, program, 1, 10, 20, 5, 2, (1, -2), 10, 1),
        txmod.ContractCall(alice.address, bob.address, 5, 5, 2, (3,), 10, 1),
        txmod.DataOnly(alice.address, b"payload", 2, 1),
        txmod.NameClaim(alice.address, "plant-7", b"\x03" * 32, 1, 1),
        txmod.AccountDelete(alice.address, bob.address, 1, 1),
        txmod.ChannelOpen(alice.address, bob.address, 600, 400, 1, 1),
        txmod.ChannelCloseCoop(alice.address, b"\x01" * 32, ss, None, 1, 1),
        txmod.ChannelClose(alice.address, b"\x01" * 32, None, program, 1, 1),
        txmod.ChannelChallenge(alice.address, b"\x01" * 32, ss, None, 1, 1),
        txmod.ChannelFinalize(alice.address, b"\x01" * 32, None, None, 1, 1),
        txmod.OracleRegister(alice.address, b"\x02" * 32, 5, 9, 1, 1),
        txmod.OracleAnswer(alice.address, b"\x02" * 32, True, 1, 1),
        txmod.OracleCounter(alice.address, b"\x02" * 32, 1, 1),
        txmod.OracleVote(alice.address, b"\x02" * 32, False, 1, 1),
        txmod.OracleResolve(alice.address, b"\x02" * 32, 1, 1),
        txmod.StorageCreate(alice.address, bob.address, b"\x04" * 32, 4, 16, 5, 10, 100, 1, 1),
        txmod.StorageProof(alice.address, b"\x05" * 32, b"chunk", PROOF, 1, 1),
        txmod.StorageClose(alice.address, b"\x05" * 32, 1, 1),
        txmod.AzCreate(alice.address, 50, 1, 1),
        txmod.AzJoin(alice.address, b"\x07" * 32, 1, 1),
        txmod.AzRefer(alice.address, bob.address, b"\x07" * 32, 1, 1),
        txmod.EpochTx(REPORT),
    ]
    seen_tags = set()
    for tx in examples:
        if isinstance(tx, txmod.ChannelOpen):
            tx = dataclasses.replace(tx, sig_b=bob.sign(tx.signing_bytes()))
        if not isinstance(tx, txmod.EpochTx):
            tx = txmod.sign_tx(tx, alice)
        enc = tx.encode()
        assert txmod.decode_tx(enc) == tx
        assert txmod.decode_tx(enc).encode() == enc
        name = type(tx).__name__
        assert hashlib.sha256(enc).hexdigest() == WIRE_DIGESTS[name][0], name
        assert hashlib.sha256(tx.signing_bytes()).hexdigest() == WIRE_DIGESTS[name][1], name
        seen_tags.add(tx.TAG)
    assert seen_tags == {cls.TAG for cls in txmod.TX_KINDS}


# one strategy per field codec; nested records come from the fixed examples
FIELD_STRATEGIES = {
    codec.U8: st.integers(0, 2**8 - 1),
    codec.U64: st.integers(0, 2**64 - 1),
    codec.Bytes32: st.binary(min_size=32, max_size=32),
    codec.Sig: st.binary(min_size=64, max_size=64),
    codec.Blob: st.binary(max_size=40),
    codec.Text: st.text(max_size=12),
    codec.Flag: st.booleans(),
    codec.I64s: st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4).map(tuple),
}
RECORDS = {Program: PROGRAM, SignedState: SIGNED_STATE, MerkleProof: PROOF, EpochReport: REPORT}


def _field_strategy(hint):
    if hint in FIELD_STRATEGIES:
        return FIELD_STRATEGIES[hint]
    record_type = typing.get_args(hint)[0]
    if record_type in RECORDS:
        return st.just(RECORDS[record_type])
    inner = next(t for t in typing.get_args(record_type) if t is not type(None))
    return st.sampled_from([None, RECORDS[inner]])


def _kind_strategy(cls):
    hints = typing.get_type_hints(cls, include_extras=True)
    return st.builds(cls, *[_field_strategy(hints[name]) for name, *_ in cls._FIELDS])


class _Padded:
    """A nested record whose encoding carries one extra byte; the writer
    length-prefixes it, so only the nested expect_end can catch it."""

    def __init__(self, record):
        self.record = record

    def encode(self) -> bytes:
        return self.record.encode() + b"\x00"


@settings(max_examples=300, deadline=None)
@given(st.one_of([_kind_strategy(cls) for cls in txmod.TX_KINDS]))
def test_decode_tx_round_trips_and_rejects_malformed_bytes(tx):
    enc = tx.encode()
    decoded = txmod.decode_tx(enc)
    assert decoded == tx
    assert decoded.encode() == enc
    sigs = {name: ZERO_SIG for name, codec in tx._FIELDS if codec.is_sig}
    assert tx.signing_bytes() == dataclasses.replace(tx, **sigs).encode()
    for cut in range(len(enc)):
        with pytest.raises(CodecError):
            txmod.decode_tx(enc[:cut])
    with pytest.raises(CodecError):
        txmod.decode_tx(enc + b"\x00")
    for name, *_ in tx._FIELDS:
        record = getattr(tx, name)
        if type(record) in RECORDS:
            with pytest.raises(CodecError):
                txmod.decode_tx(dataclasses.replace(tx, **{name: _Padded(record)}).encode())


@settings(max_examples=300, deadline=None)
@given(st.one_of([_kind_strategy(cls) for cls in txmod.TX_KINDS]), st.data())
def test_decode_tx_accepts_only_its_own_encodings(tx, data):
    # decoding is canonical: whatever decode_tx accepts re-encodes to itself,
    # so a decoded tx may keep the hash of the bytes it came from
    enc = bytearray(tx.encode())
    for _ in range(data.draw(st.integers(1, 3))):
        enc[data.draw(st.integers(0, len(enc) - 1))] = data.draw(st.integers(0, 255))
    try:
        decoded = txmod.decode_tx(bytes(enc))
    except CodecError:
        return
    assert txmod.encode_tx(decoded) == enc


def test_apply_block_empty_only_coinbase():
    cfg = make_cfg()
    state, genesis = txmod.genesis_block(cfg)
    miner = KeyPair.from_name("miner").address
    block = txmod.build_block(state, [], miner, genesis.header)
    new_state, receipts = txmod.apply_block(state, block)
    assert receipts == []
    expected = pow.coinbase(1, cfg)
    assert new_state.held("accounts") == state.held("accounts") + expected
    assert new_state.account_root() != state.account_root()
    src, snk = new_state.conservation_sides()
    assert src == snk


def test_genesis_mining_that_exhausts_its_nonce_budget_is_refused():
    cfg = make_cfg("pow.target_hex = " + "00" * 32 + "\npow.nonce_budget = 1\n")  # no digest clears it
    with pytest.raises(BlockError) as err:
        txmod.genesis_block(cfg)
    assert err.value.code == "BadPow"


def test_a_genesis_block_carries_no_transactions():
    # README: the genesis block carries no transactions, so the miner drops
    # every candidate at height 0 and the validator refuses a genesis block
    # that carries one
    cfg = make_cfg()
    state = ChainState.genesis(cfg)
    alice = KeyPair.from_name("alice")
    spend = txmod.sign_tx(txmod.Spend(alice.address, KeyPair.from_name("bob").address, 5, 1, 1), alice)
    block = txmod.build_block(state, [spend], alice.address, prev_header=None)
    assert block.transactions == ()
    assert txmod.apply_block(state, block)[0].accounts[alice.address].balance == 100 * DSD
    stuffed = dataclasses.replace(block, header=dataclasses.replace(block.header, tx_count=1),
                                  transactions=(spend,))
    with pytest.raises(BlockError, match="genesis carries no transactions"):
        txmod.apply_block(state, stuffed)


def test_apply_block_conservation_with_spend():
    cfg = make_cfg()
    state, genesis = txmod.genesis_block(cfg)
    miner = KeyPair.from_name("miner").address
    alice = KeyPair.from_name("alice")
    tx = txmod.sign_tx(
        txmod.Spend(alice.address, KeyPair.from_name("bob").address, 123, 7, 1), alice
    )
    block = txmod.build_block(state, [tx], miner, genesis.header)
    assert len(block.transactions) == 1
    new_state, receipts = txmod.apply_block(state, block)
    assert sum(a.balance for a in new_state.accounts.values()) == (
        sum(a.balance for a in state.accounts.values()) + pow.coinbase(1, cfg)
    )


def test_a_block_fills_each_senders_places_in_counter_order():
    # README: txs are ranked by fee density, then tx hash, and each sender's
    # txs fill the places its txs got, lowest counter first. By fee alone the
    # order is alice's 50, bob's 40, alice's 30 and alice's 1
    state, genesis = txmod.genesis_block(make_cfg())
    alice, bob = KeyPair.from_name("alice"), KeyPair.from_name("bob")
    hers = [txmod.sign_tx(txmod.Spend(alice.address, bob.address, 1, fee, counter), alice)
            for counter, fee in ((1, 1), (2, 50), (3, 30))]
    his = txmod.sign_tx(txmod.Spend(bob.address, alice.address, 1, 40, 1), bob)
    block = txmod.build_block(state, [*hers, his], alice.address, genesis.header)
    assert list(block.transactions) == [hers[0], his, hers[1], hers[2]]


def test_a_miner_does_not_see_its_own_blocks_fees_until_the_block_closes():
    # README: a block's fees reach its miner when the block closes. dave
    # holds only the coinbase, so his tx can pay its fee only out of the fee
    # alice's tx pays earlier in the same block
    cfg = make_cfg("coinbase.initial = 5\n")
    state, genesis = txmod.genesis_block(cfg)
    alice, dave = KeyPair.from_name("alice"), KeyPair.from_name("dave")
    paid = txmod.sign_tx(txmod.Spend(alice.address, dave.address, 0, 50, 1), alice)
    own = txmod.sign_tx(txmod.Spend(dave.address, alice.address, 0, 6, 1), dave)
    block = txmod.build_block(state, [paid, own], dave.address, genesis.header)
    assert block.transactions == (paid,)
    applied, receipts = txmod.apply_block(state, block)
    assert [r.fee_paid for r in receipts] == [50]
    assert applied.accounts[dave.address].balance == 5 + 50
    stuffed = dataclasses.replace(block, header=dataclasses.replace(block.header, tx_count=2),
                                  transactions=(paid, own))
    with pytest.raises(BlockError, match="BadTx.*InsufficientForFee"):
        txmod.apply_block(state, stuffed)


def test_an_unanswered_question_resolved_in_a_block_burns_its_deposit():
    # README: resolved unanswered, a question burns its deposit from end + 1
    # on; the block moves it from the oracle store to burned_total, and the
    # block's conservation check holds over that move
    cfg = make_cfg()
    state, genesis = txmod.genesis_block(cfg)
    alice, carol = KeyPair.from_name("alice"), KeyPair.from_name("carol")
    miner = KeyPair.from_name("miner").address
    ask = txmod.sign_tx(txmod.OracleRegister(alice.address, hash256(b"q"), 1, 2, 1, 1), alice)
    question_id = oracles.question_id_for(alice.address, 1, hash256(b"q"))
    resolve = txmod.sign_tx(txmod.OracleResolve(carol.address, question_id, 1, 1), carol)
    header = genesis.header
    for txs in ([ask], [], [resolve]):
        block = txmod.build_block(state, txs, miner, header)
        assert block.transactions == tuple(txs)
        parent = state
        state, receipts = txmod.apply_block(state, block)
        assert [r.status for r in receipts] == ["applied"] * len(txs)
        header = block.header
    deposit = oracles.window_deposit(1, 2, cfg)
    assert state.oracles[question_id].phase == "burned"
    assert state.burned_total == parent.burned_total + deposit
    assert state.held("oracles") == parent.held("oracles") - deposit


def test_a_lone_apply_tx_credits_the_miner_before_it_returns(bench):
    # applied alone, a tx settles as a block of one: when the call returns,
    # the miner holds the fee and the journal the call opened is closed
    alice = bench.key("alice")
    miner, payer = bench.balance("miner"), bench.balance("alice")
    receipt = bench.apply(txmod.Spend(alice.address, bench.addr("bob"), 7, 9, 1), alice)
    assert receipt.fee_paid == 9
    assert bench.balance("miner") == miner + 9
    assert bench.balance("alice") == payer - 7 - 9
    assert all(getattr(bench.state, name).log is None for name in _STORES)
    assert bench.conservation_ok()


def test_proof_root_commits_only_applied_possession_proofs():
    # two contracts over the same data, challenged every 2 and every 3
    # blocks: at height 2 the first one's proof pays and the second's reverts
    cfg = make_cfg()
    state, genesis = txmod.genesis_block(cfg)
    alice, bob, carol = (KeyPair.from_name(n) for n in ("alice", "bob", "carol"))
    miner = KeyPair.from_name("miner").address
    chunks, root = storage.commit_data(b"0123456789abcdef", 4)
    creates = [
        txmod.sign_tx(txmod.StorageCreate(
            kp.address, bob.address, root, len(chunks), 4, period, 50, 200, 1, 1), kp)
        for kp, period in ((alice, 2), (carol, 3))
    ]
    block1 = txmod.build_block(state, creates, miner, genesis.header)
    state1, _ = txmod.apply_block(state, block1)
    prev = block1.header.block_hash()
    ids = [storage.contract_id_for(kp.address, 1) for kp in (alice, carol)]
    index = [storage.challenge_index(prev, cid, len(chunks)) for cid in ids]
    proofs = [
        txmod.sign_tx(txmod.StorageProof(
            kp.address, cid, chunks[i], merkle_prove(chunks, i), 1, counter), kp)
        for kp, counter, cid, i in ((bob, 1, ids[0], index[0]), (alice, 2, ids[1], index[1]))
    ]
    block2 = txmod.build_block(state1, proofs, miner, block1.header)
    _, receipts = txmod.apply_block(state1, block2)
    status = {r.tx_hash: r.status for r in receipts}
    assert [status.get(p.digest()) for p in proofs] == ["applied", "reverted"]
    paid = storage.ProofLeaf(ids[0], 2, index[0], hash256(chunks[index[0]]))
    assert block2.header.proof_root == tree_root([paid.digest()])


def test_apply_block_encodes_no_decoded_tx(monkeypatch):
    # a decoded tx keeps the hash of the bytes it came from, so no tx is
    # encoded at all, let alone twice
    cfg = make_cfg()
    state, genesis = txmod.genesis_block(cfg)
    miner = KeyPair.from_name("miner").address
    alice, bob, carol = (KeyPair.from_name(n) for n in ("alice", "bob", "carol"))
    txs = [
        txmod.sign_tx(txmod.Spend(alice.address, bob.address, 123, 7, 1), alice),
        txmod.sign_tx(txmod.Spend(bob.address, alice.address, 10**12, 5, 1), bob),  # reverts
        txmod.sign_tx(txmod.DataOnly(carol.address, b"log", 2, 1), carol),
    ]
    block = txmod.build_block(state, txs, miner, genesis.header)
    assert len(block.transactions) == 3
    fresh = Block.read(codec.Reader(block.encode()))  # txs as a replay decodes them
    assert [t.digest() for t in fresh.transactions] == [hash256(t.encode()) for t in block.transactions]
    replay = Block.read(codec.Reader(block.encode()))  # no digest asked of these yet
    calls = []
    encode = codec.WireRecord.encode
    monkeypatch.setattr(codec.WireRecord, "encode", lambda record: calls.append(record) or encode(record))
    _, receipts = txmod.apply_block(state, replay)
    assert sorted(r.status for r in receipts) == ["applied", "applied", "reverted"]
    assert [record for record in calls if isinstance(record, txmod.TxBase)] == []


def test_applying_a_decoded_contract_create_encodes_its_program_once(bench, monkeypatch):
    # the signature check encodes the tx, program and all; the code hash is
    # the digest the program kept from the bytes it was decoded from
    alice = bench.key("alice")
    tx = txmod.ContractCreate(alice.address, PROGRAM, 1, 10, 20, 5, 2, (1, -2), 10, bench.counter("alice"))
    decoded = txmod.decode_tx(txmod.sign_tx(tx, alice).encode())
    calls = []
    encode = codec.WireRecord.encode
    monkeypatch.setattr(codec.WireRecord, "encode", lambda record: calls.append(record) or encode(record))
    assert bench.apply(decoded).status == "applied"
    assert [record for record in calls if isinstance(record, Program)] == [decoded.code]
    assert bench.state.code[decoded.code.code_hash()] == PROGRAM


def test_apply_block_clones_once_and_keeps_no_journal(monkeypatch):
    # a tx rolls back through the undo journal; only the block copies the state
    cfg = make_cfg()
    state, genesis = txmod.genesis_block(cfg)
    miner = KeyPair.from_name("miner").address
    alice, bob, carol = (KeyPair.from_name(n) for n in ("alice", "bob", "carol"))
    txs = [
        txmod.sign_tx(txmod.Spend(alice.address, bob.address, 123, 7, 1), alice),
        txmod.sign_tx(txmod.Spend(bob.address, alice.address, 10**12, 5, 1), bob),  # reverts
        txmod.sign_tx(txmod.DataOnly(carol.address, b"log", 2, 1), carol),
        txmod.sign_tx(txmod.Spend(alice.address, carol.address, 9, 3, 2), alice),
    ]
    block = txmod.build_block(state, txs, miner, genesis.header)
    assert len(block.transactions) == 4
    fresh = Block.read(codec.Reader(block.encode()))
    calls = []
    clone = ChainState.clone
    monkeypatch.setattr(ChainState, "clone", lambda self: calls.append(self) or clone(self))
    applied, receipts = txmod.apply_block(state, fresh)
    assert sorted(r.status for r in receipts) == ["applied", "applied", "applied", "reverted"]
    assert calls == [state]
    assert all(getattr(applied, name).log is None for name in _STORES)


def test_apply_block_stale_root_rejected():
    cfg = make_cfg()
    state, genesis = txmod.genesis_block(cfg)
    miner = KeyPair.from_name("miner").address
    block = txmod.build_block(state, [], miner, genesis.header)
    bad_header = dataclasses.replace(block.header, account_root=b"\x01" * 32)
    with pytest.raises(BlockError) as err:
        txmod.apply_block(state, dataclasses.replace(block, header=bad_header))
    assert err.value.code == "RootMismatch"


def test_apply_block_rejects_a_wrong_tx_count():
    cfg = make_cfg()
    state, genesis = txmod.genesis_block(cfg)
    alice, bob = KeyPair.from_name("alice"), KeyPair.from_name("bob")
    spend = txmod.sign_tx(txmod.Spend(alice.address, bob.address, 5, 1, 1), alice)
    block = txmod.build_block(state, [spend], KeyPair.from_name("miner").address, genesis.header)
    assert block.header.tx_count == 1
    for count in (0, 2):
        bad_header = dataclasses.replace(block.header, tx_count=count)
        with pytest.raises(BlockError, match="tx_count"):
            txmod.apply_block(state, dataclasses.replace(block, header=bad_header))


def test_a_block_built_past_a_dropped_fresh_account_replays_to_its_roots(monkeypatch):
    """build_block drops a candidate after it credited a fresh account; the
    rolled-back key takes no leaf slot, so apply_block, which never sees
    it, computes the header's roots. The dropped key sorts before the kept
    fresh key, so a slot or an empty leaf left for it would move the root.
    A CodecError at apply drops a tx; a LedgerError reverts it instead, and
    then both txs enter the block and the reverted credit takes no slot."""
    cfg = make_cfg()
    state, genesis = txmod.genesis_block(cfg)
    alice, bob = KeyPair.from_name("alice"), KeyPair.from_name("bob")
    miner = KeyPair.from_name("miner").address
    dropped_to, kept_to = b"\x00" * 31 + b"\x01", b"\xff" * 31 + b"\x01"
    dropped = txmod.sign_tx(txmod.Spend(alice.address, dropped_to, 5, 50, 1), alice)
    kept = txmod.sign_tx(txmod.Spend(bob.address, kept_to, 5, 1, 1), bob)
    apply_inner = txmod._apply_inner

    def failing_after_the_credit(error):
        def failing(st, t, prev_hash):
            gas = apply_inner(st, t, prev_hash)
            if t == dropped:
                assert dropped_to in st.accounts
                raise error
            return gas
        return failing

    monkeypatch.setattr(txmod, "_apply_inner", failing_after_the_credit(CodecError("dropped after the credit")))
    block = txmod.build_block(state, [kept, dropped], miner, genesis.header)
    monkeypatch.undo()
    assert block.transactions == (kept,)
    applied, _ = txmod.apply_block(state, block)
    assert dropped_to not in applied.accounts and kept_to in applied.accounts
    assert applied.account_root() == block.header.account_root
    # the miner and the validator both revert the tx: it is included, the higher fee density first
    monkeypatch.setattr(txmod, "_apply_inner", failing_after_the_credit(LedgerError("BadFormat", "reverted")))
    block = txmod.build_block(state, [kept, dropped], miner, genesis.header)
    assert block.transactions == (dropped, kept)
    applied, receipts = txmod.apply_block(state, block)
    assert [(r.status, r.reason) for r in receipts] == [("reverted", "BadFormat"), ("applied", "")]
    assert dropped_to not in applied.accounts and kept_to in applied.accounts


def test_fee_identity_randomized(bench):
    # randomized mix of gas and flat transactions: miner credit and fee
    # accounting must agree exactly on every receipt
    rng = random.Random(99)
    _, contract = _create_contract(bench, code="PUSH 1\nPUSH 2\nADD\nSTOP")
    names = ["alice", "bob", "carol"]
    total_fees = 0
    miner_start = bench.balance("miner")
    for i in range(200):
        name = rng.choice(names)
        kp = bench.key(name)
        kind = rng.randrange(3)
        counter = bench.counter(name)
        if kind == 0:
            tx = txmod.Spend(kp.address, bench.addr(rng.choice(names)), rng.randrange(0, 1000), rng.randrange(1, 20), counter)
        elif kind == 1:
            gas, price = rng.randrange(1, 30), rng.randrange(1, 5)
            tx = txmod.ContractCall(kp.address, contract, rng.randrange(0, 500), gas, price, (), gas * price, counter)
        else:
            tx = txmod.DataOnly(kp.address, bytes(rng.randrange(0, 40)), rng.randrange(1, 4), counter)
        miner_before = bench.balance("miner")
        receipt = bench.apply(tx, kp)
        assert bench.balance("miner") == miner_before + receipt.fee_paid
        if isinstance(tx, txmod.ContractCall):
            if receipt.status == "applied":
                assert receipt.fee_paid == receipt.gas_used * tx.gas_price
            else:
                assert receipt.fee_paid == tx.gas * tx.gas_price
        total_fees += receipt.fee_paid
        assert bench.conservation_ok()
    assert bench.balance("miner") >= miner_start



def test_apply_block_is_pure():
    cfg = make_cfg()
    state, genesis = txmod.genesis_block(cfg)
    miner = KeyPair.from_name("miner").address
    alice = KeyPair.from_name("alice")
    tx = txmod.sign_tx(
        txmod.Spend(alice.address, KeyPair.from_name("bob").address, 55, 5, 1), alice
    )
    block = txmod.build_block(state, [tx], miner, genesis.header)
    before = state.account_root()
    out1, _ = txmod.apply_block(state, block)
    out2, _ = txmod.apply_block(state, block)
    assert state.account_root() == before  # input untouched
    assert out1.account_root() == out2.account_root()
    assert out1.wormhole_root() == out2.wormhole_root()


def test_apply_tx_transactional_on_inapplicable(bench):
    # a tx that passes check_tx but fails non-revertibly at apply must
    # leave no trace, so miners can probe-and-skip without replay drift
    kp = bench.key("alice")
    bad = txmod.ChannelCloseCoop(kp.address, b"\x01" * 32, None, None, 1, 1)
    root_before = bench.state.account_root()
    with pytest.raises(Exception):
        bench.apply(bad, kp)
    assert bench.state.account_root() == root_before
    assert bench.state.accounts[kp.address].counter == 0


def test_build_block_skips_inapplicable_and_replays(bench):
    cfg = bench.cfg
    state, genesis = txmod.genesis_block(cfg)
    alice = KeyPair.from_name("alice")
    good = txmod.sign_tx(
        txmod.Spend(alice.address, KeyPair.from_name("bob").address, 10, 2, 1), alice
    )
    bad = txmod.sign_tx(
        txmod.ChannelCloseCoop(alice.address, b"\x01" * 32, None, None, 1, 2), alice
    )
    miner = KeyPair.from_name("miner").address
    block = txmod.build_block(state, [good, bad], miner, genesis.header)
    assert len(block.transactions) == 1
    replayed, receipts = txmod.apply_block(state, block)  # roots must match
    assert receipts[0].status == "applied"


def test_miner_and_validator_agree_on_a_codec_error_at_apply():
    # both balances sit at the u64 ceiling, so crediting the spend overflows;
    # parse_config refuses such a supply, so the config is built directly
    u64_max = (1 << 64) - 1
    cfg = dataclasses.replace(parse_config("pow.edge_bits = 8\n"), genesis_accounts=tuple(
        (name, KeyPair.from_name(name).address, u64_max) for name in ("rich", "richer")))
    state, genesis = txmod.genesis_block(cfg)
    rich, richer = KeyPair.from_name("rich"), KeyPair.from_name("richer")
    overflow = txmod.sign_tx(txmod.Spend(rich.address, richer.address, 1, 1, 1), rich)
    miner = KeyPair.from_name("miner").address
    block = txmod.build_block(state, [overflow], miner, genesis.header)
    assert block.transactions == ()
    header = dataclasses.replace(block.header, tx_count=1)
    with pytest.raises(BlockError) as err:
        txmod.apply_block(state, Block(header, (overflow,)))
    assert err.value.code == "BadTx" and "u64" in str(err.value)


def test_decode_tx_rejects_a_nested_program_with_a_bad_header(bench):
    tx = txmod.ContractCreate(bench.key("alice").address, PROGRAM, 1, 10, 20, 5, 2, (1, -2), 10, 1)
    enc = tx.encode()
    at = enc.index(PROGRAM.encode())  # vm_version u8, then instruction count u32
    bad_version = enc[:at] + b"\x02" + enc[at + 1:]
    too_long = enc[:at + 1] + (MAX_PROGRAM_LEN + 1).to_bytes(4, "big") + enc[at + 5:]
    for bad in (bad_version, too_long):
        with pytest.raises(CodecError):
            txmod.decode_tx(bad)


def test_decode_rejects_what_a_record_constructor_refuses():
    from deskchain.ledger import Account

    enc = txmod.EpochTx(EpochReport(1, (Fraction(1, 2), Fraction(1, 2)), (), ())).encode()
    half = (1).to_bytes(8, "big") + (2).to_bytes(8, "big")
    zero_denominator = enc.replace(half, (1).to_bytes(8, "big") + bytes(8), 1)
    three_halves = enc.replace(half, (1).to_bytes(8, "big") + (1).to_bytes(8, "big"), 1)
    for bad in (zero_denominator, three_halves):
        with pytest.raises(CodecError):
            txmod.decode_tx(bad)
    account = Account(b"\x01" * 32, 5).encode()
    kind_at = 32 + 3 * 8  # address, then balance, counter and freshness
    with pytest.raises(CodecError):
        Account.read(codec.Reader(account[:kind_at] + b"\x07" + account[kind_at + 1:]))


def test_a_call_credit_keeps_the_contract_fields_and_stores_a_record_the_constructor_would():
    bench = Bench(make_cfg("maintenance.rate = 2\n"), height=1)
    _, address = _create_contract(bench, code="PUSH 1\nSTOP")
    bench.advance(4)
    kp = bench.key("bob")
    tx = txmod.ContractCall(kp.address, address, 250, gas=10, gas_price=3, call_data=(), fee=30, counter=1)
    assert bench.apply(tx, kp).status == "applied"
    stored = bench.state.accounts[address]
    assert (stored.kind, stored.code_hash) == (CONTRACT, assemble("PUSH 1\nSTOP").code_hash())
    assert (stored.balance, stored.freshness) == (1500 - 4 * 2 + 250, 5)
    rebuilt = Account(address, stored.balance, stored.counter, stored.freshness, stored.kind, stored.code_hash)
    assert stored == rebuilt and stored.digest() == rebuilt.digest()


ABSENT = b"\x0e" * 32  # no account, oracle question, storage contract or AZ has this id


# each tx kind that looks a record up by id, and its fields after the sender
ABSENT_LOOKUPS = {
    txmod.AccountDelete: (ABSENT,),
    txmod.OracleAnswer: (ABSENT, True),
    txmod.OracleCounter: (ABSENT,),
    txmod.OracleVote: (ABSENT, True),
    txmod.OracleResolve: (ABSENT,),
    txmod.StorageProof: (ABSENT, b"chunk", PROOF),
    txmod.StorageClose: (ABSENT,),
    txmod.AzJoin: (ABSENT,),
    txmod.AzRefer: (KeyPair.from_name("bob").address, ABSENT),
}


@pytest.mark.parametrize("kind", list(ABSENT_LOOKUPS), ids=lambda kind: kind.__name__)
def test_a_tx_naming_an_absent_record_reverts_with_not_found(bench, kind):
    alice = bench.key("alice")
    receipt = bench.apply(kind(alice.address, *ABSENT_LOOKUPS[kind], 10, bench.counter("alice")), alice)
    assert (receipt.status, receipt.reason) == (txmod.REVERTED, "NotFound")
    assert bench.conservation_ok()


@pytest.mark.parametrize("report", [
    EpochReport(1, (Fraction(1),), (AZFactors(ABSENT, (1,)),), ()),
    EpochReport(1, (), (), (UserContribution(ABSENT, KeyPair.from_name("alice").address,
                                             Fraction(1), Fraction(1), ()),)),
], ids=["az-row", "user-row"])
def test_an_epoch_tx_row_naming_an_absent_az_is_not_found(bench, report):
    bench.advance(bench.cfg.blocks_per_epoch - bench.height)
    with pytest.raises(LedgerError) as err:
        bench.apply(txmod.EpochTx(report))
    assert err.value.code == "NotFound"
    assert bench.state.pool.epoch_index == 0


# --- check_tx rules, BALANCE on the chain, and repeated ids ---


@pytest.mark.parametrize("gas, gas_price", [(0, 5), (5, 0)], ids=["gas-0", "gas-price-0"])
def test_check_tx_refuses_a_gas_or_gas_price_of_0(bench, gas, gas_price):
    # the fee is gas * gas_price = 0 here, so this rule alone refuses the call
    kp = bench.key("alice")
    tx = txmod.ContractCall(kp.address, bench.addr("bob"), 0, gas, gas_price, (), 0, 1)
    with pytest.raises(TxError) as err:
        txmod.check_tx(bench.state, txmod.sign_tx(tx, kp))
    assert err.value.code == "BadFormat"


def test_check_tx_refuses_a_create_whose_vm_version_is_not_its_programs(bench):
    kp = bench.key("alice")
    tx = txmod.ContractCreate(kp.address, assemble("STOP"), 2, 1000, 0, 10, 1, (), 10, 1)
    with pytest.raises(TxError) as err:
        txmod.check_tx(bench.state, txmod.sign_tx(tx, kp))
    assert err.value.code == "BadFormat"


@pytest.mark.parametrize("party_b, signer_b, code", [
    ("alice", "alice", "BadFormat"), ("bob", "carol", "BadSignature"),
], ids=["channel-to-oneself", "party-b-signature"])
def test_check_tx_refuses_a_channel_open_without_two_consenting_parties(bench, party_b, signer_b, code):
    kp = bench.key("alice")
    tx = txmod.ChannelOpen(kp.address, bench.addr(party_b), 100, 100, 1, 1)
    tx = dataclasses.replace(tx, sig_b=bench.key(signer_b).sign(tx.signing_bytes()))
    with pytest.raises(TxError) as err:
        txmod.check_tx(bench.state, txmod.sign_tx(tx, kp))
    assert err.value.code == code


def test_balance_in_a_contract_call_reads_the_caller_the_contract_and_0(bench):
    # the program halts only if BALANCE of the handle equals the expected
    # value: call data (1, expected, handle) leaves 1 // (BALANCE == expected)
    _, contract = _create_contract(bench, code="BALANCE\nEQ\nDIV\nSTOP", call_data=(1, 0, 2))
    kp = bench.key("bob")
    gas, price, amount = 10, 3, 700

    def call(handle, delta):
        expected = {
            0: bench.balance("bob") - gas * price - amount,  # after the fee and the amount moved
            1: bench.state.accounts[contract].balance + amount,
            2: 0,
        }[handle]
        tx = txmod.ContractCall(kp.address, contract, amount, gas, price, (1, expected + delta, handle),
                                gas * price, bench.counter("bob"))
        return bench.apply(tx, kp).status

    for handle in (0, 1, 2):
        assert call(handle, 1) == "reverted"
        assert call(handle, 0) == "applied"


def _mint_twice(bench, make, name="dave", funder="alice"):
    """Apply ``make(bench, dave)``, dave's first tx, on a fresh account dave
    (or ``name``) that ``funder`` pays; then drain dave, delete the account
    and credit it afresh, so its counter starts over, and return
    ``make(bench, dave)`` again, the same tx at counter 1."""
    dave, alice = KeyPair.from_name(name), bench.key(funder)
    assert bench.apply(spend(bench, funder, name, 50 * DSD, 1), alice).status == "applied"
    assert bench.apply(make(bench, dave), dave).status == "applied"
    assert bench.apply(spend(bench, name, funder, bench.balance(name) - 1, 1), dave).status == "applied"
    delete = txmod.AccountDelete(alice.address, dave.address, 1, bench.counter(funder))
    assert bench.apply(delete, alice).status == "applied"
    assert bench.apply(spend(bench, funder, name, 50 * DSD, 1), alice).status == "applied"
    assert bench.counter(name) == 1
    return make(bench, dave)


def _assert_collision_reverts(bench, tx, signer):
    """Apply ``tx``, whose minted id is in its store already: it reverts
    with AddressCollision, pays its fee once and bumps its sender's counter,
    the miner gains that fee, and no record or other balance moves."""
    store = getattr(bench.state, txmod._MINTED_IN[type(tx)])
    minted, sender = txmod.created_id(tx), txmod.tx_sender(tx)
    record, count = store[minted], len(store)
    counter = bench.state.accounts[sender].counter
    balances = {address: account.balance for address, account in bench.state.accounts.items()}
    balances[sender] -= tx.fee
    balances[bench.miner.address] += tx.fee
    receipt = bench.apply(tx, signer)
    assert (receipt.status, receipt.reason, receipt.fee_paid) == ("reverted", "AddressCollision", tx.fee)
    assert bench.state.accounts[sender].counter == counter + 1
    assert (store[minted], len(store)) == (record, count)
    assert {address: account.balance for address, account in bench.state.accounts.items()} == balances


def _channel_open(bench, dave):
    tx = txmod.ChannelOpen(dave.address, bench.addr("bob"), DSD, DSD, 1, 1)
    return dataclasses.replace(tx, sig_b=bench.key("bob").sign(tx.signing_bytes()))


MINTING_OPENERS = {
    "OracleRegister": lambda bench, dave: txmod.OracleRegister(dave.address, hash256(b"q"), 1, 9, 1, 1),
    "StorageCreate": lambda bench, dave: txmod.StorageCreate(
        dave.address, bench.addr("bob"), hash256(b"root"), 4, 4, 2, 50, 200, 1, 1),
    "AzCreate": lambda bench, dave: txmod.AzCreate(dave.address, 0, 1, 1),
}


def test_a_repeated_channel_id_reverts(bench):
    # a channel id hashes party A's counter, which starts over once A's
    # account is deleted and credited again
    again = _mint_twice(bench, _channel_open)
    _assert_collision_reverts(bench, again, KeyPair.from_name("dave"))
    assert len(bench.state.channels) == 1


@pytest.mark.parametrize("kind", list(MINTING_OPENERS))
def test_a_repeated_question_storage_or_az_id_reverts(bench, kind):
    again = _mint_twice(bench, MINTING_OPENERS[kind])
    _assert_collision_reverts(bench, again, KeyPair.from_name("dave"))


def _funded_create(bench):
    """alice's ContractCreate at the address a Spend from bob funded first."""
    alice = bench.key("alice")
    address = txmod.contract_address(alice.address, bench.counter("alice"))
    funding = txmod.Spend(bench.addr("bob"), address, 1, 1, bench.counter("bob"))
    assert bench.apply(funding, bench.key("bob")).status == "applied"
    return txmod.ContractCreate(alice.address, assemble("PUSH 1\nSTOP"), 1, 1000, 500, 50, 2, (), 100,
                                bench.counter("alice"))


def test_a_contract_create_at_a_funded_address_reverts(bench):
    # a spend may fund the address a create will mint before the create applies
    create = _funded_create(bench)
    _assert_collision_reverts(bench, create, bench.key("alice"))
    assert bench.state.accounts[txmod.created_id(create)].kind != CONTRACT


def test_an_admitted_collision_or_close_by_a_non_payer_enters_a_block_reverted():
    # each of these was inapplicable once check_tx passed it; now a node
    # admits it, mines it as a reverted receipt and replays the block to the
    # header's roots
    cfg = make_cfg()
    _, genesis = txmod.genesis_block(cfg)
    bench = Bench(cfg)
    collisions = [
        (_mint_twice(bench, _channel_open), "dave"),
        (_mint_twice(bench, MINTING_OPENERS["OracleRegister"], "erin", "bob"), "erin"),
        (_mint_twice(bench, MINTING_OPENERS["StorageCreate"], "frank", "carol"), "frank"),
        (_mint_twice(bench, MINTING_OPENERS["AzCreate"], "grace", "miner"), "grace"),
        (_funded_create(bench), "alice"),
    ]
    frank_contract = storage.contract_id_for(bench.addr("frank"), 1)
    close = (txmod.StorageClose(bench.addr("bob"), frank_contract, 1, bench.counter("bob")), "bob")
    node = Node(bench.state, dataclasses.replace(genesis.header, height=bench.height))
    reasons = {}
    for t, signer in collisions + [close]:
        t = txmod.sign_tx(t, bench.key(signer))
        assert node.admit(t)
        reasons[t.digest()] = "BadFormat" if isinstance(t, txmod.StorageClose) else "AddressCollision"
    block = node.build_next_block(bench.miner.address)
    assert sorted(t.digest() for t in block.transactions) == sorted(reasons)
    _, receipts = txmod.apply_block(bench.state, block)
    assert {r.tx_hash: (r.status, r.reason) for r in receipts} == {
        h: ("reverted", reason) for h, reason in reasons.items()}


def test_node_admit_refuses_what_apply_could_never_run(bench):
    # a settlement with no signed state, a storage contract with no chunks or
    # no challenge period, and a name outside 1..64 utf-8 bytes: check_tx
    # refuses each, so it never enters a mempool
    node = Node(bench.state, txmod.genesis_block(bench.cfg)[1].header)
    kp, channel_id = bench.key("alice"), hash256(b"channel")
    refused = [
        txmod.ChannelCloseCoop(kp.address, channel_id, None, None, 1, 1),
        txmod.ChannelChallenge(kp.address, channel_id, None, None, 1, 1),
        txmod.StorageCreate(kp.address, bench.addr("bob"), hash256(b"root"), 0, 4, 2, 50, 200, 1, 1),
        txmod.StorageCreate(kp.address, bench.addr("bob"), hash256(b"root"), 4, 4, 0, 50, 200, 1, 1),
        txmod.NameClaim(kp.address, "", bench.addr("bob"), 1, 1),
        txmod.NameClaim(kp.address, "é" * 32 + "x", bench.addr("bob"), 1, 1),
    ]
    for t in refused:
        with pytest.raises(TxError) as err:
            node.admit(txmod.sign_tx(t, kp))
        assert err.value.code == "BadFormat", t
    assert not node.mempool
    assert node.admit(txmod.sign_tx(txmod.NameClaim(kp.address, "é" * 32, bench.addr("bob"), 1, 1), kp))


def test_a_contract_account_is_built_only_beside_its_code_and_no_code_is_deleted():
    # a ContractCall to a CONTRACT account always finds its code in
    # state.code, since every one has its code stored. Only _apply_inner's
    # ContractCreate branch builds one (every other Account call passes no
    # kind or code hash, and Account.edit keeps both), and its next statement
    # stores the code, in the same journal, so a rollback undoes both or
    # neither; no src statement deletes from a code store, and a StateDict
    # has no pop or clear
    package = os.path.dirname(txmod.__file__)
    built = []
    for path in sorted(glob.glob(os.path.join(package, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Account":
                if len(node.args) > 4 or any(k.arg in ("kind", "code_hash") for k in node.keywords):
                    built.append((os.path.basename(path), ast.unparse(node)))
            if isinstance(node, ast.keyword) and getattr(node.value, "id", None) == "CONTRACT":
                assert os.path.basename(path) == "tx.py", ast.unparse(node)
            if isinstance(node, ast.Delete):
                assert not any(getattr(getattr(t, "value", None), "attr", None) == "code" for t in node.targets)
    function = ast.parse(textwrap.dedent(inspect.getsource(txmod._apply_inner))).body[0]
    create = next(n for n in ast.walk(function)
                  if isinstance(n, ast.If) and ast.unparse(n.test) == "isinstance(tx, ContractCreate)")
    body = [ast.unparse(statement) for statement in create.body]
    at = next(i for i, line in enumerate(body) if line.startswith("state.accounts[address] = Account("))
    assert built == [("tx.py", body[at].split(" = ", 1)[1])]
    assert "kind=CONTRACT, code_hash=code_hash" in body[at]
    assert body[at + 1] == "state.code[code_hash] = tx.code"
    assert {"pop", "clear", "popitem"} <= {name for name in vars(StateDict) if vars(StateDict)[name] is StateDict._unlogged}


def test_decode_tx_yields_only_the_kinds_that_apply_has_a_branch_for():
    # a tx reaches _apply_inner decoded by tag or built from TX_KINDS in
    # process, and its if/elif chain has a branch for every kind but EpochTx,
    # which _apply_checked applies itself; so the chain needs no closing guard
    assert txmod._BY_TAG == {cls.TAG: cls for cls in txmod.TX_KINDS}
    assert len(txmod._BY_TAG) == len(txmod.TX_KINDS)
    for tag in range(256):
        if tag not in txmod._BY_TAG:
            with pytest.raises(CodecError, match=f"unknown tx tag {tag}$"):
                txmod.decode_tx(bytes([tag]))
    function = ast.parse(textwrap.dedent(inspect.getsource(txmod._apply_inner))).body[0]
    chain = next(node for node in function.body if isinstance(node, ast.If))
    branches = []
    while True:
        test = chain.test
        assert isinstance(test, ast.Call) and test.func.id == "isinstance" and test.args[0].id == "tx"
        branches.append(getattr(txmod, test.args[1].id))
        if not chain.orelse:
            break
        (chain,) = chain.orelse
        assert isinstance(chain, ast.If)
    for kind in txmod.TX_KINDS:
        assert any(issubclass(kind, branch) for branch in branches) == (kind is not txmod.EpochTx), kind

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deskchain import rewards, tx as txmod
from deskchain.errors import LedgerError, TxError

from conftest import Bench

F = Fraction


def test_q_update_fixed_point():
    # Q=100, alpha=1/10, gamma=10, mu=9/10, Q_next=100 -> unchanged
    assert rewards.next_q(100, 10, 100, F(1, 10), F(9, 10)) == 100


def test_q_update_full_step():
    # alpha=1, mu=0 reduces the update to Q <- gamma_t
    assert rewards.next_q(12345, 7, 999, F(1), F(0)) == 7


def test_q_update_direct_case():
    # Q=0, alpha=1/2, gamma=4, mu=1/2, Q_next=8 -> 0 + (4+4-0)/2 = 4
    assert rewards.next_q(0, 4, 8, F(1, 2), F(1, 2)) == 4


def test_q_update_floors_to_base_units():
    # exact rational then floor: 10 + 1/3*(1 + 0 - 10) = 7
    assert rewards.next_q(10, 1, 0, F(1, 3), F(0)) == 7


def test_replenish_moves_endowment():
    pool = rewards.RewardPoolState(q=100, gamma_t=10, pool_balance=5, endowment=500, epoch_index=3)
    nxt = rewards.replenish(pool, 100, F(1, 10), F(9, 10))
    assert nxt.q == 100
    assert nxt.endowment == 400
    assert nxt.pool_balance == 105
    assert nxt.epoch_index == 4


def test_replenish_may_draw_the_whole_endowment():
    # with alpha 1 and mu 0 the new Q is gamma_t, 50: an endowment of exactly 50 pays it
    pool = rewards.RewardPoolState(q=0, gamma_t=50, pool_balance=0, endowment=50)
    nxt = rewards.replenish(pool, 0, F(1), F(0))
    assert (nxt.q, nxt.endowment, nxt.pool_balance) == (50, 0, 50)


def test_replenish_insufficient_endowment():
    pool = rewards.RewardPoolState(q=0, gamma_t=50, pool_balance=0, endowment=10)
    with pytest.raises(LedgerError) as err:
        rewards.replenish(pool, 0, F(1), F(0))
    assert err.value.code == "InsufficientEndowment"


def test_pov_value_examples():
    assert rewards.pov_value((F(2, 5),), (F(1),)) == F(2, 5)
    assert rewards.pov_value((F(0), F(0)), (F(1, 2), F(1, 2))) == 0
    assert rewards.pov_value((F(1), F(0)), (F(1, 2), F(1, 2))) == F(1, 2)


def test_normalize_min_max():
    rows = [
        rewards.AZFactors(b"\x01" * 32, (10, 5)),
        rewards.AZFactors(b"\x02" * 32, (0, 5)),
    ]
    normalized = rewards.normalize_factors(rows)
    assert normalized[b"\x01" * 32] == (F(1), F(0))  # constant column -> 0
    assert normalized[b"\x02" * 32] == (F(0), F(0))


def test_a_factor_column_maps_its_lowest_value_to_0_and_its_highest_to_1():
    # min-max over the epoch's AZs: (raw - low) / (high - low), low above 0
    rows = [rewards.AZFactors(bytes([i]) * 32, (raw,)) for i, raw in enumerate((2, 4, 8))]
    normalized = rewards.normalize_factors(rows)
    assert [normalized[row.az_id] for row in rows] == [(F(0),), (F(1, 3),), (F(1),)]


def test_allocate_exact_proportions():
    out = rewards.allocate(1000, [(b"\x01" * 32, F(1)), (b"\x02" * 32, F(3))])
    assert [a for _, a in out] == [250, 750]


def test_allocate_largest_remainder_tie_break():
    ids = [bytes([i]) * 32 for i in (3, 1, 2)]
    out = rewards.allocate(100, [(ids[0], F(1)), (ids[1], F(1)), (ids[2], F(1))])
    got = dict(out)
    # each floor share is 33; the leftover unit goes to the lowest AZ id
    assert got[ids[1]] == 34
    assert got[ids[0]] == got[ids[2]] == 33
    assert sum(got.values()) == 100


def test_leftover_units_go_to_the_largest_remainders_not_the_largest_shares():
    # shares 2.1 and 0.9 floor to 2 and 0; the one leftover unit goes to the
    # remainder 0.9, though the other share is larger
    assert rewards.largest_remainder(3, [F(7, 10), F(3, 10)], [0, 1]) == [2, 1]


def test_allocate_scale_invariance():
    values = [(bytes([i]) * 32, F(i + 1, 7)) for i in range(4)]
    scaled = [(az, v * 10) for az, v in values]
    assert rewards.allocate(997, values) == rewards.allocate(997, scaled)


def test_allocation_monotonicity():
    ids = [bytes([i]) * 32 for i in range(3)]
    base = rewards.allocate(1000, [(ids[0], F(1)), (ids[1], F(2)), (ids[2], F(3))])
    bumped = rewards.allocate(1000, [(ids[0], F(2)), (ids[1], F(2)), (ids[2], F(3))])
    assert dict(bumped)[ids[0]] >= dict(base)[ids[0]]


def test_normalized_values_may_be_0_or_1():
    # an item's s and each usage value lie in [0, 1], both ends included
    def contribution(s, usage):
        item = rewards.WorkItem(F(1), s, F(1), usage)
        return rewards.UserContribution(b"\x01" * 32, b"\x02" * 32, F(1), F(1), (item,))

    contribution(F(0), (F(0), F(1)))
    contribution(F(1), ())
    for s, usage in ((F(-1, 2), ()), (F(3, 2), ()), (F(1), (F(3, 2),))):
        with pytest.raises(LedgerError):
            contribution(s, usage)


def test_a_factor_weight_may_be_0():
    # factor weights are each 0 or more and sum to 1
    assert rewards.EpochReport(1, (F(1), F(0)), (), ()).factor_weights == (F(1), F(0))
    for weights in ((F(2), F(-1)), (F(1, 2), F(1, 3))):
        with pytest.raises(LedgerError):
            rewards.EpochReport(1, weights, (), ())


def test_poc_weight_examples():
    one = rewards.UserContribution(
        b"\x01" * 32, b"\x02" * 32, epsilon=F(1), theta=F(0),
        items=(rewards.WorkItem(F(1), F(3, 5), F(1), ()),),
    )
    assert rewards.poc_weight(one) == F(3, 5)
    usage_only = rewards.UserContribution(
        b"\x01" * 32, b"\x02" * 32, epsilon=F(0), theta=F(1),
        items=(rewards.WorkItem(F(1), F(1, 2), F(1, 2), (F(1, 2), F(1, 4))),),
    )
    assert rewards.poc_weight(usage_only) == F(1, 2) * (F(1, 2) + F(1, 4))
    additive = rewards.UserContribution(
        b"\x01" * 32, b"\x02" * 32, epsilon=F(1), theta=F(1),
        items=(rewards.WorkItem(F(1), F(1, 5), F(1), (F(3, 10),)),),
    )
    assert rewards.poc_weight(additive) == F(1, 2)


def test_poc_rejects_out_of_range():
    with pytest.raises(LedgerError):
        rewards.UserContribution(
            b"\x01" * 32, b"\x02" * 32, F(1), F(1),
            (rewards.WorkItem(F(1), F(3, 2), F(1), ()),),
        )


def test_allocate_to_users_examples():
    a, b = b"\x0a" * 32, b"\x0b" * 32
    out = rewards.allocate(90, [(a, F(1)), (b, F(2))])
    assert dict(out) == {a: 30, b: 60}
    solo = rewards.allocate(77, [(a, F(5))])
    assert dict(solo) == {a: 77}


def test_allocate_to_users_exact_sum_random():
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randrange(1, 9)
        weights = [
            (bytes([i]) * 32, F(rng.randrange(0, 50), rng.randrange(1, 9)))
            for i in range(n)
        ]
        if all(w == 0 for _, w in weights):
            weights[0] = (weights[0][0], F(1))
        gamma = rng.randrange(0, 100_000)
        out = rewards.allocate(gamma, weights)
        assert sum(v for _, v in out) == gamma


@settings(max_examples=100)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.lists(st.fractions(min_value=0, max_value=100), min_size=1, max_size=8),
)
def test_largest_remainder_sum_property(total, weights):
    if sum(weights) == 0:
        weights = weights + [Fraction(1)]
    keys = list(range(len(weights)))
    out = rewards.largest_remainder(total, [Fraction(w) for w in weights], keys)
    assert sum(out) == total
    assert all(v >= 0 for v in out)


# --- AZ lifecycle ---


def make_az(bench, owner="alice", join_price=100):
    kp = bench.key(owner)
    counter = bench.counter(owner)
    tx = txmod.AzCreate(kp.address, join_price, 1, counter)
    receipt = bench.apply(tx, kp)
    assert receipt.status == "applied"
    return rewards.az_id_for(kp.address, counter)


def test_az_create_charges_price_into_endowment(bench):
    endow_before = bench.state.pool.endowment
    alice_before = bench.balance("alice")
    az_id = make_az(bench)
    az = bench.state.azs[az_id]
    assert az.owner == bench.addr("alice")
    assert bench.addr("alice") in az.admins
    assert bench.state.pool.endowment == endow_before + bench.cfg.az_creation_price
    assert bench.balance("alice") == alice_before - bench.cfg.az_creation_price - 1
    assert bench.conservation_ok()


def test_az_join_pays_owner(bench):
    az_id = make_az(bench, join_price=500)
    owner_before = bench.balance("alice")
    kp = bench.key("bob")
    tx = txmod.AzJoin(kp.address, az_id, 1, bench.counter("bob"))
    assert bench.apply(tx, kp).status == "applied"
    assert bench.addr("bob") in bench.state.azs[az_id].members
    assert bench.balance("alice") == owner_before + 500
    # a member joining again, the owner (a member from creation) included, bounces
    for name in ("bob", "alice"):
        owner_before, before = bench.balance("alice"), bench.balance(name)
        again = txmod.AzJoin(bench.addr(name), az_id, 1, bench.counter(name))
        receipt = bench.apply(again, bench.key(name))
        assert (receipt.status, receipt.reason) == ("reverted", "AlreadyMember")
        assert bench.balance(name) == before - 1  # only the fee
        assert bench.balance("alice") == owner_before - (name == "alice")


def test_referring_a_member_reverts_with_already_member(bench):
    az_id = make_az(bench, join_price=0)
    kp = bench.key("bob")
    assert bench.apply(txmod.AzJoin(kp.address, az_id, 1, bench.counter("bob")), kp).status == "applied"
    owner = bench.key("alice")
    tx = txmod.AzRefer(owner.address, bench.addr("bob"), az_id, 1, bench.counter("alice"))
    receipt = bench.apply(tx, owner)
    assert (receipt.status, receipt.reason) == ("reverted", "AlreadyMember")
    assert bench.state.azs[az_id].referred == frozenset()


def test_az_join_free_when_price_zero(bench):
    az_id = make_az(bench, join_price=0)
    kp = bench.key("carol")
    before = bench.balance("carol")
    tx = txmod.AzJoin(kp.address, az_id, 1, bench.counter("carol"))
    assert bench.apply(tx, kp).status == "applied"
    assert bench.balance("carol") == before - 1  # only the fee


def test_az_refer_requires_membership(bench):
    az_id = make_az(bench)
    kp = bench.key("carol")  # not a member
    tx = txmod.AzRefer(kp.address, bench.addr("bob"), az_id, 1, bench.counter("carol"))
    assert bench.apply(tx, kp).status == "reverted"
    owner = bench.key("alice")
    tx = txmod.AzRefer(owner.address, bench.addr("bob"), az_id, 1, bench.counter("alice"))
    assert bench.apply(tx, owner).status == "applied"
    assert bench.addr("bob") in bench.state.azs[az_id].referred


def test_referred_user_contribution_rejected(bench):
    # a referral grants read access only: epoch rows for referred users fail
    az_id = make_az(bench)
    owner = bench.key("alice")
    tx = txmod.AzRefer(owner.address, bench.addr("bob"), az_id, 1, bench.counter("alice"))
    assert bench.apply(tx, owner).status == "applied"
    report = rewards.EpochReport(
        1, (F(1),), (rewards.AZFactors(az_id, (5,)),),
        (rewards.UserContribution(az_id, bench.addr("bob"), F(1), F(1),
                                  (rewards.WorkItem(F(1), F(1, 2), F(1), ()),)),),
    )
    bench.advance(10 - bench.height)
    with pytest.raises(LedgerError) as err:
        rewards.apply_epoch(bench.state, report)
    assert err.value.code == "NotMember"


# --- epoch batch ---


def _epoch_report(az_a, az_b, member_a, member_b, epoch_index=1):
    return rewards.EpochReport(
        epoch_index,
        (F(1, 2), F(1, 2)),
        (rewards.AZFactors(az_a, (10, 0)), rewards.AZFactors(az_b, (0, 4))),
        (
            rewards.UserContribution(az_a, member_a, F(1), F(0),
                                     (rewards.WorkItem(F(1), F(1, 2), F(1), ()),)),
            rewards.UserContribution(az_b, member_b, F(1), F(0),
                                     (rewards.WorkItem(F(1), F(1), F(1), ()),)),
        ),
    )


def test_compute_epoch_exact_sums():
    az_a, az_b = b"\x0a" * 32, b"\x0b" * 32
    report = _epoch_report(az_a, az_b, b"\x01" * 32, b"\x02" * 32)
    result = rewards.compute_epoch(report, 1001)
    assert sum(a for _, a in result.az_allocations) == 1001
    # both AZs normalize to value 1/2: equal split with the leftover by id
    assert dict(result.az_allocations)[az_a] == 501
    assert result.distributed == 1001


def test_apply_epoch_end_to_end(bench):
    az_a = make_az(bench, owner="alice", join_price=0)
    az_b = make_az(bench, owner="bob", join_price=0)
    report = _epoch_report(az_a, az_b, bench.addr("alice"), bench.addr("bob"))
    pool_total_before = bench.state.pool.endowment + bench.state.pool.pool_balance
    alice_before = bench.balance("alice")
    bench.advance(10 - bench.height)
    result = rewards.apply_epoch(bench.state, report)
    assert result.distributed > 0
    assert bench.state.pool.gamma_t == result.distributed
    assert bench.state.pool.epoch_index == 1
    assert (
        bench.state.pool.endowment + bench.state.pool.pool_balance
        == pool_total_before - result.distributed
    )
    assert bench.balance("alice") == alice_before + dict(result.az_allocations)[az_a]
    assert bench.conservation_ok()


def test_epoch_out_of_order_rejected(bench):
    az_a = make_az(bench, owner="alice", join_price=0)
    report = rewards.EpochReport(5, (F(1),), (rewards.AZFactors(az_a, (1,)),), ())
    bench.advance(10 - bench.height)
    with pytest.raises(LedgerError):
        rewards.apply_epoch(bench.state, report)


def test_an_epoch_tx_applies_at_a_boundary_block_only(bench):
    # epoch.blocks = 10: the first epoch tx belongs in block 10, not block 9
    epoch_tx = txmod.EpochTx(rewards.EpochReport(1, (), (), ()))
    bench.advance(9 - bench.height)
    with pytest.raises(TxError) as err:
        bench.apply(epoch_tx)
    assert err.value.code == "BadFormat"
    assert bench.state.pool.epoch_index == 0
    bench.advance(1)
    assert bench.apply(epoch_tx).status == "applied"
    assert bench.state.pool.epoch_index == 1


def test_zero_weight_epoch_carries_forward(bench):
    report = rewards.EpochReport(1, (), (), ())
    pool_before = bench.state.pool
    bench.advance(10 - bench.height)
    result = rewards.apply_epoch(bench.state, report)
    assert result.distributed == 0
    pool = bench.state.pool
    assert pool.epoch_index == 1
    assert pool.gamma_t == 0
    # the replenished amount stays in the pool for the next epoch
    assert pool.pool_balance == pool_before.pool_balance + (pool.q)
    assert bench.conservation_ok()


def test_pool_conservation_across_epochs(bench):
    az_a = make_az(bench, owner="alice", join_price=0)
    az_b = make_az(bench, owner="bob", join_price=0)
    endowment_initial = bench.state.pool.endowment
    distributed_total = 0
    for epoch in range(1, 6):
        report = _epoch_report(az_a, az_b, bench.addr("alice"), bench.addr("bob"), epoch_index=epoch)
        bench.advance(10 * epoch - bench.height)
        result = rewards.apply_epoch(bench.state, report)
        distributed_total += result.distributed
    pool = bench.state.pool
    assert endowment_initial == pool.endowment + pool.pool_balance + distributed_total
    assert bench.conservation_ok()


def test_format_epoch_report_lines():
    az_a, az_b = b"\x0a" * 32, b"\x0b" * 32
    report = _epoch_report(az_a, az_b, b"\x01" * 32, b"\x02" * 32)
    result = rewards.compute_epoch(report, 1000)
    text = rewards.format_epoch_report(result)
    lines = text.strip().splitlines()
    assert lines[0].startswith("epoch 1 gamma 1000")
    az_lines = [l for l in lines if l.startswith("az ")]
    assert sum(int(l.rsplit(" ", 1)[1]) for l in az_lines) == 1000
    assert lines[-1] == "distributed 1000"

"""Reward-pool economics: epoch replenishment, POV and POC allocation,
and Algorithm Zone membership accounting.

All value math runs in exact rationals and lands on integer base units via
largest-remainder rounding, so every epoch's payouts sum to the epoch
budget with no tolerance. An epoch whose total value weight is zero keeps
its budget in the pool for the next epoch.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .codec import U64, AddressSet, Bytes32, Ratio, Record, Seq, WireRecord, check_amount
from .crypto import hash256
from .errors import LedgerError


class RewardPoolState(WireRecord):
    q: U64 = 0                 # incentive value function, base units
    gamma_t: U64 = 0           # tokens distributed in the last epoch
    pool_balance: U64 = 0      # replenished, not yet distributed
    endowment: U64 = 0         # genesis eco-incentive fund, not yet drawn
    epoch_index: U64 = 0


def next_q(q: int, gamma_t: int, q_next: int, alpha: Fraction, mu: Fraction) -> int:
    """Q <- Q + alpha*(gamma_t + mu*Q_next - Q), floored to base units."""
    exact = Fraction(q) + alpha * (Fraction(gamma_t) + mu * Fraction(q_next) - Fraction(q))
    if exact < 0:
        return 0
    return int(exact)  # int() truncates toward zero == floor for non-negatives


def replenish(pool: RewardPoolState, q_next: int, alpha: Fraction, mu: Fraction) -> RewardPoolState:
    """Advance one epoch: update Q and draw that much from the endowment."""
    q_new = next_q(pool.q, pool.gamma_t, q_next, alpha, mu)
    if q_new > pool.endowment:
        raise LedgerError(
            "InsufficientEndowment", f"need {q_new}, endowment {pool.endowment}"
        )
    return replace(
        pool,
        q=q_new,
        endowment=pool.endowment - q_new,
        pool_balance=pool.pool_balance + q_new,
        epoch_index=pool.epoch_index + 1,
    )


class AZ(WireRecord):
    az_id: Bytes32
    owner: Bytes32
    join_price: U64
    admins: AddressSet
    members: AddressSet
    referred: AddressSet

    def __post_init__(self) -> None:
        if self.owner not in self.admins:
            raise LedgerError("BadFormat", "owner must be an admin")


def az_id_for(owner: bytes, counter: int) -> bytes:
    return hash256(b"az" + owner + counter.to_bytes(8, "big"))


# --- POV: per-AZ value and allocation ---


class AZFactors(WireRecord):
    az_id: Bytes32
    raw: Seq[U64]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.raw):
            raise LedgerError("BadFormat", "factors must be non-negative")


def normalize_factors(rows: list[AZFactors]) -> dict[bytes, tuple[Fraction, ...]]:
    """Min-max per factor column across all AZs this epoch; a column with
    no spread normalizes to zero."""
    if not rows:
        return {}
    k = len(rows[0].raw)
    if any(len(row.raw) != k for row in rows):
        raise LedgerError("BadFormat", "ragged factor rows")
    lows = [min(row.raw[i] for row in rows) for i in range(k)]
    highs = [max(row.raw[i] for row in rows) for i in range(k)]
    out: dict[bytes, tuple[Fraction, ...]] = {}
    for row in rows:
        out[row.az_id] = tuple(
            Fraction(row.raw[i] - lows[i], highs[i] - lows[i]) if highs[i] > lows[i] else Fraction(0)
            for i in range(k)
        )
    return out


def pov_value(normalized: tuple[Fraction, ...], weights: tuple[Fraction, ...]) -> Fraction:
    if len(normalized) != len(weights):
        raise LedgerError("BadFormat", "factor/weight length mismatch")
    return sum((w * f for w, f in zip(weights, normalized)), Fraction(0))


def largest_remainder(total: int, weights: list[Fraction], tie_keys: list) -> list[int]:
    """Exact proportional split of `total` by `weights`; floor shares first,
    then one unit per largest remainder, ties broken by ascending tie key."""
    check_amount(total, "allocation total")
    if len(weights) != len(tie_keys):
        raise LedgerError("BadFormat", "weights/keys length mismatch")
    if any(w < 0 for w in weights):
        raise LedgerError("BadFormat", "negative weight")
    denom = sum(weights, Fraction(0))
    if denom == 0:
        raise LedgerError("BadFormat", "zero total weight")
    shares = [Fraction(total) * w / denom for w in weights]
    floors = [int(s) for s in shares]
    leftover = total - sum(floors)
    order = sorted(
        range(len(weights)), key=lambda i: (-(shares[i] - floors[i]), tie_keys[i])
    )
    for i in order[:leftover]:
        floors[i] += 1
    return floors


def allocate(total: int, weighted: list[tuple[bytes, Fraction]]) -> list[tuple[bytes, int]]:
    """``total`` split over (id, weight) pairs: POV over AZs, POC over an
    AZ's members; remainder ties go to the lower id."""
    ids = [key for key, _ in weighted]
    amounts = largest_remainder(total, [w for _, w in weighted], ids)
    return list(zip(ids, amounts))


# --- POC: per-user contribution weight ---


class WorkItem(WireRecord):
    alpha: Ratio          # weight of this work content
    s: Ratio              # normalized active-contribution value, in [0, 1]
    beta: Ratio           # usage weight of this content
    usage: Seq[Ratio]     # normalized per-use values, each in [0, 1]


class UserContribution(WireRecord):
    az_id: Bytes32
    member: Bytes32
    epsilon: Ratio
    theta: Ratio
    items: Seq[Record[WorkItem]]

    def __post_init__(self) -> None:
        if self.epsilon < 0 or self.theta < 0:
            raise LedgerError("BadFormat", "value weights must be non-negative")
        for item in self.items:
            if not 0 <= item.s <= 1 or any(not 0 <= c <= 1 for c in item.usage):
                raise LedgerError("BadFormat", "normalized values must lie in [0, 1]")


def poc_weight(c: UserContribution) -> Fraction:
    active = sum((item.alpha * item.s for item in c.items), Fraction(0))
    used = sum((item.beta * sum(item.usage, Fraction(0)) for item in c.items), Fraction(0))
    return c.epsilon * active + c.theta * used


# --- AZ lifecycle (on-chain transitions) ---


def az_create(state, az_id: bytes, owner: bytes, join_price: int) -> None:
    state.debit(owner, state.cfg.az_creation_price)
    # creation price feeds the eco-incentive endowment
    state.pool = replace(state.pool, endowment=state.pool.endowment + state.cfg.az_creation_price)
    state.azs[az_id] = AZ(
        az_id, owner, join_price, frozenset({owner}), frozenset({owner}), frozenset()
    )


def az_join(state, user: bytes, az_id: bytes) -> None:
    az = state.azs.need(az_id)
    if user in az.members:
        raise LedgerError("AlreadyMember", user.hex())
    state.debit(user, az.join_price)
    state.credit(az.owner, az.join_price)
    state.azs[az_id] = replace(
        az, members=az.members | {user}, referred=az.referred - {user}
    )


def az_refer(state, member: bytes, user: bytes, az_id: bytes) -> None:
    az = state.azs.need(az_id)
    if member not in az.members:
        raise LedgerError("NotMember", member.hex())
    if user in az.members:
        raise LedgerError("AlreadyMember", user.hex())
    state.azs[az_id] = replace(az, referred=az.referred | {user})


# --- the epoch batch ---


class EpochReport(WireRecord):
    epoch_index: U64
    factor_weights: Seq[Ratio]
    az_rows: Seq[Record[AZFactors]]
    user_rows: Seq[Record[UserContribution]]

    def __post_init__(self) -> None:
        if any(w < 0 for w in self.factor_weights):
            raise LedgerError("BadFormat", "negative factor weight")
        if self.factor_weights and sum(self.factor_weights, Fraction(0)) != 1:
            raise LedgerError("BadFormat", "factor weights must sum to 1")


@dataclass(frozen=True)
class EpochResult:
    epoch_index: int
    gamma: int
    az_values: tuple[tuple[bytes, Fraction], ...]
    az_allocations: tuple[tuple[bytes, int], ...]
    user_payouts: tuple[tuple[bytes, bytes, int], ...]  # (az, member, amount)
    distributed: int


def compute_epoch(report: EpochReport, gamma: int) -> EpochResult:
    """Pure POV+POC computation over one epoch's measurements."""
    normalized = normalize_factors(list(report.az_rows))
    values = [
        (row.az_id, pov_value(normalized[row.az_id], report.factor_weights))
        for row in report.az_rows
    ]
    total_value = sum((v for _, v in values), Fraction(0))
    if gamma == 0 or total_value == 0:
        return EpochResult(report.epoch_index, gamma, tuple(values), (), (), 0)
    az_allocs = allocate(gamma, values)
    payouts: list[tuple[bytes, bytes, int]] = []
    distributed = 0
    by_az: dict[bytes, list[UserContribution]] = {}
    for row in report.user_rows:
        by_az.setdefault(row.az_id, []).append(row)
    for az_id, alloc in az_allocs:
        if alloc == 0:
            continue
        rows = by_az.get(az_id, [])
        weights = [(row.member, poc_weight(row)) for row in rows]
        if not weights or all(w == 0 for _, w in weights):
            continue  # nobody to pay; the allocation stays in the pool
        for member, amount in allocate(alloc, weights):
            if amount:
                payouts.append((az_id, member, amount))
                distributed += amount
    return EpochResult(
        report.epoch_index, gamma, tuple(values), tuple(az_allocs), tuple(payouts), distributed
    )


def apply_epoch(state, report: EpochReport) -> EpochResult:
    """System transition at an epoch boundary: replenish, allocate, credit."""
    if report.epoch_index != state.pool.epoch_index + 1:
        raise LedgerError("BadFormat", f"epoch {report.epoch_index} out of order")
    for row in report.az_rows:
        state.azs.need(row.az_id)
    for row in report.user_rows:
        az = state.azs.need(row.az_id)
        if row.member not in az.members:
            raise LedgerError("NotMember", row.member.hex())
    # Q(t+1) does not exist yet; the previous Q serves as the bootstrap estimate.
    state.pool = replenish(state.pool, state.pool.q, state.cfg.pool_alpha, state.cfg.pool_mu)
    result = compute_epoch(report, state.pool.pool_balance)
    for _, member, amount in result.user_payouts:
        state.credit(member, amount)
    state.pool = replace(
        state.pool,
        pool_balance=state.pool.pool_balance - result.distributed,
        gamma_t=result.distributed,
    )
    return result


def format_epoch_report(result: EpochResult) -> str:
    """Line-oriented epoch report: AZ rows, then user rows."""
    lines = [f"epoch {result.epoch_index} gamma {result.gamma}"]
    allocs = dict(result.az_allocations)
    for az_id, value in result.az_values:
        lines.append(f"az {az_id.hex()} value {value} alloc {allocs.get(az_id, 0)}")
    for az_id, member, amount in result.user_payouts:
        lines.append(f"user {az_id.hex()} {member.hex()} payout {amount}")
    lines.append(f"distributed {result.distributed}")
    return "\n".join(lines) + "\n"

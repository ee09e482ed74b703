"""Factored device-group MDP.

A group of N identical devices, each with M wear states, evolves under
per-device maintenance actions. Service capacity depends on the device
state and on the action (a device under repair serves nothing); the step
reward is the number of requests served: min(arrivals, total capacity).
Arrivals are either a constant rate or a seeded Poisson stream, so every
rollout is reproducible and the expected reward is available in closed
form for the value-iteration oracle. Past POISSON_PART, a Poisson draw
sums draws at equal parts of the rate, and the expected reward sums the
pmf in log space.

Rollouts run over indices. ``DeviceGroupMdp.table()`` enumerates joint
states and actions once, in ``itertools.product`` order, and keeps for
each (state, action) pair the total capacity and, per device, that
device's cumulative transition row and its stride in the joint state
index. Each device's next state is ``bisect_right(cum, u)`` for one
uniform draw ``u``: the first j with ``u < p_0 + ... + p_j``, or the last
state when float rounding leaves the row's sum just below ``u``.
``sample_next`` is that rule: ``step`` calls it, and TD training makes the
same draws inline.
"""
from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass

from ..errors import LedgerError

CONSTANT = "constant"
POISSON = "poisson"

State = tuple[int, ...]
Action = tuple[int, ...]
# per device: (cumulative transition row without its last entry, stride)
DeviceRows = tuple[tuple[tuple[float, ...], int], ...]

# tabular methods enumerate every joint state, and every (state, action) pair
MAX_JOINT_STATES = 1_000
MAX_JOINT_PAIRS = 100_000
MAX_TOTAL_CAPACITY = 2 ** 53  # requests a step: every return is below 2^53 / (1 - gamma_d) <= 2^106
POISSON_PART = 700.0  # the largest rate one Knuth loop draws: exp(-700) is a normal float
MAX_POISSON_RATE = 1e6  # a Poisson draw costs about rate uniforms


@dataclass(frozen=True)
class ReturnParams:
    beta: float
    dt: float
    horizon: int

    def __post_init__(self) -> None:
        if self.beta <= 0 or self.dt <= 0 or self.horizon < 1:
            raise LedgerError("BadFormat", "beta, dt must be positive; horizon >= 1")


def discounted_return(rewards, params: ReturnParams) -> float:
    """Left-Riemann discretization of the exponentially discounted return."""
    total = 0.0
    for k in range(params.horizon):
        total += math.exp(-params.beta * k * params.dt) * rewards[k] * params.dt
    return total


@dataclass(frozen=True)
class DeviceGroupMdp:
    n_devices: int
    n_states: int
    action_names: tuple[str, ...]
    # transitions[a][s][s'] shared by all devices; rows sum to 1 within 1e-12
    transitions: tuple[tuple[tuple[float, ...], ...], ...]
    # capacity[a][s]: requests one device can serve in state s under action a
    capacity: tuple[tuple[int, ...], ...]
    arrival_kind: str = CONSTANT
    arrival_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.n_devices < 1 or self.n_states < 1 or not self.action_names:
            raise LedgerError("BadFormat", "degenerate device group")
        if self.arrival_kind not in (CONSTANT, POISSON):
            raise LedgerError("BadFormat", f"unknown arrival kind {self.arrival_kind}")
        if len(self.transitions) != len(self.action_names) or len(self.capacity) != len(self.action_names):
            raise LedgerError("BadFormat", "one transition matrix and capacity row per action")
        for matrix in self.transitions:
            if len(matrix) != self.n_states:
                raise LedgerError("BadFormat", "transition matrix shape")
            for row in matrix:
                if len(row) != self.n_states or not all(0 <= p <= 1 for p in row):
                    raise LedgerError("BadFormat", "transition row needs one probability in [0, 1] per state")
                if abs(sum(row) - 1.0) > 1e-12:
                    raise LedgerError("BadFormat", f"row sums to {sum(row)!r}")
        for name, row in zip(self.action_names, self.capacity):
            if len(row) != self.n_states or any(not isinstance(c, int) or c < 0 for c in row):
                raise LedgerError("BadFormat", "capacity row needs one non-negative int per state")
            check_total_capacity(self.n_devices, name, row)
        if not math.isfinite(self.arrival_rate) or self.arrival_rate < 0:
            raise LedgerError("BadFormat", f"arrival rate {self.arrival_rate!r} must be finite and >= 0")
        if self.arrival_kind == POISSON and self.arrival_rate > MAX_POISSON_RATE:
            raise LedgerError("BadFormat", f"Poisson rate {self.arrival_rate!r} passes {MAX_POISSON_RATE:g}")

    @property
    def n_actions(self) -> int:
        return len(self.action_names)

    def joint_size(self) -> int:
        return self.n_states ** self.n_devices

    def require_tabular(self) -> None:
        """Raise unless the joint states and (state, action) pairs are few
        enough to enumerate."""
        states = self.joint_size()
        if states > MAX_JOINT_STATES or states * self.n_actions ** self.n_devices > MAX_JOINT_PAIRS:
            raise LedgerError("BadFormat", "device group too large for tabular methods")

    def table(self) -> "JointTable":
        """The indexed joint MDP, built at first use and kept on the instance."""
        try:
            return self._table
        except AttributeError:
            self.require_tabular()
            table = JointTable.build(self)
            object.__setattr__(self, "_table", table)
            return table

    def states(self):
        return itertools.product(range(self.n_states), repeat=self.n_devices)

    def actions(self):
        return itertools.product(range(self.n_actions), repeat=self.n_devices)

    def initial_state(self) -> State:
        return (0,) * self.n_devices

    def total_capacity(self, state: State, action: Action) -> int:
        return sum(self.capacity[a][s] for s, a in zip(state, action))

    def sample_arrivals(self, rng: random.Random) -> int:
        if self.arrival_kind == CONSTANT:
            return int(self.arrival_rate)
        # Knuth's method, on equal parts of a rate past POISSON_PART (their sum is Poisson too)
        parts = max(1, math.ceil(self.arrival_rate / POISSON_PART))
        limit = math.exp(-self.arrival_rate / parts)
        k = 0
        for _ in range(parts):
            p = rng.random()
            while p > limit:
                k += 1
                p *= rng.random()
        return k

    def expected_reward(self, state: State, action: Action) -> float:
        return self.expected_served(self.total_capacity(state, action))

    def expected_served(self, cap: int) -> float:  # E[min(arrivals, cap)], the reward at capacity cap
        if self.arrival_kind == CONSTANT:
            return float(min(int(self.arrival_rate), cap))
        rate = self.arrival_rate
        if rate > POISSON_PART:  # the pmf in log space; 40 sigma away, a term is below exp(-500)
            lo, hi = max(0, math.floor(rate - 40 * math.sqrt(rate))), math.ceil(rate + 40 * math.sqrt(rate))
            return math.fsum(min(k, cap) * math.exp(k * math.log(rate) - rate - math.lgamma(k + 1))
                             for k in range(lo, hi))
        acc = 0.0
        tail = 1.0
        p = math.exp(-rate)
        for k in range(cap):
            if p == 0.0:  # p underflowed past the mode: the tail left is below any float
                return acc
            acc += k * p
            tail -= p
            p *= rate / (k + 1)
        return acc + cap * tail

    def step(self, rng: random.Random, state: State, action: Action) -> tuple[State, int]:
        """Draw arrivals, then each device's next state; returns the next
        joint state and the requests served."""
        table = self.table()
        si, ai = table.state_index[state], table.action_index[action]
        r = min(self.sample_arrivals(rng), table.capacity[si][ai])
        return table.states[sample_next(rng.random, table.devices[si][ai])], r

    def transition_prob(self, state: State, action: Action, nxt: State) -> float:
        p = 1.0
        for s, a, t in zip(state, action, nxt):
            p *= self.transitions[a][s][t]
        return p


@dataclass(frozen=True)
class JointTable:
    """A device group's joint MDP over indices, in ``itertools.product`` order.

    ``capacity[si][ai]`` is the total capacity of joint state ``si`` under
    joint action ``ai``; ``devices[si][ai]`` holds one ``(cum, stride)`` per
    device, where ``cum`` is the device's cumulative transition row without
    its last entry and ``stride`` is the weight of its state in the index.
    """

    states: tuple[State, ...]
    actions: tuple[Action, ...]
    state_index: dict[State, int]
    action_index: dict[Action, int]
    capacity: tuple[tuple[int, ...], ...]
    devices: tuple[tuple[DeviceRows, ...], ...]

    @staticmethod
    def build(mdp: DeviceGroupMdp) -> "JointTable":
        states = tuple(mdp.states())
        actions = tuple(mdp.actions())
        # accumulate adds left to right, as a running sum over the row does
        cum = [[tuple(itertools.accumulate(row))[:-1] for row in matrix] for matrix in mdp.transitions]
        # per device d: (cum, stride) for each (action, state), shared by every pair
        rows = [
            [[(cum[a][s], mdp.n_states ** (mdp.n_devices - 1 - d)) for s in range(mdp.n_states)]
             for a in range(mdp.n_actions)]
            for d in range(mdp.n_devices)
        ]
        return JointTable(
            states=states,
            actions=actions,
            state_index={s: i for i, s in enumerate(states)},
            action_index={a: i for i, a in enumerate(actions)},
            capacity=tuple(tuple(mdp.total_capacity(s, a) for a in actions) for s in states),
            devices=tuple(
                tuple(tuple(rows[d][a_d][s_d] for d, (s_d, a_d) in enumerate(zip(s, a))) for a in actions)
                for s in states
            ),
        )


def check_total_capacity(n_devices: int, name: str, row, where: str = "") -> None:
    """Refuse a capacity row past MAX_TOTAL_CAPACITY in total; ``where`` prefixes the error."""
    if n_devices * max(row, default=0) > MAX_TOTAL_CAPACITY:
        raise LedgerError("BadFormat", f"{where}capacity {name}: {n_devices} devices of {max(row)} pass 2^53")


def sample_next(uniform, devices: DeviceRows) -> int:
    """Joint index of the next state: one ``uniform()`` draw per device, in
    device order, each mapped through ``bisect_right`` on its cumulative row
    (the first j with u < cum[j], else the last state)."""
    nxt = 0
    for cum, stride in devices:
        nxt += stride * bisect_right(cum, uniform())
    return nxt


def three_state_fixture() -> DeviceGroupMdp:
    """One device, three wear states (fresh/worn/broken), run vs repair.

    Running serves while the device lasts; repairing serves nothing for a
    step but restores the device. The optimal policy repairs worn and
    broken devices and runs fresh ones (checked against exhaustive policy
    enumeration in the tests).
    """
    run = ((0.7, 0.3, 0.0), (0.0, 0.6, 0.4), (0.0, 0.0, 1.0))
    repair = ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    return DeviceGroupMdp(
        n_devices=1,
        n_states=3,
        action_names=("run", "repair"),
        transitions=(run, repair),
        capacity=((1, 1, 0), (0, 0, 0)),
        arrival_kind=CONSTANT,
        arrival_rate=1.0,
    )

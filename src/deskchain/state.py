"""Aggregate chain state and its tree commitments.

The state is an in-memory container of frozen records. A block is applied
to one clone of its parent state, which copies the seven keyed stores but
shares the records, so the parent survives for forks. Within that clone a
transaction is rolled back through an undo journal, not another copy: while
the journal is open, every write to a store logs the key's prior value, a
savepoint is the journal's length plus the four scalar fields, and a
rollback pops the log back to it. ``tx._execute`` opens one journal per
block and empties and closes it after the last transaction, each of which
rolls back to a savepoint of its own; ``tx.apply_tx`` called alone opens and
closes its own journal. So no stored state holds entries.
Seven Merkle roots commit the state: accounts, names, a combined wormhole
tree (channels, storage contracts, AZs, and the reward pool, i.e. all
contract-ish objects), two oracle trees split by liveness, plus the
per-block transaction and possession-proof trees. Every tree has the
RFC 6962 shape of ``merkle``.

The account and name trees are position-stable and kept across blocks:
  - a key takes a leaf slot when the block that creates it ends, and keeps
    it for good; a block's new keys take the next slots in ascending key
    order, never in write order, so a miner that drops a candidate after
    it created an account and a replaying node agree, and a creation rolled
    back within the block takes no slot;
  - while a key with a slot is absent (a deleted account), its leaf digest
    is ``EMPTY_LEAF``, the all-zero hash;
  - every store write records its key in the store's ``written`` set, and
    a root sets only those keys' leaves and rehashes only their paths;
  - a clone copies the slot maps and level lists but shares the node bytes.
A leaf is its record's ``digest()``, which every ``codec.WireRecord``
computes once and keeps, so a shared account, name or oracle question is
encoded and hashed once however many states and roots use it. The wormhole
and oracle trees are small and are rebuilt in key order.

Conservation is a hard invariant: genesis total + minted coinbase must
always equal circulating balances + locks + deposits + pool funds + burned.
A block checks it by delta, over the keys it wrote; genesis sums it whole.
Maintenance is charged lazily: any credit, debit, or touch of an existing
account first settles the per-block fee accrued since its freshness height,
in the same ``Account.edit`` and store write that applies the amount. A
block's miner takes two credits: the coinbase first, its fees at the close.
Every write happens at the state's ``height`` under its ``cfg``: no primitive
here, nor any transition in ``channels``, ``oracles``, ``storage``,
``rewards`` or ``tx``, takes either as an argument.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .channels import CLOSED, Channel
from .codec import check_amount
from .config import NetworkConfig
from .crypto import ZERO32, hash256
from .errors import LedgerError
from .ledger import Account, NameRecord, charge_maintenance
from .merkle import MerkleLevels, tree_root
from .oracles import OracleQuestion
from .rewards import AZ, RewardPoolState
from .storage import StorageContract
from .vm import Program


_ABSENT = object()  # the prior "value" of a key that a write added


class StateDict(dict):
    """One of ChainState's seven keyed stores.

    Item assignment and ``del`` are the only writes a store takes. Each adds
    its key to ``written``, the keys written since the store was made or
    cloned (a rollback leaves them there). While the state's journal is
    open, ``log`` is that journal, and each write first appends ``(self,
    key, prior value or _ABSENT)`` to it.
    """

    log: list | None = None

    def __init__(self, *args) -> None:
        dict.__init__(self, *args)
        self.written: set = set()

    def __setitem__(self, key, value) -> None:
        if self.log is not None:
            self.log.append((self, key, self.get(key, _ABSENT)))
        self.written.add(key)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key) -> None:
        if self.log is not None:
            self.log.append((self, key, self[key]))
        self.written.add(key)
        dict.__delitem__(self, key)

    def need(self, key):
        """The record under ``key``; an absent one is LedgerError NotFound,
        naming a bytes key by its hex and a name by itself."""
        record = self.get(key)
        if record is None:
            raise LedgerError("NotFound", key.hex() if isinstance(key, bytes) else key)
        return record

    def _unlogged(self, *args, **kwargs):
        raise TypeError("a state store changes only by item assignment or del")

    pop = popitem = setdefault = update = clear = __ior__ = _unlogged


EMPTY_LEAF = ZERO32  # the leaf digest of a slot whose key is absent


class _Slots:
    """The leaf slots of one store's tree: keys in creation order.

    ``index`` holds the keys that got their slot in an earlier block; a key
    keeps it for good, and while the key is absent its leaf is
    ``EMPTY_LEAF``. ``fresh`` holds the keys present now with no slot yet,
    in ascending order; they take the next slots, so a block's new keys are
    placed by key, never by write order, and a creation rolled back before
    the block ends takes none. ``held`` is the record (or None) behind each
    leaf, so a leaf is set again only when its record is a new object.
    """

    __slots__ = ("index", "fresh", "held", "tree")

    def __init__(self) -> None:
        self.index: dict = {}
        self.fresh: list = []
        self.held: list = []
        self.tree = MerkleLevels()

    def sync(self, store: StateDict) -> MerkleLevels:
        """Bring the leaves up to date with the keys ``store`` wrote."""
        index, held, tree = self.index, self.held, self.tree
        fresh = []
        for key in store.written:
            record = store.get(key)
            slot = index.get(key)
            if slot is None:
                if record is not None:
                    fresh.append(key)
            elif held[slot] is not record:
                held[slot] = record
                tree.set(slot, EMPTY_LEAF if record is None else record.digest())
        fresh.sort()
        end = len(index) + len(fresh)
        if end < len(held):
            del held[end:]
            tree.truncate(end)
        for slot, key in enumerate(fresh, len(index)):
            record = store[key]
            if slot == len(held):
                held.append(record)
            elif held[slot] is record:
                continue
            else:
                held[slot] = record
            tree.set(slot, record.digest())
        self.fresh = fresh
        return tree

    def fork(self, store: StateDict) -> "_Slots":
        """The slots of a clone of ``store``'s state: this state's fresh keys
        have slots there."""
        self.sync(store)
        child = _Slots()
        child.index = dict(self.index)
        for key in self.fresh:
            child.index[key] = len(child.index)
        child.held = list(self.held)
        child.tree = self.tree.copy()
        return child


class Savepoint(NamedTuple):
    """Where ``ChainState.rollback`` returns to: the journal's length plus
    the scalar fields, which a write replaces instead of mutating."""

    length: int
    opened: bool  # this savepoint opened the journal, and its release closes it
    pool: RewardPoolState
    height: int
    minted_total: int
    burned_total: int


_STORES = ("accounts", "names", "channels", "oracles", "storage_contracts", "azs", "code")
# the value one record of each value-holding store holds, for conservation
_HELD = {
    "accounts": lambda account: account.balance,
    "channels": lambda channel: 0 if channel.status == CLOSED else channel.total,
    "oracles": OracleQuestion.escrowed,
    "storage_contracts": lambda contract: contract.escrow,
}


@dataclass
class ChainState:
    cfg: NetworkConfig
    accounts: StateDict[bytes, Account]
    names: StateDict[str, NameRecord]
    channels: StateDict[bytes, Channel]
    oracles: StateDict[bytes, OracleQuestion]
    storage_contracts: StateDict[bytes, StorageContract]
    azs: StateDict[bytes, AZ]
    pool: RewardPoolState
    code: StateDict[bytes, Program]
    height: int = 0
    genesis_total: int = 0
    minted_total: int = 0
    burned_total: int = 0

    def __post_init__(self) -> None:
        # the account and name trees' slots: not fields, since a rollback
        # leaves them be and they follow from the records and the blocks
        self._account_slots = _Slots()
        self._name_slots = _Slots()

    @staticmethod
    def genesis(cfg: NetworkConfig) -> "ChainState":
        state = ChainState(
            cfg=cfg,
            pool=RewardPoolState(q=cfg.pool_q0, endowment=cfg.genesis_endowment),
            genesis_total=cfg.genesis_total,
            **{name: StateDict() for name in _STORES},
        )
        for _, address, balance in cfg.genesis_accounts:
            if address in state.accounts:
                raise LedgerError("BadFormat", "duplicate genesis account")
            state.accounts[address] = Account(address, balance)
        return state

    def clone(self) -> "ChainState":
        """A copy of the stores sharing their records; its journal is closed.

        The copy starts a new block: the keys this state created have leaf
        slots there. It copies the slot maps and tree levels and shares their
        node bytes, so this state's roots stay as they were."""
        child = ChainState(
            cfg=self.cfg,
            pool=self.pool,
            height=self.height,
            genesis_total=self.genesis_total,
            minted_total=self.minted_total,
            burned_total=self.burned_total,
            **{name: StateDict(getattr(self, name)) for name in _STORES},
        )
        child._account_slots = self._account_slots.fork(self.accounts)
        child._name_slots = self._name_slots.fork(self.names)
        return child

    # --- undo journal ---

    def savepoint(self) -> Savepoint:
        """Mark this point for ``rollback`` in O(1), opening the journal if
        it is closed."""
        log = self.accounts.log
        opened = log is None
        if opened:
            log = []
            self._attach(log)
        return Savepoint(len(log), opened, self.pool, self.height, self.minted_total, self.burned_total)

    def rollback(self, mark: Savepoint) -> None:
        """Undo every write made since ``mark``, newest first."""
        log = self.accounts.log
        while len(log) > mark.length:
            store, key, prior = log.pop()
            if prior is _ABSENT:
                dict.__delitem__(store, key)
            else:
                dict.__setitem__(store, key, prior)
        self.pool, self.height = mark.pool, mark.height
        self.minted_total, self.burned_total = mark.minted_total, mark.burned_total

    def release(self, mark: Savepoint) -> None:
        """Keep the writes made since ``mark``. Releasing the savepoint that
        opened the journal empties and closes it; an inner one needs no
        release."""
        if mark.opened:
            self.accounts.log.clear()
            self._attach(None)

    def _attach(self, log: list | None) -> None:
        for name in _STORES:
            getattr(self, name).log = log

    # --- account plumbing ---

    def write_account(self, account: Account, balance: int, counter: int, burned: int) -> Account:
        """Store ``account`` edited, fresh at the state's height, in one write
        (none if nothing changes), and burn the maintenance ``burned`` settled
        on it."""
        edited = account.edit(balance, counter, self.height)
        if edited is not account:
            self.accounts[account.address] = edited
        self.burned_total += burned
        return edited

    def touch(self, address: bytes) -> Account:
        """Apply lazy maintenance before any use of an account."""
        self.accounts.need(address)
        return self.credit(address, 0)

    def credit(self, address: bytes, amount: int) -> Account:
        check_amount(amount, "credit")
        account = self.accounts.get(address)
        if account is None:
            self.accounts[address] = account = Account(address, amount, freshness=self.height)
            return account
        balance, burned = charge_maintenance(account, self.height, self.cfg.maintenance_rate)
        return self.write_account(account, balance + amount, account.counter, burned)

    def debit(self, address: bytes, amount: int) -> Account:
        """A shortfall raises and writes nothing."""
        check_amount(amount, "debit")
        account = self.accounts.get(address)
        balance, burned = charge_maintenance(account, self.height, self.cfg.maintenance_rate) if account else (0, 0)
        if account is None or balance < amount:
            raise LedgerError("InsufficientFunds", f"{balance} < {amount}")
        return self.write_account(account, balance - amount, account.counter, burned)

    def burn(self, amount: int) -> None:
        self.burned_total += check_amount(amount, "burn")

    def mint(self, address: bytes, amount: int) -> None:
        self.minted_total += check_amount(amount, "mint")
        self.credit(address, amount)

    def delete_account(self, address: bytes) -> None:
        account = self.accounts.need(address)
        if account.balance != 0:
            raise LedgerError("NonZeroBalance", f"balance {account.balance}")
        del self.accounts[address]

    def resolve_name(self, name: str) -> bytes:
        return self.names.need(name).target

    # --- commitments ---

    def account_root(self) -> bytes:
        return tree_root(self._account_slots.sync(self.accounts))

    def name_root(self) -> bytes:
        return tree_root(self._name_slots.sync(self.names))

    def wormhole_root(self) -> bytes:
        items = [b"C" + self.channels[k].encode() for k in sorted(self.channels)]
        items += [b"S" + self.storage_contracts[k].encode() for k in sorted(self.storage_contracts)]
        items += [b"Z" + self.azs[k].encode() for k in sorted(self.azs)]
        items.append(b"P" + self.pool.encode())
        return tree_root([hash256(item) for item in items])

    def oracle_open_root(self) -> bytes:
        live = [k for k in sorted(self.oracles) if self.oracles[k].phase in ("open", "answered", "contested")]
        return tree_root([self.oracles[k].digest() for k in live])

    def oracle_answer_root(self) -> bytes:
        done = [k for k in sorted(self.oracles) if self.oracles[k].phase in ("resolved", "burned")]
        return tree_root([self.oracles[k].digest() for k in done])

    # --- invariants ---

    def held(self, name: str) -> int:
        """The value one of the ``_HELD`` stores holds, for conservation."""
        return sum(map(_HELD[name], getattr(self, name).values()))

    def _scalar_sides(self) -> tuple[int, int]:
        """The sources, and the sinks held outside the keyed stores."""
        pool = self.pool
        return self.genesis_total + self.minted_total, pool.pool_balance + pool.endowment + self.burned_total

    def conservation_sides(self) -> tuple[int, int]:
        """Sources and sinks summed over the whole state."""
        sources, sinks = self._scalar_sides()
        return sources, sinks + sum(self.held(name) for name in _HELD)

    def _conservation_change(self, parent: "ChainState") -> tuple[int, int]:
        """How far sources and sinks moved since ``parent``: the keyed stores'
        part over the keys each value-holding store wrote since the clone."""
        (sources, sinks), (parent_sources, parent_sinks) = self._scalar_sides(), parent._scalar_sides()
        sinks -= parent_sinks
        for name, held in _HELD.items():
            store, before = getattr(self, name), getattr(parent, name)
            for key in store.written:
                now, then = store.get(key), before.get(key)
                sinks += (0 if now is None else held(now)) - (0 if then is None else held(then))
        return sources - parent_sources, sinks

    def check_invariants(self, parent: "ChainState | None" = None) -> None:
        """Conservation, and the key and freshness rules, over the keys written
        since ``parent``, the state this one was cloned from: the change in
        sources must equal the change in sinks, relative to a parent that
        passed its own check. Genesis, or no parent, checks every key and sums
        the whole state. That is exact: a record no one wrote passed when it
        was written, and the height only grows."""
        genesis = self.height == 0
        whole = genesis or parent is None
        sources, sinks = self.conservation_sides() if whole else self._conservation_change(parent)
        if sources != sinks:
            raise LedgerError("Conservation", f"{sources} != {sinks}")
        for name in self.names if genesis else self.names.written:
            record = self.names.get(name)
            if record is not None and record.name != name:
                raise LedgerError("BadFormat", f"name key mismatch for {name!r}")
        for address in self.accounts if genesis else self.accounts.written:
            account = self.accounts.get(address)
            if account is None:
                continue
            if account.address != address:
                raise LedgerError("BadFormat", "account key mismatch")
            if account.freshness > self.height:
                raise LedgerError("BadHeight", "freshness beyond chain height")

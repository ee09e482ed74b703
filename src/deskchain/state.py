"""Aggregate chain state and its tree commitments.

The state is an in-memory container of frozen records. A block is applied
to one clone of its parent state, which copies the seven keyed stores but
shares the records, so the parent survives for forks. Within that clone a
transaction is rolled back through an undo journal, not another copy: while
the journal is open, every write to a store logs the key's prior value, a
savepoint is the journal's length plus the four scalar fields, and a
rollback pops the log back to it. ``tx.apply_tx`` opens the journal and
empties and closes it when it returns, so no stored state holds entries.
Accounts and name records carry their cached leaf digest, so a shared
record is encoded and hashed once however many states and roots use it;
only the records a block replaces are hashed again.
Seven Merkle roots commit the state: accounts, names, a combined wormhole
tree (channels, storage contracts, AZs, and the reward pool, i.e. all
contract-ish objects), two oracle trees split by liveness, plus the
per-block transaction and possession-proof trees.

Conservation is a hard invariant: genesis total + minted coinbase must
always equal circulating balances + locks + deposits + pool funds + burned.
Maintenance is charged lazily: any credit, debit, or touch of an existing
account first settles the per-block fee accrued since its freshness height.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .channels import CLOSED, Channel
from .codec import check_amount
from .config import NetworkConfig
from .crypto import hash256
from .errors import LedgerError
from .ledger import Account, NameRecord, charge_maintenance
from .merkle import tree_root
from .oracles import OracleQuestion
from .rewards import AZ, RewardPoolState
from .storage import StorageContract
from .vm import Program


_ABSENT = object()  # the prior "value" of a key that a write added


class StateDict(dict):
    """One of ChainState's seven keyed stores.

    While its state's journal is open, ``log`` is that journal, and item
    assignment and ``del`` first append ``(self, key, prior value or
    _ABSENT)`` to it. They are the only writes a store takes.
    """

    log: list | None = None

    def __setitem__(self, key, value) -> None:
        if self.log is not None:
            self.log.append((self, key, self.get(key, _ABSENT)))
        dict.__setitem__(self, key, value)

    def __delitem__(self, key) -> None:
        if self.log is not None:
            self.log.append((self, key, self[key]))
        dict.__delitem__(self, key)

    def _unlogged(self, *args, **kwargs):
        raise TypeError("a state store changes only by item assignment or del")

    pop = popitem = setdefault = update = clear = __ior__ = _unlogged


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

    @staticmethod
    def genesis(cfg: NetworkConfig) -> "ChainState":
        accounts = StateDict()
        for _, address, balance in cfg.genesis_accounts:
            if address in accounts:
                raise LedgerError("BadFormat", "duplicate genesis account")
            accounts[address] = Account(address, balance)
        return ChainState(
            cfg=cfg,
            accounts=accounts,
            names=StateDict(),
            channels=StateDict(),
            oracles=StateDict(),
            storage_contracts=StateDict(),
            azs=StateDict(),
            pool=RewardPoolState(q=cfg.pool_q0, endowment=cfg.genesis_endowment),
            code=StateDict(),
            genesis_total=cfg.genesis_total,
        )

    def clone(self) -> "ChainState":
        """A copy of the stores sharing their records; its journal is closed."""
        return ChainState(
            cfg=self.cfg,
            accounts=StateDict(self.accounts),
            names=StateDict(self.names),
            channels=StateDict(self.channels),
            oracles=StateDict(self.oracles),
            storage_contracts=StateDict(self.storage_contracts),
            azs=StateDict(self.azs),
            pool=self.pool,
            code=StateDict(self.code),
            height=self.height,
            genesis_total=self.genesis_total,
            minted_total=self.minted_total,
            burned_total=self.burned_total,
        )

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

    def _maintain(self, address: bytes, height: int) -> Account:
        account = self.accounts[address]
        updated, collected, _ = charge_maintenance(account, height, self.cfg.maintenance_rate)
        if collected:
            self.burned_total += collected
        if updated is not account:
            self.accounts[address] = updated
        return updated

    def touch(self, address: bytes, height: int) -> Account:
        """Apply lazy maintenance before any use of an account."""
        if address not in self.accounts:
            raise LedgerError("NotFound", address.hex())
        return self._maintain(address, height)

    def credit(self, address: bytes, amount: int, height: int) -> Account:
        check_amount(amount, "credit")
        if address in self.accounts:
            account = self._maintain(address, height)
        else:
            account = Account(address, 0, freshness=height)
        account = Account(
            address, account.balance + amount, account.counter, height, account.kind, account.code_hash
        )
        self.accounts[address] = account
        return account

    def debit(self, address: bytes, amount: int, height: int) -> Account:
        check_amount(amount, "debit")
        account = self._maintain(address, height) if address in self.accounts else None
        if account is None or account.balance < amount:
            have = account.balance if account else 0
            raise LedgerError("InsufficientFunds", f"{have} < {amount}")
        account = Account(
            address, account.balance - amount, account.counter, height, account.kind, account.code_hash
        )
        self.accounts[address] = account
        return account

    def burn(self, amount: int) -> None:
        self.burned_total += check_amount(amount, "burn")

    def mint(self, address: bytes, amount: int, height: int) -> None:
        self.minted_total += check_amount(amount, "mint")
        self.credit(address, amount, height)

    def delete_account(self, address: bytes) -> None:
        account = self.accounts.get(address)
        if account is None:
            raise LedgerError("NotFound", address.hex())
        if account.balance != 0:
            raise LedgerError("NonZeroBalance", f"balance {account.balance}")
        del self.accounts[address]

    def resolve_name(self, name: str) -> bytes:
        record = self.names.get(name)
        if record is None:
            raise LedgerError("NotFound", name)
        return record.target

    # --- commitments ---

    def account_root(self) -> bytes:
        return tree_root([self.accounts[k].digest() for k in sorted(self.accounts)])

    def name_root(self) -> bytes:
        return tree_root([self.names[k].digest() for k in sorted(self.names)])

    def wormhole_root(self) -> bytes:
        items = [b"C" + self.channels[k].encode() for k in sorted(self.channels)]
        items += [b"S" + self.storage_contracts[k].encode() for k in sorted(self.storage_contracts)]
        items += [b"Z" + self.azs[k].encode() for k in sorted(self.azs)]
        items.append(b"P" + self.pool.encode())
        return tree_root([hash256(item) for item in items])

    def oracle_open_root(self) -> bytes:
        live = [k for k in sorted(self.oracles) if self.oracles[k].phase in ("open", "answered", "contested")]
        return tree_root([hash256(self.oracles[k].encode()) for k in live])

    def oracle_answer_root(self) -> bytes:
        done = [k for k in sorted(self.oracles) if self.oracles[k].phase in ("resolved", "burned")]
        return tree_root([hash256(self.oracles[k].encode()) for k in done])

    # --- invariants ---

    def locked_in_channels(self) -> int:
        return sum(c.total for c in self.channels.values() if c.status != CLOSED)

    def oracle_deposits(self) -> int:
        return sum(q.escrowed() for q in self.oracles.values())

    def storage_escrow(self) -> int:
        return sum(s.escrow for s in self.storage_contracts.values())

    def circulating(self) -> int:
        return sum(a.balance for a in self.accounts.values())

    def conservation_sides(self) -> tuple[int, int]:
        sources = self.genesis_total + self.minted_total
        sinks = (
            self.circulating()
            + self.locked_in_channels()
            + self.oracle_deposits()
            + self.storage_escrow()
            + self.pool.pool_balance
            + self.pool.endowment
            + self.burned_total
        )
        return sources, sinks

    def check_invariants(self) -> None:
        sources, sinks = self.conservation_sides()
        if sources != sinks:
            raise LedgerError("Conservation", f"{sources} != {sinks}")
        for name, record in self.names.items():
            if record.name != name:
                raise LedgerError("BadFormat", f"name key mismatch for {name!r}")
        for address, account in self.accounts.items():
            if account.address != address:
                raise LedgerError("BadFormat", "account key mismatch")
            if account.freshness > self.height:
                raise LedgerError("BadHeight", "freshness beyond chain height")

"""A reference ledger model: the account rules of README and the paper,
written out again over plain dicts, for ``test_model.py`` to hold
``tx.build_block`` and ``tx.apply_block`` against.

An account is a ``(balance, counter, freshness)`` tuple keyed by address. The
model covers the coinbase, lazy maintenance, the fee envelope and the miner's
credit at block close, and Spend, DataOnly, NameClaim, AccountDelete and a
ContractCall to an account that holds no code. It runs no VM: the gas a call
used is an input, read from its receipt.
"""
from deskchain import tx as txmod

APPLIED, REVERTED = "applied", "reverted"


class Model:
    def __init__(self, cfg):
        self.accounts = {address: (balance, 0, 0) for _, address, balance in cfg.genesis_accounts}
        self.names: dict[str, tuple[bytes, bytes]] = {}  # name -> (target, owner)
        self.endowment = cfg.genesis_endowment
        self.minted = self.burned = 0
        self.height = 0
        self.cfg = cfg

    # --- accounts ---

    def settled(self, address: bytes) -> tuple[int, int]:
        """Balance and counter once the maintenance accrued since the account
        was last fresh is paid: the rate per block, never more than the
        balance. Burns what it takes."""
        balance, counter, fresh = self.accounts[address]
        due = min(balance, self.cfg.maintenance_rate * (self.height - fresh))
        self.burned += due
        return balance - due, counter

    def credit(self, address: bytes, amount: int) -> None:
        """A credit settles an account and leaves it fresh; one to an absent
        address opens a new account there."""
        if address in self.accounts:
            balance, counter = self.settled(address)
            amount += balance
        else:
            counter = 0
        self.accounts[address] = (amount, counter, self.height)

    def debit(self, address: bytes, amount: int) -> bool:
        """A debit the settled balance cannot cover changes nothing."""
        if address not in self.accounts:
            return False
        burned = self.burned
        balance, counter = self.settled(address)
        if balance < amount:
            self.burned = burned
            return False
        self.accounts[address] = (balance - amount, counter, self.height)
        return True

    # --- blocks ---

    def block(self, miner: bytes, height: int, candidates: list, gas_used: dict) -> tuple[list, list]:
        """Mine ``candidates`` in this order at ``height``: the coinbase first,
        then each applicable tx, then one credit of every fee paid to the
        miner. Returns the txs included and their receipts as (status,
        reason, fee paid); ``gas_used`` maps a call's hash to its gas."""
        self.height = height
        subsidy = self.cfg.coinbase_initial >> ((height - 1) // self.cfg.coinbase_halving_blocks)
        self.minted += subsidy
        self.credit(miner, subsidy)
        included, receipts = [], []
        for t in candidates:
            receipt = self.apply(t, gas_used.get(t.digest(), 0))
            if receipt is not None:
                included.append(t)
                receipts.append(receipt)
        fees = sum(fee for _, _, fee in receipts)
        if fees:
            self.credit(miner, fees)
        return included, receipts

    def apply(self, t, gas_used: int):
        """One tx's receipt, or None if no block may carry it."""
        sender = txmod.tx_sender(t)
        calls = isinstance(t, txmod.ContractCall)
        fee = t.gas_price * len(t.payload) if isinstance(t, txmod.DataOnly) else t.fee
        if calls and (t.gas < 1 or t.gas_price < 1 or fee != t.gas * t.gas_price):
            return None
        if fee < 1 and not isinstance(t, txmod.DataOnly):
            return None
        if isinstance(t, txmod.AccountDelete) and t.target == sender:
            return None
        if sender not in self.accounts or t.counter != self.accounts[sender][1] + 1:
            return None
        burned = self.burned
        balance, _ = self.settled(sender)
        if balance < fee:
            self.burned = burned
            return None
        # the fee and the counter bump stand whatever the tx does next
        self.accounts[sender] = (balance - fee, t.counter, self.height)
        saved = dict(self.accounts), dict(self.names), self.endowment, self.burned
        reason = self.effect(t, sender)
        if reason:
            self.accounts, self.names, self.endowment, self.burned = saved
            return REVERTED, reason, fee
        if calls:
            refund = (t.gas - gas_used) * t.gas_price
            if refund:
                self.credit(sender, refund)
            return APPLIED, "", gas_used * t.gas_price
        return APPLIED, "", fee

    def effect(self, t, sender: bytes) -> str:
        """The tx's own change; a revert's reason, or '' if it applied."""
        if isinstance(t, (txmod.Spend, txmod.ContractCall)):
            recipient = t.recipient if isinstance(t, txmod.Spend) else t.contract
            if not self.debit(sender, t.amount):
                return "InsufficientFunds"
            self.credit(recipient, t.amount)
        elif isinstance(t, txmod.NameClaim):
            if t.name in self.names:
                return "NameTaken"
            self.names[t.name] = (t.target, t.owner)
        elif isinstance(t, txmod.AccountDelete):
            if t.target not in self.accounts:
                return "NotFound"
            balance, _ = self.settled(t.target)
            if balance:
                return "NonZeroBalance"
            del self.accounts[t.target]
            reward = min(self.cfg.delete_reward, self.endowment)
            if reward:
                self.endowment -= reward
                self.credit(sender, reward)
        return ""

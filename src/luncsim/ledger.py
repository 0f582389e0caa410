"""Account and module-account bookkeeping with supply tracking.

The bank holds user accounts and a fixed registry of named module accounts
(fee collection, burn staging, community pool, bond pools, treasury, reward
accrual). Balances are stored by denom, one column per denom:
`accounts[denom][address]` and `modules[denom][module]`, like the
denom-to-address index Cosmos SDK's x/bank keeps beside its balances. A
stored amount is > 0, or a 0 seeded at genesis. Readers that want one
owner's coins (`module_balances`, `canonical`, and `state.state_hash` for
the account table) regroup the columns by owner when they read them. A
column, once made, is never removed: an undo entry holds the column it was
saved from, and a rollback writes the pre-image back into that column.
Every transfer is the one debit (`_take`), then the one credit (`_give`);
every writer tests the journal's depth before it saves a pre-image.

Every mint and burn is recorded so the supply identity

    total supply == genesis supply + cumulative minted - cumulative burned

can be checked per denomination at any block boundary, alongside the
balance-sum identity (total supply == sum of the denom's account and module
columns) and the coin contract (no stored amount is negative). The check
reads every stored balance, with one `sum` and one `min` per column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coins import coins_as_strings
from .errors import InsufficientFunds, InvariantViolation, UnknownModule
from .journal import Journal

FEE_COLLECTOR = "FeeCollector"
BURN_MODULE = "BurnModule"
COMMUNITY_POOL = "CommunityPool"
BONDED_POOL = "BondedPool"
NOT_BONDED_POOL = "NotBondedPool"
TREASURY = "Treasury"
DISTRIBUTION = "Distribution"

# Registered once at genesis; names are unique and never change afterwards.
DEFAULT_MODULE_ACCOUNTS = (
    FEE_COLLECTOR,
    BURN_MODULE,
    COMMUNITY_POOL,
    BONDED_POOL,
    NOT_BONDED_POOL,
    TREASURY,
    DISTRIBUTION,
)
_REGISTERED = frozenset(DEFAULT_MODULE_ACCOUNTS)


@dataclass
class SupplyLedger:
    """Per-denom running totals backing the supply identity."""

    totals: dict = field(default_factory=dict)
    genesis_totals: dict = field(default_factory=dict)
    cumulative_minted: dict = field(default_factory=dict)
    cumulative_burned: dict = field(default_factory=dict)

    def canonical(self) -> dict:
        return {
            "totals": coins_as_strings(self.totals),
            "genesis": coins_as_strings(self.genesis_totals),
            "minted": coins_as_strings(self.cumulative_minted),
            "burned": coins_as_strings(self.cumulative_burned),
        }


class Bank:
    """Mutable balance store. All operations either complete or raise."""

    def __init__(self):
        self.accounts: dict = {}   # {denom: {address: amount}}
        self.modules: dict = {}    # {denom: {module: amount}}
        self.supply = SupplyLedger()
        # the owning ChainState's undo journal, or the bank's own
        self.journal = Journal()

    # -- genesis seeding ---------------------------------------------------

    def genesis_credit_account(self, address: str, denom: str, amount: int) -> None:
        self._give(self.accounts, address, {denom: amount})
        self._bump(self.supply.totals, denom, amount)
        self._bump(self.supply.genesis_totals, denom, amount)

    def genesis_credit_accounts(self, columns: dict) -> None:
        """Adopt {denom: {address: amount >= 0}} as the accounts of a bank with
        none; each denom's supply grows by its column's sum."""
        self.accounts = columns
        for d, col in columns.items():
            self._bump(self.supply.totals, d, a := sum(col.values()))
            self._bump(self.supply.genesis_totals, d, a)

    def genesis_credit_module(self, name: str, denom: str, amount: int) -> None:
        if name not in _REGISTERED:
            raise _unknown(name)
        self._give(self.modules, name, {denom: amount})
        self._bump(self.supply.totals, denom, amount)
        self._bump(self.supply.genesis_totals, denom, amount)

    # -- queries -----------------------------------------------------------

    def module_balance(self, name: str, denom: str) -> int:
        if name not in _REGISTERED:
            raise _unknown(name)
        return self.modules.get(denom, {}).get(name, 0)

    def module_balances(self, name: str) -> dict:
        if name not in _REGISTERED:
            raise _unknown(name)
        return _owned(self.modules, name)

    def total_supply(self, denom: str) -> int:
        return self.supply.totals.get(denom, 0)

    # -- transfers: the one debit, then the one credit ----------------------

    def transfer(self, sender: str, recipient: str, coins: dict) -> None:
        self._take(self.accounts, sender, coins)
        self._give(self.accounts, recipient, coins)

    def send_account_to_module(self, sender: str, module: str, coins: dict) -> None:
        if module not in _REGISTERED:
            raise _unknown(module)
        self._take(self.accounts, sender, coins)
        self._give(self.modules, module, coins)

    def send_module_to_account(self, module: str, recipient: str, coins: dict) -> None:
        if module not in _REGISTERED:
            raise _unknown(module)
        self._take(self.modules, module, coins)
        self._give(self.accounts, recipient, coins)

    def send_module_to_module(self, src_module: str, dst_module: str, coins: dict) -> None:
        for name in (src_module, dst_module):
            if name not in _REGISTERED:
                raise _unknown(name)
        self._take(self.modules, src_module, coins)
        self._give(self.modules, dst_module, coins)

    # -- supply changes ----------------------------------------------------

    def mint(self, module: str, coins: dict) -> None:
        """Create coins inside a module account, growing total supply."""
        if module not in _REGISTERED:
            raise _unknown(module)
        if coins:
            self._give(self.modules, module, coins)
            if self.journal.depth:
                self.journal.save(vars(self.supply), "totals")
                self.journal.save(vars(self.supply), "cumulative_minted")
        for d, a in coins.items():
            self._bump(self.supply.totals, d, a)
            self._bump(self.supply.cumulative_minted, d, a)

    def burn(self, module: str, coins: dict) -> None:
        """Destroy coins held by a module account, shrinking total supply."""
        if module not in _REGISTERED:
            raise _unknown(module)
        if coins:
            self._take(self.modules, module, coins)
            if self.journal.depth:
                self.journal.save(vars(self.supply), "totals")
                self.journal.save(vars(self.supply), "cumulative_burned")
        for d, a in coins.items():
            self._bump(self.supply.totals, d, -a)
            self._bump(self.supply.cumulative_burned, d, a)

    # -- identity checks ---------------------------------------------------

    def verify_supply_identity(self) -> None:
        """A full walk over every stored balance, one `sum` and one `min` a column."""
        supply = self.supply
        held: dict = {}
        for table in (self.accounts, self.modules):
            for d, col in table.items():
                if min(col.values(), default=0) < 0:
                    owner = min(col, key=col.get)
                    raise InvariantViolation(f"negative balance: {owner} holds {col[owner]} {d}")
                held[d] = held.get(d, 0) + sum(col.values())
        denoms = {*supply.totals, *supply.genesis_totals, *supply.cumulative_minted,
                  *supply.cumulative_burned, *held}
        for d in denoms:
            total = supply.totals.get(d, 0)
            expected = (
                supply.genesis_totals.get(d, 0)
                + supply.cumulative_minted.get(d, 0)
                - supply.cumulative_burned.get(d, 0)
            )
            if total != expected:
                raise InvariantViolation(
                    f"supply identity broken for {d}: total {total} != genesis+minted-burned {expected}"
                )
            if total != held.get(d, 0):
                raise InvariantViolation(
                    f"balance sum broken for {d}: total {total} != held {held.get(d, 0)}"
                )

    def canonical(self) -> dict:
        """The bank as hashed, with an empty account table: `state_hash`
        writes the table straight from the columns."""
        return {
            "accounts": {},
            "modules": {name: coins_as_strings(_owned(self.modules, name))
                        for name in sorted(DEFAULT_MODULE_ACCOUNTS)},
            "supply": self.supply.canonical(),
        }

    # -- internals ----------------------------------------------------------

    def _take(self, table: dict, owner: str, coins: dict) -> None:
        """The one debit: take `coins` from `owner` in `table`
        (`accounts` or `modules`), or raise untouched."""
        for d, a in coins.items():
            col = table.get(d)
            if col is None or col.get(owner, 0) < a:
                who = owner if table is self.accounts else f"module {owner}"
                raise InsufficientFunds("{} cannot cover {}", who, coins)
        saving = self.journal.depth
        for d, a in coins.items():
            col = table[d]
            if saving:
                self.journal.save(col, owner)
            rem = col[owner] - a
            if rem:
                col[owner] = rem
            else:
                del col[owner]

    def _give(self, table: dict, owner: str, coins: dict) -> None:
        """The one credit: add `coins` to `owner` in `table`, inside a branch
        saving each pre-image first."""
        saving = self.journal.depth
        for d, a in coins.items():
            col = table.get(d)
            if col is None:
                col = table[d] = {}
            if saving:
                self.journal.save(col, owner)
            col[owner] = col.get(owner, 0) + a

    @staticmethod
    def _bump(store: dict, denom: str, delta: int) -> None:
        new = store.get(denom, 0) + delta
        if new:
            store[denom] = new
        else:
            store.pop(denom, None)


def _unknown(name: str) -> UnknownModule:
    return UnknownModule(f"module account {name!r} is not registered")


def _owned(table: dict, owner: str) -> dict:
    """`owner`'s {denom: amount} in a columnar table, genesis zeros kept."""
    return {d: col[owner] for d, col in table.items() if owner in col}

"""Account and module-account bookkeeping with supply tracking.

The bank holds user accounts and a fixed registry of named module accounts
(fee collection, burn staging, community pool, bond pools, treasury, reward
accrual). Every mint and burn is recorded so the supply identity

    total supply == genesis supply + cumulative minted - cumulative burned

can be checked per denomination at any block boundary, alongside the
balance-sum identity (total supply == sum of every account and module
balance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coins import coins_ge, coins_as_strings
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

    def __init__(self, module_names=DEFAULT_MODULE_ACCOUNTS):
        self.accounts: dict = {}
        self.modules: dict = {name: {} for name in module_names}
        self.supply = SupplyLedger()
        # the owning ChainState's undo journal, or the bank's own
        self.journal = Journal()

    # -- genesis seeding ---------------------------------------------------

    def genesis_credit_account(self, address: str, denom: str, amount: int) -> None:
        self._give(self.accounts, address, {denom: amount})
        self._bump(self.supply.totals, denom, amount)
        self._bump(self.supply.genesis_totals, denom, amount)

    def genesis_credit_accounts(self, balances: dict, totals: dict) -> None:
        """Adopt {address: {denom: amount >= 0}} as the accounts of a bank with
        none; `totals` holds each denom's sum over them."""
        self.accounts = balances
        for d, a in totals.items():
            self._bump(self.supply.totals, d, a)
            self._bump(self.supply.genesis_totals, d, a)

    def genesis_credit_module(self, name: str, denom: str, amount: int) -> None:
        self._module(name)
        self._give(self.modules, name, {denom: amount})
        self._bump(self.supply.totals, denom, amount)
        self._bump(self.supply.genesis_totals, denom, amount)

    # -- queries -----------------------------------------------------------

    def balance(self, address: str, denom: str) -> int:
        return self.accounts.get(address, {}).get(denom, 0)

    def balances(self, address: str) -> dict:
        return dict(self.accounts.get(address, {}))

    def module_balance(self, name: str, denom: str) -> int:
        return self._module(name).get(denom, 0)

    def module_balances(self, name: str) -> dict:
        return dict(self._module(name))

    def total_supply(self, denom: str) -> int:
        return self.supply.totals.get(denom, 0)

    # -- transfers ---------------------------------------------------------

    def transfer(self, sender: str, recipient: str, coins: dict) -> None:
        self._move(self.accounts, sender, self.accounts, recipient, coins)

    def send_account_to_module(self, sender: str, module: str, coins: dict) -> None:
        self._module(module)
        self._move(self.accounts, sender, self.modules, module, coins)

    def send_module_to_account(self, module: str, recipient: str, coins: dict) -> None:
        self._module(module)
        self._move(self.modules, module, self.accounts, recipient, coins)

    def send_module_to_module(self, src_module: str, dst_module: str, coins: dict) -> None:
        self._module(src_module)
        self._module(dst_module)
        self._move(self.modules, src_module, self.modules, dst_module, coins)

    # -- supply changes ----------------------------------------------------

    def mint(self, module: str, coins: dict) -> None:
        """Create coins inside a module account, growing total supply."""
        self._module(module)
        if coins:
            self._give(self.modules, module, coins)
            self._save_supply("totals", "cumulative_minted")
        for d, a in coins.items():
            self._bump(self.supply.totals, d, a)
            self._bump(self.supply.cumulative_minted, d, a)

    def burn(self, module: str, coins: dict) -> None:
        """Destroy coins held by a module account, shrinking total supply."""
        self._module(module)
        if coins:
            self._take(self.modules, module, coins)
            self._save_supply("totals", "cumulative_burned")
        for d, a in coins.items():
            self._bump(self.supply.totals, d, -a)
            self._bump(self.supply.cumulative_burned, d, a)

    # -- identity checks ---------------------------------------------------

    def verify_supply_identity(self) -> None:
        denoms = set(self.supply.totals) | set(self.supply.genesis_totals)
        denoms |= set(self.supply.cumulative_minted) | set(self.supply.cumulative_burned)
        held: dict = {}
        for bal in self.accounts.values():
            for d, a in bal.items():
                held[d] = held.get(d, 0) + a
        for bal in self.modules.values():
            for d, a in bal.items():
                held[d] = held.get(d, 0) + a
        for d in denoms | set(held):
            total = self.supply.totals.get(d, 0)
            expected = (
                self.supply.genesis_totals.get(d, 0)
                + self.supply.cumulative_minted.get(d, 0)
                - self.supply.cumulative_burned.get(d, 0)
            )
            if total != expected:
                raise InvariantViolation(
                    f"supply identity broken for {d}: total {total} != genesis+minted-burned {expected}"
                )
            if total != held.get(d, 0):
                raise InvariantViolation(
                    f"balance sum broken for {d}: total {total} != held {held.get(d, 0)}"
                )

    def account_entries(self):
        """The account table as hashed: (address, balance with string amounts)
        in address order, empty balances skipped."""
        accounts = self.accounts
        for addr in sorted(accounts):
            bal = accounts[addr]
            if bal:
                yield addr, coins_as_strings(bal)

    def canonical(self, accounts: bool = True) -> dict:
        """`accounts=False` leaves the account table empty, for a stream of
        `account_entries` to fill in."""
        return {
            "accounts": dict(self.account_entries()) if accounts else {},
            "modules": {name: coins_as_strings(bal) for name, bal in sorted(self.modules.items())},
            "supply": self.supply.canonical(),
        }

    # -- internals ----------------------------------------------------------

    def _module(self, name: str) -> dict:
        store = self.modules.get(name)
        if store is None:
            raise UnknownModule(f"module account {name!r} is not registered")
        return store

    def _save_supply(self, *names: str) -> None:
        for name in names:
            self.journal.save(vars(self.supply), name)

    def _take(self, table: dict, owner: str, coins: dict) -> None:
        """The one debit: take non-empty `coins` from `table[owner]`, or raise untouched."""
        src = table.get(owner, {})
        if not coins_ge(src, coins):
            who = owner if table is self.accounts else f"module {owner}"
            raise InsufficientFunds(f"{who} cannot cover {coins}")
        self.journal.save(table, owner)
        self._debit(src, coins)

    def _give(self, table: dict, owner: str, coins: dict) -> None:
        """The one credit: add `coins` to `table[owner]`, saving its pre-image first."""
        self.journal.save(table, owner)
        store = table.setdefault(owner, {})
        for d, a in coins.items():
            store[d] = store.get(d, 0) + a

    def _move(self, src: dict, owner: str, dst: dict, recipient: str, coins: dict) -> None:
        """Debit `src[owner]` and credit `dst[recipient]`; empty coins are a no-op."""
        if coins:
            self._take(src, owner, coins)
            self._give(dst, recipient, coins)

    @staticmethod
    def _debit(store: dict, coins: dict) -> None:
        for d, a in coins.items():
            rem = store[d] - a
            if rem:
                store[d] = rem
            else:
                del store[d]

    @staticmethod
    def _bump(store: dict, denom: str, delta: int) -> None:
        new = store.get(denom, 0) + delta
        if new:
            store[denom] = new
        else:
            store.pop(denom, None)

"""Shared builders for the test modules, and the state hash's oracle."""

import hashlib
import json
from fractions import Fraction

from luncsim.ante import AnteConfig
from luncsim.distribution import DistributionParams, DistributionState
from luncsim.errors import ParseError
from luncsim.governance import GovernanceState, GovParams
from luncsim.inputs import integer
from luncsim.ledger import Bank
from luncsim.scenario import parse_event
from luncsim.staking import HeightGates, StakingParams, StakingState, genesis_bond
from luncsim.state import ChainState
from luncsim.treasury import TreasuryState

# gates far away from the heights most tests use
FAR_GATES = HeightGates(
    staking_power_upgrade_height=10**9,
    delegate_power_revert_height=10**9 + 1,
    staking_power_revert_height=2 * 10**9,
    protect_power_height=10**9 + 2,
)


def read_tx(raw: dict):
    """A tx as a `submit-tx` scenario event reads it."""
    return parse_event({"at_height": 0, "action": "submit-tx", "tx": raw}).payload["tx"]


def fresh_bank(accounts=None) -> Bank:
    bank = Bank()
    for address, denom, amount in accounts or []:
        bank.genesis_credit_account(address, denom, amount)
    return bank


def balance(bank: Bank, address: str, denom: str) -> int:
    """An account's stored amount of `denom`, 0 when it holds none."""
    return bank.accounts.get(denom, {}).get(address, 0)


def staking_fixture(bank=None, validators=None, gates=FAR_GATES,
                    params=None) -> StakingState:
    """Validators as (address, tokens[, version]) with stake self-bonded."""
    bank = bank if bank is not None else fresh_bank()
    st = StakingState(gates=gates, params=params or StakingParams())
    for entry in validators or []:
        address, tokens = entry[0], entry[1]
        version = entry[2] if len(entry) > 2 else "v21"
        bank.genesis_credit_account(address, st.params.bond_denom, tokens)
        genesis_bond(bank, st, address, tokens, version)
    return st


def chain_fixture(accounts=None, validators=None, gates=FAR_GATES,
                  tax_rate="0", epoch_length=86_400, **overrides) -> ChainState:
    bank = fresh_bank(accounts)
    st = staking_fixture(bank=bank, validators=validators, gates=gates)
    kwargs = dict(
        bank=bank,
        staking=st,
        treasury=TreasuryState(tax_rate=Fraction(tax_rate),
                               epoch_length_blocks=epoch_length),
        distribution=DistributionState(params=DistributionParams()),
        governance=GovernanceState(params=GovParams()),
        ante=AnteConfig(),
    )
    kwargs.update(overrides)
    return ChainState(**kwargs)


def full_canonical(value) -> dict:
    """`canonical()` of a Bank or a ChainState with the account table that
    `canonical()` leaves empty filled in as the state hash commits to it:
    `{address: {denom: str(amount)}}`, regrouped from the columns, with no
    entry for an address that stores no amount and a genesis zero kept."""
    if not isinstance(value, Bank):
        return {**value.canonical(), "bank": full_canonical(value.bank)}
    table: dict = {}
    for denom, column in value.accounts.items():
        for address, amount in column.items():
            table.setdefault(address, {})[denom] = str(amount)
    return {**value.canonical(), "accounts": table}


def blob_hash(state: ChainState) -> str:
    """The state hash by its definition: sha256 of one JSON blob of the full
    canonical form, with sorted keys and escaped to ASCII."""
    blob = json.dumps(full_canonical(state), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def read_accounts_one_at_a_time(entries: list) -> tuple:
    """`build_state`'s account pass as an entry-at-a-time reader: the
    `{denom: {address: amount}}` columns and each denom's total, or the
    ParseError of the first bad entry."""
    columns: dict = {}
    totals: dict = {}
    for entry in entries:
        try:
            address, denom, amount = entry["address"], entry["denom"], entry["amount"]
        except KeyError as exc:
            raise ParseError(f"account entry missing {exc}") from exc
        except TypeError as exc:
            raise ParseError(f"accounts[] entry must be a mapping, got {entry!r}") from exc
        amount = integer(amount, "accounts[].amount", low=0)
        for key, value in (("address", address), ("denom", denom)):
            if type(value) is not str:
                raise ParseError(f"accounts[].{key} must be a string, got {value!r}")
        column = columns.setdefault(denom, {})
        column[address] = column.get(address, 0) + amount
        totals[denom] = totals.get(denom, 0) + amount
    return columns, totals

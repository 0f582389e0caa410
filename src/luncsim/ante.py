"""Transaction admission: fee checking, fee deduction, and the burn tax.

A transaction passes through two stages. The fee stage computes the transfer
tax owed by the message contents, verifies the declared fee covers gas plus
that tax, and moves the whole declared fee into the fee collector. The burn
stage (inert below the tax activation height) moves the same tax from the
fee collector into the burn staging account, destroys it, and records the
burn in the treasury's epoch counter.

Tax owed per eligible message is, per denomination,

    min(floor(taxRate * amount), taxCap[denom])

read straight from the treasury store: `tax_rate`, and the `tax_caps` entry
for the denom or else `default_tax_cap`. The genesis-owned `AnteConfig`
names the exempt denominations, which pay zero. The fee estimator calls the
same `compute_tax`. Eligible kinds: send, multi-send (per output), swap-send
(the offered coins), instantiate-contract and execute-contract (attached
funds), and exec (recursing into wrapped messages). Staking and governance
messages owe nothing. Admission runs once per tx, so it costs about its dict
writes: one pass sums the tax into one dict, and each `Fraction` is read once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .coins import Coin, coins_ge
from .errors import InsufficientFunds
from .ledger import BURN_MODULE, FEE_COLLECTOR
from . import treasury as treasury_mod


class MsgKind(enum.Enum):
    SEND = "send"
    MULTI_SEND = "multi-send"
    SWAP_SEND = "swap-send"
    INSTANTIATE_CONTRACT = "instantiate-contract"
    EXECUTE_CONTRACT = "execute-contract"
    EXEC = "exec"
    DELEGATE = "delegate"
    UNDELEGATE = "undelegate"
    CREATE_VALIDATOR = "create-validator"
    VOTE = "vote"
    SUBMIT_PROPOSAL = "submit-proposal"


# bound once, in declaration order, so a hot path tests `kind is SEND` by identity
(SEND, MULTI_SEND, SWAP_SEND, INSTANTIATE_CONTRACT, EXECUTE_CONTRACT, EXEC,
 DELEGATE, UNDELEGATE, CREATE_VALIDATOR, VOTE, SUBMIT_PROPOSAL) = MsgKind


@dataclass
class Msg:
    kind: MsgKind
    payload: dict

    def canonical(self) -> dict:
        def enc(v):
            if isinstance(v, Msg):
                return v.canonical()
            if isinstance(v, list):
                return [enc(x) for x in v]
            if isinstance(v, dict):
                return {k: enc(v[k]) for k in sorted(v)}
            if isinstance(v, Coin):
                return {"denom": v.denom, "amount": str(v.amount)}
            if isinstance(v, int) and not isinstance(v, bool):
                return str(v)
            return v

        return {"kind": self.kind.value, "payload": enc(self.payload)}


@dataclass
class Tx:
    msgs: list
    fee_payer: str
    declared_fee: dict = field(default_factory=dict)   # a coin set, trusted as given
    gas_limit: int = 0

    def __post_init__(self):
        if not self.msgs:
            raise ValueError("a tx must carry at least one msg")
        if not self.fee_payer:
            raise ValueError("a tx needs a fee payer")
        if self.gas_limit < 0:
            raise ValueError("gas limit must be non-negative")

    def canonical(self) -> dict:
        return {
            "msgs": [m.canonical() for m in self.msgs],
            "fee_payer": self.fee_payer,
            "declared_fee": {d: str(a) for d, a in sorted(self.declared_fee.items())},
            "gas_limit": self.gas_limit,
        }


@dataclass
class AnteConfig:
    """Genesis-owned admission settings."""

    tax_power_upgrade_height: int = 0
    exempt_denoms: frozenset = frozenset({"stake"})
    gas_price: Fraction = Fraction(0)
    gas_denom: str = "uluna"

    def canonical(self) -> dict:
        return {
            "tax_power_upgrade_height": self.tax_power_upgrade_height,
            "exempt_denoms": sorted(self.exempt_denoms),
            "gas_price": str(self.gas_price),
            "gas_denom": self.gas_denom,
        }


def compute_tax(principal: dict, ts: treasury_mod.TreasuryState, exempt: frozenset) -> dict:
    """Tax owed on one transfer principal at the treasury's rate, floored and
    capped per denom; `exempt` denoms owe nothing."""
    return _add_tax({}, principal, ts, exempt, *ts.tax_rate.as_integer_ratio())


def _add_tax(total: dict, principal: dict, ts, exempt: frozenset, num: int, den: int) -> dict:
    """Add the tax owed on `principal` at the rate num/den into `total`."""
    for denom in sorted(principal):
        if denom in exempt:
            continue
        owed = principal[denom] * num // den     # the rounding of coins.floor_mul
        cap = ts.tax_caps.get(denom, ts.default_tax_cap)
        if owed > cap:
            owed = cap
        if owed:
            total[denom] = total.get(denom, 0) + owed
    return total


def filter_msgs_and_compute_tax(msgs: list, ts: treasury_mod.TreasuryState,
                                exempt: frozenset, total: dict | None = None) -> dict:
    """Sum the tax owed across messages into one dict (`total`), depth first
    through exec wrappers. Multi-send is taxed per output, not on the summed
    total, which matters because the flooring happens per principal."""
    total = {} if total is None else total
    num, den = ts.tax_rate.as_integer_ratio()
    for msg in msgs:
        kind, p = msg.kind, msg.payload
        if kind is SEND:
            _add_tax(total, p["coins"], ts, exempt, num, den)
        elif kind is MULTI_SEND:
            for out in p["outputs"]:
                _add_tax(total, out["coins"], ts, exempt, num, den)
        elif kind is SWAP_SEND:
            _add_tax(total, p["offer"].as_coins(), ts, exempt, num, den)
        elif kind is INSTANTIATE_CONTRACT or kind is EXECUTE_CONTRACT:
            _add_tax(total, p["funds"], ts, exempt, num, den)
        elif kind is EXEC:
            filter_msgs_and_compute_tax(p["msgs"], ts, exempt, total)
    return total


def required_gas_fee(cfg: AnteConfig, gas_limit: int) -> dict:
    """Flat gas price times limit, rounded up to whole micro-units."""
    num, den = cfg.gas_price.as_integer_ratio()
    if not num or not gas_limit:
        return {}
    return {cfg.gas_denom: -(-num * gas_limit // den)}


def run_ante_pipeline(bank, ts: treasury_mod.TreasuryState, cfg: AnteConfig,
                      tx: Tx, height: int) -> dict:
    """Admit a tx: fee checks, fee deduction, then the burn stage.

    Raises InsufficientFunds when the declared fee cannot cover gas plus tax
    or the payer cannot cover the declared fee; both are found before the
    first write, so a raise leaves the state untouched. Returns the coins
    burned as tax (empty when inert).
    """
    tax_active = height >= cfg.tax_power_upgrade_height
    tax = filter_msgs_and_compute_tax(tx.msgs, ts, cfg.exempt_denoms) if tax_active else {}
    required = required_gas_fee(cfg, tx.gas_limit)
    for d, a in tax.items():
        required[d] = required.get(d, 0) + a
    if not coins_ge(tx.declared_fee, required):
        raise InsufficientFunds("declared fee {} does not cover gas+tax {}",
                                tx.declared_fee, required)
    bank.send_account_to_module(tx.fee_payer, FEE_COLLECTOR, tx.declared_fee)
    if tax:
        # staged through the BurnModule: the move drops a genesis zero entry there
        bank.send_module_to_module(FEE_COLLECTOR, BURN_MODULE, tax)
        bank.burn(BURN_MODULE, tax)
        treasury_mod.record_epoch_burn(ts, tax)
    return tax

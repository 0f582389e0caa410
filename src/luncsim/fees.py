"""Client-side fee estimation matching the admission pipeline.

The full fee a wallet must declare for a transfer is

    newFee = min(floor(taxRate * amount), taxCap) + gasFee

and the amount a contract actually receives after the chain skims the tax is
``after_tax = amount - tax``. The tax is admission's own `ante.compute_tax`
on a treasury holding only the quoted rate and cap, with no exempt denoms.
Only `NATIVE_DENOMS` are quoted; token (contract) assets never pay transfer
tax and asking is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ante import compute_tax
from .errors import NonNativeAsset
from .treasury import DEFAULT_TAX_CAP, TreasuryState

NATIVE_DENOMS = frozenset({"uluna", "uusd", "usdr"})


@dataclass
class FeeEstimate:
    amount: int
    denom: str
    tax: int
    gas_fee: int

    @property
    def total_fee(self) -> int:
        return self.tax + self.gas_fee

    @property
    def after_tax(self) -> int:
        return self.amount - self.tax

    def as_dict(self) -> dict:
        return {
            "denom": self.denom,
            "amount": str(self.amount),
            "tax": str(self.tax),
            "gas_fee": str(self.gas_fee),
            "total_fee": str(self.total_fee),
            "after_tax": str(self.after_tax),
        }


def estimate_fee(amount: int, denom: str, gas_fee: int, rate: Fraction,
                 cap: int = DEFAULT_TAX_CAP) -> FeeEstimate:
    """Declared fee needed for a send of `amount` plus a fixed gas fee, taxed
    at `rate` up to `cap` (by default effectively unbounded)."""
    if amount < 0 or gas_fee < 0 or cap < 0:
        raise ValueError("amount, gas fee and cap must be non-negative")
    if denom not in NATIVE_DENOMS:
        raise NonNativeAsset(f"cannot compute transfer tax for token asset {denom!r}")
    ts = TreasuryState(tax_rate=rate, default_tax_cap=cap)
    tax = compute_tax({denom: amount}, ts, frozenset()).get(denom, 0)
    return FeeEstimate(amount=amount, denom=denom, tax=tax, gas_fee=gas_fee)

"""Client-side fee estimation matching the admission pipeline.

The full fee a wallet must declare for a transfer is

    newFee = min(floor(taxRate * amount), taxCap) + gasFee

and the amount a contract actually receives after the chain skims the tax is
``after_tax = amount - tax``. The estimate covers native denominations only;
token (contract) assets never pay transfer tax and asking is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ante import TaxComputationParams, compute_tax
from .errors import NonNativeAsset

DEFAULT_NATIVE_DENOMS = frozenset({"uluna", "uusd", "usdr"})


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


def estimate_fee(amount: int, denom: str, gas_fee: int,
                 params: TaxComputationParams,
                 native_denoms: frozenset = DEFAULT_NATIVE_DENOMS) -> FeeEstimate:
    """Declared fee needed for a send of `amount` plus a fixed gas fee."""
    if amount < 0 or gas_fee < 0:
        raise ValueError("amount and gas fee must be non-negative")
    if denom not in native_denoms:
        raise NonNativeAsset(f"cannot compute transfer tax for token asset {denom!r}")
    tax = compute_tax({denom: amount}, params).get(denom, 0)
    return FeeEstimate(amount=amount, denom=denom, tax=tax, gas_fee=gas_fee)


def simple_tax_params(rate, cap: int | None = None,
                      exempt_denoms: frozenset = frozenset({"stake"})) -> TaxComputationParams:
    """One-rate params for estimation; cap None means effectively unbounded."""
    kwargs = {"tax_rate": Fraction(str(rate)), "exempt_denoms": exempt_denoms}
    if cap is not None:
        kwargs["default_tax_cap"] = cap
    return TaxComputationParams(**kwargs)

"""Integer micro-unit coin arithmetic.

All amounts are exact non-negative integers. One whole token is 1,000,000
micro-units (so 10,000 Lunc is 10_000_000_000 uluna). Keeping the
representation this small lets the rest of the engine copy and hash state
cheaply.

The coin-set contract, decided here alone: a coin set passed between engine
functions is a plain ``{denom: amount}`` dict of ``str`` to ``int > 0``; the
empty dict is the canonical zero. Outside values become coin sets only
through `coins_from_config` and `Coin.as_coins`, which drop zero amounts, and
every engine producer (tax, fee split, seigniorage, debits) keeps the
contract, so no engine function checks it again. A stored balance may also
hold a ``{denom: 0}`` entry seeded at genesis, which `canonical()` hashes;
it is never moved, since a debit asks for a positive amount.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError

MICRO = 1_000_000


@dataclass(frozen=True)
class Coin:
    """A single (denomination, amount) pair.

    Amounts are micro-units and must be non-negative; arbitrary magnitudes
    are fine since Python ints do not overflow.
    """

    denom: str
    amount: int

    def __post_init__(self):
        if not self.denom or not isinstance(self.denom, str):
            raise ValueError("coin denom must be a non-empty string")
        if not isinstance(self.amount, int) or isinstance(self.amount, bool):
            raise ValueError("coin amount must be an int")
        if self.amount < 0:
            raise ValueError("coin amount must be non-negative")

    def as_coins(self) -> dict:
        """This coin as a coin set: empty when its amount is 0."""
        return {self.denom: self.amount} if self.amount else {}


def coins_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for d, amt in b.items():
        out[d] = out.get(d, 0) + amt
    return out


def coins_ge(a: dict, b: dict) -> bool:
    """True when a covers b in every denomination."""
    for d, amt in b.items():
        if a.get(d, 0) < amt:
            return False
    return True


def floor_mul(frac, amount: int) -> int:
    """floor(frac * amount) for a `Fraction` frac, the one rounding rule for
    every share the engine takes of an amount (tax, fee split, burn cut)."""
    return (frac.numerator * amount) // frac.denominator


def coins_from_config(entries) -> dict:
    """Parse ``[{"denom": ..., "amount": ...}, ...]`` (amounts int or str) into a
    coin set that `Tx` and the engine trust: a negative entry is refused, even
    where another entry of its denom covers it, and a zero sum is dropped."""
    if type(entries) is not list:
        raise ParseError(f"a coin list must be a list, got {entries!r}")
    out: dict = {}
    try:
        for e in entries:
            denom, amount = e["denom"], e["amount"]
            amount_type = type(amount)
            if type(denom) is not str or (amount_type is not str and amount_type is not int):
                raise ParseError(f"coin list entry {e!r} needs a string denom "
                                 f"and an integer amount")
            if amount_type is str:
                amount = int(amount)
            if amount < 0:
                raise ParseError(f"bad coin list entry: a negative amount in {e!r}")
            out[denom] = out[denom] + amount if denom in out else amount
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"bad coin list entry: {exc}") from exc
    return {d: a for d, a in out.items() if a} if 0 in out.values() else out


def coins_as_strings(cs: dict) -> dict:
    """Render amounts as decimal strings, used by reports and hashing."""
    return {d: str(cs[d]) for d in sorted(cs)}

import random
from fractions import Fraction

import pytest

from luncsim.errors import NonNativeAsset
from luncsim.fees import estimate_fee
from luncsim.treasury import DEFAULT_TAX_CAP

RATE = Fraction("0.012")


def test_estimate_matches_worked_example():
    q = estimate_fee(1_000_000, "uluna", 250, RATE)
    assert q.tax == 12_000
    assert q.total_fee == 12_250
    assert q.after_tax == 988_000
    assert q.as_dict() == {
        "denom": "uluna",
        "amount": "1000000",
        "tax": "12000",
        "gas_fee": "250",
        "total_fee": "12250",
        "after_tax": "988000",
    }


def test_estimate_respects_cap():
    assert estimate_fee(10**9, "uusd", 0, RATE, cap=100).tax == 100


def test_after_tax_returns_spendable_remainder():
    assert estimate_fee(1_000_000, "uluna", 0, RATE).after_tax == 988_000
    assert estimate_fee(0, "uluna", 0, RATE).after_tax == 0


def test_non_native_assets_refused():
    with pytest.raises(NonNativeAsset):
        estimate_fee(100, "ibc/27394FB0", 0, RATE)
    with pytest.raises(NonNativeAsset):
        estimate_fee(100, "wbtc", 0, RATE)


@pytest.mark.parametrize("amount, gas_fee, cap", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_negative_inputs_refused(amount, gas_fee, cap):
    with pytest.raises(ValueError):
        estimate_fee(amount, "uluna", gas_fee, RATE, cap)


def test_estimator_equals_floor_rule_over_random_inputs():
    rng = random.Random(9)
    for _ in range(500):
        amount = rng.randint(0, 10**15)
        rate = Fraction(rng.randint(0, 1000), 1000 * rng.randint(1, 50))
        cap = rng.choice([DEFAULT_TAX_CAP, rng.randint(0, 10**9)])
        expected = min((rate * amount).__floor__(), cap)
        assert estimate_fee(amount, "uluna", 0, rate, cap).tax == expected

import random
from fractions import Fraction

import pytest

from luncsim.errors import NonNativeAsset
from luncsim.fees import estimate_fee, simple_tax_params


def test_estimate_matches_worked_example():
    params = simple_tax_params(Fraction("0.012"))
    q = estimate_fee(1_000_000, "uluna", 250, params)
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
    params = simple_tax_params(Fraction("0.012"), cap=100)
    assert estimate_fee(10**9, "uusd", 0, params).tax == 100


def test_after_tax_returns_spendable_remainder():
    params = simple_tax_params(Fraction("0.012"))
    assert estimate_fee(1_000_000, "uluna", 0, params).after_tax == 988_000
    assert estimate_fee(0, "uluna", 0, params).after_tax == 0


def test_non_native_assets_refused():
    params = simple_tax_params(Fraction("0.012"))
    with pytest.raises(NonNativeAsset):
        estimate_fee(100, "ibc/27394FB0", 0, params)
    with pytest.raises(NonNativeAsset):
        estimate_fee(100, "wbtc", 0, params)
    # a custom native set widens the door
    assert estimate_fee(100, "ukrw", 0, params,
                        native_denoms=frozenset({"ukrw"})).after_tax == 99


def test_exempt_denom_quotes_zero_tax():
    params = simple_tax_params(Fraction("0.012"))
    q = estimate_fee(10**9, "stake", 7, params,
                     native_denoms=frozenset({"stake"}))
    assert q.tax == 0 and q.total_fee == 7


def test_estimator_equals_floor_rule_over_random_inputs():
    rng = random.Random(9)
    for _ in range(500):
        amount = rng.randint(0, 10**15)
        rate = Fraction(rng.randint(0, 1000), 1000 * rng.randint(1, 50))
        cap = rng.choice([None, rng.randint(0, 10**9)])
        params = simple_tax_params(rate, cap=cap)
        expected = (rate * amount).__floor__()
        if cap is not None:
            expected = min(expected, cap)
        assert estimate_fee(amount, "uluna", 0, params).tax == expected

import copy

import pytest
from hypothesis import given, strategies as st

from luncsim.coins import (
    Coin,
    coins_add,
    coins_as_strings,
    coins_from_config,
    coins_ge,
)
from luncsim.errors import (
    InsufficientFunds,
    InvariantViolation,
    ParseError,
    UnknownModule,
)
from luncsim.ledger import BURN_MODULE, FEE_COLLECTOR, TREASURY

from helpers import fresh_bank


def test_coin_rejects_negative_and_blank_denom():
    with pytest.raises(ValueError):
        Coin("uluna", -1)
    with pytest.raises(ValueError):
        Coin("", 5)


def test_coins_ge_per_denom():
    assert coins_ge({"uluna": 5, "uusd": 1}, {"uluna": 5})
    assert not coins_ge({"uluna": 5}, {"uluna": 5, "uusd": 1})


def test_coins_from_config_round_trip():
    cs = coins_from_config([{"denom": "uluna", "amount": "12"},
                            {"denom": "uusd", "amount": 3}])
    assert cs == {"uluna": 12, "uusd": 3}
    assert coins_as_strings(cs) == {"uluna": "12", "uusd": "3"}
    with pytest.raises(ParseError):
        coins_from_config([{"denom": "uluna"}])


coins_strategy = st.dictionaries(
    st.sampled_from(["uluna", "uusd", "usdr", "ukrw"]),
    st.integers(min_value=1, max_value=10**18),
    max_size=4,
)


@given(a=coins_strategy, b=coins_strategy)
def test_add_then_sub_round_trips(a, b):
    total = coins_add(a, b)
    assert total == {d: a.get(d, 0) + b.get(d, 0) for d in {*a, *b}}
    assert coins_ge(total, a) and coins_ge(total, b)


def test_transfer_moves_funds_and_keeps_supply():
    bank = fresh_bank([("alice", "uluna", 1_000)])
    bank.transfer("alice", "bob", {"uluna": 400})
    assert bank.balance("alice", "uluna") == 600
    assert bank.balance("bob", "uluna") == 400
    assert bank.total_supply("uluna") == 1_000
    bank.verify_supply_identity()


def test_transfer_insufficient_leaves_balances_alone():
    bank = fresh_bank([("alice", "uluna", 100)])
    with pytest.raises(InsufficientFunds):
        bank.transfer("alice", "bob", {"uluna": 200})
    assert bank.balance("alice", "uluna") == 100
    assert bank.balance("bob", "uluna") == 0


def test_module_routing_and_unknown_module():
    bank = fresh_bank([("alice", "uluna", 500)])
    bank.send_account_to_module("alice", FEE_COLLECTOR, {"uluna": 120})
    bank.send_module_to_module(FEE_COLLECTOR, BURN_MODULE, {"uluna": 120})
    assert bank.module_balance(BURN_MODULE, "uluna") == 120
    with pytest.raises(UnknownModule):
        bank.send_account_to_module("alice", "NoSuchModule", {"uluna": 1})


def test_mint_and_burn_update_cumulative_ledgers():
    bank = fresh_bank()
    bank.mint(TREASURY, {"uluna": 77})
    assert bank.total_supply("uluna") == 77
    assert bank.supply.cumulative_minted == {"uluna": 77}
    bank.burn(TREASURY, {"uluna": 70})
    assert bank.total_supply("uluna") == 7
    assert bank.supply.cumulative_burned == {"uluna": 70}
    bank.verify_supply_identity()


def test_supply_identity_catches_tampering():
    bank = fresh_bank([("alice", "uluna", 10)])
    bank.accounts["alice"]["uluna"] = 11  # corrupt a balance behind the API
    with pytest.raises(InvariantViolation):
        bank.verify_supply_identity()


def test_deepcopy_is_independent():
    bank = fresh_bank([("alice", "uluna", 10)])
    twin = copy.deepcopy(bank)
    twin.transfer("alice", "bob", {"uluna": 10})
    assert bank.balance("alice", "uluna") == 10
    assert twin.balance("alice", "uluna") == 0
    assert bank.canonical() != twin.canonical()

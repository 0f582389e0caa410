import copy
import sys

import pytest
from hypothesis import given, settings, strategies as st

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
from luncsim.state import verify_invariants

from helpers import balance, chain_fixture, fresh_bank, full_canonical


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
    assert balance(bank, "alice", "uluna") == 600
    assert balance(bank, "bob", "uluna") == 400
    assert bank.total_supply("uluna") == 1_000
    bank.verify_supply_identity()


def test_transfer_insufficient_leaves_balances_alone():
    bank = fresh_bank([("alice", "uluna", 100)])
    with pytest.raises(InsufficientFunds):
        bank.transfer("alice", "bob", {"uluna": 200})
    assert balance(bank, "alice", "uluna") == 100
    assert balance(bank, "bob", "uluna") == 0


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
    bank.accounts["uluna"]["alice"] = 11  # corrupt a balance behind the API
    with pytest.raises(InvariantViolation):
        bank.verify_supply_identity()


def test_supply_identity_catches_a_tampered_module_balance():
    bank = fresh_bank([("alice", "uluna", 10)])
    bank.send_account_to_module("alice", FEE_COLLECTOR, {"uluna": 4})
    bank.modules["uluna"][FEE_COLLECTOR] = 5
    with pytest.raises(InvariantViolation, match="balance sum"):
        bank.verify_supply_identity()


def test_supply_identity_catches_a_denom_the_supply_does_not_know():
    bank = fresh_bank([("alice", "uluna", 10)])
    bank.accounts["uusd"] = {"alice": 3}
    with pytest.raises(InvariantViolation, match="uusd"):
        bank.verify_supply_identity()


def test_supply_identity_catches_a_negative_balance_that_keeps_the_sum():
    bank = fresh_bank([("bob", "uluna", 10)])
    column = bank.accounts["uluna"]
    column["alice"] = -5
    column["bob"] += 5
    assert sum(column.values()) == bank.total_supply("uluna")
    with pytest.raises(InvariantViolation, match="negative balance: alice"):
        bank.verify_supply_identity()


def test_deepcopy_is_independent():
    bank = fresh_bank([("alice", "uluna", 10)])
    twin = copy.deepcopy(bank)
    twin.transfer("alice", "bob", {"uluna": 10})
    assert balance(bank, "alice", "uluna") == 10
    assert balance(twin, "alice", "uluna") == 0
    assert full_canonical(bank) != full_canonical(twin)


def _calls_made(fn, *args) -> int:
    """How many Python and C function calls `fn(*args)` makes."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_the_invariant_walk_makes_as_many_calls_at_10_as_at_10000_accounts():
    # the walk still reads every balance, but inside one `sum` and one `min` a column
    small, large = (chain_fixture(accounts=[(f"acct{i:05d}", "uluna", i + 1) for i in range(n)],
                                  validators=[("val1", 5_000_000)]) for n in (10, 10_000))
    assert _calls_made(verify_invariants, small) == _calls_made(verify_invariants, large)


# -- journal branches over the columnar bank ----------------------------------

def _genesis_bank():
    # zero entries seeded at genesis; ukrw has no column until a credit opens one
    bank = fresh_bank([("alice", "uluna", 1_000), ("alice", "uusd", 50), ("bob", "uluna", 300),
                       ("carol", "uusd", 0), ("dave", "uluna", 0)])
    bank.genesis_credit_module(FEE_COLLECTOR, "uluna", 0)
    return bank


_owners = st.sampled_from(["alice", "bob", "carol", "dave", "erin"])
_modules = st.sampled_from([FEE_COLLECTOR, BURN_MODULE, TREASURY])
_op_coins = st.dictionaries(st.sampled_from(["uluna", "uusd", "ukrw"]), st.integers(1, 400),
                            min_size=1, max_size=3)
_ops = st.one_of(
    st.tuples(st.just("transfer"), _owners, _owners, _op_coins),
    st.tuples(st.just("send_account_to_module"), _owners, _modules, _op_coins),
    st.tuples(st.just("send_module_to_account"), _modules, _owners, _op_coins),
    st.tuples(st.just("mint"), _modules, _op_coins),
    st.tuples(st.just("burn"), _modules, _op_coins),
)
# a step is an op or ("branch", commits, steps)
_steps = st.recursive(
    _ops, lambda inner: st.tuples(st.just("branch"), st.booleans(), st.lists(inner, max_size=5)),
    max_leaves=20)


def _run(bank, steps, branches=True) -> None:
    """Apply `steps` to `bank`. A branch opens a journal branch and rolls
    back unless it commits; with `branches` False a committed branch's steps
    run in line and a rolled-back one is skipped."""
    for step in steps:
        if step[0] != "branch":
            name, *args = step
            try:
                getattr(bank, name)(*args)
            except InsufficientFunds:
                pass
            continue
        _, commits, inner = step
        if not branches:
            if commits:
                _run(bank, inner, branches)
            continue
        before = full_canonical(bank)
        mark = bank.journal.begin()
        _run(bank, inner)
        if not commits:
            bank.journal.rollback(mark)
        bank.journal.commit()
        if not commits:
            assert full_canonical(bank) == before
            bank.verify_supply_identity()


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(_steps, max_size=6))
def test_branches_roll_back_exactly_and_commit_what_no_branch_would_do(steps):
    bank, unbranched = _genesis_bank(), _genesis_bank()
    for step in steps:
        _run(bank, [step])
        _run(unbranched, [step], branches=False)
        assert bank.journal.depth == 0 and not bank.journal._undo
        assert full_canonical(bank) == full_canonical(unbranched)
        bank.verify_supply_identity()


def test_a_rolled_back_credit_leaves_an_empty_column():
    bank = _genesis_bank()
    before = full_canonical(bank)
    mark = bank.journal.begin()
    bank.mint(TREASURY, {"ukrw": 5})
    bank.send_module_to_account(TREASURY, "erin", {"ukrw": 2})
    bank.journal.rollback(mark)
    bank.journal.commit()
    assert bank.accounts["ukrw"] == {} and bank.modules["ukrw"] == {}
    assert full_canonical(bank) == before
    bank.verify_supply_identity()

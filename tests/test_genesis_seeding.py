"""Bulk genesis seeding equals one credit per account entry.

`build_state` gathers the genesis accounts into one `{denom: {address:
amount}}` table of columns and hands it to `Bank.genesis_credit_accounts`,
which sums each column for its denom's supply. Whatever the entries, the
bank must end up as a loop of `genesis_credit_account` calls leaves it: the
same canonical form (a zero amount stays as a `{denom: 0}` entry, which the
hash sees), the same supply ledger and the same order of denom columns and
of each column's addresses. A bad entry list raises the error of the first
bad entry, as an entry-at-a-time reader does, and an entry costs no Python
call: the account pass makes as many calls for 5,000 entries as for 20.
"""

import gc
import sys

import pytest
from hypothesis import given, settings, strategies as st

from luncsim.errors import ParseError
from luncsim.genesis import build_state
from luncsim.ledger import Bank

from helpers import full_canonical, read_accounts_one_at_a_time

_amounts = st.sampled_from([0, 0, 1, 7]) | st.integers(0, 10**24)
_entry = st.builds(
    lambda address, denom, amount, as_text: {
        "address": address, "denom": denom, "amount": str(amount) if as_text else amount},
    st.sampled_from(["alice", "bob", "carol", "dave"]),
    st.sampled_from(["uluna", "uusd", "ukrw"]),
    _amounts,
    st.booleans(),
)
_entries = st.lists(_entry, max_size=24)


def _order(bank: Bank) -> list:
    return [(denom, list(column.items())) for denom, column in bank.accounts.items()]


@settings(max_examples=200, deadline=None)
@given(entries=_entries)
def test_bulk_seeding_equals_per_entry_credits(entries):
    seeded = build_state({"accounts": entries}).bank
    looped = Bank()
    for entry in entries:
        looped.genesis_credit_account(entry["address"], entry["denom"], int(entry["amount"]))
    assert full_canonical(seeded) == full_canonical(looped)
    assert vars(seeded.supply) == vars(looped.supply)
    assert _order(seeded) == _order(looped)
    columns, totals = read_accounts_one_at_a_time(entries)
    assert _order(seeded) == [(d, list(col.items())) for d, col in columns.items()]
    assert seeded.supply.genesis_totals == {d: a for d, a in totals.items() if a}


@st.composite
def _bad_entry(draw):
    """An entry that is no mapping, or a mapping with one to three faults: a
    key left out, an amount that is no integer >= 0, an address or denom
    that is no string."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from([None, 7, 1.5, "alice", ["alice", "uluna", 1], ("a",)]))
    entry = draw(_entry)
    faults = draw(st.lists(st.sampled_from(["drop", "amount", "address", "denom"]),
                           min_size=1, max_size=3, unique=True))
    for fault in faults:
        if fault == "drop":
            entry.pop(draw(st.sampled_from(["address", "denom", "amount"])), None)
        elif fault == "amount":
            entry["amount"] = draw(st.sampled_from(
                [True, False, 1.5, 2.0, -1, "-3", "1e3", "12abc", "", "0x10", None, [1]]))
        else:
            entry[fault] = draw(st.sampled_from([None, 7, True, 1.5, ["alice"], {"a": 1}]))
    return entry


# runs of good entries, each run ended by a bad one, then more good entries
_with_bad_entries = st.builds(
    lambda runs, tail: [e for good, bad in runs for e in (*good, bad)] + tail,
    st.lists(st.tuples(st.lists(_entry, max_size=6), _bad_entry()), min_size=1, max_size=3),
    st.lists(_entry, max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(entries=_with_bad_entries)
def test_first_bad_entry_raises_the_entry_at_a_time_readers_error(entries):
    with pytest.raises(ParseError) as want:
        read_accounts_one_at_a_time(entries)
    with pytest.raises(ParseError) as got:
        build_state({"accounts": entries})
    assert str(got.value) == str(want.value)


def _python_calls(cfg: dict) -> int:
    """Python-level calls (profile "call" events) made by one `build_state`."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    # no collection inside: its callbacks (Hypothesis registers one) would count
    gc.collect()
    enabled, previous = gc.isenabled(), sys.getprofile()
    gc.disable()
    sys.setprofile(count)
    try:
        build_state(cfg)
    finally:
        sys.setprofile(previous)
        if enabled:
            gc.enable()
    return calls


def _accounts(n: int) -> list:
    """`n` entries over two denoms, every third address repeated, amounts
    alternating between text and int."""
    return [{"address": f"acct{i // 3}", "denom": ("uluna", "uusd")[i % 2],
             "amount": str(i) if i % 2 else i} for i in range(n)]


def test_account_entries_make_no_python_calls():
    # each denom adds its supply bumps, so both sizes hold the same two
    small, large = {"accounts": _accounts(20)}, {"accounts": _accounts(5_000)}
    build_state(small)   # warm-up: first-call work is not per entry
    assert _python_calls(large) == _python_calls(small)

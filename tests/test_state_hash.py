"""`state_hash` writes the account table itself and still commits to the
canonical form.

The digest is defined as the sha256 of one JSON blob of the state's canonical
form with its account table filled in (`helpers.blob_hash`). `state_hash`
splices the table's text, written straight from the balance columns, into
the text of `canonical()` at its first `"accounts":{}` and feeds it to the
hasher in chunks, so these tests hold it to that definition over states
built to hit the chunk edges, the awkward strings and the other places that
text can appear, and bound the memory one hash may hold.
"""

import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from luncsim import state as state_mod
from luncsim.governance import PARAM_CHANGE, ParamChange, Proposal
from luncsim.ledger import DEFAULT_MODULE_ACCOUNTS
from luncsim.state import state_hash

from helpers import blob_hash, chain_fixture, full_canonical

CHUNK = state_mod._ACCOUNT_CHUNK
MARKER = '"bank":{"accounts":{}'
SPLICE = '"accounts":{}'


# JSON input can carry every one of these, a lone surrogate included
_text = st.text(alphabet=st.sampled_from(['a', 'z', '"', '\\', 'é', '☃', '\U0001f600',
                                          '{', '}', ':', ',', '\n', '0', '\x00', '\x1f',
                                          '\x7f', '\u2028', '\uffff', '\ud800']),
                max_size=6)
_denoms = st.one_of(st.sampled_from(["uluna", "uusd", "ukrw"]), _text.filter(bool))
_balance = st.dictionaries(_denoms, st.integers(0, 10**30), max_size=3)
# so that awkward addresses often leave the table in one column
_uluna = st.builds(lambda amount: {"uluna": amount}, st.integers(0, 10**30))


def _columns(by_owner: dict, empty=()) -> dict:
    """The bank's {denom: {owner: amount}} layout of {owner: {denom: amount}},
    plus an empty column for each denom in `empty`."""
    columns = {d: {} for d in empty}
    for owner, balance in by_owner.items():
        for d, a in balance.items():
            columns.setdefault(d, {})[owner] = a
    return columns


@st.composite
def _states(draw):
    state = chain_fixture(validators=[("val1", 5_000_000)])
    # plain accounts around the chunk edges, in one column or two, plus a few awkward ones
    count = draw(st.sampled_from([0, 1, CHUNK, CHUNK + 1]) | st.integers(0, 2 * CHUNK + 2))
    two = draw(st.booleans())
    accounts = {f"addr{i:05d}": {"uluna": 7 * i + 1, "uusd": i % 3} if two else {"uluna": i}
                for i in range(count)}
    for addr in draw(st.lists(_text, max_size=3)):
        accounts[addr] = draw(_uluna | _balance)
    # a few emptied balances, which the hash skips, and zero entries, which it keeps
    if accounts:
        for addr in draw(st.lists(st.sampled_from(sorted(accounts)), max_size=3)):
            accounts[addr] = draw(st.sampled_from([{}, {"uluna": 0}, {"uusd": 0, "uluna": 3}]))
    # an empty column is what a credit rolled back in a new denom leaves
    state.bank.accounts = _columns(accounts, draw(st.lists(_denoms, max_size=2)))
    modules = {name: state.bank.module_balances(name) for name in DEFAULT_MODULE_ACCOUNTS}
    for name in draw(st.lists(st.sampled_from(DEFAULT_MODULE_ACCOUNTS), max_size=3)):
        modules[name] = draw(_balance)
    state.bank.modules = _columns(modules)
    title = draw(st.sampled_from(["", MARKER, "x" + MARKER + "}}"]) | _text)
    state.governance.proposals[1] = Proposal(proposal_id=1, kind="text", title=title,
                                             changes=[], voting_end_height=9)
    state.warnings = draw(st.lists(st.sampled_from([MARKER, "\\" + MARKER]) | _text, max_size=2))
    # the splice text in `ante`, the one key sorted before `bank`, escaped as a string
    state.ante.exempt_denoms |= {draw(st.sampled_from([SPLICE, "x" + SPLICE + "}"]) | _text)}
    state.ante.gas_denom = draw(st.sampled_from(["uluna", SPLICE]))
    # and unescaped after `bank`: `from_config` ignores the extra key, the hash keeps it
    policy = {"rate_min": "0", "rate_max": "1", "accounts": {}}
    state.governance.proposals[2] = Proposal(
        proposal_id=2, kind=PARAM_CHANGE, title="",
        changes=[ParamChange("treasury", "TaxPolicy", policy)], voting_end_height=9)
    return state


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(state=_states())
def test_streamed_hash_equals_hash_of_the_canonical_blob(state):
    before = full_canonical(state)
    assert state_hash(state) == blob_hash(state)
    assert full_canonical(state) == before


# "\uffff" sorts before "\U0001f600", but its escape `\uffff` sorts after
# `\ud83d\ude00`: a writer that sorted escaped text would swap them
ORDERS_APART = ["\uffff", "\U0001f600"]


@pytest.mark.parametrize("two", [False, True], ids=["one-column", "two-columns"])
def test_addresses_are_written_in_code_point_order_not_escaped_order(two):
    state = chain_fixture(validators=[("val1", 5_000_000)])
    state.bank.accounts = {"uluna": {a: 5 for a in ORDERS_APART}}
    if two:
        state.bank.accounts["uusd"] = {ORDERS_APART[1]: 3}
    assert state_hash(state) == blob_hash(state)


def test_denoms_are_written_in_code_point_order_not_escaped_order():
    state = chain_fixture(validators=[("val1", 5_000_000)])
    state.bank.accounts = {d: {"alice": 5, "bob": 1} for d in ORDERS_APART}
    assert state_hash(state) == blob_hash(state)


def _hash_peak(state) -> int:
    tracemalloc.start()
    try:
        state_hash(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_one_hash_holds_little_memory_at_40000_accounts():
    # the whole blob of 40,000 accounts and its canonical tree take 16 MiB
    state = chain_fixture(accounts=[(f"acct{i:06d}", "uluna", 7 * i + 1) for i in range(40_000)])
    assert _hash_peak(state) <= 2 * 2**20


def test_one_hash_over_two_columns_holds_little_memory_at_40000_accounts():
    # every second account also holds uusd, so the hash regroups by owner
    state = chain_fixture(accounts=[(f"acct{i:06d}", d, 7 * i + 1) for i in range(40_000)
                                    for d in ("uluna", "uusd")[:2 - i % 2]])
    assert _hash_peak(state) <= 2 * 2**20

"""Bulk genesis seeding equals one credit per account entry.

`build_state` gathers the genesis accounts into one `{denom: {address:
amount}}` table of columns and each denom's total, and hands both to
`Bank.genesis_credit_accounts`. Whatever the entries, the bank must end up
as a loop of `genesis_credit_account` calls leaves it: the same canonical
form (a zero amount stays as a `{denom: 0}` entry, which the hash sees), the
same supply ledger and the same order of denom columns and of each column's
addresses.
"""

from hypothesis import given, settings, strategies as st

from luncsim.genesis import build_state
from luncsim.ledger import Bank

from helpers import full_canonical

_amounts = st.sampled_from([0, 0, 1, 7]) | st.integers(0, 10**24)
_entries = st.lists(st.builds(
    lambda address, denom, amount, as_text: {
        "address": address, "denom": denom, "amount": str(amount) if as_text else amount},
    st.sampled_from(["alice", "bob", "carol", "dave"]),
    st.sampled_from(["uluna", "uusd", "ukrw"]),
    _amounts,
    st.booleans(),
), max_size=24)


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

"""The undo journal: txs and version branches roll back without a deep copy.

The reference for every check here is the old branching scheme, kept in
this file as an oracle: a tx deep-copies the whole state before the ante
pipeline and again after it, and restores the matching copy on failure.
"""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from luncsim import ante as ante_mod
from luncsim import governance as gov_mod
from luncsim import staking as staking_mod
from luncsim.coins import Coin
from luncsim.errors import SimError
from luncsim.genesis import build_state
from luncsim.journal import Journal
from luncsim.scenario import parse_scenario
from luncsim.simulator import Chain, apply_txs, execute_msg
from luncsim.state import PendingTx, state_hash, verify_invariants

from helpers import balance, chain_fixture, fresh_bank, read_tx, staking_fixture

M = 1_000_000
HEIGHT = 100
ACCOUNTS = ("alice", "bob", "carol", "dave")
VALIDATORS = ("val1", "val2")


def _state():
    state = chain_fixture(
        accounts=[(a, "uluna", 50 * M) for a in ACCOUNTS] + [("alice", "uusd", 9 * M)],
        validators=[("val1", 10 * M), ("val2", 5 * M, "v20")],
        tax_rate="0.005",
    )
    state.treasury.tax_caps = {"uluna": 60_000}
    for delegator, validator in (("alice", "val1"), ("bob", "val2"), ("carol", "val1")):
        staking_mod.delegate(state.bank, state.staking, delegator, validator,
                             Coin("uluna", 5 * M), 0)
    gov_mod.submit_proposal(state.governance, gov_mod.TEXT, 0, title="open")
    return state


def _pending(raw_txs):
    return [PendingTx(tx=read_tx(raw), inclusion_height=HEIGHT, seq=i)
            for i, raw in enumerate(raw_txs)]


def oracle_apply_txs(state, pending, height, version):
    """apply_txs as it was before the journal: two deep copies per tx."""
    results = []
    for ptx in pending:
        pre = copy.deepcopy(state)
        try:
            ante_mod.run_ante_pipeline(state.bank, state.treasury, state.ante,
                                       ptx.tx, height)
        except SimError as exc:
            state = pre
            results.append(("rejected", type(exc).__name__))
            continue
        post = copy.deepcopy(state)
        try:
            for msg in ptx.tx.msgs:
                execute_msg(state, msg, height, version)
        except SimError as exc:
            state = post
            results.append(("failed", type(exc).__name__))
            continue
        results.append(("ok", ""))
    return state, results


def _idle(journal):
    """No branch open and no pre-image held."""
    return journal.depth == 0 and not journal._undo


def _coins(amount, denom="uluna"):
    return [{"denom": denom, "amount": str(amount)}]


def _send(sender, recipient, amount):
    return {"kind": "send", "sender": sender, "recipient": recipient,
            "coins": _coins(amount)}


def _tx(msgs, payer="alice", fee=200_000):
    return {"fee_payer": payer, "declared_fee": _coins(fee), "msgs": msgs}


def _after_ante(state, raw_tx):
    twin = copy.deepcopy(state)
    ante_mod.run_ante_pipeline(twin.bank, twin.treasury, twin.ante,
                               read_tx(raw_tx), HEIGHT)
    return state_hash(twin)


def test_ante_rejection_leaves_the_state_unchanged():
    state = _state()
    before = state_hash(state)
    thin = _tx([_send("alice", "bob", 10 * M)], fee=1)   # tax owed is 50,000
    assert apply_txs(state, _pending([thin]), HEIGHT, "v21") == [
        ("rejected", "InsufficientFunds")]
    assert state_hash(state) == before
    assert _idle(state.journal)


def test_overdrawn_multi_send_output_leaves_the_post_ante_state():
    state = _state()
    raw = _tx([{"kind": "multi-send", "sender": "alice", "outputs": [
        {"recipient": "bob", "coins": _coins(1 * M)},
        {"recipient": "erin", "coins": _coins(60 * M)}]}])
    expected = _after_ante(state, raw)
    assert apply_txs(state, _pending([raw]), HEIGHT, "v21") == [
        ("failed", "InsufficientFunds")]
    assert state_hash(state) == expected
    assert balance(state.bank, "bob", "uluna") == 45 * M
    assert all("erin" not in col for col in state.bank.accounts.values())
    assert _idle(state.journal)


def test_exec_with_failing_inner_delegate_leaves_the_post_ante_state():
    state = _state()
    raw = _tx([{"kind": "exec", "sender": "alice", "msgs": [
        _send("alice", "bob", 1 * M),
        {"kind": "delegate", "delegator": "alice", "validator": "val1",
         "amount": {"denom": "uluna", "amount": str(2 * M)}},
        {"kind": "instantiate-contract", "sender": "alice", "funds": _coins(5)},
        {"kind": "vote", "voter": "alice", "proposal_id": 1, "option": "yes"},
        {"kind": "delegate", "delegator": "alice", "validator": "nobody",
         "amount": {"denom": "uluna", "amount": "1"}},
    ]}])
    expected = _after_ante(state, raw)
    assert apply_txs(state, _pending([raw]), HEIGHT, "v21") == [
        ("failed", "UnknownValidator")]
    assert state_hash(state) == expected
    assert state.staking.validators["val1"].tokens == 20 * M
    assert state.contract_counter == 0
    assert state.governance.votes[1] == {}
    verify_invariants(state)


FAR_GATES = {"staking_power_upgrade_height": 10**9,
             "delegate_power_revert_height": 10**9 + 1,
             "staking_power_revert_height": 2 * 10**9}
# past the delegate revert at 10 the two versions' delegate rules differ;
# the zero-width protect window keeps the power cap out
NEAR_GATES = {"staking_power_upgrade_height": 5,
              "delegate_power_revert_height": 10,
              "staking_power_revert_height": 10**6,
              "protect_power_height": 10}


def _watch_journal(val2_version, gates, monkeypatch):
    """Step a chain with two tx blocks, checking the journal after every block.

    Returns, per ante call, the journal's (depth, log length).
    val1 holds 3/4 of the power, so its v21 results commit whatever val2 runs.
    """
    g = {"chain_id": "t", "genesis_height": 0,
         "accounts": [{"address": a, "denom": "uluna", "amount": str(50 * M)}
                      for a in ACCOUNTS],
         "staking": {"gates": dict(gates),
                     "validators": [{"address": "val1", "tokens": str(30 * M)},
                                    {"address": "val2", "tokens": str(10 * M),
                                     "version": val2_version}]},
         "ante": {"gas_price": "0"}}
    txs = [_tx([_send("alice", "bob", 1 * M)], fee=0),
           _tx([_send("bob", "carol", 99 * M)], payer="bob", fee=0),
           _tx([{"kind": "delegate", "delegator": "carol", "validator": "val2",
                 "amount": {"denom": "uluna", "amount": str(M)}}], payer="carol", fee=0),
           _tx([{"kind": "undelegate", "delegator": "carol", "validator": "val2",
                 "amount": {"denom": "uluna", "amount": str(2 * M)}}], payer="carol", fee=0)]
    s = {"name": "t", "end_height": 20, "events": [
        {"at_height": h, "action": "submit-tx", "tx": tx}
        for h in (13, 17) for tx in txs]}
    chain = Chain(build_state(g), parse_scenario(s))
    journal = chain.state.journal
    seen = []
    original = ante_mod.run_ante_pipeline

    def watched(*args):
        seen.append((journal.depth, len(journal._undo)))
        return original(*args)

    monkeypatch.setattr(ante_mod, "run_ante_pipeline", watched)
    while chain.state.height < 20:
        chain.step()
        assert _idle(journal)
    monkeypatch.setattr(ante_mod, "run_ante_pipeline", original)
    assert chain.tx_log[13] == [("ok", ""), ("failed", "InsufficientFunds"),
                                ("ok", ""), ("failed", "InsufficientShares")]
    return seen


@pytest.mark.parametrize("val2_version", ["v21", "v20"])
def test_journal_is_empty_after_every_tx_and_every_block(val2_version, monkeypatch):
    seen = _watch_journal(val2_version, NEAR_GATES, monkeypatch)
    if val2_version == "v21":
        # one version: ante runs before the tx's branch, on an empty log
        assert seen == [(0, 0)] * (2 * 4)
    else:
        # two versions with different rules: each block is decided in one
        # branch per version, where ante runs inside the branch, which
        # records its writes; then its txs are applied once on the live state
        assert len(seen) == 2 * 3 * 4
        for block in (seen[:12], seen[12:]):
            assert {depth for depth, _ in block[:8]} == {1}
            assert block[8:] == [(0, 0)] * 4
        # with the gates out of reach both versions run the same rules, so
        # each block is evaluated once, like a one-version block
        seen = _watch_journal(val2_version, FAR_GATES, monkeypatch)
        assert seen == [(0, 0)] * (2 * 4)


def _version_oracle(state, pending, versions, power, height=HEIGHT):
    """The old per-version scheme: a deep copy per version, each signed with
    its (results, state hash); the best class wins. Returns the class's first
    version, its results, its share of the power and its state."""
    classes = {}
    branches = {}
    for ver in versions:
        branch, results = oracle_apply_txs(copy.deepcopy(state), pending, height, ver)
        signature = (tuple(results), state_hash(branch))
        classes.setdefault(signature, []).append(ver)
        branches.setdefault(signature, branch)
    best = max(classes, key=lambda s: (sum(power[v] for v in classes[s]), s))
    compatible = Fraction(sum(power[v] for v in classes[best]), sum(power.values()))
    return classes[best][0], list(best[0]), compatible, branches[best]


def _split_chain(v20_power, v21_power):
    g = {"chain_id": "t", "genesis_height": HEIGHT - 1,
         "accounts": [{"address": "alice", "denom": "uluna", "amount": str(50 * M)}],
         "staking": {"gates": {"staking_power_upgrade_height": 5,
                               "delegate_power_revert_height": 10,
                               "staking_power_revert_height": 10**6,
                               "protect_power_height": 10},
                     "validators": [
                         {"address": "old", "tokens": str(v20_power * M), "version": "v20"},
                         {"address": "new", "tokens": str(v21_power * M)}]},
         "ante": {"gas_price": "0"}}
    return Chain(build_state(g), parse_scenario({"name": "t", "end_height": HEIGHT}))


def test_version_branches_match_the_deepcopy_oracle():
    # v20 rejects the delegate and v21 accepts it: the two versions disagree
    raw = [_tx([_send("alice", "bob", 1 * M)], fee=0),
           _tx([{"kind": "delegate", "delegator": "alice", "validator": "new",
                 "amount": {"denom": "uluna", "amount": str(M)}}], fee=0)]
    for v20, v21, kept in ((10, 20, "v21"), (20, 10, "v20"), (10, 10, None)):
        chain = _split_chain(v20, v21)
        state = chain.state
        power = {"v20": v20, "v21": v21}
        pending = _pending(raw)
        base = state_hash(state)
        want_version, want_results, want_compatible, want_state = _version_oracle(
            state, pending, ["v20", "v21"], power)
        version, compatible = chain._decide(pending, HEIGHT, [["v20"], ["v21"]], power)
        assert (version, compatible) == (want_version, want_compatible)
        # every branch is discarded: the live state is still the pre-tx base
        assert state_hash(state) == base
        assert _idle(state.journal)
        if kept is None:        # a halt
            assert compatible < Fraction(2, 3)
        else:
            assert version == kept
            results = apply_txs(state, pending, HEIGHT, version)
            assert results == want_results
            assert state_hash(state) == state_hash(want_state)
            assert results[1] == (("ok", "") if kept == "v21"
                                  else ("failed", "MsgNotSupported"))
            assert _idle(state.journal)


# -- property: the journal and the deep-copy oracle agree on random blocks --

_addr = st.sampled_from(ACCOUNTS + ("erin",))
_val = st.sampled_from(VALIDATORS + ("val9",))
_amount = st.sampled_from([0, 1, 999, 250_000, 3 * M, 20 * M, 80 * M])
_denom = st.sampled_from(["uluna", "uluna", "uusd"])


def _coin_list():
    return st.builds(lambda a, d: _coins(a, d), _amount, _denom)


_leaf = st.one_of(
    st.builds(lambda s, r, c: {"kind": "send", "sender": s, "recipient": r, "coins": c},
              _addr, _addr, _coin_list()),
    st.builds(lambda s, outs: {"kind": "multi-send", "sender": s, "outputs": [
        {"recipient": r, "coins": c} for r, c in outs]},
        _addr, st.lists(st.tuples(_addr, _coin_list()), min_size=1, max_size=3)),
    st.builds(lambda k, d, v, a: {"kind": k, "delegator": d, "validator": v,
                                  "amount": {"denom": "uluna", "amount": str(a)}},
              st.sampled_from(["delegate", "undelegate"]), st.sampled_from(
                  ACCOUNTS + VALIDATORS), _val, _amount),
    st.builds(lambda o: {"kind": "create-validator", "operator": o},
              st.sampled_from(["val1", "val3", "val4"])),
    st.builds(lambda v, p, o: {"kind": "vote", "voter": v, "proposal_id": p, "option": o},
              _addr, st.sampled_from([1, 2, 3]),
              st.sampled_from(["yes", "no", "abstain", "maybe"])),
    st.builds(lambda p: {"kind": "submit-proposal", "proposer": "alice", "proposal": p},
              st.sampled_from([
                  {"kind": "text", "title": "t"},
                  {"kind": "param-change", "changes": [
                      {"subspace": "staking", "key": "UnbondingPeriodBlocks",
                       "value": 50}]},
                  {"kind": "param-change", "changes": [
                      {"subspace": "staking", "key": "UnbondingPeriodBlocks",
                       "value": -1}]},
              ])),
    st.builds(lambda s, f: {"kind": "instantiate-contract", "sender": s, "funds": f},
              _addr, _coin_list()),
    st.builds(lambda s, c, f: {"kind": "execute-contract", "sender": s, "contract": c,
                               "funds": f},
              _addr, st.sampled_from(["contract-0", "contract-1"]), _coin_list()),
)
_msg = st.one_of(_leaf, st.builds(
    lambda s, inner: {"kind": "exec", "sender": s, "msgs": inner},
    _addr, st.lists(_leaf, min_size=1, max_size=3)))
_raw_tx = st.builds(
    lambda payer, fee, msgs: {"fee_payer": payer, "declared_fee": _coins(fee),
                              "msgs": msgs},
    _addr, st.sampled_from([0, 10, 60_000, 200_000, 60 * M]),
    st.lists(_msg, min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(raw_txs=st.lists(_raw_tx, min_size=1, max_size=8),
       version=st.sampled_from(["v20", "v21"]))
def test_apply_txs_matches_the_deepcopy_oracle(raw_txs, version):
    state = _state()
    base = state_hash(state)
    pending = _pending(raw_txs)
    want_state, want_results = oracle_apply_txs(copy.deepcopy(state), pending,
                                                HEIGHT, version)

    # as a version branch: evaluate, take the signature, then discard
    journal = state.journal
    mark = journal.begin()
    assert apply_txs(state, pending, HEIGHT, version) == want_results
    assert state_hash(state) == state_hash(want_state)
    journal.rollback(mark)
    journal.commit()
    assert state_hash(state) == base
    assert _idle(journal)

    # on the live state: every tx commits for good
    assert apply_txs(state, pending, HEIGHT, version) == want_results
    assert state_hash(state) == state_hash(want_state)
    assert _idle(journal)
    verify_invariants(state)


# -- property: a raising ante pipeline has written nothing --------------------
# apply_txs runs ante outside the tx's journal branch and rolls nothing back
# when it raises, so a raise must leave the state and the undo log as they were.

_fee = st.lists(st.tuples(st.sampled_from(["uluna", "uusd", "ukrw"]),
                          st.sampled_from([1, 4_999, 5_000, 60_000, 9 * M, 60 * M])),
                max_size=3)
_ante_tx = st.builds(
    lambda payer, fee, gas, msgs: {
        "fee_payer": payer, "gas_limit": gas, "msgs": msgs,
        "declared_fee": [{"denom": d, "amount": str(a)} for d, a in fee]},
    _addr, _fee, st.sampled_from([0, 1_000, 10**6]), st.lists(_msg, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(raw=_ante_tx, gas_price=st.sampled_from([Fraction(0), Fraction(1, 100)]),
       in_branch=st.booleans())
def test_ante_raises_only_before_its_first_write(raw, gas_price, in_branch):
    state = _state()
    state.ante.gas_price = gas_price
    journal = state.journal
    if in_branch:
        # a version's branch that already holds a committed tx's writes
        journal.begin()
        assert apply_txs(state, _pending([_tx([_send("bob", "carol", M)], payer="bob")]),
                         HEIGHT, "v21") == [("ok", "")]
        assert journal.depth == 1 and journal._undo
    before = (state_hash(state), journal.depth, len(journal._undo))
    try:
        ante_mod.run_ante_pipeline(state.bank, state.treasury, state.ante,
                                   read_tx(raw), HEIGHT)
    except SimError:
        assert (state_hash(state), journal.depth, len(journal._undo)) == before


def test_standalone_stores_branch_on_their_own_journal():
    bank = fresh_bank([("alice", "uluna", 50 * M)])
    st_state = staking_fixture(bank=bank, validators=[("val1", 10 * M)])
    assert bank.journal is not st_state.journal
    # outside a branch a store writes straight through and records nothing
    staking_mod.delegate(bank, st_state, "alice", "val1", Coin("uluna", 2 * M), HEIGHT)
    assert _idle(bank.journal) and _idle(st_state.journal)
    accounts, tokens = copy.deepcopy(bank.accounts), st_state.validators["val1"].tokens
    delegations = copy.deepcopy(st_state.delegations)

    bank_mark, staking_mark = bank.journal.begin(), st_state.journal.begin()
    staking_mod.delegate(bank, st_state, "alice", "val1", Coin("uluna", 3 * M), HEIGHT)
    staking_mod.undelegate(bank, st_state, "val1", "val1", Coin("uluna", M), HEIGHT)
    bank.transfer("alice", "bob", {"uluna": M})
    assert bank.accounts != accounts
    assert st_state.validators["val1"].tokens != tokens
    bank.journal.rollback(bank_mark)
    bank.journal.commit()
    st_state.journal.rollback(staking_mark)
    st_state.journal.commit()

    assert bank.accounts == accounts
    assert st_state.validators["val1"].tokens == tokens
    assert st_state.delegations == delegations and st_state.unbonding == []
    assert _idle(bank.journal) and _idle(st_state.journal)
    bank.verify_supply_identity()


# -- property: a bare Journal against a deep-copy oracle ----------------------
# A writer saves before each write, so one key is saved as often as it is
# written in a branch; rollback must still restore the oldest pre-image.

class _Store:
    """An object whose `vars()` is a table holding a list and an int."""

    def __init__(self):
        self.items = []
        self.count = 0


def _write(journal, entries, store, op):
    """Apply one write, saving first when a journal is given (the oracle has none)."""
    kind, key, value = op
    table, name = (vars(store), kind) if kind in ("items", "count") else (entries, key)
    if journal is not None:
        journal.save(table, name)
    if kind == "set":
        entries[key] = value
    elif kind == "nested":              # an in-place write into a saved dict
        entries.setdefault(key, {})[value % 3] = value
    elif kind == "delete":
        entries.pop(key, None)
    elif kind == "items":               # append, or drop the head as maturities do
        if value:
            store.items.append(value)
        elif store.items:
            store.items.pop(0)
    else:
        store.count = value


_journal_op = st.one_of(
    st.just(("begin",)),
    st.tuples(st.just("close"), st.booleans()),   # True commits, False discards
    st.tuples(st.sampled_from(["set", "delete", "items", "count"]),
              st.sampled_from(["a", "b"]), st.integers(0, 3)),
    st.tuples(st.just("nested"), st.sampled_from(["x", "y"]), st.integers(0, 5)),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_journal_op, max_size=40), tail=st.lists(st.booleans(), min_size=1))
def test_bare_journal_matches_the_deepcopy_oracle(ops, tail):
    journal, entries, store = Journal(), {"a": 1, "x": {0: 9}}, _Store()
    want = copy.deepcopy((entries, store))
    marks, snapshots = [], []

    def close(keep):
        nonlocal want
        if not keep:
            journal.rollback(marks[-1])
        journal.commit()
        marks.pop()
        snapshot = snapshots.pop()
        if not keep:
            want = snapshot
        assert (entries, vars(store)) == (want[0], vars(want[1]))
        assert journal.depth == len(marks)
        if not journal.depth:
            assert not journal._undo

    for op in ops:
        if op[0] == "begin":
            marks.append(journal.begin())
            snapshots.append(copy.deepcopy(want))
        elif op[0] == "close":
            if marks:
                close(op[1])
        else:
            _write(journal, entries, store, op)
            _write(None, *want, op)
    for i in range(len(marks)):
        close(tail[i % len(tail)])
    assert (entries, vars(store)) == (want[0], vars(want[1]))
    assert _idle(journal)

"""Version rules: the one home of every version-dependent staking decision.

`staking.version_rules` is what `delegate` and `create_validator` decide
from, and what `Chain._produce_block` groups the versions by: a block is
evaluated once per rule set, and an agreement class is signed with the
per-tx results alone. The properties here are that both shortcuts are
exact: versions with equal rules give equal results and equal states, and
versions with equal results leave equal states, so the classes are the
ones a (results, state hash) signature over every version would give.
"""

import copy
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import event, given, settings, strategies as st

from luncsim import simulator
from luncsim import staking as staking_mod
from luncsim.coins import Coin
from luncsim.errors import MsgNotSupported, PowerCapExceeded
from luncsim.genesis import build_state
from luncsim.scenario import parse_scenario
from luncsim.simulator import Chain, apply_txs
from luncsim.staking import (
    V20,
    VersionRules,
    create_validator,
    delegate,
    version_rules,
)
from luncsim.state import PendingTx, state_hash

from helpers import fresh_bank, read_tx, staking_fixture
from test_journal import _idle, _version_oracle

M = 1_000_000
VERSIONS = ("v20", "v21", "v22")   # v22 is unknown to the engine: successor rules
ACCOUNTS = ("alice", "bob")


@st.composite
def gates_and_height(draw):
    """Valid gates, and a height at or next to one of them."""
    upgrade = draw(st.integers(2, 40))
    delegate_revert = draw(st.integers(upgrade + 1, upgrade + 20))
    protect = draw(st.integers(delegate_revert, delegate_revert + 20))
    staking_revert = draw(st.integers(delegate_revert + 1, delegate_revert + 30))
    gates = {"staking_power_upgrade_height": upgrade,
             "delegate_power_revert_height": delegate_revert,
             "staking_power_revert_height": staking_revert,
             "protect_power_height": protect}
    edge = draw(st.sampled_from((upgrade, delegate_revert, protect, staking_revert)))
    return gates, edge + draw(st.sampled_from((-1, 0, 1)))


def _delegate(delegator, validator, amount):
    return {"kind": "delegate", "delegator": delegator, "validator": validator,
            "amount": {"denom": "uluna", "amount": str(amount)}}


def _msg(validators):
    delegator = st.sampled_from(ACCOUNTS + tuple(validators))
    amount = st.sampled_from((0, 1 * M, 3 * M, 40 * M))
    delegation = st.builds(_delegate, delegator,
                           st.sampled_from(validators + ["nobody"]), amount)
    undelegation = st.builds(
        lambda d, v, n: dict(_delegate(d, v, n), kind="undelegate"),
        delegator, st.sampled_from(validators), amount)
    send = st.builds(
        lambda s, r, n: {"kind": "send", "sender": s, "recipient": r,
                         "coins": [{"denom": "uluna", "amount": str(n)}]},
        st.sampled_from(ACCOUNTS), st.sampled_from(ACCOUNTS + ("carol",)),
        st.sampled_from((5, 60 * M)))
    new_validator = st.builds(
        lambda op, ver: {"kind": "create-validator", "operator": op, "version": ver},
        st.sampled_from(validators + ["val-new"]), st.sampled_from(VERSIONS))
    vote = st.builds(
        lambda v, o: {"kind": "vote", "voter": v, "proposal_id": 1, "option": o},
        delegator, st.sampled_from(("yes", "no")))
    proposal = st.builds(
        lambda p: {"kind": "submit-proposal", "proposer": "alice", "proposal": p},
        st.sampled_from(({"kind": "text", "title": "t"},
                         {"kind": "param-change", "changes": [
                             {"subspace": "staking", "key": "UnbondingPeriodBlocks",
                              "value": 50}]})))
    contract = st.builds(
        lambda s, n: {"kind": "instantiate-contract", "sender": s,
                      "funds": [{"denom": "uluna", "amount": str(n)}]},
        st.sampled_from(ACCOUNTS), st.sampled_from((1, 60 * M)))
    wrapped = st.builds(
        lambda s, msgs: {"kind": "exec", "sender": s, "msgs": msgs},
        st.sampled_from(ACCOUNTS),
        st.lists(st.one_of(delegation, new_validator), min_size=1, max_size=2))
    return st.one_of(send, delegation, undelegation, new_validator, vote, proposal,
                     contract, wrapped)


@st.composite
def blocks(draw):
    gates, height = draw(gates_and_height())
    versions = draw(st.lists(st.sampled_from(VERSIONS), min_size=2, max_size=3,
                             unique=True))
    validators = [f"val-{v}" for v in versions]
    powers = [draw(st.integers(1, 6)) for _ in versions]
    txs = draw(st.lists(
        st.builds(lambda payer, msg: {"fee_payer": payer, "msgs": [msg]},
                  st.sampled_from(ACCOUNTS), _msg(validators)),
        min_size=1, max_size=6))
    genesis = {
        "chain_id": "rules", "genesis_height": height - 1,
        "accounts": [{"address": a, "denom": "uluna", "amount": str(50 * M)}
                     for a in ACCOUNTS],
        "staking": {"gates": gates, "validators": [
            {"address": a, "tokens": str(p * M), "version": v}
            for a, p, v in zip(validators, powers, versions)]},
        "ante": {"gas_price": "0"},
    }
    return genesis, height, txs


def _pending(txs, height):
    return [PendingTx(tx=read_tx(raw), inclusion_height=height, seq=i)
            for i, raw in enumerate(txs)]


def _chain(genesis, height):
    return Chain(build_state(genesis), parse_scenario({"name": "rules",
                                                       "end_height": height}))


def _rule_groups(gates, height, versions):
    """The versions grouped by the rules they run at `height`, as the block
    producer groups them."""
    groups = {}
    for v in sorted(versions):
        groups.setdefault(version_rules(gates, height, v), []).append(v)
    return list(groups.values())


def _signatures(state, txs, height, versions):
    """Each version's (results, state hash), evaluated on its own deep copy."""
    signatures = {}
    for v in versions:
        branch = copy.deepcopy(state)
        results = tuple(apply_txs(branch, _pending(txs, height), height, v))
        signatures[v] = (results, state_hash(branch))
    return signatures


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_results_alone_sign_an_agreement_class(block):
    genesis, height, txs = block
    chain = _chain(genesis, height)
    state = chain.state
    power = chain._version_groups()
    versions = sorted(power)
    signatures = _signatures(state, txs, height, versions)
    groups = _rule_groups(state.staking.gates, height, versions)
    event(f"{len(groups)} rule group(s)")
    # versions with equal rules give equal results and equal states
    for group in groups:
        assert len({signatures[v] for v in group}) == 1
    # equal results imply equal states, so the results split the versions
    # exactly as (results, state hash) does; the converse need not hold: two
    # different refusals of one tx both leave only its ante writes
    assert len({results for results, _ in signatures.values()}) == len(set(signatures.values()))
    if len({h for _, h in signatures.values()}) < len(set(signatures.values())):
        event("different results, equal states")

    # the decision discards every branch it opens, and picks the oracle's class
    twin = copy.deepcopy(chain)
    pending = _pending(txs, height)
    want_version, want_results, want_compatible, want_state = _version_oracle(
        state, pending, versions, power, height)
    state.mempool = pending
    base = state_hash(state)
    version, compatible = chain._decide(pending, height, groups, power)
    assert (version, compatible) == (want_version, want_compatible)
    assert state_hash(state) == base
    assert _idle(state.journal)

    # the block itself: a halt leaves the live state at its pre-tx base; a
    # commit leaves the oracle's winning state, taken through the same end of
    # block (the twin's mempool is empty, so it applies no tx)
    outcome = chain._produce_block(height)
    assert _idle(state.journal)
    if compatible < Fraction(2, 3):
        event("halt")
        assert outcome.status == simulator.HALTED and state.halted
        state.halted = False
        assert state_hash(state) == base
    else:
        assert outcome.status == simulator.COMMITTED
        assert chain.tx_log[height] == want_results
        twin.state = want_state
        twin.scenario.precommit_overrides[height] = compatible
        twin._produce_block(height)
        assert state_hash(state) == state_hash(twin.state)


def _watch_applies(monkeypatch):
    """Record the acting version of every `apply_txs` call, as the versions
    decided in a branch and the versions applied to the live state."""
    calls = {"branch": [], "live": []}
    original = simulator.apply_txs

    def watched(state, *args):
        calls["branch" if state.journal.depth else "live"].append(args[2])
        return original(state, *args)

    monkeypatch.setattr(simulator, "apply_txs", watched)
    return calls


def test_versions_with_equal_rules_are_evaluated_once(monkeypatch):
    # v21 and v22 run the successor's rules: past the delegate revert they
    # accept the delegation that v20 refuses, and hold 4/5 of the power
    genesis = {
        "chain_id": "rules", "genesis_height": 0,
        "accounts": [{"address": "alice", "denom": "uluna", "amount": str(50 * M)}],
        "staking": {"gates": {"staking_power_upgrade_height": 1,
                              "delegate_power_revert_height": 2,
                              "staking_power_revert_height": 10**6,
                              "protect_power_height": 2},
                    "validators": [{"address": "val1", "tokens": str(10 * M),
                                    "version": "v20"},
                                   {"address": "val2", "tokens": str(20 * M),
                                    "version": "v21"},
                                   {"address": "val3", "tokens": str(20 * M),
                                    "version": "v22"}]},
        "ante": {"gas_price": "0"},
    }
    chain = Chain(build_state(genesis), parse_scenario({
        "name": "rules", "end_height": 3, "strict_halt": True, "events": [
            {"at_height": 3, "action": "submit-tx", "tx": {
                "fee_payer": "alice", "msgs": [_delegate("alice", "val1", M)]}}]}))
    calls = _watch_applies(monkeypatch)
    result = chain.run()
    # decided once per rule set, then applied once as the winning class
    assert calls == {"branch": ["v20", "v21"], "live": ["v21"]}
    assert result.halt_heights == [] and result.tx_log[3] == [("ok", "")]
    assert result.final_state.staking.validators["val1"].tokens == 11 * M


@settings(max_examples=300, deadline=None)
@given(gates_and_height(), st.sampled_from(VERSIONS))
def test_version_rules_are_the_gate_predicates(gates_height, version):
    cfg, height = gates_height
    upgrade = cfg["staking_power_upgrade_height"]
    delegate_revert = cfg["delegate_power_revert_height"]
    staking_revert = cfg["staking_power_revert_height"]
    # v20 blocks both messages for good past the upgrade and never caps;
    # any other version runs the successor's windows
    successor = version != V20
    expected = VersionRules(
        delegate_blocked=height > upgrade and (not successor or height < delegate_revert),
        create_validator_blocked=height > upgrade and (not successor or height < staking_revert),
        power_cap=successor and delegate_revert <= height < cfg["protect_power_height"],
    )
    assert version_rules(staking_mod.HeightGates(**cfg), height, version) == expected


@pytest.mark.parametrize("bits", list(product((False, True), repeat=3)))
def test_handlers_decide_from_version_rules(bits, monkeypatch):
    # the gates allow everything and put no cap at height 5; the stubbed
    # rules alone decide
    rules = VersionRules(*bits)
    monkeypatch.setattr(staking_mod, "version_rules", lambda g, h, v: rules)
    bank = fresh_bank([("carol", "uluna", 100 * M)])
    st_state = staking_fixture(bank, validators=[("val1", 10 * M), ("val2", 10 * M)])
    st_state.params.max_delegation_power_fraction = Fraction(1, 4)
    try:
        delegate(bank, st_state, "carol", "val1", Coin("uluna", 10 * M), 5)
        verdict = "ok"
    except (MsgNotSupported, PowerCapExceeded) as exc:
        verdict = type(exc).__name__
    assert verdict == ("MsgNotSupported" if rules.delegate_blocked
                       else "PowerCapExceeded" if rules.power_cap else "ok")
    try:
        create_validator(st_state, "val9", 5)
        created = True
    except MsgNotSupported:
        created = False
    assert created == (not rules.create_validator_blocked)


@pytest.mark.parametrize("field", VersionRules._fields)
def test_rules_differing_in_any_field_force_per_version_evaluation(field, monkeypatch):
    """A future gate may separate versions on any one decision: all are compared."""
    def stub(gates, height, version):
        return VersionRules(False, False, False)._replace(**{field: version == "v21"})

    monkeypatch.setattr(staking_mod, "version_rules", stub)
    calls = _watch_applies(monkeypatch)
    genesis = {
        "chain_id": "rules", "genesis_height": 0,
        "accounts": [{"address": "alice", "denom": "uluna", "amount": str(50 * M)}],
        "staking": {"gates": {"staking_power_upgrade_height": 10**9,
                              "delegate_power_revert_height": 10**9 + 1,
                              "staking_power_revert_height": 2 * 10**9},
                    "validators": [{"address": "val1", "tokens": str(10 * M),
                                    "version": "v20"},
                                   {"address": "val2", "tokens": str(10 * M)}]},
        "ante": {"gas_price": "0"},
    }
    chain = Chain(build_state(genesis), parse_scenario({
        "name": "rules", "end_height": 3, "strict_halt": True, "events": [
            {"at_height": 3, "action": "submit-tx", "tx": {
                "fee_payer": "alice", "msgs": [_delegate("alice", "val1", M)]}}]}))
    result = chain.run()
    assert calls["branch"] == ["v20", "v21"]
    # with half the power each, the versions commit only when they agree
    assert calls["live"] == ([] if result.halt_heights else ["v20"])

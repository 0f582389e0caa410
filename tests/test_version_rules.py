"""Version rules: the one home of every version-dependent staking decision.

`staking.version_rules` is what `delegate` and `create_validator` decide
from, and what `Chain._produce_block` compares to skip per-version
evaluation. The property here is that the shortcut is exact: whenever every
version runs the same rules at a height, evaluating the block per version
gives one agreement class holding all the power, with the results and the
state of a single evaluation.
"""

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
    delegation = st.builds(_delegate, st.sampled_from(ACCOUNTS),
                           st.sampled_from(validators + ["nobody"]),
                           st.sampled_from((1 * M, 3 * M, 40 * M)))
    send = st.builds(
        lambda s, r, n: {"kind": "send", "sender": s, "recipient": r,
                         "coins": [{"denom": "uluna", "amount": str(n)}]},
        st.sampled_from(ACCOUNTS), st.sampled_from(ACCOUNTS + ("carol",)),
        st.sampled_from((5, 60 * M)))
    new_validator = st.builds(
        lambda op, ver: {"kind": "create-validator", "operator": op, "version": ver},
        st.sampled_from(validators + ["val-new"]), st.sampled_from(VERSIONS))
    wrapped = st.builds(
        lambda s, msgs: {"kind": "exec", "sender": s, "msgs": msgs},
        st.sampled_from(ACCOUNTS), st.lists(delegation, min_size=1, max_size=2))
    return st.one_of(send, delegation, new_validator, wrapped)


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


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_versions_with_equal_rules_form_one_class(block):
    genesis, height, txs = block
    chain = _chain(genesis, height)
    gates = chain.state.staking.gates
    version_power = chain._version_groups()
    versions = sorted(version_power)
    agree = len({version_rules(gates, height, v) for v in versions}) == 1
    assert chain._rules_differ(height, versions) == (not agree)
    event("rules agree" if agree else "rules differ")
    if not agree:
        return
    results, compatible = chain._apply_per_version(
        _pending(txs, height), height, versions, version_power,
        sum(version_power.values()))
    assert compatible == 1
    single = build_state(genesis)
    assert results == apply_txs(single, _pending(txs, height), height, versions[0])
    assert state_hash(chain.state) == state_hash(single)


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
    calls = []
    original = simulator.apply_txs
    monkeypatch.setattr(simulator, "apply_txs",
                        lambda *args: calls.append(args[3]) or original(*args))
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
    assert chain._rules_differ(3, ["v20", "v21"])
    chain.run()
    assert sorted(calls) == ["v20", "v21"]

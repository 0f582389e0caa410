"""Leaf-mutation property: no shape of a genesis or scenario field aborts a run.

Hypothesis replaces one leaf of a small genesis plus scenario with a value of
another JSON shape. `luncsim run` must then end with exit code 0, 2, 3 or 4
(a clean run, a halt, a failed invariant, refused input), never with exit 1
or a traceback. The fixtures hold every event action, every msg kind and a
param-change in every governance subspace, both as an event and inside a
user tx. Integers above 10**6 are left out: a huge `end_height` makes a long
run, not a crash.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from luncsim import cli

COINS = [{"denom": "uluna", "amount": "10"}]
POLICY = {"rate_min": "0", "rate_max": "0.02", "cap": {"denom": "usdr", "amount": "0"},
          "change_rate_max": "0.001"}
CHANGES = [
    {"subspace": "treasury", "key": "RewardPolicy", "value": POLICY},
    {"subspace": "distribution", "key": "communitytax", "value": "0.05"},
    {"subspace": "transfer", "key": "SendEnabled", "value": True},
    {"subspace": "staking", "key": "UnbondingPeriodBlocks", "value": "5"},
    {"subspace": "staking", "key": "MaxDelegationPowerFraction", "value": "1/3"},
]

GENESIS = {
    "chain_id": "shapes",
    "genesis_height": 0,
    "genesis_time": 0,
    "accounts": [{"address": "alice", "denom": "uluna", "amount": "50000000"},
                 {"address": "alice", "denom": "uusd", "amount": 700}],
    "module_accounts": [{"module": "CommunityPool", "denom": "uluna", "amount": "5000"}],
    "staking": {
        "gates": {"staking_power_upgrade_height": 100,
                  "delegate_power_revert_height": 200,
                  "staking_power_revert_height": 300,
                  "protect_power_height": 250},
        "bond_denom": "uluna",
        "power_reduction": 1000000,
        "unbonding_period_blocks": 4,
        "max_delegation_power_fraction": "1/2",
        "float32_power_cap": False,
        "validators": [{"address": "val1", "tokens": "10000000", "version": "v21"},
                       {"address": "val2", "tokens": 10000000, "version": "v20"}],
    },
    "treasury": {"tax_rate": "0.01", "reward_weight": "1/2", "epoch_length_blocks": 4,
                 "tax_caps": {"uusd": "50"}, "default_tax_cap": "1000000",
                 "tax_policy": POLICY, "reward_policy": dict(POLICY, rate_max="1")},
    "distribution": {"community_tax": "0.02", "base_proposer_reward": "0.01",
                     "bonus_proposer_reward": "0.04"},
    "governance": {"quorum": "0.4", "pass_threshold": "0.5", "veto_threshold": "0.334",
                   "voting_period_blocks": 3},
    "ante": {"tax_power_upgrade_height": 0, "exempt_denoms": ["stake"],
             "gas_price": "0.01", "gas_denom": "uluna"},
    "transfer": {"SendEnabled": False, "ReceiveEnabled": False},
}

MSGS = [
    {"kind": "send", "sender": "alice", "recipient": "bob", "coins": COINS},
    {"kind": "multi-send", "sender": "alice",
     "outputs": [{"recipient": "bob", "coins": COINS}, {"recipient": "carol", "coins": COINS}]},
    {"kind": "swap-send", "sender": "alice", "recipient": "bob",
     "offer": {"denom": "uluna", "amount": "10"}, "ask_denom": "uusd"},
    {"kind": "instantiate-contract", "sender": "alice", "funds": COINS, "label": "c"},
    {"kind": "execute-contract", "sender": "alice", "contract": "contract-0", "funds": COINS},
    {"kind": "exec", "sender": "alice", "msgs": [
        {"kind": "delegate", "delegator": "alice", "validator": "val1",
         "amount": {"denom": "uluna", "amount": "1000000"}}]},
    {"kind": "undelegate", "delegator": "alice", "validator": "val1",
     "amount": {"denom": "uluna", "amount": "10"}},
    {"kind": "create-validator", "operator": "val3", "version": "v21"},
    {"kind": "vote", "voter": "alice", "proposal_id": 1, "option": "no"},
    {"kind": "submit-proposal", "proposer": "alice",
     "proposal": {"kind": "param-change", "title": "in a tx", "changes": CHANGES}},
]

SCENARIO = {
    "name": "shapes",
    "end_height": 14,
    "inclusion_delay": 1,
    "strict_halt": False,
    "invariant_interval": 0,
    "precommit_overrides": {"6": "0.9"},
    "events": [
        {"at_height": 2, "action": "submit-proposal", "proposer": "alice",
         "proposal": {"kind": "param-change", "title": "an event", "changes": CHANGES}},
        {"at_height": 3, "action": "cast-vote", "voter": "val1", "proposal_id": 1,
         "option": "yes"},
        {"at_height": 3, "action": "submit-tx", "tx": {
            "fee_payer": "alice", "gas_limit": 1000,
            "declared_fee": [{"denom": "uluna", "amount": "20000"}], "msgs": MSGS}},
        {"at_height": 3, "action": "upgrade-validator", "validator": "val2",
         "version": "v21"},
        {"at_height": 4, "action": "sniper-arm", "target_height": 5, "delegator": "alice",
         "validator": "val2", "amount": {"denom": "uluna", "amount": "1000"},
         "gas_limit": 1000, "declared_fee": [{"denom": "uluna", "amount": "100"}]},
        {"at_height": 9, "action": "community-spend", "recipient": "bob", "coins": COINS},
        {"at_height": 10, "action": "rollback-to", "target_height": 8},
    ],
}

# as read from a file: no two leaves share an object
DOCS = {"genesis": json.dumps(GENESIS), "scenario": json.dumps(SCENARIO)}

VALUES = [None, [], {}, ["x"], 0, -1, 1.5, "x", "false", "", True]


def _leaves(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


LEAVES = [(doc, path) for doc, text in DOCS.items() for path in _leaves(json.loads(text))]


def _run(monkeypatch, texts) -> int:
    monkeypatch.setattr(cli, "load_genesis_file", lambda path: json.loads(texts[path]))
    monkeypatch.setattr(cli, "load_scenario_file", lambda path: json.loads(texts[path]))
    return cli.main(["run", "--genesis", "genesis", "--scenario", "scenario"])


def test_fixtures_run_clean_and_cover_every_kind(monkeypatch):
    from luncsim.ante import MsgKind
    from luncsim.governance import PARAM_KEYS

    assert _run(monkeypatch, DOCS) == 0
    kinds = {m["kind"] for m in MSGS} | {m["kind"] for m in MSGS[5]["msgs"]}
    assert kinds == {k.value for k in MsgKind}
    assert len({e["action"] for e in SCENARIO["events"]}) == 7
    assert {c["subspace"] for c in CHANGES} == set(PARAM_KEYS)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from(VALUES))
def test_one_bad_leaf_never_aborts_a_run(leaf, value, monkeypatch):
    doc, path = leaf
    tree = json.loads(DOCS[doc])
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    texts = dict(DOCS, **{doc: json.dumps(tree)})
    assert _run(monkeypatch, texts) in (0, 2, 3, 4)

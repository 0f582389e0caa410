import json
from fractions import Fraction

import pytest

from luncsim.errors import ParseError
from luncsim.genesis import build_state, load_genesis_file
from luncsim.inputs import fraction
from luncsim.scenario import load_scenario_file, parse_scenario
from luncsim.staking import mainnet_gates

from helpers import balance

MINIMAL = {
    "chain_id": "parse-t",
    "genesis_height": 0,
    "accounts": [{"address": "alice", "denom": "uluna", "amount": "1000"}],
    "staking": {
        "gates": {"staking_power_upgrade_height": 10,
                  "delegate_power_revert_height": 20,
                  "staking_power_revert_height": 30},
        "validators": [{"address": "val1", "tokens": "5000000"}],
    },
}


def test_minimal_genesis_builds():
    state = build_state(MINIMAL)
    assert state.chain_id == "parse-t"
    assert balance(state.bank, "alice", "uluna") == 1_000
    assert state.staking.validators["val1"].tokens == 5_000_000
    assert state.staking.validators["val1"].software_version == "v21"
    # operator stake is bonded, not liquid
    assert balance(state.bank, "val1", "uluna") == 0
    state.bank.verify_supply_identity()


def test_gates_default_to_mainnet_values():
    cfg = dict(MINIMAL)
    cfg["staking"] = {"validators": []}
    state = build_state(cfg)
    assert state.staking.gates == mainnet_gates()


def test_genesis_rejects_bad_input():
    with pytest.raises(ParseError):
        build_state("not a mapping")
    bad_amount = json.loads(json.dumps(MINIMAL))
    bad_amount["accounts"][0]["amount"] = "-5"
    with pytest.raises(ParseError):
        build_state(bad_amount)
    bad_gate = json.loads(json.dumps(MINIMAL))
    del bad_gate["staking"]["gates"]["staking_power_revert_height"]
    with pytest.raises(ParseError):
        build_state(bad_gate)
    bad_rate = json.loads(json.dumps(MINIMAL))
    bad_rate["treasury"] = {"tax_rate": "one percent"}
    with pytest.raises(ParseError):
        build_state(bad_rate)
    dup_val = json.loads(json.dumps(MINIMAL))
    dup_val["staking"]["validators"].append(
        {"address": "val1", "tokens": "1000000"})
    with pytest.raises(ParseError):
        build_state(dup_val)


def test_genesis_file_round_trip(tmp_path):
    path = tmp_path / "genesis.json"
    path.write_text(json.dumps(MINIMAL))
    assert load_genesis_file(str(path)) == MINIMAL
    with pytest.raises(ParseError):
        load_genesis_file(str(tmp_path / "absent.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(ParseError):
        load_genesis_file(str(broken))


def test_scenario_events_sorted_stably():
    scn = parse_scenario({"name": "s", "end_height": 100, "events": [
        {"at_height": 50, "action": "upgrade-validator",
         "validator": "b", "version": "v21"},
        {"at_height": 10, "action": "upgrade-validator",
         "validator": "a", "version": "v21"},
        {"at_height": 50, "action": "upgrade-validator",
         "validator": "c", "version": "v21"},
    ]})
    assert [e.at_height for e in scn.events] == [10, 50, 50]
    # ties keep declaration order
    assert [e.payload["validator"] for e in scn.events] == ["a", "b", "c"]


def test_scenario_rejects_malformed_events():
    with pytest.raises(ParseError):
        parse_scenario({"name": "s", "events": []})          # no end_height
    with pytest.raises(ParseError):
        parse_scenario({"name": "s", "end_height": 10, "events": [
            {"at_height": 5, "action": "teleport"},
        ]})
    with pytest.raises(ParseError):
        parse_scenario({"name": "s", "end_height": 10, "events": [
            {"at_height": 5, "action": "submit-tx"},         # no tx
        ]})
    with pytest.raises(ParseError):
        parse_scenario({"name": "s", "end_height": 10, "events": [
            {"at_height": 5, "action": "submit-tx", "tx": {
                "fee_payer": "a",
                "msgs": [{"kind": "shapeshift"}],
            }},
        ]})


@pytest.mark.parametrize("event, message", [
    ({"action": 1, "at_height": "x"}, "action must be a string, got 1"),
    ({"at_height": 1, "action": "submit-tx", "tx": {"fee_payer": 1, "gas_limit": -1,
      "msgs": [{"kind": "send", "sender": 1, "recipient": 2}]}},
     "sender must be a string, got 1"),
    ({"at_height": 1, "action": "submit-tx", "tx": {"fee_payer": 1, "gas_limit": -1,
      "declared_fee": 5, "msgs": [{"kind": "vote", "voter": "v", "proposal_id": 1,
                                   "option": "yes"}]}},
     "fee_payer must be a string, got 1"),
])
def test_the_first_of_two_bad_fields_is_named(event, message):
    with pytest.raises(ParseError, match=message):
        parse_scenario({"name": "s", "end_height": 10, "events": [event]})


def test_exec_nested_past_the_stack_is_a_parse_error():
    msg = {"kind": "send", "sender": "a", "recipient": "b",
           "coins": [{"denom": "uluna", "amount": "5"}]}
    for _ in range(700):
        msg = {"kind": "exec", "sender": "a", "msgs": [msg]}
    with pytest.raises(ParseError, match="nested too deep"):
        parse_scenario({"name": "s", "end_height": 10, "events": [
            {"at_height": 5, "action": "submit-tx", "tx": {"fee_payer": "a", "msgs": [msg]}},
        ]})


def test_scenario_file_round_trip(tmp_path):
    cfg = {"name": "s", "end_height": 12, "inclusion_delay": 3, "events": []}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    loaded = load_scenario_file(str(path))
    scn = parse_scenario(loaded)
    assert scn.name == "s"
    assert scn.end_height == 12
    assert scn.inclusion_delay == 3


def test_precommit_override_parsing():
    scn = parse_scenario({"name": "s", "end_height": 10, "events": [],
                          "precommit_overrides": {"5": "0.75", "6": "2/3"}})
    from fractions import Fraction
    assert scn.precommit_overrides == {5: Fraction(3, 4), 6: Fraction(2, 3)}
    with pytest.raises(ParseError):
        parse_scenario({"name": "s", "end_height": 10, "events": [],
                        "precommit_overrides": {"5": "0.5"}})


def test_rational_size_is_bounded_before_parsing():
    # every finite JSON number fits the bound
    assert fraction(5e-324, "r") == Fraction("5e-324")
    assert fraction(1.7976931348623157e308, "r") == Fraction("1.7976931348623157e308")
    assert fraction("1E-4_00", "r") == Fraction(1, 10**400)
    for text in ("1e-401", "1e401", "1e-1000000", "0." + "0" * 99 + "1", "1/" + "3" * 99):
        with pytest.raises(ParseError, match="at most"):
            fraction(text, "r")

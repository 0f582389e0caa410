import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import luncsim
from luncsim import build_bundled, errors
from luncsim.cli import main
from luncsim.genesis import build_state
from luncsim.report import build_summary, csv_header, write_reports
from luncsim.scenario import MAX_EXEC_DEPTH, MAX_PROPOSAL_DEPTH, parse_scenario
from luncsim.simulator import run_scenario

from helpers import balance, blob_hash

GENESIS = {
    "chain_id": "cli-t",
    "genesis_height": 0,
    "accounts": [{"address": "alice", "denom": "uluna", "amount": "50000"},
                 {"address": "alice", "denom": "uusd", "amount": "7"}],
    "staking": {
        "gates": {"staking_power_upgrade_height": 5,
                  "delegate_power_revert_height": 10,
                  "staking_power_revert_height": 10**6,
                  "protect_power_height": 10},
        "validators": [{"address": "val1", "tokens": "10000000"},
                       {"address": "val2", "tokens": "10000000",
                        "version": "v20"}],
    },
    "ante": {"gas_price": "0"},
}

HALTING = {
    "name": "halting", "end_height": 30, "strict_halt": True,
    "events": [{"at_height": 20, "action": "submit-tx", "tx": {
        "fee_payer": "alice",
        "msgs": [{"kind": "delegate", "delegator": "alice",
                  "validator": "val1",
                  "amount": {"denom": "uluna", "amount": "1000"}}],
    }}],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_report_files_round_trip(tmp_path):
    scn = {"name": "quiet", "end_height": 8, "events": [
        {"at_height": 3, "action": "submit-tx", "tx": {
            "fee_payer": "alice",
            "msgs": [{"kind": "send", "sender": "alice", "recipient": "bob",
                      "coins": [{"denom": "uluna", "amount": "123"}]}],
        }},
    ]}
    result = run_scenario(build_state(GENESIS), parse_scenario(scn))
    summary = write_reports(str(tmp_path), result)

    with open(tmp_path / "blocks.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == csv_header(["uluna", "uusd"])
    assert len(rows) == 1 + 8                       # header + one per block
    assert rows[0] == ["height", "supply_uluna", "supply_uusd",
                       "burned_uluna", "burned_uusd",
                       "community_uluna", "community_uusd", "halted"]
    assert rows[3][0] == "3" and rows[3][-1] == "0"

    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == json.loads(json.dumps(summary))
    assert on_disk["supply"]["uluna"] == "20050000"
    assert on_disk["tx_results"] == {"3": [["ok", ""]]}
    assert on_disk["final_state_hash"] == result.final_hash


def test_summary_marks_terminal_halt():
    result = run_scenario(build_state(GENESIS), parse_scenario(HALTING))
    summary = build_summary(result)
    assert summary["halted"] is True
    assert summary["halt_heights"] == [20]
    assert summary["final_height"] == 19


def test_cli_run_writes_reports_and_exits_zero(tmp_path, capsys):
    g = _write(tmp_path, "g.json", GENESIS)
    s = _write(tmp_path, "s.json", {"name": "quiet", "end_height": 5,
                                    "events": []})
    code = main(["run", "--genesis", g, "--scenario", s,
                 "--out", str(tmp_path / "out")])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["blocks_committed"] == 5
    assert (tmp_path / "out" / "blocks.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("columns", [1, 2])
def test_cli_run_hashes_a_surrogate_address(columns, tmp_path, capsys):
    # JSON input can name an account "\ud800x"; UTF-8 cannot encode its lone
    # surrogate, so the hash must write the address escaped, as the blob does
    genesis = dict(GENESIS, accounts=GENESIS["accounts"][:columns] + [
        {"address": "\ud800x", "denom": "uluna", "amount": "5"}])
    scn = {"name": "surrogate", "end_height": 5, "events": []}
    g = _write(tmp_path, "g.json", genesis)
    s = _write(tmp_path, "s.json", scn)
    assert main(["run", "--genesis", g, "--scenario", s, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    final = run_scenario(build_state(genesis), parse_scenario(scn)).final_state
    assert summary["final_state_hash"] == blob_hash(final)


def test_cli_terminal_halt_exit_code(tmp_path):
    g = _write(tmp_path, "g.json", GENESIS)
    s = _write(tmp_path, "s.json", HALTING)
    assert main(["run", "--genesis", g, "--scenario", s]) == 2


def test_cli_strict_halt_flag_overrides_scenario(tmp_path):
    g = _write(tmp_path, "g.json", GENESIS)
    soft = dict(HALTING, strict_halt=False)
    s = _write(tmp_path, "s.json", soft)
    # without upgrades the halt is unrecoverable either way
    assert main(["run", "--genesis", g, "--scenario", s,
                 "--strict-halt"]) == 2


def test_cli_parse_failures_exit_four(tmp_path):
    missing = str(tmp_path / "nope.json")
    ok = _write(tmp_path, "s.json", {"name": "x", "end_height": 3,
                                     "events": []})
    assert main(["run", "--genesis", missing, "--scenario", ok]) == 4
    g = _write(tmp_path, "g.json", GENESIS)
    assert main(["run", "--genesis", g, "--scenario", missing]) == 4
    assert main(["replay", "made-up-name"]) == 4
    assert main(["replay"]) == 4


def test_cli_replay_list(capsys):
    assert main(["replay", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "rebel1-replay" in names
    assert "mainnet-gates" in names
    assert names == sorted(names)


def test_python_dash_m_runs_the_cli():
    src = str(Path(luncsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "luncsim", "replay", "--list"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "rebel1-replay" in done.stdout.split()


def test_cli_replay_runs_bundled_scenario(tmp_path, capsys):
    code = main(["--seed", "7", "replay", "power-cap-probe",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["scenario"] == "power-cap-probe"
    assert (tmp_path / "genesis.json").exists()
    assert (tmp_path / "scenario.json").exists()


def test_cli_estimate_fee(capsys):
    code = main(["estimate-fee", "--amount", "1000000", "--rate", "0.012",
                 "--gas", "250"])
    assert code == 0
    quote = json.loads(capsys.readouterr().out)
    assert quote["total_fee"] == "12250"
    # a non-native denomination is bad input, refused without a traceback
    assert main(["estimate-fee", "--amount", "5", "--denom", "wbtc"]) == 4
    assert "--denom" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["x", "2"])
def test_cli_estimate_fee_rate_is_a_rate(rate, capsys):
    assert main(["estimate-fee", "--amount", "5", "--rate", rate]) == 4
    assert "--rate" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--cap", "-1"), ("--amount", "-5"), ("--gas", "-3"), ("--amount", "x"),
])
def test_cli_estimate_fee_amounts_are_non_negative_integers(flag, value, capsys):
    # a repeated flag takes its last value
    assert main(["estimate-fee", "--amount", "5", flag, value]) == 4
    assert flag in capsys.readouterr().err


def test_oversized_decimal_is_refused_before_it_is_parsed(tmp_path):
    g = _write(tmp_path, "g.json", dict(GENESIS, treasury={"tax_rate": "1e-1000000"}))
    s = _write(tmp_path, "s.json", dict(HALTING, strict_halt=False))
    t0 = time.perf_counter()
    assert main(["run", "--genesis", g, "--scenario", s]) == 4
    assert time.perf_counter() - t0 < 0.1


def test_cli_log_env_accepted(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LUNCSIM_LOG", "debug")
    assert main(["replay", "--list"]) == 0


MALFORMED_MSGS = {
    "delegate-non-bond-denom": (
        {"kind": "delegate", "delegator": "alice", "validator": "val1",
         "amount": {"denom": "uusd", "amount": "5"}}, "InvalidCoin"),
    "undelegate-zero": (
        {"kind": "undelegate", "delegator": "val1", "validator": "val1",
         "amount": {"denom": "uluna", "amount": "0"}}, "InvalidCoin"),
    "proposal-not-a-mapping": (
        {"kind": "submit-proposal", "proposer": "alice",
         "proposal": "raise the tax"}, "MalformedProposal"),
    "treasury-value-not-a-mapping": (
        {"kind": "submit-proposal", "proposer": "alice",
         "proposal": {"kind": "param-change", "changes": [
             {"subspace": "treasury", "key": "TaxPolicy", "value": "0.5"}]}},
        "MalformedProposal"),
    "treasury-rate-divides-by-zero": (
        {"kind": "submit-proposal", "proposer": "alice",
         "proposal": {"kind": "param-change", "changes": [
             {"subspace": "treasury", "key": "TaxPolicy",
              "value": {"rate_min": "0", "rate_max": "1/0"}}]}},
        "MalformedProposal"),
    "changes-not-a-list": (
        {"kind": "submit-proposal", "proposer": "alice",
         "proposal": {"kind": "param-change", "changes": 5}},
        "MalformedProposal"),
    "change-subspace-a-list": (
        {"kind": "submit-proposal", "proposer": "alice",
         "proposal": {"kind": "param-change", "changes": [
             {"subspace": ["distribution"], "key": "communitytax", "value": "0.1"}]}},
        "MalformedProposal"),
    "change-key-a-mapping": (
        {"kind": "submit-proposal", "proposer": "alice",
         "proposal": {"kind": "param-change", "changes": [
             {"subspace": "distribution", "key": {"communitytax": 1}, "value": "0.1"}]}},
        "MalformedProposal"),
    "reward-policy-above-one": (
        {"kind": "submit-proposal", "proposer": "alice",
         "proposal": {"kind": "param-change", "changes": [
             {"subspace": "treasury", "key": "RewardPolicy",
              "value": {"rate_min": "2", "rate_max": "3"}}]}},
        "MalformedProposal"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MSGS))
def test_malformed_user_tx_fails_as_a_tx(case, tmp_path):
    msg, error = MALFORMED_MSGS[case]
    scn = {"name": case, "end_height": 5, "events": [
        {"at_height": 3, "action": "submit-tx", "tx": {
            "fee_payer": "alice",
            "declared_fee": [{"denom": "uluna", "amount": "100"}],
            "msgs": [msg],
        }},
    ]}
    g = _write(tmp_path, "g.json", GENESIS)
    s = _write(tmp_path, "s.json", scn)
    out = tmp_path / "out"
    assert main(["run", "--genesis", g, "--scenario", s, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tx_results"] == {"3": [["failed", error]]}
    assert issubclass(getattr(errors, error), errors.SimError)
    # the tx failed after admission, so its fee stays paid
    result = run_scenario(build_state(GENESIS), parse_scenario(scn))
    assert balance(result.final_state.bank, "alice", "uluna") == 50_000 - 100


# proposals whose shape the event reader refuses
UNREADABLE_PROPOSALS = {
    "title-a-number": ({"kind": "text", "title": 1.5}, "proposal.title must be a string"),
    "title-a-mapping": ({"kind": "text", "title": {"a": 1}},
                        "proposal.title must be a string"),
    "title-null": ({"kind": "text", "title": None}, "proposal.title must be a string"),
    "no-kind": ({"title": "no kind"}, "proposal.kind is missing"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_PROPOSALS))
def test_tx_proposal_is_read_like_the_event_proposal(case, tmp_path, capsys):
    """The proposal an event exits 4 on fails a user tx that carries it, fee kept."""
    proposal, message = UNREADABLE_PROPOSALS[case]
    g = _write(tmp_path, "g.json", GENESIS)
    event = {"at_height": 3, "action": "submit-proposal", "proposal": proposal}
    s = _write(tmp_path, "e.json", {"name": case, "end_height": 5, "events": [event]})
    assert main(["run", "--genesis", g, "--scenario", s]) == 4
    assert message in capsys.readouterr().err
    scn = {"name": case, "end_height": 5, "events": [
        {"at_height": 3, "action": "submit-tx", "tx": {
            "fee_payer": "alice", "declared_fee": [{"denom": "uluna", "amount": "100"}],
            "msgs": [{"kind": "submit-proposal", "proposer": "alice", "proposal": proposal}],
        }},
    ]}
    s = _write(tmp_path, "s.json", scn)
    out = tmp_path / "out"
    assert main(["run", "--genesis", g, "--scenario", s, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tx_results"] == {"3": [["failed", "MalformedProposal"]]}
    result = run_scenario(build_state(GENESIS), parse_scenario(scn))
    assert result.final_state.governance.proposals == {}
    assert balance(result.final_state.bank, "alice", "uluna") == 50_000 - 100


def test_float32_cap_past_the_float_range_fails_as_a_tx(tmp_path):
    # a power of 2**1024 or more has no float; the delegation fails, the
    # fee stays paid and the run goes on
    genesis = dict(GENESIS, staking={
        "float32_power_cap": True,
        "gates": dict(GENESIS["staking"]["gates"], protect_power_height=100),
        "validators": [{"address": "val1", "tokens": str(2**1100)},
                       {"address": "val2", "tokens": str(2**1100)}],
    })
    scn = {"name": "huge-power", "end_height": 25, "events": [
        {"at_height": 20, "action": "submit-tx", "tx": {
            "fee_payer": "alice",
            "declared_fee": [{"denom": "uluna", "amount": "100"}],
            "msgs": [{"kind": "delegate", "delegator": "alice", "validator": "val1",
                      "amount": {"denom": "uluna", "amount": "1000"}}],
        }},
    ]}
    g = _write(tmp_path, "g.json", genesis)
    s = _write(tmp_path, "s.json", scn)
    out = tmp_path / "out"
    assert main(["run", "--genesis", g, "--scenario", s, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tx_results"] == {"20": [["failed", "PowerCapExceeded"]]}
    result = run_scenario(build_state(genesis), parse_scenario(scn))
    assert balance(result.final_state.bank, "alice", "uluna") == 50_000 - 100


NON_STRING_ADDRESSES = {
    "send-sender": {"kind": "send", "sender": ["alice"], "recipient": "bob",
                    "coins": [{"denom": "uluna", "amount": "5"}]},
    "send-recipient": {"kind": "send", "sender": "alice", "recipient": ["bob"],
                       "coins": [{"denom": "uluna", "amount": "5"}]},
    "multi-send-output": {"kind": "multi-send", "sender": "alice", "outputs": [
        {"recipient": "bob", "coins": [{"denom": "uluna", "amount": "5"}]},
        {"recipient": {"to": "carol"}, "coins": [{"denom": "uluna", "amount": "5"}]}]},
    "delegate-delegator": {"kind": "delegate", "delegator": 7, "validator": "val1",
                           "amount": {"denom": "uluna", "amount": "5"}},
    "undelegate-validator": {"kind": "undelegate", "delegator": "val1",
                             "validator": ["val1"],
                             "amount": {"denom": "uluna", "amount": "5"}},
    "vote-voter": {"kind": "vote", "voter": None, "proposal_id": 1, "option": "yes"},
    "execute-contract": {"kind": "execute-contract", "sender": "alice",
                         "contract": ["contract-0"]},
    "create-validator-operator": {"kind": "create-validator", "operator": ["val9"]},
    "create-validator-version": {"kind": "create-validator", "operator": "val9",
                                 "version": ["v21"]},
}


@pytest.mark.parametrize("case", sorted(NON_STRING_ADDRESSES))
def test_non_string_address_exits_four(case, tmp_path, capsys):
    scn = {"name": case, "end_height": 5, "events": [
        {"at_height": 3, "action": "submit-tx", "tx": {
            "fee_payer": "alice",
            "declared_fee": [{"denom": "uluna", "amount": "100"}],
            "msgs": [{"kind": "exec", "sender": "alice",
                      "msgs": [NON_STRING_ADDRESSES[case]]}],
        }},
    ]}
    g = _write(tmp_path, "g.json", GENESIS)
    s = _write(tmp_path, "s.json", scn)
    assert main(["run", "--genesis", g, "--scenario", s]) == 4
    assert "must be a string" in capsys.readouterr().err


BAD_EVENTS = {
    "vote-on-unknown-proposal": (
        {"at_height": 3, "action": "cast-vote", "voter": "alice",
         "proposal_id": 9, "option": "yes"}, "MalformedProposal"),
    "community-spend-above-pool": (
        {"at_height": 3, "action": "community-spend", "recipient": "alice",
         "coins": [{"denom": "uluna", "amount": "1"}]}, "InsufficientFunds"),
    "upgrade-unknown-validator": (
        {"at_height": 3, "action": "upgrade-validator", "validator": "ghost",
         "version": "v21"}, "UnknownValidator"),
    "proposal-change-subspace-a-list": (
        {"at_height": 3, "action": "submit-proposal", "proposer": "alice",
         "proposal": {"kind": "param-change", "changes": [
             {"subspace": ["distribution"], "key": "communitytax", "value": "0.1"}]}},
        "MalformedProposal"),
}


@pytest.mark.parametrize("case", sorted(BAD_EVENTS))
def test_refused_scenario_event_exits_four(case, tmp_path, capsys):
    event, error = BAD_EVENTS[case]
    g = _write(tmp_path, "g.json", GENESIS)
    s = _write(tmp_path, "s.json", {"name": case, "end_height": 5, "events": [event]})
    assert main(["run", "--genesis", g, "--scenario", s]) == 4
    err = capsys.readouterr().err
    assert f"{event['action']} event at height 3" in err
    assert error in err


def test_unknown_validator_upgrade_in_halt_recovery_exits_four(tmp_path, capsys):
    # the halt at 20 pulls the upgrade at 25 forward as a recovery action
    scn = dict(HALTING, strict_halt=False, events=HALTING["events"] + [
        {"at_height": 25, "action": "upgrade-validator", "validator": "ghost",
         "version": "v21"}])
    g = _write(tmp_path, "g.json", GENESIS)
    s = _write(tmp_path, "s.json", scn)
    assert main(["run", "--genesis", g, "--scenario", s]) == 4
    assert "upgrade-validator event at height 25" in capsys.readouterr().err


BAD_TOP_LEVEL_FIELDS = {
    "inclusion-delay-not-an-integer": ({"inclusion_delay": "x"}, "inclusion_delay"),
    "invariant-interval-not-an-integer": ({"invariant_interval": "x"}, "invariant_interval"),
    "invariant-interval-negative": ({"invariant_interval": -5}, "invariant_interval"),
    "precommit-override-height-not-an-integer": (
        {"precommit_overrides": {"abc": "0.8"}}, "precommit_overrides"),
    "precommit-overrides-not-a-mapping": ({"precommit_overrides": [1]}, "precommit_overrides"),
    "events-not-a-list": ({"events": 5}, "events"),
    "strict-halt-not-a-bool": ({"strict_halt": "false"}, "strict_halt"),
    "declared-fee-denom-an-int": ({"events": [
        {"at_height": 3, "action": "submit-tx", "tx": {
            "fee_payer": "alice",
            "declared_fee": [{"denom": 5, "amount": "1"}, {"denom": "uluna", "amount": "100"}],
            "msgs": [{"kind": "send", "sender": "alice", "recipient": "bob",
                      "coins": [{"denom": "uluna", "amount": "5"}]}]}}]}, "denom"),
    # a negative coin entry is refused even where another entry covers it
    "send-coin-entry-negative": ({"events": [
        {"at_height": 3, "action": "submit-tx", "tx": {
            "fee_payer": "alice",
            "msgs": [{"kind": "send", "sender": "alice", "recipient": "bob",
                      "coins": [{"denom": "uluna", "amount": "500"},
                                {"denom": "uluna", "amount": "-300"}]}]}}]},
        "negative amount"),
    "declared-fee-entry-negative": ({"events": [
        {"at_height": 3, "action": "submit-tx", "tx": {
            "fee_payer": "alice",
            "declared_fee": [{"denom": "uluna", "amount": 10},
                             {"denom": "uluna", "amount": -10}],
            "msgs": [{"kind": "send", "sender": "alice", "recipient": "bob",
                      "coins": [{"denom": "uluna", "amount": "5"}]}]}}]}, "negative amount"),
    "community-spend-entry-negative": ({"events": [
        {"at_height": 3, "action": "community-spend", "recipient": "alice",
         "coins": [{"denom": "uluna", "amount": "-1"},
                   {"denom": "uluna", "amount": "2"}]}]}, "negative amount"),
    "sniper-fee-entry-negative": ({"events": [
        {"at_height": 3, "action": "sniper-arm", "target_height": 4, "delegator": "alice",
         "validator": "val1", "amount": {"denom": "uluna", "amount": "1000"},
         "declared_fee": [{"denom": "uluna", "amount": "-5"},
                          {"denom": "uluna", "amount": "5"}]}]}, "negative amount"),
    "sniper-delegator-empty": ({"events": [
        {"at_height": 3, "action": "sniper-arm", "target_height": 4, "delegator": "",
         "validator": "val1", "amount": {"denom": "uluna", "amount": "1000"}}]}, "delegator"),
    "sniper-gas-limit-negative": ({"events": [
        {"at_height": 3, "action": "sniper-arm", "target_height": 4, "delegator": "alice",
         "validator": "val1", "amount": {"denom": "uluna", "amount": "1000"},
         "gas_limit": -1}]}, "gas_limit"),
}


@pytest.mark.parametrize("case", sorted(BAD_TOP_LEVEL_FIELDS))
def test_bad_scenario_top_level_field_exits_four(case, tmp_path, capsys):
    fields, name = BAD_TOP_LEVEL_FIELDS[case]
    genesis_cfg, scenario_cfg = build_bundled("distribution-4080")
    g = _write(tmp_path, "g.json", genesis_cfg)
    s = _write(tmp_path, "s.json", dict(scenario_cfg, **fields))
    assert main(["run", "--genesis", g, "--scenario", s]) == 4
    assert name in capsys.readouterr().err


# (path into GENESIS, bad value, the field the error names)
BAD_GENESIS = {
    "validator-version-not-a-string": (
        ("staking", "validators", 1, "version"), 20, "staking.validators[].version"),
    "validator-address-a-list": (
        ("staking", "validators", 0, "address"), ["val1"], "staking.validators[].address"),
    "account-address-a-list": (("accounts", 0, "address"), ["alice"], "accounts[].address"),
    "account-denom-an-int": (("accounts", 0, "denom"), 5, "accounts[].denom"),
    "bond-denom-an-int": (("staking", "bond_denom"), 5, "staking.bond_denom"),
    "staking-a-list": (("staking",), [], "staking"),
    "treasury-a-list": (("treasury",), [], "treasury"),
    "account-entry-a-string": (("accounts", 0), "alice", "accounts[] entry"),
    "tax-caps-a-list": (("treasury", "tax_caps"), [], "treasury.tax_caps"),
    "exempt-denoms-an-int": (("ante", "exempt_denoms"), 5, "ante.exempt_denoms"),
    "genesis-height-not-an-integer": (("genesis_height",), "x", "genesis_height"),
    "genesis-time-not-an-integer": (("genesis_time",), "x", "genesis_time"),
    "tax-power-upgrade-height-not-an-integer": (
        ("ante", "tax_power_upgrade_height"), "x", "ante.tax_power_upgrade_height"),
    "power-reduction-zero": (("staking", "power_reduction"), 0, "staking.power_reduction"),
    "accounts-a-string": (("accounts",), "alice", "accounts"),
    "validator-entry-a-string": (("staking", "validators", 0), "val1",
                                 "staking.validators[] entry"),
    "module-account-unknown": (("module_accounts",), [
        {"module": "Vault", "denom": "uluna", "amount": "5"}], "module_accounts[].module"),
    "module-account-denom-a-list": (("module_accounts",), [
        {"module": "CommunityPool", "denom": ["uluna"], "amount": "5"}],
        "module_accounts[].denom"),
    "tax-policy-not-a-mapping": (("treasury", "tax_policy"), 5, "treasury policy"),
    "reward-weight-above-one": (("treasury", "reward_weight"), "2", "treasury.reward_weight"),
    "tax-rate-negative": (("treasury", "tax_rate"), "-1", "treasury.tax_rate"),
    "float32-power-cap-a-string": (("staking", "float32_power_cap"), "false",
                                   "staking.float32_power_cap"),
    "send-enabled-a-string": (("transfer", "SendEnabled"), "false", "transfer.SendEnabled"),
    "gas-denom-a-list": (("ante", "gas_denom"), ["uluna"], "ante.gas_denom"),
    "chain-id-a-list": (("chain_id",), ["x"], "chain_id"),
    # a zero amount leaves no supply total, so only the entry itself shows the denom
    "account-zero-amount-denom-an-int": (("accounts",), [
        {"address": "a", "denom": 5, "amount": 0},
        {"address": "a", "denom": "uluna", "amount": "10"}], "accounts[].denom"),
    "tax-rate-oversized-exponent": (("treasury", "tax_rate"), "1e-1000000",
                                    "treasury.tax_rate"),
    "power-cap-zero": (("staking", "max_delegation_power_fraction"), "0",
                       "staking.max_delegation_power_fraction must lie in (0, 1]"),
    "power-cap-above-one": (("staking", "max_delegation_power_fraction"), "7",
                            "staking.max_delegation_power_fraction must lie in (0, 1]"),
    "quorum-above-one": (("governance", "quorum"), "5", "governance.quorum must lie in [0, 1]"),
    "veto-threshold-negative": (("governance", "veto_threshold"), "-1/3",
                                "governance.veto_threshold must lie in [0, 1]"),
}


@pytest.mark.parametrize("case", sorted(BAD_GENESIS))
def test_bad_genesis_field_exits_four(case, tmp_path, capsys):
    path, value, name = BAD_GENESIS[case]
    genesis = json.loads(json.dumps(GENESIS))
    node = genesis
    for key in path[:-1]:
        node = node[key] if isinstance(node, list) else node.setdefault(key, {})
    node[path[-1]] = value
    g = _write(tmp_path, "g.json", genesis)
    s = _write(tmp_path, "s.json", dict(HALTING, strict_halt=False))
    assert main(["run", "--genesis", g, "--scenario", s]) == 4
    assert name in capsys.readouterr().err


SEND = {"kind": "send", "sender": "alice", "recipient": "bob",
        "coins": [{"denom": "uluna", "amount": "5"}]}


def _nested_exec_scenario(depth: int, leaf=SEND, height: int = 2) -> str:
    """JSON text of a scenario whose one tx, at `height`, wraps `leaf` (a msg,
    or the JSON text of a comma-separated list of msgs) in `depth` execs
    (json.dumps itself refuses to nest that deep)."""
    leaf = leaf if isinstance(leaf, str) else json.dumps(leaf)
    msg = '{"kind": "exec", "sender": "alice", "msgs": [' * depth + leaf + "]}" * depth
    return ('{"name": "deep", "end_height": %d, "events": [{"at_height": %d, '
            '"action": "submit-tx", "tx": {"fee_payer": "alice", "msgs": [%s]}}]}'
            % (height + 1, height, msg))


def _main_from_deeper_stack(argv, frames=200):
    """`main(argv)` called `frames` Python frames deeper than the caller."""
    return _main_from_deeper_stack(argv, frames - 1) if frames else main(argv)


def test_deeply_nested_exec_still_runs(tmp_path, capsys):
    g = _write(tmp_path, "g.json", GENESIS)
    s = tmp_path / "s.json"
    s.write_text(_nested_exec_scenario(MAX_EXEC_DEPTH))
    assert _main_from_deeper_stack(["run", "--genesis", g, "--scenario", str(s)]) == 0
    assert json.loads(capsys.readouterr().out)["tx_results"]["2"] == [["ok", ""]]


@pytest.mark.parametrize("depth, frames, code", [
    (MAX_EXEC_DEPTH, 200, 2), (MAX_EXEC_DEPTH + 1, 200, 4), (200, 0, 4), (450, 0, 4)])
def test_exec_depth_is_a_property_of_the_input(tmp_path, capsys, depth, frames, code):
    """A delegate at the bottom of `depth` execs, in a block whose versions run
    different rules. At the limit every engine walk (per-version evaluation, the
    hash of the halted block's mempool, the final hash) runs from a stack 200
    frames deeper than the command line's, and the chain halts; past it the tx
    is refused as input."""
    g = _write(tmp_path, "g.json", GENESIS)
    s = tmp_path / "s.json"
    s.write_text(_nested_exec_scenario(depth, HALTING["events"][0]["tx"]["msgs"][0], 20))
    argv = ["run", "--genesis", g, "--scenario", str(s)]
    assert _main_from_deeper_stack(argv, frames) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("bad tx: msgs nested too deep" in err) == (code == 4)


def _deep_proposal_msg(depth: int) -> str:
    """JSON text of a submit-proposal msg whose proposal nests `depth` levels:
    the proposal mapping, then a list nested `depth - 1` deep."""
    return ('{"kind": "submit-proposal", "proposer": "alice", "proposal": '
            '{"kind": "text", "title": "deep", "memo": %s}}'
            % ("[" * (depth - 1) + "]" * (depth - 1)))


@pytest.mark.parametrize("depth, execs, frames, code", [
    (MAX_PROPOSAL_DEPTH, MAX_EXEC_DEPTH, 200, 2), (MAX_PROPOSAL_DEPTH + 1, MAX_EXEC_DEPTH, 200, 4),
    (901, 0, 0, 4)])
def test_proposal_depth_is_bounded_by_the_reader(tmp_path, capsys, depth, execs, frames, code):
    """A delegate and a submit-proposal whose proposal nests `depth` levels, at
    the bottom of `execs` execs, in a block whose versions run different rules.
    At the bound the halted block's mempool is hashed from a stack 200 frames
    deeper than the command line's, and the chain halts; past it, and for a
    list nested 900 deep, the tx is refused as input."""
    g = _write(tmp_path, "g.json", GENESIS)
    s = tmp_path / "s.json"
    leaf = json.dumps(HALTING["events"][0]["tx"]["msgs"][0]) + ", " + _deep_proposal_msg(depth)
    s.write_text(_nested_exec_scenario(execs, leaf, 20))
    argv = ["run", "--genesis", g, "--scenario", str(s)]
    assert _main_from_deeper_stack(argv, frames) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("bad tx: proposal nested too deep" in err) == (code == 4)


UNREADABLE_FILES = {
    # json.load raises RecursionError, not JSONDecodeError
    "scenario-exec-nested-600-deep": ("s.json", _nested_exec_scenario(600).encode()),
    "genesis-accounts-nested-5000-deep": (
        "g.json", b'{"accounts": ' + b"[" * 5000 + b"]" * 5000 + b"}"),
    # UnicodeDecodeError: Latin-1 text, not UTF-8
    "scenario-not-utf-8": ("s.json", '{"name": "café", "end_height": 3}'.encode("latin-1")),
    # ValueError from the interpreter's limit on the digits of an int
    "scenario-integer-of-5000-digits": ("s.json", b'{"end_height": ' + b"1" * 5000 + b"}"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
def test_unreadable_input_file_exits_four(case, tmp_path, capsys):
    g = _write(tmp_path, "g.json", GENESIS)
    s = _write(tmp_path, "s.json", {"name": "quiet", "end_height": 3})
    name, data = UNREADABLE_FILES[case]
    (tmp_path / name).write_bytes(data)
    assert main(["run", "--genesis", g, "--scenario", s]) == 4
    assert "cannot read" in capsys.readouterr().err

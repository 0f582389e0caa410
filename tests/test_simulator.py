"""Engine behavior: event ordering, halts, recovery, rollback, determinism."""


import pytest

from luncsim.errors import ChainHalted
from luncsim.genesis import build_state
from luncsim.scenario import parse_scenario
from luncsim.simulator import Chain, run_scenario
from luncsim.state import state_hash

from helpers import balance

M = 1_000_000

FAR_GATES = {
    "staking_power_upgrade_height": 10**9,
    "delegate_power_revert_height": 10**9 + 1,
    "staking_power_revert_height": 2 * 10**9,
}

# gates placed so heights 6..9 reject delegations under the successor too;
# the zero-width protect window keeps the power cap out of these tests
NEAR_GATES = {
    "staking_power_upgrade_height": 5,
    "delegate_power_revert_height": 10,
    "staking_power_revert_height": 10**6,
    "protect_power_height": 10,
}


def _genesis(validators, accounts=(), gates=FAR_GATES, **extra):
    cfg = {
        "chain_id": "t",
        "genesis_height": 0,
        "accounts": [{"address": a, "denom": "uluna", "amount": str(n)}
                     for a, n in accounts],
        "staking": {"gates": dict(gates),
                    "validators": [
                        {"address": v, "tokens": str(n * M), "version": ver}
                        for v, n, ver in validators
                    ]},
        "ante": {"gas_price": "0"},
    }
    cfg.update(extra)
    return cfg


def _send_tx(height, sender="alice", recipient="bob", amount=1_000):
    return {"at_height": height, "action": "submit-tx", "tx": {
        "fee_payer": sender,
        "msgs": [{"kind": "send", "sender": sender, "recipient": recipient,
                  "coins": [{"denom": "uluna", "amount": str(amount)}]}],
    }}


def _delegate_tx(height, delegator, validator, amount):
    return {"at_height": height, "action": "submit-tx", "tx": {
        "fee_payer": delegator,
        "msgs": [{"kind": "delegate", "delegator": delegator,
                  "validator": validator,
                  "amount": {"denom": "uluna", "amount": str(amount)}}],
    }}


def _run(genesis_cfg, scenario_cfg):
    return run_scenario(build_state(genesis_cfg), parse_scenario(scenario_cfg))


def test_submit_tx_applies_at_its_height():
    g = _genesis([("val1", 10, "v21")], accounts=[("alice", 10_000)])
    s = {"name": "t", "end_height": 6, "events": [_send_tx(5)]}
    res = _run(g, s)
    assert res.tx_log == {5: [("ok", "")]}
    assert balance(res.final_state.bank, "bob", "uluna") == 1_000


def test_identical_runs_hash_identically():
    g = _genesis([("val1", 10, "v21"), ("val2", 20, "v21")],
                 accounts=[("alice", 10_000)])
    s = {"name": "t", "end_height": 50,
         "events": [_send_tx(3), _send_tx(17, amount=999), _send_tx(40)]}
    def block_hashes():
        chain = Chain(build_state(g), parse_scenario(s))
        hashes = []
        while chain.state.height < s["end_height"]:
            chain.step()
            hashes.append(state_hash(chain.state))
        return hashes

    a, b = block_hashes(), block_hashes()
    assert len(a) == 50 and len(set(a)) == 50
    assert a == b
    assert a[-1] == _run(g, s).final_hash


def test_mixed_versions_halt_below_two_thirds():
    # 50/50 split: the delegation is legal for v21, rejected by v20
    g = _genesis([("val1", 10, "v21"), ("val2", 10, "v20")],
                 accounts=[("alice", 100 * M)],
                 )
    g["staking"]["gates"] = dict(NEAR_GATES)
    s = {"name": "t", "end_height": 30, "strict_halt": True,
         "events": [_delegate_tx(20, "alice", "val1", 1 * M)]}
    res = _run(g, s)
    assert res.halt_heights == [20]
    assert res.terminal_halted
    assert res.final_state.height == 19
    # the halted block is flagged in the report rows
    assert res.rows[-1][:2] == (20, 20) and res.rows[-1][-1] == 1


def test_supermajority_version_commits_through_divergence():
    g = _genesis([("val1", 40, "v21"), ("val2", 10, "v20")],
                 accounts=[("alice", 100 * M)])
    g["staking"]["gates"] = dict(NEAR_GATES)
    s = {"name": "t", "end_height": 30,
         "events": [_delegate_tx(20, "alice", "val1", 1 * M)]}
    res = _run(g, s)
    assert res.halt_heights == []
    assert res.final_state.staking.validators["val1"].tokens == 41 * M


def test_single_version_never_halts_on_failures():
    g = _genesis([("val1", 10, "v21")], accounts=[("alice", 100)])
    s = {"name": "t", "end_height": 10,
         "events": [_send_tx(5, amount=10_000)]}   # more than alice has
    res = _run(g, s)
    assert res.halt_heights == []
    assert res.tx_log == {5: [("failed", "InsufficientFunds")]}


def test_halt_recovery_consumes_upgrades_one_at_a_time():
    # v20 holds 20/32 and v21 12/32: neither side reaches 2/3
    g = _genesis([("val1", 12, "v21"), ("val2", 10, "v20"), ("val3", 10, "v20")],
                 accounts=[("alice", 100 * M)])
    g["staking"]["gates"] = dict(NEAR_GATES)
    s = {"name": "t", "end_height": 30, "events": [
        _delegate_tx(20, "alice", "val1", 1 * M),
        {"at_height": 25, "action": "upgrade-validator",
         "validator": "val2", "version": "v21"},
        {"at_height": 26, "action": "upgrade-validator",
         "validator": "val3", "version": "v21"},
    ]}
    res = _run(g, s)
    # upgrading val2 mid-halt lifts agreement to 22/32 and the block commits
    assert res.halt_heights == [20]
    assert not res.terminal_halted
    assert res.final_state.staking.validators["val2"].software_version == "v21"
    assert res.final_state.staking.validators["val3"].software_version == "v21"
    assert res.final_state.staking.validators["val1"].tokens == 13 * M
    assert res.blocks_committed == 30



def test_one_scenario_replays_the_same_through_two_chains():
    # the halt at 20 pulls the upgrade at 25 forward; the scenario keeps it
    g = _genesis([("val1", 12, "v21"), ("val2", 10, "v20"), ("val3", 10, "v20")],
                 accounts=[("alice", 100 * M)])
    g["staking"]["gates"] = dict(NEAR_GATES)
    scenario = parse_scenario({"name": "t", "end_height": 30, "events": [
        _delegate_tx(20, "alice", "val1", 1 * M),
        {"at_height": 25, "action": "upgrade-validator",
         "validator": "val2", "version": "v21"},
        _send_tx(27),
    ]})
    events = list(scenario.events)
    first = Chain(build_state(g), scenario).run()
    assert first.halt_heights == [20] and not first.terminal_halted
    assert scenario.events == events
    second = Chain(build_state(g), scenario).run()
    assert scenario.events == events
    assert second.final_hash == first.final_hash
    assert second.rows == first.rows
    assert second.tx_log == first.tx_log == {20: [("ok", "")], 27: [("ok", "")]}

def test_exact_two_thirds_class_commits():
    g = _genesis([("val1", 10, "v21"), ("val2", 10, "v20"), ("val3", 10, "v20")],
                 accounts=[("alice", 100 * M)])
    g["staking"]["gates"] = dict(NEAR_GATES)
    s = {"name": "t", "end_height": 30,
         "events": [_delegate_tx(20, "alice", "val1", 1 * M)]}
    res = _run(g, s)
    # the rejecting camp holds exactly 2/3, so its outcome is canonical
    assert res.halt_heights == []
    assert res.tx_log[20] == [("failed", "MsgNotSupported")]
    assert res.final_state.staking.validators["val1"].tokens == 10 * M


def test_unrecoverable_halt_is_terminal():
    g = _genesis([("val1", 10, "v21"), ("val2", 10, "v20")],
                 accounts=[("alice", 100 * M)])
    g["staking"]["gates"] = dict(NEAR_GATES)
    s = {"name": "t", "end_height": 30,
         "events": [_delegate_tx(20, "alice", "val1", 1 * M)]}
    res = _run(g, s)
    assert res.terminal_halted
    assert res.final_state.halted


def test_upgrade_effective_next_block():
    g = _genesis([("val1", 10, "v20")], accounts=[("alice", 100 * M)])
    g["staking"]["gates"] = dict(NEAR_GATES)
    s = {"name": "t", "end_height": 30, "events": [
        # the upgrade lands at 20; a delegation in the same block still sees v20
        {"at_height": 20, "action": "upgrade-validator",
         "validator": "val1", "version": "v21"},
        _delegate_tx(20, "alice", "val1", 1 * M),
        _delegate_tx(21, "alice", "val1", 1 * M),
    ]}
    res = _run(g, s)
    assert res.tx_log[20] == [("failed", "MsgNotSupported")]
    assert res.tx_log[21] == [("ok", "")]


def test_failed_msg_keeps_fees_and_reverts_effects():
    g = _genesis([("val1", 10, "v21")], accounts=[("alice", 50_000)])
    g["ante"] = {"gas_price": "0.01"}
    tx = {"at_height": 5, "action": "submit-tx", "tx": {
        "fee_payer": "alice",
        "gas_limit": 100_000,
        "declared_fee": [{"denom": "uluna", "amount": "1000"}],
        "msgs": [
            {"kind": "send", "sender": "alice", "recipient": "bob",
             "coins": [{"denom": "uluna", "amount": "10000"}]},
            {"kind": "send", "sender": "alice", "recipient": "bob",
             "coins": [{"denom": "uluna", "amount": "9999999"}]},
        ],
    }}
    res = _run(g, {"name": "t", "end_height": 6, "events": [tx]})
    assert res.tx_log[5] == [("failed", "InsufficientFunds")]
    st = res.final_state
    # the first send was rolled back with the tx, but the fee stayed paid
    assert balance(st.bank, "bob", "uluna") == 0
    assert balance(st.bank, "alice", "uluna") == 50_000 - 1_000


def test_rejected_tx_leaves_no_trace():
    g = _genesis([("val1", 10, "v21")], accounts=[("alice", 500)])
    g["ante"] = {"gas_price": "0.01"}
    tx = {"at_height": 5, "action": "submit-tx", "tx": {
        "fee_payer": "alice",
        "gas_limit": 100_000,                  # needs 1,000 fee, alice has 500
        "declared_fee": [{"denom": "uluna", "amount": "500"}],
        "msgs": [{"kind": "send", "sender": "alice", "recipient": "bob",
                  "coins": [{"denom": "uluna", "amount": "1"}]}],
    }}
    res = _run(g, {"name": "t", "end_height": 6, "events": [tx]})
    assert res.tx_log[5] == [("rejected", "InsufficientFunds")]
    assert balance(res.final_state.bank, "alice", "uluna") == 500


def test_sniper_fires_at_target_plus_delay():
    g = _genesis([("val1", 100, "v21"), ("val2", 400, "v21")],
                 accounts=[("sniper", 100 * M)])
    s = {"name": "t", "end_height": 60, "inclusion_delay": 2, "events": [
        {"at_height": 10, "action": "sniper-arm", "target_height": 50,
         "delegator": "sniper", "validator": "val1",
         "amount": {"denom": "uluna", "amount": str(3 * M)}},
    ]}
    res = _run(g, s)
    assert res.tx_log == {52: [("ok", "")]}


def test_sniper_target_already_passed_fires_immediately():
    g = _genesis([("val1", 100, "v21"), ("val2", 400, "v21")],
                 accounts=[("sniper", 100 * M)])
    s = {"name": "t", "end_height": 60, "inclusion_delay": 3, "events": [
        {"at_height": 30, "action": "sniper-arm", "target_height": 10,
         "delegator": "sniper", "validator": "val1",
         "amount": {"denom": "uluna", "amount": str(3 * M)}},
    ]}
    res = _run(g, s)
    assert res.tx_log == {33: [("ok", "")]}


def test_rollback_restores_snapshot_and_clears_mempool():
    g = _genesis([("val1", 10, "v21")], accounts=[("alice", 10_000)])
    plain_hash_at_40 = _run(g, {"name": "t", "end_height": 40,
                                "events": []}).final_hash

    s = {"name": "t", "end_height": 40, "events": [
        _send_tx(12),
        {"at_height": 20, "action": "rollback-to", "target_height": 10},
    ]}
    res = _run(g, s)
    st = res.final_state
    assert balance(st.bank, "bob", "uluna") == 0      # the send was undone
    assert st.height == 40
    assert st.mempool == []
    # the fork replays 11..40 with nothing in it, landing on the clean chain
    assert res.final_hash == plain_hash_at_40


def test_snapshots_kept_only_at_rollback_targets():
    g = _genesis([("val1", 10, "v21")], accounts=[("alice", 10_000)])
    s = {"name": "t", "end_height": 3_000, "events": [
        _send_tx(12),
        {"at_height": 20, "action": "rollback-to", "target_height": 10},
        {"at_height": 2_500, "action": "rollback-to", "target_height": 2_000},
    ]}
    chain = Chain(build_state(g), parse_scenario(s))
    res = chain.run()
    assert res.final_state.height == 3_000
    assert set(chain._snapshots) <= {0, 10, 2_000}      # distinct targets + start


def test_events_after_a_rollback_run_on_the_new_fork():
    g = _genesis([("val1", 10, "v21")], accounts=[("alice", 10_000)])
    s = {"name": "t", "end_height": 25, "events": [
        {"at_height": 20, "action": "rollback-to", "target_height": 10},
        _send_tx(20),
    ]}
    res = _run(g, s)
    # the send was declared after the rollback, so the fork runs it at 20
    assert res.tx_log == {20: [("ok", "")]}
    assert balance(res.final_state.bank, "bob", "uluna") == 1_000
    assert res.final_state.height == 25


def test_rollback_to_unsnapshotted_height_fails():
    from luncsim.errors import ParseError
    g = _genesis([("val1", 10, "v21")])
    s = {"name": "t", "end_height": 20, "events": [
        {"at_height": 10, "action": "rollback-to", "target_height": 999},
    ]}
    with pytest.raises(ParseError):
        _run(g, s)


def test_proposer_rotation_is_power_weighted():
    g = _genesis([("heavy", 20, "v21"), ("light", 10, "v21")])
    chain = Chain(build_state(g), parse_scenario({"name": "t", "end_height": 60,
                                                  "events": []}))
    seen = []
    for _ in range(6):
        outcome = chain.step()
        seen.append(outcome.proposer)
    assert seen.count("heavy") == 4
    assert seen.count("light") == 2
    # no two consecutive blocks go to the light validator
    assert all(not (a == b == "light") for a, b in zip(seen, seen[1:]))


def test_precommit_override_feeds_proposer_bonus():
    g = _genesis([("val1", 10, "v21")], accounts=[("alice", 100_000)])
    g["ante"] = {"gas_price": "0.01"}
    g["distribution"] = {"community_tax": "0", "base_proposer_reward": "0.03",
                         "bonus_proposer_reward": "0.12"}
    tx = {"at_height": 5, "action": "submit-tx", "tx": {
        "fee_payer": "alice",
        "gas_limit": 1_000_000,
        "declared_fee": [{"denom": "uluna", "amount": "10000"}],
        "msgs": [{"kind": "send", "sender": "alice", "recipient": "bob",
                  "coins": [{"denom": "uluna", "amount": "1"}]}],
    }}
    base = {"name": "t", "end_height": 6, "events": [tx]}
    full = _run(g, dict(base, precommit_overrides={"5": "1"}))
    low = _run(g, dict(base, precommit_overrides={"5": "2/3"}))
    # sole validator sweeps everything either way; the proposer slice differs
    accrued_full = full.final_state.distribution.validator_accrued["val1"]
    accrued_low = low.final_state.distribution.validator_accrued["val1"]
    assert accrued_full == accrued_low == {"uluna": 10_000}
    assert full.final_hash == low.final_hash


def test_step_after_terminal_halt_raises():
    g = _genesis([("val1", 10, "v21"), ("val2", 10, "v20")],
                 accounts=[("alice", 100 * M)])
    g["staking"]["gates"] = dict(NEAR_GATES)
    s = {"name": "t", "end_height": 30, "strict_halt": True,
         "events": [_delegate_tx(20, "alice", "val1", 1 * M)]}
    state = build_state(g)
    chain = Chain(state, parse_scenario(s))
    chain.run()
    assert chain.state.halted
    with pytest.raises(ChainHalted):
        chain.step()


def test_clone_isolation():
    g = _genesis([("val1", 10, "v21")], accounts=[("alice", 10_000)])
    state = build_state(g)
    before = state_hash(state)
    twin = state.clone()
    twin.bank.transfer("alice", "bob", {"uluna": 5})
    twin.staking.validators["val1"].tokens += 1
    assert state_hash(state) == before
    assert state_hash(twin) != before


def test_invariant_interval_runs_clean():
    g = _genesis([("val1", 10, "v21")], accounts=[("alice", 10_000)])
    s = {"name": "t", "end_height": 500, "invariant_interval": 7,
         "events": [_send_tx(100), _send_tx(200)]}
    res = _run(g, s)
    assert res.blocks_committed == 500


def _count_evaluations(monkeypatch):
    """Per height, the `apply_txs` calls made in a version branch and on the
    live state."""
    from luncsim import simulator
    calls: dict = {}
    original = simulator.apply_txs

    def counting(state, pending, height, version):
        branches, live = calls.get(height, (0, 0))
        calls[height] = (branches + 1, live) if state.journal.depth else (branches, live + 1)
        return original(state, pending, height, version)

    monkeypatch.setattr(simulator, "apply_txs", counting)
    return calls


def test_version_insensitive_block_is_evaluated_once(monkeypatch):
    from luncsim import simulator
    # past the delegate revert at 10 v20 still rejects delegations and v21
    # does not; val1 (v21) holds 2/3 of the power, so its results commit
    validators = [("val1", 20, "v21"), ("val2", 10, "v20")]
    g = _genesis(validators, accounts=[("alice", 10 * M)], gates=NEAR_GATES)
    s = {"name": "t", "end_height": 22, "events": [
        _send_tx(15), _send_tx(15, recipient="carol", amount=20 * M),
        _delegate_tx(18, "alice", "val1", 1 * M)]}
    calls = _count_evaluations(monkeypatch)
    once = _run(g, s)
    # the plain sends are applied with no decision; the delegate is decided
    # per version, then applied once
    assert calls == {15: (0, 1), 18: (2, 1)}

    calls.clear()
    monkeypatch.setattr(simulator, "_version_sensitive", lambda msgs: True)
    per_version = _run(g, s)
    assert calls == {15: (2, 1), 18: (2, 1)}
    assert once.tx_log == per_version.tx_log == {
        15: [("ok", ""), ("failed", "InsufficientFunds")], 18: [("ok", "")]}
    assert once.rows == per_version.rows
    assert once.final_hash == per_version.final_hash

    # with the gates out of reach both versions run the same rules at every
    # height, so even a version-sensitive block is evaluated once
    calls.clear()
    far = _run(_genesis(validators, accounts=[("alice", 10 * M)]), s)
    assert calls == {15: (0, 1), 18: (0, 1)}
    assert far.tx_log == once.tx_log


def test_unbondings_mature_in_completion_order_after_the_period_drops():
    def undelegate(height, amount):
        return {"at_height": height, "action": "submit-tx", "tx": {
            "fee_payer": "val1",
            "msgs": [{"kind": "undelegate", "delegator": "val1", "validator": "val1",
                      "amount": {"denom": "uluna", "amount": str(amount)}}]}}

    g = _genesis([("val1", 10, "v21")], governance={"voting_period_blocks": 5})
    g["staking"]["unbonding_period_blocks"] = 100
    s = {"name": "t", "end_height": 120, "events": [
        undelegate(10, 1 * M),                                  # due at 110
        {"at_height": 20, "action": "submit-proposal", "proposal": {
            "kind": "param-change", "title": "shorter unbonding", "changes": [
                {"subspace": "staking", "key": "UnbondingPeriodBlocks", "value": "5"}]}},
        {"at_height": 21, "action": "cast-vote", "voter": "val1", "proposal_id": 1,
         "option": "yes"},
        undelegate(50, 2 * M),                                  # due at 55
    ]}
    chain = Chain(build_state(g), parse_scenario(s))
    while chain.state.height < 54:
        chain.step()
    assert chain.state.staking.params.unbonding_period_blocks == 5
    assert balance(chain.state.bank, "val1", "uluna") == 0
    chain.step()
    assert balance(chain.state.bank, "val1", "uluna") == 2 * M
    assert [e.completion_height for e in chain.state.staking.unbonding] == [110]
    while chain.state.height < 110:
        chain.step()
    assert balance(chain.state.bank, "val1", "uluna") == 3 * M
    assert chain.state.staking.unbonding == []

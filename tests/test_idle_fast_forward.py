"""Idle fast-forward: `Chain.run()` gives exactly what one `step()` per block gives.

`run()` produces each run of idle blocks in one pass. These tests hold it to
a loop that only calls `step()`: the same rows, tx log, epoch events, tally
outcomes, block count and final hash, and `verify_invariants` called at the
same heights on the same state. Proposer rotation over n blocks is checked
against n single-block rotations and against the original per-block
formula, including where it skips whole cycles of the priorities.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from luncsim import BUNDLED_SCENARIOS, build_bundled, build_state, parse_scenario
from luncsim import simulator
from luncsim.errors import ChainHalted, ParseError
from luncsim.scenario import Scenario
from luncsim.simulator import COMMITTED, Chain, run_scenario
from luncsim.staking import INACTIVE
from luncsim.state import state_hash

from fuzztools import build_fuzz_configs
from helpers import chain_fixture

M = 1_000_000
FAR_GATES = {
    "staking_power_upgrade_height": 10**9,
    "delegate_power_revert_height": 10**9 + 1,
    "staking_power_revert_height": 2 * 10**9,
}


# -- proposer rotation --------------------------------------------------------

def _reference_rotation(powers: dict, priority: dict) -> str:
    """One block of the original per-block rotation, on plain dicts."""
    for addr in list(priority):
        if addr not in powers:
            del priority[addr]
    for addr, power in powers.items():
        priority[addr] = priority.get(addr, 0) + power
    proposer = min(powers, key=lambda a: (-priority[a], a))
    priority[proposer] -= sum(powers.values())
    return proposer


def _rotation_chain(validators, priority) -> Chain:
    state = chain_fixture(validators=[(addr, tokens) for addr, tokens, _ in validators])
    for addr, _, active in validators:
        if not active:
            state.staking.validators[addr].status = INACTIVE
    state.proposer_priority = dict(priority)
    return Chain(state, Scenario(name="rotation", end_height=0))


# tokens of power 0 (below one power unit) up to 6; small powers tie often
_validators = st.lists(
    st.tuples(st.integers(0, 6).map(lambda p: p * M + 1), st.booleans()),
    min_size=1, max_size=6,
).map(lambda vals: [(f"val{i}", tokens, active) for i, (tokens, active) in enumerate(vals)])


@settings(max_examples=300, deadline=None)
@given(validators=_validators,
       known=st.lists(st.integers(0, 5), max_size=6, unique=True),
       stale=st.lists(st.sampled_from(["gone", "val9", "aaa"]), max_size=3, unique=True),
       offsets=st.lists(st.integers(-40, 40), min_size=9, max_size=9),
       blocks=st.integers(1, 500))
def test_rotation_over_n_blocks_matches_n_single_rotations(validators, known, stale,
                                                            offsets, blocks):
    # some validators already hold priority, the others are new to it, and
    # the stale addresses (and any zero-power or inactive validator) drop out
    holders = [f"val{i}" for i in known] + stale
    priority = {addr: offsets[i] for i, addr in enumerate(holders)}

    batched = _rotation_chain(validators, priority)
    stepped = _rotation_chain(validators, priority)
    last = batched._select_proposer(blocks)
    for _ in range(blocks):
        last_single = stepped._select_proposer()
    assert last == last_single
    assert batched.state.proposer_priority == stepped.state.proposer_priority

    powers = {addr: tokens // M for addr, tokens, active in validators
              if active and tokens >= M}
    reference = dict(priority)
    if powers:
        for _ in range(blocks):
            expected = _reference_rotation(powers, reference)
    else:
        expected = None
    assert last == expected
    assert batched.state.proposer_priority == reference


def _stepped_rotation(chain, blocks, monkeypatch):
    """Rotate `blocks` blocks; returns the last proposer and the steps taken."""
    adds = []

    def counting_add(a, b):
        adds.append(None)
        return a + b

    with monkeypatch.context() as patch:
        # the rotation adds the powers with one `add` per validator and step
        patch.setattr(simulator, "add", counting_add)
        last = chain._select_proposer(blocks)
    return last, len(adds) // len(chain.state.proposer_priority)


def _reference_over(powers: dict, priority: dict, blocks: int):
    reference = dict(priority)
    for _ in range(blocks):
        last = _reference_rotation(powers, reference)
    return last, reference


# powers 3 and 2 from zero priority: the priorities come back after 5 blocks
PERIODIC = [("val0", 3 * M, True), ("val1", 2 * M, True)]


@pytest.mark.parametrize("blocks,steps", [(5, 5), (15, 5), (500, 5), (6, 6), (16, 6)])
def test_rotation_skips_whole_cycles(blocks, steps, monkeypatch):
    # a multiple of the period steps through one cycle only; one block more
    # steps through one cycle and then the one-block remainder
    chain = _rotation_chain(PERIODIC, {})
    last, taken = _stepped_rotation(chain, blocks, monkeypatch)
    assert taken == steps
    assert (last, chain.state.proposer_priority) == \
        _reference_over({"val0": 3, "val1": 2}, {}, blocks)


def test_rotation_off_the_cycle_skips_nothing(monkeypatch):
    # equal powers settle into the cycle (5, 5) -> (4, 6) -> (5, 5), which
    # never passes through the start (10, 0) again
    validators = [("val0", M, True), ("val1", M, True)]
    start = {"val0": 10, "val1": 0}
    chain = _rotation_chain(validators, start)
    last, taken = _stepped_rotation(chain, 40, monkeypatch)
    assert taken == 40
    assert (last, chain.state.proposer_priority) == \
        _reference_over({"val0": 1, "val1": 1}, start, 40)


def test_rotation_over_rebel1_genesis_powers(monkeypatch):
    # 4 x 9600 and 2 x 10800 power repeat every 50 blocks from genesis
    state = build_state(build_bundled("rebel1-replay")[0])
    chain = Chain(state, Scenario(name="rotation", end_height=0))
    powers = {addr: val.tokens // state.staking.params.power_reduction
              for addr, val in state.staking.validators.items()}
    start = dict(state.proposer_priority)
    last, taken = _stepped_rotation(chain, 125_000, monkeypatch)
    assert taken == 50
    assert (last, state.proposer_priority) == _reference_over(powers, start, 125_000)


# -- run() against a step loop ----------------------------------------------------

def _observe(genesis_cfg, scenario_cfg, monkeypatch, stepped: bool) -> dict:
    """Replay with run() or with one step() per block and record what it did."""
    checks = []
    verify = simulator.verify_invariants

    def recording_verify(state):
        checks.append((state.height, state_hash(state)))
        verify(state)

    monkeypatch.setattr(simulator, "verify_invariants", recording_verify)
    try:
        chain = Chain(build_state(genesis_cfg), parse_scenario(scenario_cfg))
        if stepped:
            blocks = 0
            while chain.state.height < chain.scenario.end_height:
                outcome = chain.step()
                if outcome != simulator._ROLLED_BACK:
                    assert outcome.status == COMMITTED, "step loop only covers runs without halts"
                    blocks += 1
            simulator.verify_invariants(chain.state)   # as run() does last
        else:
            result = chain.run()
            assert result.halt_heights == []
            blocks = result.blocks_committed
    except ParseError as exc:
        return {"error": str(exc), "checks": checks}
    finally:
        monkeypatch.setattr(simulator, "verify_invariants", verify)
    return {
        "rows": chain.rows,
        "tx_log": chain.tx_log,
        "epoch_events": chain.epoch_events,
        "tally_outcomes": chain.tally_outcomes,
        "blocks_committed": blocks,
        "final_hash": state_hash(chain.state),
        "checks": checks,
    }


def _assert_run_matches_step_loop(genesis_cfg, scenario_cfg, monkeypatch):
    ran = _observe(genesis_cfg, scenario_cfg, monkeypatch, stepped=False)
    stepped = _observe(genesis_cfg, scenario_cfg, monkeypatch, stepped=True)
    assert ran.keys() == stepped.keys()
    for key in ran:
        assert ran[key] == stepped[key], key
    return ran


NON_HALTING = [name for name in sorted(BUNDLED_SCENARIOS) if name != "rebel1-replay"]


@pytest.mark.parametrize("name", NON_HALTING)
def test_bundled_run_matches_step_loop(name, monkeypatch):
    observed = _assert_run_matches_step_loop(*build_bundled(name), monkeypatch)
    assert "error" not in observed


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_run_matches_step_loop(seed, monkeypatch):
    observed = _assert_run_matches_step_loop(*build_fuzz_configs(seed), monkeypatch)
    assert "error" not in observed


def test_upgrade_carried_over_a_rollback_lands_on_the_next_block(monkeypatch):
    # a rollback-to ends its block before the upgrade declared ahead of it
    # takes effect, so the upgrade lands at the end of the first block of
    # the new fork, which must not be fast-forwarded
    genesis_cfg = {
        "staking": {"gates": FAR_GATES, "validators": [
            {"address": "val1", "tokens": str(5 * M), "version": "v20"}]},
        "treasury": {"epoch_length_blocks": 1000},
    }
    scenario_cfg = {"name": "upgrade-rollback", "end_height": 60, "invariant_interval": 1,
                    "events": [
                        {"at_height": 30, "action": "upgrade-validator",
                         "validator": "val1", "version": "v21"},
                        {"at_height": 30, "action": "rollback-to", "target_height": 10},
                    ]}
    observed = _assert_run_matches_step_loop(genesis_cfg, scenario_cfg, monkeypatch)
    assert "error" not in observed


def test_run_on_a_halted_chain_produces_nothing():
    state = build_state(build_bundled("distribution-4080")[0])
    state.halted = True
    before = state_hash(state)
    chain = Chain(state, Scenario(name="halted", end_height=state.height + 50))
    with pytest.raises(ChainHalted):
        chain.run()
    assert chain.rows == [] and state_hash(state) == before


def test_rebel1_invariant_cadence_is_not_thinned(monkeypatch):
    heights = []
    verify = simulator.verify_invariants

    def counting_verify(state):
        heights.append(state.height)
        verify(state)

    monkeypatch.setattr(simulator, "verify_invariants", counting_verify)
    genesis_cfg, scenario_cfg = build_bundled("rebel1-replay")
    result = simulator.run_scenario(build_state(genesis_cfg), parse_scenario(scenario_cfg))
    assert result.blocks_committed == 125_000
    # the 125 multiples of 1000 in 7559601..7684600, the epoch turnover, the
    # recovered halt block, val6's upgrade event and the check after the run
    assert len(heights) == 129
    assert [h for h in heights if h % 1000] == [7_603_200, 7_684_492, 7_684_494, 7_684_600]


# Sparse scenarios that wake the chain through every source the look-ahead
# knows: events, mempool inclusions, sniper targets, unbonding maturities,
# voting ends, epoch boundaries, parameter activations, rollback snapshots,
# fees left in the collector and the end height. Validators mix v20 and
# v21, but with the gates out of reach no rule differs between versions, so
# no block halts.

def _tx(height, msg, fee=0):
    tx = {"fee_payer": msg.get("sender") or msg.get("delegator"), "msgs": [msg]}
    if fee:
        tx["declared_fee"] = [{"denom": "uluna", "amount": str(fee)}]
    return {"at_height": height, "action": "submit-tx", "tx": tx}


@st.composite
def sparse_scenarios(draw, validator_counts=st.integers(1, 4), powers=st.integers(1, 9),
                     ends=st.integers(20, 1200)):
    end = draw(ends)
    n_vals = draw(validator_counts)
    version = st.sampled_from(["v20", "v21"])
    validators = [f"val{i}" for i in range(1, n_vals + 1)]
    height = st.integers(1, end)
    genesis_cfg = {
        "chain_id": "sparse",
        "accounts": [{"address": "alice", "denom": "uluna", "amount": str(10**6 * M)}],
        "module_accounts": [
            {"module": "FeeCollector", "denom": "uluna", "amount": draw(st.sampled_from([0, 7]))},
            {"module": "CommunityPool", "denom": "uluna", "amount": 1_000},
        ],
        "staking": {
            "gates": FAR_GATES,
            "unbonding_period_blocks": draw(st.integers(1, 80)),
            "validators": [{"address": v, "tokens": str(draw(powers) * M),
                            "version": draw(version)} for v in validators],
        },
        "treasury": {"epoch_length_blocks": draw(st.integers(3, 400))},
        "governance": {"voting_period_blocks": draw(st.integers(3, 60))},
        "ante": {"gas_price": "0"},
    }
    events = []
    proposals = 0
    kinds = st.sampled_from(["send", "delegate", "undelegate", "sniper", "proposal",
                             "upgrade", "spend", "rollback"])
    for kind in draw(st.lists(kinds, max_size=8)):
        at = draw(height)
        val = draw(st.sampled_from(validators))
        if kind == "send":
            events.append(_tx(at, {"kind": "send", "sender": "alice", "recipient": "bob",
                                   "coins": [{"denom": "uluna", "amount": "5"}]},
                              fee=draw(st.sampled_from([0, 1_000]))))
        elif kind == "delegate":
            events.append(_tx(at, {"kind": "delegate", "delegator": "alice", "validator": val,
                                   "amount": {"denom": "uluna", "amount": str(M)}}))
        elif kind == "undelegate":
            events.append(_tx(at, {"kind": "undelegate", "delegator": val, "validator": val,
                                   "amount": {"denom": "uluna", "amount": str(M // 4)}}))
        elif kind == "sniper":
            events.append({"at_height": at, "action": "sniper-arm", "delegator": "alice",
                           "validator": val, "target_height": at + draw(st.integers(-3, 90)),
                           "amount": {"denom": "uluna", "amount": str(M)}})
        elif kind == "proposal":
            proposals += 1
            change = draw(st.sampled_from([
                {"subspace": "distribution", "key": "communitytax", "value": "0.1"},
                {"subspace": "staking", "key": "UnbondingPeriodBlocks", "value": "5"},
            ]))
            events.append({"at_height": at, "action": "submit-proposal",
                           "proposal": {"kind": "param-change", "title": "p",
                                        "changes": [change]}})
            events += [{"at_height": at + 1, "action": "cast-vote", "voter": v,
                        "proposal_id": proposals, "option": "yes"} for v in validators]
        elif kind == "upgrade":
            events.append({"at_height": at, "action": "upgrade-validator",
                           "validator": val, "version": draw(version)})
        elif kind == "spend":
            events.append({"at_height": at, "action": "community-spend", "recipient": "burn",
                           "coins": [{"denom": "uluna", "amount": "3"}]})
        else:
            events.append({"at_height": at, "action": "rollback-to",
                           "target_height": draw(st.integers(0, at - 1))})
    scenario_cfg = {
        "name": "sparse",
        "end_height": end,
        "inclusion_delay": draw(st.integers(0, 3)),
        "invariant_interval": draw(st.sampled_from([0, 1, 7, 100])),
        "events": events,
    }
    return genesis_cfg, scenario_cfg


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(configs=sparse_scenarios())
def test_sparse_run_matches_step_loop(configs, monkeypatch):
    _assert_run_matches_step_loop(*configs, monkeypatch)


# Mainnet-size validator sets with uneven powers, whose rotation period is
# mostly far longer than the scenario, so few idle runs skip a whole cycle.
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(configs=sparse_scenarios(
    validator_counts=st.sampled_from([5, 130]) | st.integers(5, 130),
    powers=st.integers(1, 40_000), ends=st.integers(20, 600)))
def test_sparse_run_matches_step_loop_over_uneven_powers(configs, monkeypatch):
    _assert_run_matches_step_loop(*configs, monkeypatch)


# -- the phase list ------------------------------------------------------------
# Each case gives one phase alone a due height at WAKE, with idle blocks
# after it: `run()` must produce WAKE through that phase, not fast-forward
# over it, and give what a step() loop gives. A phase whose due height is
# missing never runs, so its case fails.

WAKE, END = 120, 200


def _phase_case(events=(), epoch=10**6, voting=60, unbonding=80, genesis_height=0,
                fees=0, delay=0):
    genesis_cfg = {
        "genesis_height": genesis_height,
        "accounts": [{"address": "alice", "denom": "uluna", "amount": str(1000 * M)}],
        "module_accounts": [
            {"module": "FeeCollector", "denom": "uluna", "amount": fees},
            {"module": "CommunityPool", "denom": "uluna", "amount": 1_000}],
        "staking": {"gates": FAR_GATES, "unbonding_period_blocks": unbonding,
                    "validators": [{"address": "val1", "tokens": str(5 * M)}]},
        "treasury": {"epoch_length_blocks": epoch},
        "governance": {"voting_period_blocks": voting},
        "ante": {"gas_price": "0"},
    }
    scenario_cfg = {"name": "phase", "end_height": END, "inclusion_delay": delay,
                    "events": list(events)}
    return genesis_cfg, scenario_cfg


def _proposal(height, kind="text", changes=()):
    return {"at_height": height, "action": "submit-proposal",
            "proposal": {"kind": kind, "title": "p", "changes": list(changes)}}


def _sniper(target):
    return {"at_height": 1, "action": "sniper-arm", "delegator": "alice", "validator": "val1",
            "target_height": target, "amount": {"denom": "uluna", "amount": str(M)}}


_UNDELEGATE = {"kind": "undelegate", "delegator": "val1", "validator": "val1",
               "amount": {"denom": "uluna", "amount": str(M)}}
_COMMUNITY_TAX = {"subspace": "distribution", "key": "communitytax", "value": "0.1"}

# phase -> its case, in block order
PHASE_CASES = {
    # tallied at WAKE - 1, its change activates at WAKE
    "activate": _phase_case([_proposal(1, "param-change", [_COMMUNITY_TAX]),
                             {"at_height": 2, "action": "cast-vote", "voter": "val1",
                              "proposal_id": 1, "option": "yes"}], voting=WAKE - 2),
    "events": _phase_case([{"at_height": WAKE, "action": "community-spend",
                            "recipient": "bob",
                            "coins": [{"denom": "uluna", "amount": "3"}]}]),
    # the sniper's tx lands two blocks later
    "snipers": _phase_case([_sniper(WAKE)], delay=2),
    "txs": _phase_case([_sniper(WAKE - 2)], delay=2),
    # genesis fees, collected by the first block
    "fees": _phase_case(genesis_height=WAKE - 1, fees=7),
    "unbondings": _phase_case([_tx(1, _UNDELEGATE)], unbonding=WAKE - 1),
    "tallies": _phase_case([_proposal(1)], voting=WAKE - 1),
    "epoch": _phase_case(epoch=WAKE),
    # queued in the block a rollback ends, so it lands on the fork's first block
    "upgrades": _phase_case([{"at_height": 150, "action": "upgrade-validator",
                              "validator": "val1", "version": "v20"},
                             {"at_height": 150, "action": "rollback-to",
                              "target_height": WAKE - 1}]),
    "snapshot": _phase_case([{"at_height": 180, "action": "rollback-to",
                              "target_height": WAKE}]),
}


def _record_due_phases(monkeypatch) -> dict:
    """height -> the phases due when `_produce_block` reached them there."""
    due_at: dict = {}
    producing = []
    produce, phases = Chain._produce_block, Chain._phases

    def recording_produce(self, height):
        producing.append(height)
        try:
            return produce(self, height)
        finally:
            producing.pop()

    def recording_phases(self):
        for phase, due in phases(self):
            if producing and due is not None and due <= producing[-1]:
                due_at.setdefault(producing[-1], []).append(phase)
            yield phase, due

    monkeypatch.setattr(Chain, "_produce_block", recording_produce)
    monkeypatch.setattr(Chain, "_phases", recording_phases)
    return due_at


def test_every_phase_has_a_case():
    chain = Chain(build_state({}), Scenario(name="phases", end_height=0))
    assert [phase for phase, _ in chain._phases()] == list(PHASE_CASES)


@pytest.mark.parametrize("phase", PHASE_CASES)
def test_each_phase_alone_wakes_its_block(phase, monkeypatch):
    genesis_cfg, scenario_cfg = PHASE_CASES[phase]
    with monkeypatch.context() as patch:
        due_at = _record_due_phases(patch)
        result = run_scenario(build_state(genesis_cfg), parse_scenario(scenario_cfg))
    assert result.final_state.height == END
    assert due_at[WAKE] == [phase]
    assert WAKE + 1 not in due_at   # the block after is fast-forwarded
    _assert_run_matches_step_loop(genesis_cfg, scenario_cfg, monkeypatch)

"""Acceptance suite: one test per top-level criterion, exact tolerances.

Every numeric expectation is either asserted against an oracle computed
inline with independent rational arithmetic, or is a frozen constant
whose derivation lives next to the assertion. Criterion tests print a
one-line verdict collected into the terminal summary.

The burn-tax criterion additionally requires one named unit test per
taxed message kind, each with and without the tax active; those are the
test_send_* / test_multi_send_* / test_swap_send_* /
test_instantiate_contract_* / test_execute_contract_* / test_exec_*
functions below.
"""

import random
import time
from fractions import Fraction

from helpers import fresh_bank, staking_fixture

from luncsim import (
    MAINNET_DELEGATE_POWER_REVERT_HEIGHT,
    MAINNET_STAKING_POWER_REVERT_HEIGHT,
    MAINNET_STAKING_POWER_UPGRADE_HEIGHT,
    blocks_for_days,
    build_bundled,
    build_state,
    estimate_fee,
    parse_scenario,
    run_scenario,
    state_hash,
    verify_invariants,
)
from luncsim.ante import (
    AnteConfig,
    Msg,
    MsgKind,
    Tx,
    compute_tax,
    filter_msgs_and_compute_tax,
    run_ante_pipeline,
)
from luncsim.distribution import DistributionParams, DistributionState, allocate_block_fees
from luncsim.simulator import Chain
from luncsim.staking import (
    V20,
    V21,
    StakingParams,
    check_power_cap,
    mainnet_gates,
    version_rules,
)
from luncsim.treasury import TreasuryState, epoch_transition
from fuzztools import build_fuzz_configs

M = 1_000_000


# -- criterion 1: six-validator halt replay ----------------------------------


def test_criterion_01_halt_replay(verdict):
    t0 = time.perf_counter()
    genesis_cfg, scenario_cfg = build_bundled("rebel1-replay")
    result = run_scenario(build_state(genesis_cfg), parse_scenario(scenario_cfg))
    elapsed = time.perf_counter() - t0

    # the chain stops exactly two blocks after delegation re-enables
    assert result.halt_heights == [7_684_492]

    # the four upgraded validators hold 64% of power, short of 2/3
    tokens = {v["address"]: int(v["tokens"])
              for v in genesis_cfg["staking"]["validators"]}
    upgraded = {e["validator"] for e in scenario_cfg["events"]
                if e["action"] == "upgrade-validator"
                and e["at_height"] <= 7_684_492}
    assert len(upgraded) == 4
    share = Fraction(sum(tokens[v] for v in upgraded), sum(tokens.values()))
    assert share == Fraction(16, 25)
    assert abs(float(share) - 0.64) < 1e-12
    assert share < Fraction(2, 3)

    # after the last two validators upgrade, the chain resumes and the
    # armed delegation lands in the retried block
    assert result.final_state.halted is False
    assert result.final_state.height == 7_684_600
    assert result.tx_log[7_684_492] == [("ok", "")]
    versions = {v.software_version
                for v in result.final_state.staking.validators.values()}
    assert versions == {"v21"}

    blocks = 7_684_600 - genesis_cfg["genesis_height"]
    assert blocks == 125_000
    assert result.blocks_committed == 125_000
    assert elapsed < 10.0
    verdict(f"criterion 01 PASS: halt at 7684492 with 4/6 at 64% power, "
            f"resumed after upgrades, {blocks} blocks in {elapsed:.2f}s")


# -- criterion 2: gate boundary sweep ----------------------------------------


def _expected_delegate_block(h, version):
    if version == "v20":
        return h > 7_603_700
    return 7_603_700 < h < 8_208_649


def _expected_create_block(h, version):
    if version == "v20":
        return h > 7_603_700
    return 7_603_700 < h < 8_905_758


def test_criterion_02_gate_sweep(verdict):
    assert MAINNET_STAKING_POWER_UPGRADE_HEIGHT == 7_603_700
    assert MAINNET_DELEGATE_POWER_REVERT_HEIGHT == 8_208_649
    assert MAINNET_STAKING_POWER_REVERT_HEIGHT == 8_905_758

    gates = mainnet_gates()
    heights = set()
    for edge in (7_603_700, 8_208_649, 8_905_758):
        heights.update(range(edge - 200, edge + 201))
    heights.update(range(7_400_000, 9_100_000, 997))   # coarse in-between scan
    heights.update((1, 7_559_600, 10_000_000))

    checked = 0
    for h in sorted(heights):
        for version in (V20, V21):
            rules = version_rules(gates, h, version)
            assert rules.delegate_blocked == _expected_delegate_block(h, version), (h, version)
            assert rules.create_validator_blocked == \
                _expected_create_block(h, version), (h, version)
            checked += 2
    verdict(f"criterion 02 PASS: {checked} gate decisions match the strict "
            f"inequalities around 7603700/8208649/8905758, zero mismatches")


def test_gate_sweep_end_to_end_edges():
    """The real handlers, not just the predicates, flip at the boundaries."""
    from luncsim.coins import Coin
    from luncsim.errors import MsgNotSupported
    from luncsim.staking import create_validator, delegate

    for h, blocked in ((8_208_648, True), (8_208_649, False)):
        bank = fresh_bank([("carol", "uluna", 10_000 * M)])
        # val1 sits at 20% so the protect-window cap stays out of the way
        st = staking_fixture(bank, validators=[("val1", 6_000 * M),
                                               ("val2", 10_000 * M),
                                               ("val3", 14_000 * M)],
                             gates=mainnet_gates())
        if blocked:
            try:
                delegate(bank, st, "carol", "val1", Coin("uluna", 5 * M), h)
                raise AssertionError(f"delegate passed at {h}")
            except MsgNotSupported:
                pass
        else:
            delegate(bank, st, "carol", "val1", Coin("uluna", 5 * M), h)
            assert st.validators["val1"].tokens == 6_005 * M

    for h, blocked in ((8_905_757, True), (8_905_758, False)):
        bank = fresh_bank([])
        st = staking_fixture(bank, validators=[("val1", 30_000 * M)],
                             gates=mainnet_gates())
        if blocked:
            try:
                create_validator(st, "newval", h)
                raise AssertionError(f"create-validator passed at {h}")
            except MsgNotSupported:
                pass
        else:
            create_validator(st, "newval", h)
            assert "newval" in st.validators


# -- criterion 3: burn-tax suite ----------------------------------------------

TAX_ON = TreasuryState(tax_rate=Fraction(12, 1000), default_tax_cap=10**15)
TAX_OFF = TreasuryState(tax_rate=Fraction(0), default_tax_cap=10**15)
EXEMPT = AnteConfig().exempt_denoms


def _send_msg(amount):
    return Msg(MsgKind.SEND, {"sender": "a", "recipient": "b",
                              "coins": {"uluna": amount}})


def test_send_with_tax():
    assert filter_msgs_and_compute_tax([_send_msg(1_000_000)], TAX_ON, EXEMPT) == \
        {"uluna": 12_000}


def test_send_without_tax():
    assert filter_msgs_and_compute_tax([_send_msg(1_000_000)], TAX_OFF, EXEMPT) == {}


def test_multi_send_with_tax():
    msg = Msg(MsgKind.MULTI_SEND, {"sender": "a", "outputs": [
        {"recipient": "b", "coins": {"uluna": 100_000}},
        {"recipient": "c", "coins": {"uluna": 200_000}},
        {"recipient": "d", "coins": {"uluna": 83}},    # floors to zero alone
    ]})
    # taxed per output: 1200 + 2400 + 0, not floor(0.012 * 300083)
    assert filter_msgs_and_compute_tax([msg], TAX_ON, EXEMPT) == {"uluna": 3_600}


def test_multi_send_without_tax():
    msg = Msg(MsgKind.MULTI_SEND, {"sender": "a", "outputs": [
        {"recipient": "b", "coins": {"uluna": 100_000}},
        {"recipient": "c", "coins": {"uluna": 200_000}},
    ]})
    assert filter_msgs_and_compute_tax([msg], TAX_OFF, EXEMPT) == {}


def test_swap_send_with_tax():
    from luncsim.coins import Coin
    msg = Msg(MsgKind.SWAP_SEND, {"sender": "a", "recipient": "b",
                                  "offer": Coin("uluna", 500_000),
                                  "ask_denom": "usdr"})
    assert filter_msgs_and_compute_tax([msg], TAX_ON, EXEMPT) == {"uluna": 6_000}


def test_swap_send_without_tax():
    from luncsim.coins import Coin
    msg = Msg(MsgKind.SWAP_SEND, {"sender": "a", "recipient": "b",
                                  "offer": Coin("uluna", 500_000),
                                  "ask_denom": "usdr"})
    assert filter_msgs_and_compute_tax([msg], TAX_OFF, EXEMPT) == {}


def test_instantiate_contract_with_tax():
    msg = Msg(MsgKind.INSTANTIATE_CONTRACT,
              {"sender": "a", "funds": {"uluna": 250_000}, "label": "x"})
    assert filter_msgs_and_compute_tax([msg], TAX_ON, EXEMPT) == {"uluna": 3_000}
    bare = Msg(MsgKind.INSTANTIATE_CONTRACT,
               {"sender": "a", "funds": {}, "label": "x"})
    assert filter_msgs_and_compute_tax([bare], TAX_ON, EXEMPT) == {}


def test_instantiate_contract_without_tax():
    msg = Msg(MsgKind.INSTANTIATE_CONTRACT,
              {"sender": "a", "funds": {"uluna": 250_000}, "label": "x"})
    assert filter_msgs_and_compute_tax([msg], TAX_OFF, EXEMPT) == {}


def test_execute_contract_with_tax():
    msg = Msg(MsgKind.EXECUTE_CONTRACT,
              {"sender": "a", "contract": "c1", "funds": {"uluna": 999}})
    # floor(0.012 * 999) = floor(11.988) = 11
    assert filter_msgs_and_compute_tax([msg], TAX_ON, EXEMPT) == {"uluna": 11}


def test_execute_contract_without_tax():
    msg = Msg(MsgKind.EXECUTE_CONTRACT,
              {"sender": "a", "contract": "c1", "funds": {"uluna": 999}})
    assert filter_msgs_and_compute_tax([msg], TAX_OFF, EXEMPT) == {}


def test_exec_with_tax():
    inner = _send_msg(1_000_000)
    wrapped = Msg(MsgKind.EXEC, {"sender": "a", "msgs": [inner]})
    double = Msg(MsgKind.EXEC, {"sender": "a", "msgs": [wrapped]})
    assert filter_msgs_and_compute_tax([wrapped], TAX_ON, EXEMPT) == {"uluna": 12_000}
    assert filter_msgs_and_compute_tax([double], TAX_ON, EXEMPT) == {"uluna": 12_000}


def test_exec_without_tax():
    wrapped = Msg(MsgKind.EXEC, {"sender": "a", "msgs": [_send_msg(10**6)]})
    assert filter_msgs_and_compute_tax([wrapped], TAX_OFF, EXEMPT) == {}


def test_criterion_03_burn_tax_suite(verdict):
    rng = random.Random(3)
    rate = Fraction(12, 1000)
    for _ in range(2_000):
        amount = rng.randint(0, 10**13)
        cap = rng.choice([rng.randint(0, 10**8), 10**18])
        ts = TreasuryState(tax_rate=rate, default_tax_cap=cap)
        got = compute_tax({"uluna": amount}, ts, EXEMPT)
        want = min((12 * amount) // 1000, cap)
        assert got.get("uluna", 0) == want, (amount, cap)

    # staking and governance traffic is never taxed
    from luncsim.coins import Coin
    untaxed = [
        Msg(MsgKind.DELEGATE, {"delegator": "a", "validator": "v",
                               "amount": Coin("uluna", 10**9)}),
        Msg(MsgKind.UNDELEGATE, {"delegator": "a", "validator": "v",
                                 "amount": Coin("uluna", 10**9)}),
        Msg(MsgKind.CREATE_VALIDATOR, {"operator": "v", "version": "v21"}),
        Msg(MsgKind.VOTE, {"voter": "a", "proposal_id": 1, "option": "yes"}),
        Msg(MsgKind.SUBMIT_PROPOSAL, {"proposer": "a", "proposal": {}}),
    ]
    assert filter_msgs_and_compute_tax(untaxed, TAX_ON, EXEMPT) == {}
    verdict("criterion 03 PASS: six message kinds taxed with/without the tax, "
            "2000 random floor(0.012*x) clamps exact, staking/governance free")


# -- criterion 4: power-cap property ------------------------------------------


def test_criterion_04_power_cap_property(verdict):
    rng = random.Random(44)
    params = StakingParams()
    assert params.max_delegation_power_fraction == Fraction(1, 4)

    triples = []
    for _ in range(8_000):
        v = rng.randint(0, 10**7)
        t = v + rng.randint(0, 3 * 10**7)
        d = rng.randint(0, 10**6)
        triples.append((v, t, d))
    for _ in range(2_000):
        # constructed to sit within a few units of v+d == (t+d)/4
        d = rng.randint(0, 10**6)
        x = rng.randint(1, 10**6)
        v = max(x + rng.randint(-2, 2) - d, 0)
        t = max(4 * x + rng.randint(-2, 2) - d, v)
        triples.append((v, t, d))

    mismatches = 0
    for v, t, d in triples:
        accepted = check_power_cap(v, t, d * params.power_reduction, params)
        oracle = (t + d == 0) or Fraction(v + d, t + d) <= Fraction(1, 4)
        if accepted != oracle:
            mismatches += 1
    assert mismatches == 0
    verdict(f"criterion 04 PASS: {len(triples)} random (v,T,d) triples agree "
            f"with the exact rational (v+d)/(T+d) <= 1/4 oracle, 0 mismatches")


# -- criterion 5: seigniorage identity ----------------------------------------


def test_criterion_05_seigniorage_identity(verdict):
    rng = random.Random(55)
    epochs = 0
    for w in (Fraction(0), Fraction(2, 5), Fraction(1)):
        bank = fresh_bank([("whale", "uluna", 10**15)])
        staking_state = staking_fixture(
            bank, validators=[("val1", 20_000 * M), ("val2", 10_000 * M)])
        ts = TreasuryState(reward_weight=w, epoch_length_blocks=100)
        ds = DistributionState()
        for i in range(1, 31):
            burned_this_epoch = {
                d: rng.randint(0, 10**12)
                for d in rng.sample(["uluna", "uusd", "ukrw"], rng.randint(1, 3))
            }
            # tax burns happen against real balances before they are recorded
            live = {d: a for d, a in burned_this_epoch.items() if a}
            if live:
                bank.mint("FeeCollector", live)
                bank.send_module_to_module("FeeCollector", "BurnModule", live)
                bank.burn("BurnModule", live)
            ts.epoch_burned = dict(live)

            supply_before = dict(bank.supply.totals)
            outcome = epoch_transition(bank, ts, ds, staking_state, i * 100)
            epochs += 1

            assert outcome["minted"] == live                    # mint == burn
            for d, minted in outcome["minted"].items():
                want_burn = (w.numerator * minted) // w.denominator
                assert outcome["burned"].get(d, 0) == want_burn
                assert outcome["burned"].get(d, 0) \
                    + outcome["distributed"].get(d, 0) == minted
            if w == 1:
                assert bank.supply.totals == supply_before      # net zero
            assert ts.epoch_burned == {}
            bank.verify_supply_identity()
    verdict(f"criterion 05 PASS: {epochs} random epochs at weights 0/0.4/1.0 "
            f"mint exactly the epoch burn and partition it without remainder")


# -- criterion 6: distribution conservation -----------------------------------


def test_criterion_06_distribution_conservation(verdict):
    rng = random.Random(66)
    params = DistributionParams(community_tax=Fraction(1, 2),
                                base_proposer_reward=Fraction(3, 100),
                                bonus_proposer_reward=Fraction(12, 100))
    bank = fresh_bank([])
    staking_state = staking_fixture(
        bank, validators=[("val1", 17_000 * M), ("val2", 11_000 * M),
                          ("val3", 3_000 * M)])
    ds = DistributionState(params=params)

    for _ in range(1_000):
        fees = {d: rng.randint(0, 10**10)
                for d in rng.sample(["uluna", "uusd"], rng.randint(1, 2))}
        fees = {d: a for d, a in fees.items() if a}
        if fees:
            bank.mint("FeeCollector", fees)
        precommit = Fraction(rng.randint(667, 1000), 1000)
        proposer = rng.choice(["val1", "val2", "val3"])
        split = allocate_block_fees(bank, ds, staking_state, fees,
                                    proposer, precommit)
        for d, total in fees.items():
            got = split["proposer"].get(d, 0) + split["community"].get(d, 0) \
                + sum(v.get(d, 0) for v in split["validators"].values())
            assert got == total, (fees, split)
        bank.verify_supply_identity()

    # the governing parameter proposal lands verbatim
    genesis_cfg = {
        "chain_id": "p", "genesis_height": 0,
        "accounts": [],
        "staking": {"validators": [{"address": "val1", "tokens": str(9_000 * M)},
                                   {"address": "val2", "tokens": str(1_000 * M)}]},
        "governance": {"voting_period_blocks": 10},
        "ante": {"gas_price": "0"},
    }
    scenario_cfg = {
        "name": "p", "end_height": 20, "events": [
            {"at_height": 2, "action": "submit-proposal", "proposer": "val1",
             "proposal": {"kind": "param-change", "title": "split", "changes": [
                 {"subspace": "distribution", "key": "communitytax",
                  "value": "0.5"},
                 {"subspace": "distribution", "key": "baseproposerreward",
                  "value": "0.03"},
                 {"subspace": "distribution", "key": "bonusproposerreward",
                  "value": "0.12"},
             ]}},
            {"at_height": 3, "action": "cast-vote", "voter": "val1",
             "proposal_id": 1, "option": "yes"},
        ],
    }
    result = run_scenario(build_state(genesis_cfg), parse_scenario(scenario_cfg))
    landed = result.final_state.distribution.params
    assert landed.community_tax == Fraction(1, 2)
    assert landed.base_proposer_reward == Fraction(3, 100)
    assert landed.bonus_proposer_reward == Fraction(12, 100)
    verdict("criterion 06 PASS: 1000 random fee splits under (0.5,0.03,0.12) "
            "conserve to the unit, proposal applies those params verbatim")


# -- criterion 7: governance activation latency --------------------------------


def test_criterion_07_governance_latency(verdict):
    genesis_cfg = {
        "chain_id": "lat", "genesis_height": 0,
        "accounts": [{"address": "alice", "denom": "uluna", "amount": str(10**12)}],
        "staking": {"validators": [{"address": "val1", "tokens": str(20_000 * M)},
                                   {"address": "val2", "tokens": str(10_000 * M)}]},
        "treasury": {"epoch_length_blocks": 100,
                     "tax_policy": {"rate_min": "0", "rate_max": "0.02",
                                    "change_rate_max": "0.02"}},
        "governance": {"voting_period_blocks": 20},
        "ante": {"gas_price": "0"},
    }
    scenario_cfg = {
        "name": "lat", "end_height": 120, "events": [
            {"at_height": 5, "action": "submit-proposal", "proposer": "val1",
             "proposal": {"kind": "param-change", "title": "t", "changes": [
                 {"subspace": "treasury", "key": "TaxPolicy",
                  "value": {"rate_min": "0.015", "rate_max": "0.015",
                            "cap": {"denom": "uluna", "amount": str(10**12)},
                            "change_rate_max": "0.02"}},
                 {"subspace": "treasury", "key": "RewardPolicy",
                  "value": {"rate_min": "1", "rate_max": "1",
                            "cap": {"denom": "uluna", "amount": "0"},
                            "change_rate_max": "1"}},
                 {"subspace": "distribution", "key": "communitytax",
                  "value": "0.25"},
             ]}},
            {"at_height": 6, "action": "cast-vote", "voter": "val1",
             "proposal_id": 1, "option": "yes"},
            {"at_height": 7, "action": "cast-vote", "voter": "val2",
             "proposal_id": 1, "option": "yes"},
        ],
    }
    chain = Chain(build_state(genesis_cfg), parse_scenario(scenario_cfg))
    cfg = AnteConfig()
    probe = {"uluna": 1_000_000}

    def live_tax():
        return compute_tax(probe, chain.state.treasury, cfg.exempt_denoms)

    while chain.state.height < 25:
        chain.step()
    # the tally just passed; nothing has activated inside this block
    assert chain.state.governance.proposals[1].status == "passed"
    assert chain.state.distribution.params.community_tax == 0
    assert live_tax() == {}

    chain.step()                                     # height 26
    assert chain.state.distribution.params.community_tax == Fraction(1, 4)
    assert live_tax() == {}                          # tax still waits

    while chain.state.height < 99:
        chain.step()
    assert live_tax() == {}                          # one block short
    assert chain.state.treasury.tax_rate == 0

    chain.step()                                     # height 100, epoch turns
    assert chain.state.treasury.tax_rate == Fraction(15, 1000)
    assert live_tax() == {"uluna": 15_000}
    verdict("criterion 07 PASS: tax change idles from tally at 25 until epoch "
            "boundary 100; distribution change live one block after tally")


# -- criterion 8: randomized long runs ----------------------------------------


def test_criterion_08_fuzz_invariants(verdict):
    t0 = time.perf_counter()
    blocks = 0
    for seed in range(100):
        genesis_cfg, scenario_cfg = build_fuzz_configs(seed)
        first = run_scenario(build_state(genesis_cfg), parse_scenario(scenario_cfg))
        second = run_scenario(build_state(genesis_cfg), parse_scenario(scenario_cfg))
        verify_invariants(first.final_state)
        assert first.final_state.halted is False, seed
        assert first.final_state.height == scenario_cfg["end_height"]
        assert first.final_hash == second.final_hash, seed
        assert first.final_hash == state_hash(first.final_state)
        blocks += 2 * scenario_cfg["end_height"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    verdict(f"criterion 08 PASS: 100 randomized scenarios ({blocks} blocks "
            f"incl. determinism reruns) hold all identities in {elapsed:.1f}s")


# -- criterion 9: estimator vs ante pipeline -----------------------------------


def test_criterion_09_fee_estimator_agreement(verdict):
    rng = random.Random(99)
    bank = fresh_bank([("payer", "uluna", 10**18)])
    ts = TreasuryState()
    checked = 0
    for _ in range(10_000):
        amount = rng.randint(0, 10**12)
        rate = Fraction(rng.randint(0, 200), 10_000)
        cap = rng.choice([rng.randint(0, 10**7), 10**16])
        gas = rng.randint(0, 10**6)

        ts.tax_rate = rate
        ts.tax_caps = {"uluna": cap}
        cfg = AnteConfig(gas_price=Fraction(gas), gas_denom="uluna")

        quote = estimate_fee(amount, "uluna", gas, rate, cap)
        tx = Tx(msgs=[_send_msg(amount)], fee_payer="payer",
                declared_fee={"uluna": quote.total_fee} if quote.total_fee else {},
                gas_limit=1)
        burned = run_ante_pipeline(bank, ts, cfg, tx, height=10)
        assert quote.total_fee - quote.gas_fee == burned.get("uluna", 0), \
            (amount, rate, cap, gas)
        checked += 1
    bank.verify_supply_identity()
    assert checked == 10_000
    verdict("criterion 09 PASS: estimate_fee minus gas equals the ante "
            "pipeline burn for 10000 random (amount, rate, cap) triples")


# -- criterion 10: block arithmetic --------------------------------------------


def test_criterion_10_block_arithmetic(verdict):
    assert blocks_for_days(68) == 839_272
    assert 8_066_486 + 839_272 == 8_905_758
    assert 8_066_486 + blocks_for_days(68) == MAINNET_STAKING_POWER_REVERT_HEIGHT
    verdict("criterion 10 PASS: 68 days at 60/7 blocks per minute is 839272 "
            "blocks; 8066486 + 839272 == 8905758")

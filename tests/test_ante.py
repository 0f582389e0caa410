from fractions import Fraction

import pytest

from luncsim import build_state, parse_scenario, run_scenario
from luncsim.ante import (
    AnteConfig,
    Msg,
    MsgKind,
    Tx,
    compute_tax,
    filter_msgs_and_compute_tax,
    required_gas_fee,
    run_ante_pipeline,
)
from luncsim.errors import InsufficientFunds
from luncsim.ledger import BURN_MODULE, FEE_COLLECTOR
from luncsim.treasury import TreasuryState

from helpers import balance, fresh_bank, full_canonical

RATE = Fraction("0.012")
EXEMPT = AnteConfig().exempt_denoms


def treasury(rate=RATE, caps=None, default_cap=None):
    kwargs = {"tax_rate": rate}
    if caps is not None:
        kwargs["tax_caps"] = caps
    if default_cap is not None:
        kwargs["default_tax_cap"] = default_cap
    return TreasuryState(**kwargs)


def send_msg(amount, denom="uluna", recipient="bob"):
    return Msg(MsgKind.SEND, {"sender": "alice", "recipient": recipient,
                              "coins": {denom: amount}})


def test_tax_is_floored_rational_product():
    assert compute_tax({"uluna": 1_000_000}, treasury(), EXEMPT) == {"uluna": 12_000}
    # 0.012 * 83 = 0.996 floors away entirely
    assert compute_tax({"uluna": 83}, treasury(), EXEMPT) == {}
    assert compute_tax({"uluna": 84}, treasury(), EXEMPT) == {"uluna": 1}


def test_tax_clamped_by_per_denom_cap():
    ts = treasury(caps={"uluna": 50_000_000})
    assert compute_tax({"uluna": 100_000 * 1_000_000}, ts, EXEMPT) == {"uluna": 50_000_000}
    # other denoms fall back to the default cap
    ts2 = treasury(caps={"uusd": 10}, default_cap=25)
    assert compute_tax({"uluna": 10_000}, ts2, EXEMPT) == {"uluna": 25}
    assert compute_tax({"uusd": 10_000}, ts2, EXEMPT) == {"uusd": 10}


def test_exempt_denoms_skip_tax():
    assert compute_tax({"stake": 10**9}, treasury(), EXEMPT) == {}
    assert compute_tax({"uusd": 10**9, "uluna": 1_000_000}, treasury(),
                       frozenset({"uusd"})) == {"uluna": 12_000}


def test_multi_send_taxes_every_output():
    msg = Msg(MsgKind.MULTI_SEND, {"sender": "alice", "outputs": [
        {"recipient": "bob", "coins": {"uluna": 100_000}},
        {"recipient": "carol", "coins": {"uluna": 200_000}},
    ]})
    assert filter_msgs_and_compute_tax([msg], treasury(), EXEMPT) == {"uluna": 3_600}


def test_wrapped_messages_are_unwrapped():
    inner = send_msg(1_000_000)
    wrapper = Msg(MsgKind.EXEC, {"sender": "alice", "msgs": [inner]})
    assert filter_msgs_and_compute_tax([wrapper], treasury(), EXEMPT) == {"uluna": 12_000}
    double = Msg(MsgKind.EXEC, {"sender": "alice", "msgs": [wrapper]})
    assert filter_msgs_and_compute_tax([double], treasury(), EXEMPT) == {"uluna": 12_000}


def test_staking_and_governance_messages_untaxed():
    from luncsim.coins import Coin
    msgs = [
        Msg(MsgKind.DELEGATE, {"delegator": "alice", "validator": "val1",
                               "amount": Coin("uluna", 10**9)}),
        Msg(MsgKind.UNDELEGATE, {"delegator": "alice", "validator": "val1",
                                 "amount": Coin("uluna", 10**9)}),
        Msg(MsgKind.VOTE, {"voter": "alice", "proposal_id": 1, "option": "yes"}),
        Msg(MsgKind.SUBMIT_PROPOSAL, {"proposal": {"kind": "text"}}),
    ]
    assert filter_msgs_and_compute_tax(msgs, treasury(), EXEMPT) == {}


def test_gas_fee_rounds_up():
    cfg = AnteConfig(gas_price=Fraction("0.01"))
    assert required_gas_fee(cfg, 100_000) == {"uluna": 1_000}
    cfg_frac = AnteConfig(gas_price=Fraction(1, 3))
    assert required_gas_fee(cfg_frac, 100) == {"uluna": 34}
    assert required_gas_fee(AnteConfig(), 100_000) == {}


def _pipeline_setup(rate="0.012", activation=0, balance=10**9):
    bank = fresh_bank([("alice", "uluna", balance)])
    ts = TreasuryState(tax_rate=Fraction(rate))
    cfg = AnteConfig(tax_power_upgrade_height=activation,
                     gas_price=Fraction("0.01"))
    return bank, ts, cfg


def test_pipeline_deducts_fee_and_burns_tax():
    bank, ts, cfg = _pipeline_setup()
    tx = Tx(msgs=[send_msg(1_000_000)], fee_payer="alice",
            declared_fee={"uluna": 13_000}, gas_limit=100_000)
    burned = run_ante_pipeline(bank, ts, cfg, tx, height=50)
    assert burned == {"uluna": 12_000}
    # full declared fee left alice; tax moved on to the burn
    assert balance(bank, "alice", "uluna") == 10**9 - 13_000
    assert bank.module_balance(FEE_COLLECTOR, "uluna") == 1_000
    assert bank.module_balance(BURN_MODULE, "uluna") == 0
    assert bank.supply.cumulative_burned == {"uluna": 12_000}
    assert ts.epoch_burned == {"uluna": 12_000}


def test_pipeline_rejects_underdeclared_fee_without_mutation():
    bank, ts, cfg = _pipeline_setup()
    tx = Tx(msgs=[send_msg(1_000_000)], fee_payer="alice",
            declared_fee={"uluna": 12_999}, gas_limit=100_000)
    before = full_canonical(bank)
    with pytest.raises(InsufficientFunds):
        run_ante_pipeline(bank, ts, cfg, tx, height=50)
    assert full_canonical(bank) == before
    assert ts.epoch_burned == {}


def test_pipeline_skips_burn_before_activation_height():
    bank, ts, cfg = _pipeline_setup(activation=1_000)
    tx = Tx(msgs=[send_msg(1_000_000)], fee_payer="alice",
            declared_fee={"uluna": 1_000}, gas_limit=100_000)
    burned = run_ante_pipeline(bank, ts, cfg, tx, height=999)
    assert burned == {}
    assert bank.module_balance(FEE_COLLECTOR, "uluna") == 1_000
    # at the activation height the tax is demanded again
    tx2 = Tx(msgs=[send_msg(1_000_000)], fee_payer="alice",
             declared_fee={"uluna": 13_000}, gas_limit=100_000)
    assert run_ante_pipeline(bank, ts, cfg, tx2, height=1_000) == {"uluna": 12_000}


def test_pipeline_overdeclared_fee_is_kept_by_collector():
    bank, ts, cfg = _pipeline_setup()
    tx = Tx(msgs=[send_msg(1_000_000)], fee_payer="alice",
            declared_fee={"uluna": 20_000}, gas_limit=100_000)
    burned = run_ante_pipeline(bank, ts, cfg, tx, height=50)
    assert burned == {"uluna": 12_000}
    assert bank.module_balance(FEE_COLLECTOR, "uluna") == 8_000


def test_pipeline_reads_live_treasury_settings():
    # one tx sends a capped denom, a denom on the default cap and an exempt one
    bank = fresh_bank([("alice", d, 10**12) for d in ("uluna", "uusd", "ukrw")])
    ts = TreasuryState(tax_rate=Fraction("0.005"), tax_caps={"uusd": 42},
                       default_tax_cap=4_000)
    cfg = AnteConfig(tax_power_upgrade_height=7, exempt_denoms=frozenset({"ukrw"}))
    send = Msg(MsgKind.SEND, {"sender": "alice", "recipient": "bob", "coins": {
        "uluna": 1_000_000, "uusd": 1_000_000, "ukrw": 1_000_000}})

    def admit():
        tx = Tx(msgs=[send], fee_payer="alice",
                declared_fee={"uluna": 10**6, "uusd": 10**6})
        return run_ante_pipeline(bank, ts, cfg, tx, height=7)

    # floor(0.005 * 10^6) = 5000: uluna falls back to the default cap 4000
    assert admit() == {"uluna": 4_000, "uusd": 42}
    # the store is read per tx: the new rate and cap table apply at once
    ts.tax_rate = Fraction("0.001")
    ts.tax_caps = {"uusd": 500}
    assert admit() == {"uluna": 1_000, "uusd": 500}
    assert bank.supply.cumulative_burned == {"uluna": 5_000, "uusd": 542}
    assert "ukrw" not in ts.epoch_burned


def test_tax_params_reads_treasury_state():
    # the tax settings come straight from the TreasuryState: rate, per-denom caps
    ts = TreasuryState(tax_rate=Fraction("0.005"), tax_caps={"uusd": 42})
    exempt = AnteConfig(exempt_denoms=frozenset({"x"})).exempt_denoms
    assert compute_tax({"uluna": 1_000, "uusd": 100_000, "x": 10**6}, ts, exempt) \
        == {"uluna": 5, "uusd": 42}


def test_tx_validation():
    with pytest.raises(ValueError):
        Tx(msgs=[], fee_payer="alice")
    with pytest.raises(ValueError):
        Tx(msgs=[send_msg(1)], fee_payer="")
    with pytest.raises(ValueError):
        Tx(msgs=[send_msg(1)], fee_payer="alice", gas_limit=-1)


# -- the tax is staged through the BurnModule before it is burned --------------

def _burn_module_run(seed):
    """Taxed txs over a genesis BurnModule seeded with `seed` uluna.

    The txs land in a one-version block, in a block evaluated per version
    (val2 runs v20, and a delegate past the revert height differs between
    versions), and in a block with a rejected tx.
    """
    def coins(amount):
        return [{"denom": "uluna", "amount": str(amount)}]

    def send(payer, fee, amount=1_000_000):
        return {"fee_payer": payer, "declared_fee": coins(fee), "msgs": [
            {"kind": "send", "sender": payer, "recipient": "bob", "coins": coins(amount)}]}

    genesis = {
        "chain_id": "t", "genesis_height": 0,
        "accounts": [{"address": a, "denom": "uluna", "amount": "50000000"}
                     for a in ("alice", "bob", "carol")],
        "module_accounts": [{"module": BURN_MODULE, "denom": "uluna", "amount": seed}],
        "staking": {"gates": {"staking_power_upgrade_height": 5,
                              "delegate_power_revert_height": 10,
                              "staking_power_revert_height": 10**6,
                              "protect_power_height": 10},
                    "validators": [{"address": "val1", "tokens": "30000000"},
                                   {"address": "val2", "tokens": "10000000",
                                    "version": "v20"}]},
        "treasury": {"tax_rate": "0.012"},
        "ante": {"gas_price": "0"},
    }
    delegate = {"fee_payer": "carol", "declared_fee": coins(1), "msgs": [
        {"kind": "delegate", "delegator": "carol", "validator": "val2",
         "amount": {"denom": "uluna", "amount": "1000000"}}]}
    events = [(3, send("alice", 12_000)), (3, send("bob", 36_000, 3_000_000)),
              (12, send("alice", 13_000)), (12, delegate), (12, send("carol", 12_000)),
              (14, send("bob", 11_999)), (14, send("carol", 12_000))]
    scenario = {"name": "burn-staging", "end_height": 16, "events": [
        {"at_height": h, "action": "submit-tx", "tx": tx} for h, tx in events]}
    return run_scenario(build_state(genesis), parse_scenario(scenario))


@pytest.mark.parametrize("seed, burn_module, final_hash", [
    # the staged move ends each burn by dropping the genesis zero entry
    (0, {}, "5f3b15bb7ff96dd4c09742dd93af0f679d94fe1bc83429e88d302a41fb2d59dc"),
    (5, {"uluna": 5}, "cd25eef022df6883f3ea9d473e98cf094aec102430f64a2de5e5f14e6ee3335f"),
], ids=["seeded-0", "seeded-5"])
def test_burn_staging_keeps_the_burn_module_bytes(seed, burn_module, final_hash):
    result = _burn_module_run(seed)
    assert result.tx_log == {3: [("ok", ""), ("ok", "")],
                             12: [("ok", ""), ("ok", ""), ("ok", "")],
                             14: [("rejected", "InsufficientFunds"), ("ok", "")]}
    bank = result.final_state.bank
    assert bank.module_balances(BURN_MODULE) == burn_module
    assert bank.supply.cumulative_burned == {"uluna": 4 * 12_000 + 36_000}
    assert result.final_hash == final_hash

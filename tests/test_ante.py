import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from luncsim import ante, build_state, parse_scenario, run_scenario
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
from luncsim.coins import Coin, coins_add, floor_mul
from luncsim.errors import InsufficientFunds, ParseError
from luncsim.ledger import BURN_MODULE, COMMUNITY_POOL, FEE_COLLECTOR
from luncsim.simulator import apply_txs
from luncsim.state import PendingTx
from luncsim.treasury import TreasuryState

from helpers import balance, chain_fixture, fresh_bank, full_canonical

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


def test_insufficient_funds_texts_are_pinned():
    # the text is built only when read; these are the texts the eager
    # f-strings wrote, at both raise sites and inside a failing event's error
    bank, ts, cfg = _pipeline_setup()
    bank.genesis_credit_account("alice", "uusd", 5)
    tx = Tx(msgs=[send_msg(1_000_000)], fee_payer="alice",
            declared_fee={"uluna": 12_999}, gas_limit=100_000)
    texts = []
    for attempt in (lambda: run_ante_pipeline(bank, ts, cfg, tx, height=50),
                    lambda: bank.transfer("alice", "bob", {"uluna": 1, "uusd": 6}),
                    lambda: bank.send_module_to_account(COMMUNITY_POOL, "bob", {"uluna": 1})):
        with pytest.raises(InsufficientFunds) as info:
            attempt()
        texts.append(str(info.value))
    assert texts == [
        "declared fee {'uluna': 12999} does not cover gas+tax {'uluna': 13000}",
        "alice cannot cover {'uluna': 1, 'uusd': 6}",
        "module CommunityPool cannot cover {'uluna': 1}",
    ]
    genesis_cfg = {"accounts": [{"address": "alice", "denom": "uluna", "amount": "1000"}],
                   "staking": {"validators": [{"address": "val1", "tokens": "1000000"}]}}
    scenario_cfg = {"name": "spend-above-pool", "end_height": 5, "events": [
        {"at_height": 3, "action": "community-spend", "recipient": "alice",
         "coins": [{"denom": "uluna", "amount": "1"}]}]}
    with pytest.raises(ParseError) as info:
        run_scenario(build_state(genesis_cfg), parse_scenario(scenario_cfg))
    assert str(info.value) == ("community-spend event at height 3: InsufficientFunds: "
                               "module CommunityPool cannot cover {'uluna': 1}")


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


# -- the one-pass tax and gas against the coins_add reference ----------------

def _reference_compute_tax(principal, ts, exempt):
    out = {}
    for denom in sorted(principal):
        if denom in exempt:
            continue
        owed = min(floor_mul(ts.tax_rate, principal[denom]),
                   ts.tax_caps.get(denom, ts.default_tax_cap))
        if owed:
            out[denom] = owed
    return out


def _reference_principals(msg):
    if msg.kind == MsgKind.SEND:
        return [msg.payload["coins"]]
    if msg.kind == MsgKind.MULTI_SEND:
        return [out["coins"] for out in msg.payload["outputs"]]
    if msg.kind == MsgKind.SWAP_SEND:
        return [msg.payload["offer"].as_coins()]
    if msg.kind in (MsgKind.INSTANTIATE_CONTRACT, MsgKind.EXECUTE_CONTRACT):
        funds = msg.payload["funds"]
        return [funds] if funds else []
    return []


def _reference_tax(msgs, ts, exempt):
    """Sum the tax per principal with a `coins_add` copy at every step."""
    total = {}
    for msg in msgs:
        if msg.kind == MsgKind.EXEC:
            total = coins_add(total, _reference_tax(msg.payload["msgs"], ts, exempt))
        else:
            for principal in _reference_principals(msg):
                total = coins_add(total, _reference_compute_tax(principal, ts, exempt))
    return total


def _reference_gas_fee(cfg, gas_limit):
    if cfg.gas_price == 0 or gas_limit == 0:
        return {}
    num = cfg.gas_price.numerator * gas_limit
    return {cfg.gas_denom: -(-num // cfg.gas_price.denominator)}


_DENOMS = ["uluna", "uusd", "ukrw", "stake", "umnt"]
_coin_sets = st.dictionaries(st.sampled_from(_DENOMS),
                             st.one_of(st.integers(1, 1_000), st.integers(1, 10**15)),
                             max_size=4)
_leaf_msgs = st.one_of(
    st.builds(lambda c: Msg(MsgKind.SEND, {"sender": "a", "recipient": "b", "coins": c}),
              _coin_sets),
    st.builds(lambda outs: Msg(MsgKind.MULTI_SEND, {"sender": "a", "outputs": [
        {"recipient": "b", "coins": c} for c in outs]}), st.lists(_coin_sets, max_size=3)),
    st.builds(lambda d, a: Msg(MsgKind.SWAP_SEND, {"sender": "a", "recipient": "b",
                                                   "offer": Coin(d, a)}),
              st.sampled_from(_DENOMS), st.integers(0, 10**12)),
    st.builds(lambda kind, c: Msg(kind, {"sender": "a", "contract": "c", "funds": c}),
              st.sampled_from([MsgKind.INSTANTIATE_CONTRACT, MsgKind.EXECUTE_CONTRACT]),
              _coin_sets),
    st.builds(lambda kind: Msg(kind, {}),
              st.sampled_from([MsgKind.DELEGATE, MsgKind.UNDELEGATE, MsgKind.VOTE,
                               MsgKind.CREATE_VALIDATOR, MsgKind.SUBMIT_PROPOSAL])),
)
_msg_trees = st.recursive(
    _leaf_msgs,
    lambda inner: st.builds(lambda msgs: Msg(MsgKind.EXEC, {"sender": "a", "msgs": msgs}),
                            st.lists(inner, min_size=1, max_size=3)),
    max_leaves=12)
_caps = st.one_of(st.just(0), st.integers(0, 50), st.integers(0, 10**14))


@settings(max_examples=400)
@given(msgs=st.lists(_msg_trees, min_size=1, max_size=4),
       rate=st.fractions(min_value=0, max_value=1, max_denominator=10**6),
       caps=st.dictionaries(st.sampled_from(_DENOMS), _caps, max_size=3),
       default_cap=st.one_of(st.none(), _caps),
       exempt=st.frozensets(st.sampled_from(_DENOMS), max_size=2),
       gas_price=st.one_of(st.just(Fraction(0)),
                           st.fractions(min_value=0, max_value=10, max_denominator=1_000)),
       gas_limit=st.one_of(st.just(0), st.integers(0, 10**7)))
def test_one_pass_tax_and_gas_equal_the_reference(msgs, rate, caps, default_cap, exempt,
                                                  gas_price, gas_limit):
    ts = treasury(rate=rate, caps=caps, default_cap=default_cap)
    tax = filter_msgs_and_compute_tax(msgs, ts, exempt)
    assert list(tax.items()) == list(_reference_tax(msgs, ts, exempt).items())
    for msg in msgs:
        for principal in _reference_principals(msg):
            assert list(compute_tax(principal, ts, exempt).items()) == \
                list(_reference_compute_tax(principal, ts, exempt).items())
    cfg = AnteConfig(gas_price=gas_price)
    assert list(required_gas_fee(cfg, gas_limit).items()) == \
        list(_reference_gas_fee(cfg, gas_limit).items())


def test_every_msg_kind_is_bound_once_by_name():
    assert all(getattr(ante, kind.name) is kind for kind in MsgKind)


def _python_calls(fn, *args) -> int:
    """How many Python-level function calls `fn(*args)` makes, `fn` included."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_an_admitted_send_costs_few_python_calls():
    # gas and tax both owed, outside any version branch: the fee, the staged
    # burn and the send go through the one debit and the one credit, and no
    # writer calls the journal before its branch opens (44 calls before)
    state = chain_fixture(accounts=[("alice", "uluna", 10**9)], tax_rate="0.012")
    state.ante.gas_price = Fraction("0.15")
    tx = Tx(msgs=[send_msg(1_000_000)], fee_payer="alice",
            declared_fee={"uluna": 30_000}, gas_limit=100_000)
    pending = [PendingTx(tx=tx, inclusion_height=5, seq=0)]
    assert state.journal.depth == 0
    assert _python_calls(apply_txs, state, pending, 5, "v21") <= 28
    assert balance(state.bank, "bob", "uluna") == 1_000_000
    assert state.bank.module_balance(FEE_COLLECTOR, "uluna") == 30_000 - 12_000
    assert state.treasury.epoch_burned == {"uluna": 12_000}

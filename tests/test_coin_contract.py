"""The coin-set contract of `luncsim.coins`, pinned where coins move.

After genesis, every coin set that reaches the bank's one debit (`_take`),
its one credit (`_give`), `mint` or `burn` is `{str: int > 0}`: nothing in
the engine cleans coin sets again, so each producer must keep the contract.
The edges where an outside value becomes a coin set (a `Coin` of 0, a
genesis balance of 0), and a fee too small to split, must leave `luncsim run`'s outputs as they were before
the internal re-checks were deleted: the exit code, `tx_results` and the
final state hash below were taken from the engine that still re-checked.
One case changed on purpose since: a delegation of 0 is now refused with
`InvalidCoin`, as an undelegation of 0 is, so it stores no zero delegation.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from luncsim import build_state, cli, parse_scenario, run_scenario
from luncsim import distribution as dist_mod
from luncsim.ledger import Bank
from luncsim.simulator import apply_txs

from test_cli_report import GENESIS, _write
from test_golden_pins import CASES, _configs
from test_journal import HEIGHT, _pending, _raw_tx, _state


def assert_coin_set(coins) -> None:
    assert type(coins) is dict and all(
        type(d) is str and type(a) is int and a > 0 for d, a in coins.items()), coins


class CheckingBank(Bank):
    """A Bank that asserts the contract on every coin set it moves, mints or burns."""

    def _take(self, table, owner, coins):
        assert_coin_set(coins)
        super()._take(table, owner, coins)

    def _give(self, table, owner, coins):
        assert_coin_set(coins)
        super()._give(table, owner, coins)

    def mint(self, module, coins):
        assert_coin_set(coins)
        super().mint(module, coins)

    def burn(self, module, coins):
        assert_coin_set(coins)
        super().burn(module, coins)


def checked(state):
    """`state` with its bank checking the contract from here on (genesis may seed zeros)."""
    state.bank.__class__ = CheckingBank
    return state


# -- the contract over the bundled scenarios, the fuzz corpus and random txs --

@pytest.mark.parametrize("case", CASES)   # the bundled scenarios and fuzz seeds 0-19
def test_every_move_keeps_the_coin_contract(case):
    genesis_cfg, scenario_cfg = _configs(case)
    result = run_scenario(checked(build_state(genesis_cfg)), parse_scenario(scenario_cfg))
    assert type(result.final_state.bank) is CheckingBank


@settings(max_examples=200, deadline=None)
@given(raw_txs=st.lists(_raw_tx, min_size=1, max_size=8),
       version=st.sampled_from(["v20", "v21"]))
def test_random_txs_keep_the_coin_contract(raw_txs, version):
    apply_txs(checked(_state()), _pending(raw_txs), HEIGHT, version)


# -- the edges, through `luncsim run` ----------------------------------------

def _one_tx(msg, **tx):
    return {"name": "edge", "end_height": 8, "events": [{
        "at_height": 3, "action": "submit-tx",
        "tx": dict({"fee_payer": "alice", "msgs": [msg]}, **tx)}]}


def _swap_send(denom):
    return _one_tx({"kind": "swap-send", "sender": "alice", "recipient": "bob",
                    "offer": {"denom": denom, "amount": "0"}, "ask_denom": "uusd"})


_SEND = {"kind": "send", "sender": "alice", "recipient": "bob",
         "coins": [{"denom": "uluna", "amount": "100"}]}

OK = ["ok", ""]

EDGES = {   # case -> (genesis, scenario, the tx's result, final state hash)
    # a delegation of 0 is refused before any coin moves: carol holds no
    # uluna, so a debit of {"uluna": 0} would find no entry to take from
    "delegate-0-from-an-account-without-the-denom": (GENESIS, _one_tx(
        {"kind": "delegate", "delegator": "carol", "validator": "val1",
         "amount": {"denom": "uluna", "amount": "0"}}), ["failed", "InvalidCoin"],
        "37d68d29942d67399fc97b98ec9576b9be7637238f95b8b0c5e98aadd62eb443"),
    # a credit of {"uluna": 0} would plant a zero entry in bob's balance
    "swap-send-0-uluna": (GENESIS, _swap_send("uluna"), OK,
                          "37d68d29942d67399fc97b98ec9576b9be7637238f95b8b0c5e98aadd62eb443"),
    # alice holds no ukrw
    "swap-send-0-ukrw": (GENESIS, _swap_send("ukrw"), OK,
                         "37d68d29942d67399fc97b98ec9576b9be7637238f95b8b0c5e98aadd62eb443"),
    # block 3 pays no fee, so the split must not see the collector's genesis zero
    "genesis-fee-collector-0": (
        dict(GENESIS, module_accounts=[{"module": "FeeCollector", "denom": "uluna",
                                        "amount": "0"}]),
        _one_tx(_SEND), OK,
        "dbfd43388657f7651679e6e1a5b48efbf20ecd3f482ab2dbbd9c65941db9985e"),
    # a fee of 1 is all dust: nothing may move to the Distribution module
    "fee-of-1": (GENESIS, _one_tx(_SEND, declared_fee=[{"denom": "uluna", "amount": "1"}]), OK,
                 "0a6b4e8bd7d271a9b6e22e0f8757a62044335bd341a6fd79d58a7b55efcc08e4"),
}


@pytest.mark.parametrize("case", sorted(EDGES))
def test_edge_values_become_valid_coin_sets(case, tmp_path, capsys, monkeypatch):
    genesis, scenario, want_result, want_hash = EDGES[case]
    build = cli.build_state
    monkeypatch.setattr(cli, "build_state", lambda cfg: checked(build(cfg)))
    split = dist_mod.allocate_block_fees

    def checked_split(bank, ds, staking_state, fees, *args):
        assert_coin_set(fees)
        return split(bank, ds, staking_state, fees, *args)

    monkeypatch.setattr(dist_mod, "allocate_block_fees", checked_split)
    argv = ["run", "--genesis", _write(tmp_path, "g.json", genesis),
            "--scenario", _write(tmp_path, "s.json", scenario)]
    assert cli.main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["tx_results"] == {"3": [want_result]}
    assert summary["final_state_hash"] == want_hash

"""Each input and consensus boundary that no other test pins, from both sides.

Every case sits on a boundary comparison or one step past it, so flipping
the comparison to its neighbour (`<` to `<=`, `>` to `>=` and back) fails
at least one of them. `tests/mutation_survey.py` runs such flips.
"""

from fractions import Fraction

import pytest

from luncsim.blocktime import blocks_for_days, blocks_for_seconds
from luncsim.distribution import DistributionParams, DistributionState, allocate_seigniorage
from luncsim.errors import ParseError
from luncsim.fees import estimate_fee
from luncsim.governance import power_fraction
from luncsim.inputs import MAX_RATIONAL_CHARS, fraction
from luncsim.ledger import COMMUNITY_POOL, TREASURY
from luncsim.scenario import Scenario
from luncsim.simulator import Chain
from luncsim.staking import HeightGates

from helpers import chain_fixture, fresh_bank, staking_fixture

M = 1_000_000
OK = None   # no error expected


def _check(make, error):
    """`make()`, which must raise `error` unless that is OK; returns its value."""
    if error is OK:
        return make()
    with pytest.raises(error):
        make()
    return None


# (community tax, base proposer reward, bonus proposer reward)
@pytest.mark.parametrize("split,error", [
    ((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), OK),            # sums to exactly 1
    ((Fraction(1, 2), Fraction(1, 4), Fraction(26, 100)), ValueError),
    ((Fraction(1), Fraction(0), Fraction(0)), OK),                     # a share of exactly 1
    ((Fraction(0), Fraction(101, 100), Fraction(0)), ValueError),
    ((Fraction(0), Fraction(0), Fraction(0)), OK),
    ((Fraction(-1, 100), Fraction(0), Fraction(0)), ValueError),
])
def test_fee_split_bounds(split, error):
    _check(lambda: DistributionParams(*split), error)


@pytest.mark.parametrize("cap,error", [
    ("1", OK), ("101/100", ParseError), ("1/1000", OK), ("0", ParseError)])
def test_power_cap_bounds(cap, error):
    value = _check(lambda: power_fraction(cap, "cap"), error)
    if error is OK:
        assert value == Fraction(cap)


# upgrade < delegate revert <= protect power, delegate revert < staking revert
@pytest.mark.parametrize("upgrade,delegate,staking,protect,error", [
    (10, 10, 20, 10, ValueError),   # upgrade == delegate revert
    (10, 11, 20, 11, OK),           # delegate revert == protect power
    (10, 11, 20, 10, ValueError),   # protect power one below delegate revert
    (10, 11, 11, 11, ValueError),   # delegate revert == staking revert
    (10, 11, 12, 11, OK),
])
def test_gate_order(upgrade, delegate, staking, protect, error):
    _check(lambda: HeightGates(staking_power_upgrade_height=upgrade,
                               delegate_power_revert_height=delegate,
                               staking_power_revert_height=staking,
                               protect_power_height=protect), error)


@pytest.mark.parametrize("chars,error", [(MAX_RATIONAL_CHARS, OK),
                                         (MAX_RATIONAL_CHARS + 1, ParseError)])
def test_rational_length(chars, error):
    text = "0." + "0" * (chars - 3) + "1"
    assert len(text) == chars
    value = _check(lambda: fraction(text, "rate"), error)
    if error is OK:
        assert value == Fraction(1, 10 ** (chars - 2))


@pytest.mark.parametrize("end,error", [(5, OK), (4, ParseError)])
def test_end_height_at_the_start_height(end, error):
    state = chain_fixture(validators=[("val1", 5 * M)])
    state.height = 5
    result = _check(Chain(state, Scenario(name="edge", end_height=end)).run, error)
    if error is OK:
        assert (result.blocks_committed, result.rows, state.height) == (0, [], 5)


@pytest.mark.parametrize("arg", ["amount", "gas_fee", "cap"])
@pytest.mark.parametrize("value,error", [(0, OK), (-1, ValueError)])
def test_estimate_fee_non_negative(arg, value, error):
    args = {"amount": 1_000, "gas_fee": 10, "cap": 5, arg: value}
    _check(lambda: estimate_fee(denom="uluna", rate=Fraction(1, 100), **args), error)


@pytest.mark.parametrize("convert,value,error", [
    (blocks_for_days, 0, OK), (blocks_for_days, -1, ValueError),
    (blocks_for_seconds, 0, OK), (blocks_for_seconds, -7, ValueError)])
def test_blocktime_at_zero(convert, value, error):
    blocks = _check(lambda: convert(value), error)
    if error is OK:
        assert blocks == 0


# tokens below one power unit give a validator 0 consensus power
@pytest.mark.parametrize("tokens,to_validator", [(M - 1, 0), (M, 900)])
def test_seigniorage_when_no_active_validator_has_power(tokens, to_validator):
    bank = fresh_bank()
    st = staking_fixture(bank=bank, validators=[("val1", tokens)])
    ds = DistributionState(params=DistributionParams(community_tax=Fraction(1, 10)))
    bank.mint(TREASURY, {"uluna": 1_000})
    allocate_seigniorage(bank, ds, st, {"uluna": 1_000})
    assert ds.validator_accrued.get("val1", {}).get("uluna", 0) == to_validator
    assert bank.module_balance(COMMUNITY_POOL, "uluna") == 1_000 - to_validator

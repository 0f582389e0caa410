from fractions import Fraction

import pytest

from luncsim.ante import compute_tax
from luncsim.coins import Coin
from luncsim.distribution import DistributionParams, DistributionState
from luncsim.errors import MalformedProposal
from luncsim.ledger import COMMUNITY_POOL, TREASURY
from luncsim.treasury import (
    PolicyConstraints,
    TreasuryState,
    epoch_transition,
    record_epoch_burn,
)

from helpers import fresh_bank, staking_fixture


def constraints(lo, hi, step, cap=10**12):
    return PolicyConstraints(rate_min=Fraction(lo), rate_max=Fraction(hi),
                             cap=Coin("usdr", cap), change_rate_max=Fraction(step))


def test_clamp_into_window():
    pc = constraints("0.001", "0.02", "0.0025")
    assert pc.clamp(Fraction("0.012")) == Fraction("0.012")
    assert pc.clamp(Fraction(0)) == Fraction("0.001")
    assert pc.clamp(Fraction(1)) == Fraction("0.02")


def test_from_config_validates():
    cfg = {"rate_min": "0.001", "rate_max": "0.02",
           "cap": {"denom": "usdr", "amount": "1000000"},
           "change_rate_max": "0.0025"}
    pc = PolicyConstraints.from_config(cfg)
    assert pc.rate_max == Fraction("0.02")
    assert pc.cap.denom == "usdr"
    with pytest.raises(MalformedProposal):
        PolicyConstraints.from_config({"rate_min": "0.02", "rate_max": "0.01",
                                       "cap": {"denom": "usdr", "amount": 0},
                                       "change_rate_max": "0"})
    with pytest.raises(MalformedProposal):
        PolicyConstraints.from_config({"rate_min": "x"})


def test_tax_cap_lookup_falls_back_to_default():
    ts = TreasuryState(tax_rate=Fraction(1), tax_caps={"uusd": 42}, default_tax_cap=99)
    assert compute_tax({"uusd": 1_000, "uluna": 1_000}, ts, frozenset()) \
        == {"uusd": 42, "uluna": 99}


def test_record_epoch_burn_accumulates():
    ts = TreasuryState()
    record_epoch_burn(ts, {"uluna": 10})
    record_epoch_burn(ts, {"uluna": 5, "uusd": 3})
    assert ts.epoch_burned == {"uluna": 15, "uusd": 3}


def _epoch_setup(weight, burned):
    bank = fresh_bank()
    st = staking_fixture(bank=bank, validators=[("val1", 6 * 10**9),
                                                ("val2", 4 * 10**9)])
    ts = TreasuryState(reward_weight=Fraction(weight), epoch_length_blocks=100)
    record_epoch_burn(ts, burned)
    ds = DistributionState(params=DistributionParams(community_tax=Fraction(0)))
    return bank, st, ts, ds


def test_epoch_transition_splits_minted_by_reward_weight():
    bank, st, ts, ds = _epoch_setup("0.4", {"uluna": 15_600})
    out = epoch_transition(bank, ts, ds, st, height=100)
    assert out["minted"] == {"uluna": 15_600}
    assert out["burned"] == {"uluna": 6_240}          # floor(0.4 * 15600)
    assert out["distributed"] == {"uluna": 15_600 - 6_240}
    assert ts.epoch_burned == {}
    # the distributed part accrues to validators/community, none remains parked
    assert bank.module_balance(TREASURY, "uluna") == 0
    bank.verify_supply_identity()


def test_epoch_transition_full_weight_is_supply_neutral():
    bank, st, ts, ds = _epoch_setup("1", {"uluna": 9_999})
    before = bank.total_supply("uluna")
    out = epoch_transition(bank, ts, ds, st, height=100)
    assert out["burned"] == {"uluna": 9_999}
    assert out["distributed"] == {}
    assert bank.total_supply("uluna") == before


def test_epoch_transition_zero_weight_distributes_everything():
    bank, st, ts, ds = _epoch_setup("0", {"uluna": 1_000})
    out = epoch_transition(bank, ts, ds, st, height=100)
    assert out["burned"] == {}
    assert out["distributed"] == {"uluna": 1_000}
    assert bank.module_balance(COMMUNITY_POOL, "uluna") \
        + sum(a.get("uluna", 0) for a in ds.validator_accrued.values()) == 1_000


def test_epoch_transition_rejects_off_boundary_heights():
    bank, st, ts, ds = _epoch_setup("1", {})
    with pytest.raises(ValueError):
        epoch_transition(bank, ts, ds, st, height=150)

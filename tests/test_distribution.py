import random
from fractions import Fraction

import pytest

from luncsim.distribution import (
    DistributionParams,
    DistributionState,
    allocate_block_fees,
    allocate_seigniorage,
    community_pool_spend,
)
from luncsim.errors import UnknownProposer
from luncsim.ledger import COMMUNITY_POOL, DISTRIBUTION, FEE_COLLECTOR, TREASURY

from helpers import balance, fresh_bank, staking_fixture

POST_PROPOSAL = DistributionParams(community_tax=Fraction("0.5"),
                                   base_proposer_reward=Fraction("0.03"),
                                   bonus_proposer_reward=Fraction("0.12"))


def _setup(params=POST_PROPOSAL, powers=(30_000, 20_000, 10_000)):
    bank = fresh_bank()
    st = staking_fixture(bank=bank, validators=[
        (f"val{i + 1}", p * 1_000_000) for i, p in enumerate(powers)
    ])
    ds = DistributionState(params=params)
    return bank, st, ds


def _collect(bank, fees):
    bank.mint(FEE_COLLECTOR, fees)


def test_worked_split_at_full_precommit():
    bank, st, ds = _setup()
    _collect(bank, {"uluna": 10_000})
    out = allocate_block_fees(bank, ds, st, {"uluna": 10_000}, "val1", Fraction(1))
    assert out["proposer"] == {"uluna": 1_500}
    assert out["community"] == {"uluna": 5_001}     # 5,000 plus rounding dust
    assert out["validators"] == {
        "val1": {"uluna": 1_750},
        "val2": {"uluna": 1_166},
        "val3": {"uluna": 583},
    }
    assert bank.module_balance(FEE_COLLECTOR, "uluna") == 0
    assert bank.module_balance(COMMUNITY_POOL, "uluna") == 5_001
    assert bank.module_balance(DISTRIBUTION, "uluna") == 1_500 + 1_750 + 1_166 + 583


def test_proposer_share_shrinks_with_precommit_power():
    bank, st, ds = _setup()
    _collect(bank, {"uluna": 10_000})
    out = allocate_block_fees(bank, ds, st, {"uluna": 10_000}, "val1",
                              Fraction(2, 3))
    # 0.03 + 0.12 * 2/3 = 0.11
    assert out["proposer"] == {"uluna": 1_100}


def test_precommit_fraction_bounds():
    bank, st, ds = _setup()
    _collect(bank, {"uluna": 100})
    with pytest.raises(ValueError):
        allocate_block_fees(bank, ds, st, {"uluna": 100}, "val1", Fraction(1, 2))
    with pytest.raises(ValueError):
        allocate_block_fees(bank, ds, st, {"uluna": 100}, "val1", Fraction(3, 2))


def test_unknown_proposer_rejected():
    bank, st, ds = _setup()
    _collect(bank, {"uluna": 100})
    with pytest.raises(UnknownProposer):
        allocate_block_fees(bank, ds, st, {"uluna": 100}, "nobody", Fraction(1))


def test_conservation_over_random_fee_amounts():
    rng = random.Random(40_80)
    bank, st, ds = _setup()
    for _ in range(250):
        fees = {"uluna": rng.randint(1, 10**12)}
        _collect(bank, fees)
        out = allocate_block_fees(bank, ds, st, fees, "val2", Fraction(1))
        total = out["proposer"].get("uluna", 0) + out["community"].get("uluna", 0)
        total += sum(v.get("uluna", 0) for v in out["validators"].values())
        assert total == fees["uluna"]
    assert bank.module_balance(FEE_COLLECTOR, "uluna") == 0


def test_seigniorage_has_no_proposer_cut():
    bank, st, ds = _setup(params=DistributionParams(community_tax=Fraction("0.1")))
    bank.mint(TREASURY, {"uluna": 1_000})
    allocate_seigniorage(bank, ds, st, {"uluna": 1_000})
    assert bank.module_balance(COMMUNITY_POOL, "uluna") == 100
    accrued = {v: a.get("uluna", 0) for v, a in ds.validator_accrued.items()}
    assert accrued == {"val1": 450, "val2": 300, "val3": 150}
    assert bank.module_balance(TREASURY, "uluna") == 0


def test_community_pool_spend_and_burn():
    bank, st, ds = _setup()
    _collect(bank, {"uluna": 10_000})
    allocate_block_fees(bank, ds, st, {"uluna": 10_000}, "val1", Fraction(1))
    community_pool_spend(bank, "relief-fund", {"uluna": 2_000})
    assert balance(bank, "relief-fund", "uluna") == 2_000
    before = bank.total_supply("uluna")
    community_pool_spend(bank, "burn", {"uluna": 1_000})
    assert bank.total_supply("uluna") == before - 1_000
    assert bank.module_balance(COMMUNITY_POOL, "uluna") == 5_001 - 3_000


def test_params_validation():
    with pytest.raises(ValueError):
        DistributionParams(community_tax=Fraction(-1, 2))
    with pytest.raises(ValueError):
        DistributionParams(community_tax=Fraction(1, 2),
                           base_proposer_reward=Fraction(1, 2),
                           bonus_proposer_reward=Fraction(1, 10))

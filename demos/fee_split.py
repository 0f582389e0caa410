"""How a block's collected fees split between proposer, pool, and stakers.

Shows the parameter move to (communitytax 0.5, base 0.03, bonus 0.12) and
the worked 10,000-fee block: 1,500 to the proposer at full precommit,
5,000 to the community pool, 3,500 pro rata across voting power.
"""

from fractions import Fraction

from luncsim import MICRO, build_state
from luncsim.distribution import allocate_block_fees
from luncsim.ledger import FEE_COLLECTOR

state = build_state({
    "chain_id": "demo",
    "genesis_height": 0,
    "staking": {
        "validators": [
            {"address": "val1", "tokens": str(30_000 * MICRO)},
            {"address": "val2", "tokens": str(20_000 * MICRO)},
            {"address": "val3", "tokens": str(10_000 * MICRO)},
        ],
    },
    "distribution": {"community_tax": "0.5", "base_proposer_reward": "0.03",
                     "bonus_proposer_reward": "0.12"},
})

# drop 10,000 uluna of paid fees into the collector
state.bank.mint(FEE_COLLECTOR, {"uluna": 10_000})

split = allocate_block_fees(state.bank, state.distribution, state.staking,
                            {"uluna": 10_000}, proposer="val1",
                            precommit_power_fraction=Fraction(1))
print("proposer cut:  ", split["proposer"])
print("community cut: ", split["community"])
print("pro rata cuts: ", split["validators"])

# at the minimum 2/3 precommit the bonus shrinks: 0.03 + 0.12 * 2/3 = 0.11
state.bank.mint(FEE_COLLECTOR, {"uluna": 10_000})
minimal = allocate_block_fees(state.bank, state.distribution, state.staking,
                              {"uluna": 10_000}, proposer="val1",
                              precommit_power_fraction=Fraction(2, 3))
print("proposer at 2/3 precommit:", minimal["proposer"])

# validator earnings stay accrued in the distribution module account
print("accrued by validator:", state.distribution.validator_accrued)

"""Block-fee and seigniorage distribution.

Every block the collected fees (already net of any burned tax) are split:
the proposer earns (base + bonus * precommitPowerFraction) of the total, the
community pool takes its configured cut, and the remainder is shared across
active validators pro rata by consensus power. Every division floors;
whatever dust the flooring leaves goes to the community pool, so the split
conserves the input exactly. Validator earnings accrue in a module account.
Epoch seigniorage goes through the same split with no proposer cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coins import coins_add, coins_as_strings, floor_mul
from .errors import UnknownProposer
from .ledger import COMMUNITY_POOL, DISTRIBUTION, FEE_COLLECTOR, TREASURY
from .staking import ACTIVE, consensus_powers

TWO_THIRDS = Fraction(2, 3)


@dataclass
class DistributionParams:
    community_tax: Fraction = Fraction(0)
    base_proposer_reward: Fraction = Fraction(1, 100)
    bonus_proposer_reward: Fraction = Fraction(4, 100)

    def __post_init__(self):
        for name in ("community_tax", "base_proposer_reward", "bonus_proposer_reward"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.community_tax + self.base_proposer_reward + self.bonus_proposer_reward > 1:
            raise ValueError("fee split fractions must not exceed 1 in total")

    def canonical(self) -> dict:
        return {
            "community_tax": str(self.community_tax),
            "base_proposer_reward": str(self.base_proposer_reward),
            "bonus_proposer_reward": str(self.bonus_proposer_reward),
        }


@dataclass
class DistributionState:
    params: DistributionParams = field(default_factory=DistributionParams)
    # validator operator -> coin set accrued but not yet withdrawn
    validator_accrued: dict = field(default_factory=dict)

    def canonical(self) -> dict:
        return {
            "params": self.params.canonical(),
            "accrued": {
                v: coins_as_strings(cs)
                for v, cs in sorted(self.validator_accrued.items())
                if cs
            },
        }


def _accrue(ds: DistributionState, validator: str, coins: dict) -> None:
    if coins:
        ds.validator_accrued[validator] = coins_add(
            ds.validator_accrued.get(validator, {}), coins
        )


def _split(bank, ds: DistributionState, staking_state, source: str, coins: dict,
           proposer: str | None, proposer_frac: Fraction) -> dict:
    """Split the coin set `coins` out of module `source`.

    Per denom the proposer takes `proposer_frac`, the community pool its
    tax, and the rest goes pro rata by consensus power to active validators;
    every division floors and the dust joins the community cut.
    """
    p = ds.params
    powers = consensus_powers(staking_state)
    total_power = sum(powers.values())

    proposer_cut: dict = {}
    community_cut: dict = {}
    validator_cuts: dict = {}
    moved_to_dist: dict = {}
    for denom, amount in sorted(coins.items()):
        to_proposer = floor_mul(proposer_frac, amount)
        to_community = floor_mul(p.community_tax, amount)
        rest = amount - to_proposer - to_community
        assigned = 0
        if total_power > 0:
            for addr, power in powers.items():
                share = rest * power // total_power
                if share:
                    validator_cuts.setdefault(addr, {})[denom] = share
                    assigned += share
        dust = rest - assigned
        if to_proposer:
            proposer_cut[denom] = to_proposer
        if to_proposer + assigned:
            moved_to_dist[denom] = to_proposer + assigned
        cp = to_community + dust
        if cp:
            community_cut[denom] = cp

    _accrue(ds, proposer, proposer_cut)
    for addr, cs in validator_cuts.items():
        _accrue(ds, addr, cs)
    bank.send_module_to_module(source, DISTRIBUTION, moved_to_dist)
    bank.send_module_to_module(source, COMMUNITY_POOL, community_cut)
    return {
        "proposer": proposer_cut,
        "community": community_cut,
        "validators": validator_cuts,
    }


def allocate_block_fees(
    bank,
    ds: DistributionState,
    staking_state,
    fees: dict,
    proposer: str,
    precommit_power_fraction: Fraction,
) -> dict:
    """Split one block's fees out of the fee collector.

    Returns {"proposer": ..., "community": ..., "validators": {addr: ...}}
    with integer coin sets that sum exactly to `fees`.
    """
    if not fees:
        return {"proposer": {}, "community": {}, "validators": {}}
    val = staking_state.validators.get(proposer)
    if val is None or val.status != ACTIVE:
        raise UnknownProposer(proposer)
    if not TWO_THIRDS <= precommit_power_fraction <= 1:
        raise ValueError("precommit power fraction must lie in [2/3, 1]")
    p = ds.params
    proposer_frac = p.base_proposer_reward + p.bonus_proposer_reward * precommit_power_fraction
    return _split(bank, ds, staking_state, FEE_COLLECTOR, fees, proposer, proposer_frac)


def allocate_seigniorage(bank, ds: DistributionState, staking_state, coins: dict) -> None:
    """Distribute epoch seigniorage held by the treasury.

    Community tax comes off the top, the rest goes pro rata to active
    validators, dust to the community pool. No proposer cut: this payout is
    not tied to a block proposal.
    """
    _split(bank, ds, staking_state, TREASURY, coins, None, Fraction(0))


def community_pool_spend(bank, recipient: str, coins: dict) -> None:
    """Pay out of the community pool, or burn when recipient is "burn"."""
    if recipient == "burn":
        bank.burn(COMMUNITY_POOL, coins)
    else:
        bank.send_module_to_account(COMMUNITY_POOL, recipient, coins)

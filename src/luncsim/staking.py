"""Height-gated staking, delegation, and the delegation voting-power cap.

Delegations and validator creation are disabled inside version-specific
height windows:

* the patched software (``v20``) rejects ``delegate`` and ``create-validator``
  for every height strictly above the upgrade height (a permanent gate);
* the follow-up software (``v21``) re-enables ``delegate`` at its revert
  height and ``create-validator`` at a later one, so its rejection window is
  the open interval (upgradeHeight, revertHeight).

From the delegate revert height up to (but excluding) a protect height, v21
additionally rejects any delegation that would leave the target validator
with more than a configured fraction (default 1/4) of total consensus power.
The cap compares (validatorPower + delta) / (totalPower + delta) exactly with
integer cross-multiplication; an optional compatibility mode reproduces the
original float32 comparison instead.

`version_rules` makes these three version-dependent decisions at a height;
the message handlers decide from it, and the block producer evaluates a
block once per distinct rule set among the versions.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from . import blocktime
from .coins import Coin, coins_as_strings
from .errors import (
    DuplicateValidator,
    InsufficientShares,
    InvalidCoin,
    MsgNotSupported,
    PowerCapExceeded,
    UnknownDelegation,
    UnknownValidator,
)
from .journal import Journal
from .ledger import BONDED_POOL, NOT_BONDED_POOL

V20 = "v20"
V21 = "v21"

ACTIVE = "active"
INACTIVE = "inactive"

# Mainnet gate constants: patch activation, delegate re-enable 68 days later
# at 8.571 blocks/min, create-validator re-enable 8,066,486 + 839,272.
MAINNET_STAKING_POWER_UPGRADE_HEIGHT = 7_603_700
MAINNET_DELEGATE_POWER_REVERT_HEIGHT = 8_208_649
MAINNET_STAKING_POWER_REVERT_HEIGHT = 8_905_758

# The testnet build shortened the delegate revert to rehearse the re-enable.
TESTNET_DELEGATE_POWER_REVERT_HEIGHT = 7_684_490

# The cap window was proposed to last 60 days past the delegate revert.
PROTECT_WINDOW_BLOCKS = blocktime.blocks_for_days(60)  # 740,534

DEFAULT_POWER_REDUCTION = 1_000_000
DEFAULT_UNBONDING_PERIOD_BLOCKS = blocktime.blocks_for_seconds(21 * 24 * 60 * 60)  # 259,200


@dataclass
class HeightGates:
    """Heights bounding the staking-message windows and the cap window."""

    staking_power_upgrade_height: int
    delegate_power_revert_height: int
    staking_power_revert_height: int
    protect_power_height: int

    def __post_init__(self):
        if not (
            self.staking_power_upgrade_height
            < self.delegate_power_revert_height
            <= self.protect_power_height
        ):
            raise ValueError("gates must satisfy upgrade < delegateRevert <= protectPower")
        if not self.delegate_power_revert_height < self.staking_power_revert_height:
            raise ValueError("gates must satisfy delegateRevert < stakingRevert")

    def canonical(self) -> dict:
        return {
            "upgrade": self.staking_power_upgrade_height,
            "delegate_revert": self.delegate_power_revert_height,
            "staking_revert": self.staking_power_revert_height,
            "protect_power": self.protect_power_height,
        }


def mainnet_gates() -> HeightGates:
    return HeightGates(
        staking_power_upgrade_height=MAINNET_STAKING_POWER_UPGRADE_HEIGHT,
        delegate_power_revert_height=MAINNET_DELEGATE_POWER_REVERT_HEIGHT,
        staking_power_revert_height=MAINNET_STAKING_POWER_REVERT_HEIGHT,
        protect_power_height=MAINNET_DELEGATE_POWER_REVERT_HEIGHT + PROTECT_WINDOW_BLOCKS,
    )


@dataclass
class StakingParams:
    bond_denom: str = "uluna"
    power_reduction: int = DEFAULT_POWER_REDUCTION
    unbonding_period_blocks: int = DEFAULT_UNBONDING_PERIOD_BLOCKS
    max_delegation_power_fraction: Fraction = Fraction(1, 4)
    float32_power_cap: bool = False

    def canonical(self) -> dict:
        return {
            "bond_denom": self.bond_denom,
            "power_reduction": self.power_reduction,
            "unbonding_period_blocks": self.unbonding_period_blocks,
            "max_delegation_power_fraction": str(self.max_delegation_power_fraction),
            "float32_power_cap": self.float32_power_cap,
        }


@dataclass
class Validator:
    tokens: int
    status: str = ACTIVE
    software_version: str = V21

    def canonical(self) -> dict:
        return {
            "tokens": str(self.tokens),
            "status": self.status,
            "version": self.software_version,
        }


@dataclass
class UnbondingEntry:
    delegator: str
    validator: str
    amount: int
    completion_height: int

    def canonical(self) -> dict:
        return {
            "delegator": self.delegator,
            "validator": self.validator,
            "amount": str(self.amount),
            "completion_height": self.completion_height,
        }


@dataclass
class StakingState:
    gates: HeightGates
    params: StakingParams = field(default_factory=StakingParams)
    validators: dict = field(default_factory=dict)
    # delegator -> validator -> shares (1 share per bonded micro-unit)
    delegations: dict = field(default_factory=dict)
    # Kept sorted by completion height, equal heights in arrival order: a
    # governance change to the unbonding period can make a later entry due first.
    unbonding: list = field(default_factory=list)
    # the owning ChainState's undo journal, or a store's own
    journal: Journal = field(default_factory=Journal, repr=False, compare=False)

    def canonical(self) -> dict:
        return {
            "gates": self.gates.canonical(),
            "params": self.params.canonical(),
            "validators": {a: v.canonical() for a, v in sorted(self.validators.items())},
            "delegations": {
                d: coins_as_strings(per_val)
                for d, per_val in sorted(self.delegations.items())
                if per_val
            },
            "unbonding": [e.canonical() for e in self.unbonding],
        }


# -- power arithmetic --------------------------------------------------------


def tokens_to_consensus_power(tokens: int, power_reduction: int = DEFAULT_POWER_REDUCTION) -> int:
    if tokens < 0:
        raise ValueError("token amount must be non-negative")
    return tokens // power_reduction


def consensus_powers(st: StakingState) -> dict:
    """The consensus power of every active validator, in address order."""
    reduction = st.params.power_reduction
    return {a: tokens_to_consensus_power(v.tokens, reduction)
            for a, v in sorted(st.validators.items()) if v.status == ACTIVE}


def _float32(x) -> float:
    """`x` rounded to the nearest float32, `inf` past its range.

    A quotient of two float32s rounded first to a double and then to a
    float32 is the correctly rounded float32 quotient, since 53 >= 2 * 24 + 2
    (Figueroa, "When is double rounding innocuous?", 1995).
    """
    return struct.unpack("f", struct.pack("f", float(x)))[0]


def check_power_cap(
    validator_power: int,
    total_power: int,
    delta_tokens: int,
    params: StakingParams,
) -> bool:
    """True when the post-delegation power fraction stays within the cap.

    Compares (validatorPower + d) / (totalPower + d) against the configured
    maximum with d = deltaTokens // powerReduction. Exact by default; the
    float32 mode mirrors the original single-precision comparison, as numpy's
    float32 computes it. Once both powers reach about 2**128 units they round
    to float32 `inf`, `inf / inf` is NaN and NaN compares false, so the float32
    mode lets the delegation pass where the exact mode refuses it. It refuses
    a power of 2**1024 or more, which no float can hold.
    """
    d = tokens_to_consensus_power(delta_tokens, params.power_reduction)
    new_val = validator_power + d
    new_total = total_power + d
    if new_total == 0:
        return True
    if params.float32_power_cap:
        try:
            frac = _float32(_float32(new_val) / _float32(new_total))
        except OverflowError:
            return False
        return not frac > _float32(params.max_delegation_power_fraction)
    cap = params.max_delegation_power_fraction
    # fraction > cap  <=>  new_val * cap.den > cap.num * new_total
    return not (new_val * cap.denominator > cap.numerator * new_total)


# -- version rules -----------------------------------------------------------


class VersionRules(NamedTuple):
    """Every staking decision a software version makes at one height.

    These are the only decisions that depend on the acting version, and each
    field only decides whether a msg is refused, so two versions with equal
    rules at a height make equal results and equal writes on any txs.
    """

    delegate_blocked: bool
    create_validator_blocked: bool
    power_cap: bool


def version_rules(gates: HeightGates, height: int, version: str) -> VersionRules:
    """The windows of the module docstring; any version but v20 acts as v21."""
    past_upgrade = height > gates.staking_power_upgrade_height
    if version == V20:
        return VersionRules(past_upgrade, past_upgrade, False)
    return VersionRules(
        delegate_blocked=past_upgrade and height < gates.delegate_power_revert_height,
        create_validator_blocked=past_upgrade and height < gates.staking_power_revert_height,
        power_cap=gates.delegate_power_revert_height <= height < gates.protect_power_height,
    )


# -- state transitions -------------------------------------------------------


def create_validator(
    st: StakingState,
    operator: str,
    height: int,
    software_version: str = V21,
    acting_version: str = V21,
) -> Validator:
    """Register a new validator with zero tokens.

    `acting_version` is the software evaluating the message and decides the
    gate; `software_version` is what the new validator will run.
    """
    if version_rules(st.gates, height, acting_version).create_validator_blocked:
        raise MsgNotSupported(f"create-validator disabled at height {height}")
    if operator in st.validators:
        raise DuplicateValidator(operator)
    val = Validator(tokens=0, status=ACTIVE, software_version=software_version)
    st.journal.save(st.validators, operator)
    st.validators[operator] = val
    return val


def delegate(
    bank,
    st: StakingState,
    delegator: str,
    validator: str,
    amount: Coin,
    height: int,
    acting_version: str = V21,
) -> None:
    """Bond `amount` from the delegator's account to a validator.

    Check order mirrors the message handler: height gate, bond denom, a
    nonzero amount, validator lookup, the power cap, then funds.
    """
    rules = version_rules(st.gates, height, acting_version)
    if rules.delegate_blocked:
        raise MsgNotSupported(f"delegate disabled at height {height}")
    if amount.denom != st.params.bond_denom:
        raise InvalidCoin(f"delegation must use bond denom {st.params.bond_denom}")
    if amount.amount == 0:
        raise InvalidCoin("cannot delegate zero")
    val = st.validators.get(validator)
    if val is None:
        raise UnknownValidator(validator)
    if val.status != ACTIVE:
        raise UnknownValidator(f"{validator} is not active")
    if rules.power_cap:
        powers = consensus_powers(st)
        if not check_power_cap(powers[validator], sum(powers.values()),
                               amount.amount, st.params):
            raise PowerCapExceeded(
                f"delegation of {amount.amount} would push {validator} above "
                f"{st.params.max_delegation_power_fraction} of total power"
            )
    bank.send_account_to_module(delegator, BONDED_POOL, amount.as_coins())
    st.journal.save(st.validators, validator)
    st.journal.save(st.delegations, delegator)
    val.tokens += amount.amount
    per_val = st.delegations.setdefault(delegator, {})
    per_val[validator] = per_val.get(validator, 0) + amount.amount


def genesis_bond(bank, st: StakingState, operator: str, tokens: int,
                 software_version: str) -> None:
    """Seed a validator and its self-delegation at genesis (no gates, no cap)."""
    if operator in st.validators:
        raise DuplicateValidator(operator)
    st.validators[operator] = Validator(
        tokens=0,
        status=ACTIVE,
        software_version=software_version,
    )
    if tokens:
        bank.send_account_to_module(operator, BONDED_POOL, {st.params.bond_denom: tokens})
        st.validators[operator].tokens = tokens
        st.delegations.setdefault(operator, {})[operator] = tokens


def undelegate(
    bank,
    st: StakingState,
    delegator: str,
    validator: str,
    amount: Coin,
    height: int,
) -> UnbondingEntry:
    """Start unbonding; coins mature back to the delegator after the period."""
    if amount.denom != st.params.bond_denom:
        raise InvalidCoin(f"undelegation must use bond denom {st.params.bond_denom}")
    val = st.validators.get(validator)
    if val is None:
        raise UnknownValidator(validator)
    per_val = st.delegations.get(delegator, {})
    shares = per_val.get(validator)
    if shares is None:
        raise UnknownDelegation(f"{delegator} has no delegation with {validator}")
    if amount.amount > shares:
        raise InsufficientShares(f"{delegator} holds {shares}, tried to unbond {amount.amount}")
    if amount.amount == 0:
        raise InvalidCoin("cannot unbond zero")
    st.journal.save(st.delegations, delegator)
    st.journal.save(st.validators, validator)
    st.journal.save(vars(st), "unbonding")
    remaining = shares - amount.amount
    if remaining:
        per_val[validator] = remaining
    else:
        del per_val[validator]
        if not per_val:
            del st.delegations[delegator]
    val.tokens -= amount.amount
    if val.tokens == 0 and val.status == ACTIVE:
        val.status = INACTIVE
    bank.send_module_to_module(BONDED_POOL, NOT_BONDED_POOL, amount.as_coins())
    entry = UnbondingEntry(
        delegator=delegator,
        validator=validator,
        amount=amount.amount,
        completion_height=height + st.params.unbonding_period_blocks,
    )
    bisect.insort(st.unbonding, entry, key=attrgetter("completion_height"))
    return entry


def mature_unbondings(bank, st: StakingState, height: int) -> list:
    """Release every unbonding entry whose completion height has arrived."""
    released = []
    while st.unbonding and st.unbonding[0].completion_height <= height:
        entry = st.unbonding.pop(0)
        bank.send_module_to_account(NOT_BONDED_POOL, entry.delegator,
                                    {st.params.bond_denom: entry.amount})
        released.append(entry)
    return released


def bonded_stake_of(st: StakingState, voter: str) -> int:
    """Total shares a delegator holds across all validators."""
    return sum(st.delegations.get(voter, {}).values())


def total_bonded(st: StakingState) -> int:
    return sum(v.tokens for v in st.validators.values())

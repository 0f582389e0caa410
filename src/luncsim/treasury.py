"""Tax-rate policy, epoch burn accounting, and seigniorage recycling.

The treasury owns the transfer-tax rate and reward weight, each constrained
by a policy window (0 <= rate_min <= rate_max <= 1) that snaps the active
rate into it when governance swaps it in. A policy's per-update change bound is kept in
the state, but no update path applies it. Burns executed by the fee pipeline
accumulate in a per-epoch counter; at every epoch boundary the counted
amount is minted back to the treasury, a reward-weight share of it is burned
for good, and the remainder is paid out to the community pool and bonded
validators. Policy updates that governance queues on `pending_policies` when
their proposal passes (`governance.schedule_changes`) activate at the
boundary, so a new tax policy takes effect no earlier than the first block
of the next epoch. `set_policy` swaps a policy in, there and at genesis.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction

from .coins import Coin, coins_as_strings, floor_mul
from .errors import MalformedProposal, ParseError
from .inputs import coin, fraction, read
from .journal import Journal
from .ledger import TREASURY

log = logging.getLogger("luncsim.treasury")

# One week of 7-second blocks.
DEFAULT_EPOCH_LENGTH_BLOCKS = 86_400

# Effectively-unbounded default cap; explicit per-denom caps override it.
DEFAULT_TAX_CAP = 2**100


@dataclass
class PolicyConstraints:
    """Bounds a treasury-controlled rate: interval plus per-update delta."""

    rate_min: Fraction
    rate_max: Fraction
    cap: Coin
    change_rate_max: Fraction

    def __post_init__(self):
        if not 0 <= self.rate_min <= self.rate_max <= 1:
            raise ValueError("policy requires 0 <= rate_min <= rate_max <= 1")
        if self.change_rate_max < 0:
            raise ValueError("change_rate_max must be non-negative")

    def clamp(self, rate: Fraction) -> Fraction:
        return max(self.rate_min, min(self.rate_max, rate))

    def canonical(self) -> dict:
        return {
            "rate_min": str(self.rate_min),
            "rate_max": str(self.rate_max),
            "cap": {"denom": self.cap.denom, "amount": str(self.cap.amount)},
            "change_rate_max": str(self.change_rate_max),
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "PolicyConstraints":
        try:
            return cls(
                rate_min=fraction(read(cfg, "rate_min"), "rate_min"),
                rate_max=fraction(cfg.get("rate_max"), "rate_max"),
                cap=coin(cfg.get("cap", {"denom": "usdr", "amount": 0}), "cap"),
                change_rate_max=fraction(cfg.get("change_rate_max", 0), "change_rate_max"),
            )
        except (ParseError, ValueError) as exc:   # ValueError: the bounds, from __post_init__
            raise MalformedProposal(f"bad policy constraints: {exc}") from exc


def _default_policy() -> PolicyConstraints:
    return PolicyConstraints(Fraction(0), Fraction(1), Coin("usdr", 0), Fraction(1))


@dataclass
class TreasuryState:
    tax_policy: PolicyConstraints = field(default_factory=_default_policy)
    reward_policy: PolicyConstraints = field(default_factory=_default_policy)
    tax_rate: Fraction = Fraction(0)
    reward_weight: Fraction = Fraction(1)
    epoch_length_blocks: int = DEFAULT_EPOCH_LENGTH_BLOCKS
    tax_caps: dict = field(default_factory=dict)
    default_tax_cap: int = DEFAULT_TAX_CAP
    epoch_burned: dict = field(default_factory=dict)
    # [(proposal_id, key, PolicyConstraints), ...] applied at the boundary.
    pending_policies: list = field(default_factory=list)
    # the owning ChainState's undo journal, or a store's own
    journal: Journal = field(default_factory=Journal, repr=False, compare=False)

    def canonical(self) -> dict:
        return {
            "tax_policy": self.tax_policy.canonical(),
            "reward_policy": self.reward_policy.canonical(),
            "tax_rate": str(self.tax_rate),
            "reward_weight": str(self.reward_weight),
            "epoch_length_blocks": self.epoch_length_blocks,
            "tax_caps": coins_as_strings(self.tax_caps),
            "default_tax_cap": str(self.default_tax_cap),
            "epoch_burned": coins_as_strings(self.epoch_burned),
            "pending_policies": [
                {"proposal": pid, "key": key, "policy": pol.canonical()}
                for pid, key, pol in self.pending_policies
            ],
        }


def record_epoch_burn(ts: TreasuryState, coins: dict) -> None:
    if ts.journal.depth:
        ts.journal.save(vars(ts), "epoch_burned")
    for d, a in coins.items():
        ts.epoch_burned[d] = ts.epoch_burned.get(d, 0) + a


def set_policy(ts: TreasuryState, key: str, policy: PolicyConstraints) -> None:
    """Swap in `policy` as the TaxPolicy or RewardPolicy; its rate snaps into
    the new window."""
    if key == "TaxPolicy":
        ts.tax_policy = policy
        ts.tax_rate = policy.clamp(ts.tax_rate)
    else:
        ts.reward_policy = policy
        ts.reward_weight = policy.clamp(ts.reward_weight)


def apply_pending_policies(ts: TreasuryState) -> list:
    """Swap in queued policies; the active rates snap into the new windows."""
    applied = []
    for pid, key, policy in ts.pending_policies:
        set_policy(ts, key, policy)
        applied.append((pid, key))
    ts.pending_policies = []
    return applied


def epoch_transition(bank, ts: TreasuryState, dist_state, staking_state,
                     height: int) -> dict:
    """Run the end-of-epoch seigniorage cycle and activate queued policies.

    Mints exactly what the epoch burned, burns the reward-weight share of it,
    hands the rest to the distribution module, then resets the counter.
    """
    if height % ts.epoch_length_blocks != 0:
        raise ValueError(f"height {height} is not an epoch boundary")
    from . import distribution as dist_mod

    minted = dict(sorted(ts.epoch_burned.items()))
    burned = {}
    distributed = {}
    if minted:
        bank.mint(TREASURY, minted)
        for d, a in minted.items():
            cut = floor_mul(ts.reward_weight, a)
            if cut:
                burned[d] = cut
            if a - cut:
                distributed[d] = a - cut
        bank.burn(TREASURY, burned)
        if distributed:
            dist_mod.allocate_seigniorage(bank, dist_state, staking_state, distributed)
    applied = apply_pending_policies(ts)
    for pid, key in applied:
        log.info("epoch %d: proposal %s activated %s", height // ts.epoch_length_blocks, pid, key)
    ts.epoch_burned = {}
    return {"minted": minted, "burned": burned, "distributed": distributed,
            "policies_applied": applied}

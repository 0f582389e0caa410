"""Proposals, voting, tallying, and the activation of passed parameter changes.

A proposal is either plain text or a list of (subspace, key, value) changes.
Voting runs for a fixed number of blocks; at the end the tally passes iff
turnout meets quorum, the yes share among yes/no/veto strictly exceeds the
threshold, and the veto share stays below its limit, all in exact rationals
with weights taken from each voter's bonded stake at tally time.

Every governable parameter is a (subspace, key) in `PARAM_KEYS`, paired with
the reader of its value, as Cosmos SDK's x/params registers a `ParamSetPair`.
A change's value is read once, at submission, and activation sets the value
read. Governance owns a proposal from tally to activation, as x/gov's EndBlocker
does: `end_voting` tallies the proposals whose voting has ended and decides each
that passes, all or nothing (`schedule_changes`). If a params record refuses its
changes it ends `failed` and queues nothing; otherwise a distribution, staking
or transfer change activates at the next block (`activate_block_changes`), a
treasury policy at the next epoch boundary (`activate_policies`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import partial

from .errors import MalformedProposal, ParseError, StillInVoting
from .inputs import flag, fraction, integer, read
from .journal import Journal
from . import staking as staking_mod
from . import treasury as treasury_mod

TEXT = "text"
PARAM_CHANGE = "param-change"

VOTING = "voting"
PASSED = "passed"
REJECTED = "rejected"
APPLIED = "applied"
FAILED = "failed"   # passed, but the params refused its changes

YES = "yes"
NO = "no"
VETO = "no-with-veto"
ABSTAIN = "abstain"
VOTE_OPTIONS = (YES, NO, VETO, ABSTAIN)

log = logging.getLogger("luncsim.governance")

# About 24 hours of 7-second blocks at 8.571 blocks/minute.
DEFAULT_VOTING_PERIOD_BLOCKS = 12_343


@dataclass
class GovParams:
    quorum: Fraction = Fraction(40, 100)
    pass_threshold: Fraction = Fraction(50, 100)
    veto_threshold: Fraction = Fraction(334, 1000)
    voting_period_blocks: int = DEFAULT_VOTING_PERIOD_BLOCKS

    def canonical(self) -> dict:
        return {
            "quorum": str(self.quorum),
            "pass_threshold": str(self.pass_threshold),
            "veto_threshold": str(self.veto_threshold),
            "voting_period_blocks": self.voting_period_blocks,
        }


@dataclass
class ParamChange:
    subspace: str
    key: str
    value: object   # as the proposal carried it: what `canonical` commits to
    parsed: object = field(default=None, compare=False)   # `value` through its key's reader

    def canonical(self) -> dict:
        v = self.value
        if isinstance(v, dict):
            v = {k: str(v[k]) if not isinstance(v[k], dict) else v[k] for k in sorted(v)}
        return {"subspace": self.subspace, "key": self.key, "value": v}


@dataclass
class Proposal:
    proposal_id: int
    kind: str
    title: str
    changes: list
    voting_end_height: int
    status: str = VOTING
    # changes staged but not yet active; status flips to applied at zero
    pending_activations: int = 0

    def canonical(self) -> dict:
        return {
            "id": self.proposal_id,
            "kind": self.kind,
            "title": self.title,
            "changes": [c.canonical() for c in self.changes],
            "voting_end_height": self.voting_end_height,
            "status": self.status,
            "pending_activations": self.pending_activations,
        }


@dataclass
class VoteRecord:
    voter: str
    option: str
    weight: int

    def canonical(self) -> dict:
        return {"voter": self.voter, "option": self.option, "weight": str(self.weight)}


@dataclass
class GovernanceState:
    params: GovParams = field(default_factory=GovParams)
    proposals: dict = field(default_factory=dict)
    votes: dict = field(default_factory=dict)  # proposal id -> {voter: option}
    tally_records: dict = field(default_factory=dict)  # proposal id -> [VoteRecord]
    next_proposal_id: int = 1
    # the owning ChainState's undo journal, or a store's own
    journal: Journal = field(default_factory=Journal, repr=False, compare=False)

    def canonical(self) -> dict:
        return {
            "params": self.params.canonical(),
            "proposals": {str(i): p.canonical() for i, p in sorted(self.proposals.items())},
            "votes": {
                str(i): dict(sorted(v.items())) for i, v in sorted(self.votes.items())
            },
            "tallies": {
                str(i): [r.canonical() for r in recs]
                for i, recs in sorted(self.tally_records.items())
            },
            "next_proposal_id": self.next_proposal_id,
        }


def power_fraction(value, name: str) -> Fraction:
    """A cap on one validator's share of power, as genesis or a change sets it:
    a rational in (0, 1]."""
    cap = fraction(value, name)
    if not 0 < cap <= 1:
        raise ParseError(f"{name} must lie in (0, 1], got {value!r}")
    return cap


# subspace -> {key -> the reader of a change's value}: every parameter a
# proposal may change. A distribution or staking key names its params field
# without underscores or case.
PARAM_KEYS = {
    "treasury": dict.fromkeys(("TaxPolicy", "RewardPolicy"),
                              lambda value, _: treasury_mod.PolicyConstraints.from_config(value)),
    "distribution": dict.fromkeys(("communitytax", "baseproposerreward", "bonusproposerreward"),
                                  partial(fraction, low=0, high=1)),
    "transfer": dict.fromkeys(("SendEnabled", "ReceiveEnabled"), flag),
    "staking": {"UnbondingPeriodBlocks": partial(integer, low=1),
                "MaxDelegationPowerFraction": power_fraction},
}


def _validate_change(raw: dict) -> ParamChange:
    """One change of a param-change proposal, read by its key's reader; a bad
    one is a MalformedProposal."""
    try:
        subspace = read(raw, "subspace", str)
        key = read(raw, "key", str)
        value = read(raw, "value")
        keys = PARAM_KEYS.get(subspace)
        if keys is None:
            raise ParseError(f"unknown subspace {subspace!r}")
        reader = keys.get(key)
        if reader is None:
            raise ParseError(f"unknown key {key!r} for subspace {subspace!r}")
        return ParamChange(subspace, key, value, reader(value, key))
    except ParseError as exc:
        raise MalformedProposal(str(exc)) from exc


def read_proposal(raw: dict) -> dict:
    """The kind, title and changes of the proposal in `raw`, a submit-proposal
    event or msg; governance checks the changes when it is submitted."""
    prop = read(raw, "proposal", dict)
    return {"kind": read(prop, "kind", str, name="proposal.kind"),
            "title": read(prop, "title", str, "", name="proposal.title"),
            "changes": read(prop, "changes", list, [], name="proposal.changes")}


def submit_proposal(gov: GovernanceState, kind: str, height: int,
                    title: str = "", changes: list | None = None) -> Proposal:
    if kind not in (TEXT, PARAM_CHANGE):
        raise MalformedProposal(f"unknown proposal kind {kind!r}")
    parsed = []
    if kind == PARAM_CHANGE:
        if not changes:
            raise MalformedProposal("param-change proposal carries no changes")
        parsed = [_validate_change(c) for c in changes]
    elif changes:
        raise MalformedProposal("text proposal must not carry changes")
    prop = Proposal(
        proposal_id=gov.next_proposal_id,
        kind=kind,
        title=title,
        changes=parsed,
        voting_end_height=height + gov.params.voting_period_blocks,
    )
    gov.journal.save(vars(gov), "next_proposal_id")
    gov.journal.save(gov.proposals, prop.proposal_id)
    gov.journal.save(gov.votes, prop.proposal_id)
    gov.next_proposal_id += 1
    gov.proposals[prop.proposal_id] = prop
    gov.votes[prop.proposal_id] = {}
    return prop


def cast_vote(gov: GovernanceState, voter: str, proposal_id: int, option: str) -> None:
    if option not in VOTE_OPTIONS:
        raise MalformedProposal(f"unknown vote option {option!r}")
    prop = gov.proposals.get(proposal_id)
    if prop is None:
        raise MalformedProposal(f"no proposal {proposal_id}")
    if prop.status != VOTING:
        raise MalformedProposal(f"proposal {proposal_id} is not in voting")
    votes = gov.votes[proposal_id]
    gov.journal.save(votes, voter)
    votes[voter] = option  # a re-vote replaces the old one


def tally(gov: GovernanceState, staking_state: staking_mod.StakingState,
          proposal_id: int, height: int) -> str:
    """Resolve a proposal whose voting period has ended."""
    prop = gov.proposals.get(proposal_id)
    if prop is None:
        raise MalformedProposal(f"no proposal {proposal_id}")
    if height < prop.voting_end_height:
        raise StillInVoting(
            f"proposal {proposal_id} votes until height {prop.voting_end_height}"
        )
    records = []
    by_option = {opt: 0 for opt in VOTE_OPTIONS}
    for voter in sorted(gov.votes.get(proposal_id, {})):
        option = gov.votes[proposal_id][voter]
        weight = staking_mod.bonded_stake_of(staking_state, voter)
        if weight:
            by_option[option] += weight
            records.append(VoteRecord(voter=voter, option=option, weight=weight))
    gov.tally_records[proposal_id] = records

    bonded = staking_mod.total_bonded(staking_state)
    voted = sum(by_option.values())
    decisive = by_option[YES] + by_option[NO] + by_option[VETO]
    p = gov.params
    passed = (
        bonded > 0
        and voted > 0
        and decisive > 0
        and Fraction(voted, bonded) >= p.quorum
        and Fraction(by_option[YES], decisive) > p.pass_threshold
        and Fraction(by_option[VETO], voted) < p.veto_threshold
    )
    prop.status = PASSED if passed else REJECTED
    return prop.status


def lone_tax_policy_warning(prop: Proposal) -> bool:
    """A tax-policy change unaccompanied by a reward-policy change deserves a
    loud warning: burns only recycle into rewards when both move together."""
    keys = {c.key for c in prop.changes if c.subspace == "treasury"}
    return "TaxPolicy" in keys and "RewardPolicy" not in keys


def _warn(state, text: str) -> None:
    state.warnings.append(text)
    log.warning(text)


def _rebuilt(state, subspace: str, values: dict):
    """The `subspace` params record of `state` rebuilt with `values` ({key: the
    value read}) set; a record that refuses them raises ValueError."""
    params = getattr(state, subspace).params
    names = {f.name.replace("_", ""): f.name for f in fields(params)}
    return replace(params, **{names[k.lower()]: v for k, v in values.items()})


def _values(changes) -> dict:
    """subspace -> {key: the value read} of `changes`; a later change of a key wins."""
    values: dict = {}
    for c in changes:
        values.setdefault(c.subspace, {})[c.key] = c.parsed
    return values


def schedule_changes(state, prop: Proposal, height: int) -> None:
    """Decide `prop`, passed at `height`, on the ChainState `state`. If a params
    record refuses its values, set over those that the proposals tallied before
    it staged for the next block, it fails, with a warning, and queues nothing;
    else its policies queue for the next epoch boundary, the rest for the next block."""
    staged = _values(c for _, _, c in state.pending_block_changes)
    records = (c for c in prop.changes if c.subspace in ("distribution", "staking"))
    for subspace, vals in _values(records).items():
        try:
            _rebuilt(state, subspace, {**staged.get(subspace, {}), **vals})
        except ValueError as exc:
            keys = ", ".join(f"{subspace}/{k}" for k in vals)
            _warn(state, f"proposal {prop.proposal_id}: change{'s' if len(vals) > 1 else ''} "
                         f"{keys} failed to apply: {exc}")
            prop.status = FAILED
            return
    if lone_tax_policy_warning(prop):
        _warn(state, f"proposal {prop.proposal_id}: TaxPolicy updated without RewardPolicy "
                     f"in the same proposal; burned taxes will not recycle as intended")
    for change in prop.changes:
        if change.subspace == "treasury":
            state.treasury.pending_policies.append((prop.proposal_id, change.key, change.parsed))
        else:
            state.pending_block_changes.append((height + 1, prop.proposal_id, change))
        prop.pending_activations += 1
    if not prop.changes:   # a text proposal applies at once
        prop.status = APPLIED


def end_voting(state, height: int) -> dict:
    """Tally each proposal whose voting has ended by `height`, in id order, and
    decide each that passes; returns {proposal id: tally status}."""
    gov = state.governance
    outcomes = {}
    for pid, prop in sorted(gov.proposals.items()):
        if prop.status == VOTING and prop.voting_end_height <= height:
            status = outcomes[pid] = tally(gov, state.staking, pid, height)
            log.info("height %d: proposal %d %s", height, pid, status)
            if status == PASSED:
                schedule_changes(state, prop, height)
    return outcomes


def activate_policies(state, height: int) -> list:
    """Set the queued treasury policies at the epoch boundary `height`, one at a
    time, so each snaps its rate; returns [(proposal id, key)]."""
    ts = state.treasury
    applied = []
    for pid, key, policy in ts.pending_policies:
        treasury_mod.set_policy(ts, key, policy)
        mark_activated(state, pid)
        log.info("epoch %d: proposal %s activated %s", height // ts.epoch_length_blocks, pid, key)
        applied.append((pid, key))
    ts.pending_policies = []
    return applied


def activate_block_changes(state, height: int) -> None:
    """Set the staged changes, all due at `height`, the block after their
    tally: each proposal was decided there on top of those staged before it."""
    due, state.pending_block_changes = state.pending_block_changes, []
    for subspace, vals in _values(c for _, _, c in due).items():
        if subspace == "transfer":
            state.transfer_params.update(vals)
        else:
            getattr(state, subspace).params = _rebuilt(state, subspace, vals)
    for _, pid, _ in due:
        mark_activated(state, pid)


def mark_activated(state, proposal_id: int) -> None:
    """Count one staged change of the proposal as done; the last applies it."""
    prop = state.governance.proposals[proposal_id]
    prop.pending_activations -= 1
    if not prop.pending_activations:
        prop.status = APPLIED

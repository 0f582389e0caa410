"""Proposals, voting, tallying, and parameter-change scheduling.

A proposal is either plain text or a list of (subspace, key, value) changes.
Voting runs for a fixed number of blocks; at the end the tally passes iff
turnout meets quorum, the yes share among yes/no/veto strictly exceeds the
threshold, and the veto share stays below its limit, all in exact rationals
with weights taken from each voter's bonded stake at tally time.

Passed changes do not touch parameters directly: distribution, staking, and
transfer changes activate at the next block, treasury policy changes queue
for the next epoch boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import MalformedProposal, ParseError, StillInVoting
from .inputs import fraction, integer, read
from .journal import Journal
from . import staking as staking_mod
from . import treasury as treasury_mod

TEXT = "text"
PARAM_CHANGE = "param-change"

VOTING = "voting"
PASSED = "passed"
REJECTED = "rejected"
APPLIED = "applied"

YES = "yes"
NO = "no"
VETO = "no-with-veto"
ABSTAIN = "abstain"
VOTE_OPTIONS = (YES, NO, VETO, ABSTAIN)

# subspace -> keys a change may target
PARAM_KEYS = {
    "treasury": {"TaxPolicy", "RewardPolicy"},
    "distribution": {"communitytax", "baseproposerreward", "bonusproposerreward"},
    "transfer": {"SendEnabled", "ReceiveEnabled"},
    "staking": {"UnbondingPeriodBlocks", "MaxDelegationPowerFraction"},
}

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
    value: object

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


def _validate_change(raw: dict) -> ParamChange:
    """One change of a param-change proposal; a bad one is a MalformedProposal."""
    try:
        subspace = read(raw, "subspace", str)
        key = read(raw, "key", str)
        value = read(raw, "value")
        if subspace not in PARAM_KEYS:
            raise ParseError(f"unknown subspace {subspace!r}")
        if key not in PARAM_KEYS[subspace]:
            raise ParseError(f"unknown key {key!r} for subspace {subspace!r}")
        if subspace == "treasury":
            # validates shape eagerly so a bad policy fails at submission
            treasury_mod.PolicyConstraints.from_config(value)
        elif subspace == "distribution":
            fraction(value, key, 0, 1)
        elif subspace == "transfer":
            read(raw, "value", bool, name=key)
        elif key == "UnbondingPeriodBlocks":
            integer(value, key, low=1)
        else:
            power_fraction(value, key)
    except ParseError as exc:
        raise MalformedProposal(str(exc)) from exc
    return ParamChange(subspace=subspace, key=key, value=value)


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

"""Proposals, voting, tallying, and the activation of passed parameter changes.

A proposal is either plain text or a list of (subspace, key, value) changes.
Voting runs for a fixed number of blocks; at the end the tally passes iff
turnout meets quorum, the yes share among yes/no/veto strictly exceeds the
threshold, and the veto share stays below its limit, all in exact rationals
with weights taken from each voter's bonded stake at tally time.

Every governable parameter is a (subspace, key) in `PARAM_KEYS`, paired with
the reader of its value, as Cosmos SDK's x/params registers a `ParamSetPair`.
A change's value is read once, at submission, and activation sets the value
read: once its proposal passes (`schedule_changes`), a distribution, staking
or transfer change activates at the next block (`activate_block_changes`), a
treasury policy at the next epoch boundary (`treasury.epoch_transition`).
A proposal's changes due at one block are set together or not at all; a
proposal whose changes the params refuse ends `failed`, as in x/gov, and its
queued treasury policies are dropped. One gap is left: a tally at an epoch
boundary sets its policies at that turnover, before the next block refuses
the rest.
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


def schedule_changes(state, prop: Proposal, height: int) -> None:
    """Stage the changes of `prop`, which passed at `height`, on the ChainState
    `state`: a treasury policy queues for the next epoch boundary, every other
    change for the next block. A text proposal is applied at once."""
    if prop.kind == TEXT:
        prop.status = APPLIED
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


def activate_block_changes(state, height: int) -> None:
    """Set the parameters of the staged changes due at `height`, a proposal at
    a time: each params record it touches is rebuilt once, with all of its
    values, so their order does not matter. If a record refuses them (a fee
    split above 1), none is set, nor any of the proposal's queued treasury
    policies, and the proposal ends failed, with a warning."""
    if not state.pending_block_changes:
        return
    due = [e for e in state.pending_block_changes if e[0] <= height]
    state.pending_block_changes = [e for e in state.pending_block_changes if e[0] > height]
    staged: dict = {}   # proposal id -> subspace -> {key: the value read}
    for _, pid, c in due:
        staged.setdefault(pid, {}).setdefault(c.subspace, {})[c.key] = c.parsed
    for pid, values in staged.items():
        transfer = values.pop("transfer", {})
        records = {}
        try:
            for subspace, vals in values.items():
                params = getattr(state, subspace).params
                names = {f.name.replace("_", ""): f.name for f in fields(params)}
                records[subspace] = replace(params, **{names[k.lower()]: v
                                                       for k, v in vals.items()})
        except ValueError as exc:
            keys = ", ".join(f"{subspace}/{k}" for k in vals)
            _warn(state, f"proposal {pid}: change{'s' if len(vals) > 1 else ''} {keys} "
                         f"failed to apply: {exc}")
            state.governance.proposals[pid].status = FAILED
            state.governance.proposals[pid].pending_activations = 0
            state.treasury.pending_policies = [e for e in state.treasury.pending_policies
                                               if e[0] != pid]
        else:
            for subspace, params in records.items():
                getattr(state, subspace).params = params
            state.transfer_params.update(transfer)
            mark_activated(state, pid, sum(e[1] == pid for e in due))


def mark_activated(state, proposal_id: int, count: int = 1) -> None:
    """Count `count` staged changes of the proposal as done; the last applies it."""
    prop = state.governance.proposals[proposal_id]
    prop.pending_activations -= count
    if prop.pending_activations <= 0 and prop.status == PASSED:
        prop.status = APPLIED

import pytest

from luncsim.errors import (
    MalformedProposal,
    StillInVoting,
    UnknownProposer,
)
from luncsim.governance import (
    ABSTAIN,
    NO,
    PARAM_CHANGE,
    TEXT,
    VETO,
    YES,
    GovernanceState,
    GovParams,
    cast_vote,
    lone_tax_policy_warning,
    submit_proposal,
    tally,
)

from helpers import staking_fixture

M = 1_000_000  # micro multiplier for whole-token validator stakes


def _gov(voting_period=100):
    return GovernanceState(params=GovParams(voting_period_blocks=voting_period))


def _staking(stakes):
    return staking_fixture(validators=[(name, tokens * M)
                                       for name, tokens in stakes.items()])


def test_submit_sets_voting_window():
    gov = _gov(voting_period=50)
    prop = submit_proposal(gov, TEXT, height=10, title="hello")
    assert prop.proposal_id == 1
    assert prop.voting_end_height == 60
    assert prop.status == "voting"


def test_observed_tally_passes():
    # turnout 165.32M of 321.22M bonded, 149M yes of the decisive votes
    st = _staking({"yes-whale": 149_000_000, "no-val": 16_320_000,
                   "silent": 155_900_000})
    gov = _gov()
    submit_proposal(gov, TEXT, height=0)
    cast_vote(gov, "yes-whale", 1, YES)
    cast_vote(gov, "no-val", 1, NO)
    assert tally(gov, st, 1, height=100) == "passed"


def test_quorum_boundary_is_inclusive():
    st = _staking({"a": 40, "b": 60})
    gov = _gov()
    submit_proposal(gov, TEXT, height=0)
    cast_vote(gov, "a", 1, YES)          # exactly 40% turnout
    assert tally(gov, st, 1, height=100) == "passed"

    gov2 = _gov()
    st2 = _staking({"a": 39, "b": 61})
    submit_proposal(gov2, TEXT, height=0)
    cast_vote(gov2, "a", 1, YES)
    assert tally(gov2, st2, 1, height=100) == "rejected"


def test_pass_threshold_is_strict():
    st = _staking({"a": 50, "b": 50})
    gov = _gov()
    submit_proposal(gov, TEXT, height=0)
    cast_vote(gov, "a", 1, YES)
    cast_vote(gov, "b", 1, NO)
    assert tally(gov, st, 1, height=100) == "rejected"   # exactly half


def test_veto_boundary_is_strict():
    st = _staking({"v": 334, "y": 666})
    gov = _gov()
    submit_proposal(gov, TEXT, height=0)
    cast_vote(gov, "y", 1, YES)
    cast_vote(gov, "v", 1, VETO)
    assert tally(gov, st, 1, height=100) == "rejected"   # 0.334 exactly

    st2 = _staking({"v": 333, "y": 667})
    gov2 = _gov()
    submit_proposal(gov2, TEXT, height=0)
    cast_vote(gov2, "y", 1, YES)
    cast_vote(gov2, "v", 1, VETO)
    assert tally(gov2, st2, 1, height=100) == "passed"


def test_abstain_counts_for_quorum_only():
    st = _staking({"a": 10, "b": 50, "c": 40})
    gov = _gov()
    submit_proposal(gov, TEXT, height=0)
    cast_vote(gov, "a", 1, YES)
    cast_vote(gov, "b", 1, ABSTAIN)
    # turnout 60% passes quorum; decisive votes are 10 yes of 10
    assert tally(gov, st, 1, height=100) == "passed"

    gov2 = _gov()
    submit_proposal(gov2, TEXT, height=0)
    cast_vote(gov2, "b", 1, ABSTAIN)     # only abstains: nothing decisive
    assert tally(gov2, st, 1, height=100) == "rejected"


def test_revote_replaces_previous_option():
    st = _staking({"a": 100})
    gov = _gov()
    submit_proposal(gov, TEXT, height=0)
    cast_vote(gov, "a", 1, NO)
    cast_vote(gov, "a", 1, YES)
    assert tally(gov, st, 1, height=100) == "passed"


def test_votes_weigh_stake_at_tally_time():
    from luncsim.coins import Coin
    from luncsim.staking import delegate
    from helpers import fresh_bank

    bank = fresh_bank([("yes-val", "uluna", 500 * M)])
    st = staking_fixture(bank=bank, validators=[("yes-val", 10 * M),
                                                ("no-val", 20 * M)])
    gov = _gov()
    submit_proposal(gov, TEXT, height=0)
    cast_vote(gov, "yes-val", 1, YES)
    cast_vote(gov, "no-val", 1, NO)
    # stake moves after the votes: the yes voter tops itself up
    delegate(bank, st, "yes-val", "yes-val", Coin("uluna", 30 * M), height=50)
    assert tally(gov, st, 1, height=100) == "passed"


def test_tally_guards():
    st = _staking({"a": 100})
    gov = _gov()
    submit_proposal(gov, TEXT, height=0)
    with pytest.raises(StillInVoting):
        tally(gov, st, 1, height=50)
    with pytest.raises(MalformedProposal):
        tally(gov, st, 99, height=200)
    cast_vote(gov, "a", 1, NO)
    assert tally(gov, st, 1, height=100) == "rejected"


def test_nonvoter_without_stake_is_weightless():
    st = _staking({"a": 100})
    gov = _gov()
    submit_proposal(gov, TEXT, height=0)
    cast_vote(gov, "couch", 1, YES)      # no bonded stake behind the vote
    assert tally(gov, st, 1, height=100) == "rejected"


def test_param_change_validation_is_eager():
    gov = _gov()
    with pytest.raises(MalformedProposal):
        submit_proposal(gov, PARAM_CHANGE, height=0, changes=[
            {"subspace": "oracle", "key": "VotePeriod", "value": "5"},
        ])
    with pytest.raises(MalformedProposal):
        submit_proposal(gov, PARAM_CHANGE, height=0, changes=[
            {"subspace": "treasury", "key": "TaxPolicy",
             "value": {"rate_min": "0.9", "rate_max": "0.1",
                       "cap": {"denom": "usdr", "amount": 0},
                       "change_rate_max": "0"}},
        ])
    with pytest.raises(MalformedProposal):
        submit_proposal(gov, PARAM_CHANGE, height=0, changes=[])
    prop = submit_proposal(gov, PARAM_CHANGE, height=0, changes=[
        {"subspace": "distribution", "key": "communitytax", "value": "0.5"},
    ])
    assert prop.changes[0].subspace == "distribution"


def test_lone_tax_policy_flag():
    gov = _gov()
    policy = {"rate_min": "0.012", "rate_max": "0.012",
              "cap": {"denom": "usdr", "amount": 0}, "change_rate_max": "0"}
    lone = submit_proposal(gov, PARAM_CHANGE, height=0, changes=[
        {"subspace": "treasury", "key": "TaxPolicy", "value": policy},
    ])
    both = submit_proposal(gov, PARAM_CHANGE, height=0, changes=[
        {"subspace": "treasury", "key": "TaxPolicy", "value": policy},
        {"subspace": "treasury", "key": "RewardPolicy", "value": policy},
    ])
    assert lone_tax_policy_warning(lone)
    assert not lone_tax_policy_warning(both)

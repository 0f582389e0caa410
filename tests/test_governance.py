import copy
from fractions import Fraction

import pytest

from luncsim.errors import (
    MalformedProposal,
    StillInVoting,
    UnknownProposer,
)
from luncsim.genesis import build_state
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
from luncsim.scenario import parse_scenario
from luncsim.simulator import Chain

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
    with pytest.raises(MalformedProposal, match="unknown key 'GasPolicy'"):
        submit_proposal(gov, PARAM_CHANGE, height=0, changes=[
            {"subspace": "treasury", "key": "GasPolicy",
             "value": {"rate_min": "0", "rate_max": "1", "change_rate_max": "1"}},
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


# -- activation through the chain: each key sets the value read at submission --

_POLICY = {"cap": {"denom": "uusd", "amount": "0"}, "change_rate_max": "0"}
# (subspace, key, raw value, the parameter it sets, the value read from the raw one);
# genesis sets the tax rate to 1/2, and the reward weight starts at 1
_ACTIVATIONS = [
    ("distribution", "communitytax", "0.5",
     lambda s: s.distribution.params.community_tax, Fraction(1, 2)),
    ("distribution", "baseproposerreward", "1/3",
     lambda s: s.distribution.params.base_proposer_reward, Fraction(1, 3)),
    ("distribution", "bonusproposerreward", 0.25,
     lambda s: s.distribution.params.bonus_proposer_reward, Fraction(1, 4)),
    ("staking", "UnbondingPeriodBlocks", "5",
     lambda s: s.staking.params.unbonding_period_blocks, 5),
    ("staking", "MaxDelegationPowerFraction", "1/3",
     lambda s: s.staking.params.max_delegation_power_fraction, Fraction(1, 3)),
    ("transfer", "SendEnabled", True, lambda s: s.transfer_params["SendEnabled"], True),
    ("transfer", "ReceiveEnabled", True, lambda s: s.transfer_params["ReceiveEnabled"], True),
    # the active rate snaps into the new window
    ("treasury", "TaxPolicy", {"rate_min": "0.01", "rate_max": "0.02", **_POLICY},
     lambda s: (s.treasury.tax_policy.rate_max, s.treasury.tax_rate),
     (Fraction(1, 50), Fraction(1, 50))),
    ("treasury", "RewardPolicy", {"rate_min": "0", "rate_max": "1/3", **_POLICY},
     lambda s: (s.treasury.reward_policy.rate_max, s.treasury.reward_weight),
     (Fraction(1, 3), Fraction(1, 3))),
]
EPOCH = 10
TALLY_HEIGHT = 6   # submitted at 1, five blocks of voting


def _passing_chain(changes):
    genesis = {"staking": {"validators": [{"address": "val1", "tokens": str(10 * M)}]},
               "treasury": {"tax_rate": "1/2", "epoch_length_blocks": EPOCH},
               "governance": {"voting_period_blocks": 5}}
    scenario = {"name": "activation", "end_height": 2 * EPOCH, "events": [
        {"at_height": 1, "action": "submit-proposal",
         "proposal": {"kind": "param-change", "changes": changes}},
        {"at_height": 2, "action": "cast-vote", "voter": "val1", "proposal_id": 1,
         "option": "yes"}]}
    return Chain(build_state(genesis), parse_scenario(scenario))


def _step_to(chain, height):
    while chain.state.height < height:
        chain.step()


@pytest.mark.parametrize("subspace,key,raw,param,expected", _ACTIVATIONS,
                         ids=[a[1] for a in _ACTIVATIONS])
def test_each_key_activates_the_value_read_from_its_input(subspace, key, raw, param,
                                                          expected):
    chain = _passing_chain([{"subspace": subspace, "key": key, "value": raw}])
    before = param(chain.state)
    # a treasury policy waits for the epoch boundary, every other key for the next block
    due = EPOCH if subspace == "treasury" else TALLY_HEIGHT + 1
    _step_to(chain, due - 1)
    assert chain.state.governance.proposals[1].status == "passed"
    assert param(chain.state) == before != expected
    chain.step()
    got = param(chain.state)
    assert got == expected
    assert type(got) is type(expected)
    assert chain.state.governance.proposals[1].status == "applied"


def test_a_fee_split_above_one_warns_and_leaves_the_params():
    chain = _passing_chain([{"subspace": "distribution", "key": "communitytax",
                             "value": "0.96"}])
    before = chain.state.distribution.params
    _step_to(chain, TALLY_HEIGHT + 1)
    assert chain.state.distribution.params == before
    assert chain.state.warnings == [
        "proposal 1: change distribution/communitytax failed to apply: "
        "fee split fractions must not exceed 1 in total"]
    assert chain.state.governance.proposals[1].status == "failed"


_SPLIT = [{"subspace": "distribution", "key": "communitytax", "value": "0.97"},
          {"subspace": "distribution", "key": "bonusproposerreward", "value": "0"}]


@pytest.mark.parametrize("changes", [_SPLIT, _SPLIT[::-1]], ids=["tax-first", "bonus-first"])
def test_a_proposal_sets_its_fee_split_in_any_order(changes):
    # from the default split (0, 1/100, 4/100) a tax of 97/100 fits only
    # beside the proposal's own zero bonus
    chain = _passing_chain(changes)
    _step_to(chain, TALLY_HEIGHT + 1)
    params = chain.state.distribution.params
    assert (params.community_tax, params.base_proposer_reward,
            params.bonus_proposer_reward) == (Fraction(97, 100), Fraction(1, 100), 0)
    assert chain.state.warnings == []
    assert chain.state.governance.proposals[1].status == "applied"


def test_a_refused_record_sets_none_of_its_proposals_changes():
    chain = _passing_chain([
        {"subspace": "transfer", "key": "SendEnabled", "value": True},
        {"subspace": "staking", "key": "UnbondingPeriodBlocks", "value": "5"},
        {"subspace": "distribution", "key": "communitytax", "value": "0.5"},
        {"subspace": "distribution", "key": "baseproposerreward", "value": "0.5"}])
    before = copy.deepcopy((chain.state.distribution.params, chain.state.staking.params,
                            chain.state.transfer_params))
    _step_to(chain, TALLY_HEIGHT + 1)
    assert (chain.state.distribution.params, chain.state.staking.params,
            chain.state.transfer_params) == before
    assert chain.state.warnings == [
        "proposal 1: changes distribution/communitytax, distribution/baseproposerreward "
        "failed to apply: fee split fractions must not exceed 1 in total"]
    prop = chain.state.governance.proposals[1]
    assert (prop.status, prop.pending_activations) == ("failed", 0)


def test_a_failed_proposal_sets_none_of_its_treasury_policies():
    # the fee split is refused at the next block, before the epoch boundary
    chain = _passing_chain([
        {"subspace": "treasury", "key": "TaxPolicy",
         "value": {"rate_min": "1/100", "rate_max": "2/100"}},
        {"subspace": "distribution", "key": "communitytax", "value": "0.96"}])
    _step_to(chain, TALLY_HEIGHT + 1)
    prop = chain.state.governance.proposals[1]
    assert (prop.status, prop.pending_activations) == ("failed", 0)
    assert chain.state.treasury.pending_policies == []
    _step_to(chain, EPOCH)
    assert chain.state.treasury.tax_rate == Fraction(1, 2)
    assert chain.epoch_events[0]["policies_applied"] == []
    assert prop.status == "failed"

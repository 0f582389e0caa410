from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

try:   # imported here, not in the timed body of the property test
    import numpy as np
except ImportError:   # pragma: no cover - numpy ships with the test environment
    np = None

from luncsim.coins import Coin
from luncsim.errors import (
    DuplicateValidator,
    InsufficientFunds,
    InsufficientShares,
    MsgNotSupported,
    PowerCapExceeded,
    UnknownValidator,
)
from luncsim.staking import (
    MAINNET_DELEGATE_POWER_REVERT_HEIGHT,
    MAINNET_STAKING_POWER_REVERT_HEIGHT,
    MAINNET_STAKING_POWER_UPGRADE_HEIGHT,
    PROTECT_WINDOW_BLOCKS,
    HeightGates,
    StakingParams,
    V20,
    V21,
    bonded_stake_of,
    check_power_cap,
    consensus_powers,
    create_validator,
    delegate,
    mainnet_gates,
    mature_unbondings,
    total_bonded,
    undelegate,
    version_rules,
)
from luncsim.ledger import BONDED_POOL, NOT_BONDED_POOL

from helpers import balance, fresh_bank, staking_fixture

GATES = mainnet_gates()


def test_mainnet_gate_constants():
    assert MAINNET_STAKING_POWER_UPGRADE_HEIGHT == 7_603_700
    assert MAINNET_DELEGATE_POWER_REVERT_HEIGHT == 8_208_649
    assert MAINNET_STAKING_POWER_REVERT_HEIGHT == 8_905_758
    assert GATES.protect_power_height == 8_208_649 + PROTECT_WINDOW_BLOCKS


def test_gates_reject_inconsistent_ordering():
    with pytest.raises(ValueError):
        HeightGates(staking_power_upgrade_height=100,
                    delegate_power_revert_height=50,
                    staking_power_revert_height=200,
                    protect_power_height=60)


def _delegate_blocked(height, version):
    return version_rules(GATES, height, version).delegate_blocked


def _create_blocked(height, version):
    return version_rules(GATES, height, version).create_validator_blocked


def _capped(height):
    return version_rules(GATES, height, V21).power_cap


def test_patched_version_gate_is_permanent():
    u = GATES.staking_power_upgrade_height
    assert not _delegate_blocked(u, V20)
    assert _delegate_blocked(u + 1, V20)
    assert _delegate_blocked(u + 10**7, V20)  # never re-enables
    assert not _create_blocked(u, V20)
    assert _create_blocked(u + 1, V20)
    # the patched software never caps: it blocks every delegation instead
    assert not version_rules(GATES, GATES.delegate_power_revert_height, V20).power_cap


def test_successor_delegate_window_is_open_interval():
    u = GATES.staking_power_upgrade_height
    r = GATES.delegate_power_revert_height
    assert not _delegate_blocked(u, V21)
    assert _delegate_blocked(u + 1, V21)
    assert _delegate_blocked(r - 1, V21)
    assert not _delegate_blocked(r, V21)
    assert not _delegate_blocked(r + 1, V21)


def test_successor_create_validator_window():
    u = GATES.staking_power_upgrade_height
    r = GATES.staking_power_revert_height
    assert not _create_blocked(u, V21)
    assert _create_blocked(u + 1, V21)
    assert _create_blocked(r - 1, V21)
    assert not _create_blocked(r, V21)


def test_power_cap_window_half_open():
    r = GATES.delegate_power_revert_height
    p = GATES.protect_power_height
    assert not _capped(r - 1)
    assert _capped(r)
    assert _capped(p - 1)
    assert not _capped(p)


def test_cap_worked_pairs():
    params = StakingParams()
    # 20 + 10 of 100 + 10 -> 30/110, above a quarter
    assert not check_power_cap(20, 100, 10_000_000, params)
    # 20 + 5 of 100 + 5 -> 25/105, fits
    assert check_power_cap(25 - 5, 100, 5_000_000, params)


def test_cap_exact_boundary_inclusive():
    params = StakingParams()
    # (5000 + d) / (40000 + d) == 1/4 exactly at d = 20000/3; probe around it
    assert check_power_cap(5_000, 40_000, 6_666 * 1_000_000, params)
    assert not check_power_cap(5_000, 40_000, 6_667 * 1_000_000, params)
    # equality is allowed: 25 of 100
    assert check_power_cap(20, 95, 5_000_000, params)


def test_cap_float32_mode_diverges_from_exact():
    exact = StakingParams()
    compat = StakingParams(float32_power_cap=True)
    # 25,000,001 / 100,000,000 is over a quarter, but both operands round
    # to the nearest even float32 and the quotient lands exactly on 0.25
    args = (24_999_999, 99_999_998, 2 * 1_000_000)
    assert not check_power_cap(*args, exact)
    assert check_power_cap(*args, compat)


@pytest.mark.skipif(np is None, reason="numpy is not installed")
@settings(max_examples=600)
@given(total=st.integers(1, 2**140), near=st.booleans(), offset=st.integers(-2, 2),
       share=st.fractions(min_value=0, max_value=1),
       cap=st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(2, 3), Fraction(1, 10)]))
def test_cap_float32_mode_matches_numpy(total, near, offset, share, cap):
    # half the pairs sit within 2 of the cap's boundary, the rest anywhere
    v = int(total * cap) + offset if near else int(total * share)
    v = min(max(v, 0), total)
    params = StakingParams(float32_power_cap=True, max_delegation_power_fraction=cap)
    with np.errstate(over="ignore", invalid="ignore"):   # inf past 2**128, inf / inf
        frac = np.float32(v) / np.float32(total)
    expected = not bool(frac > np.float32(float(cap)))
    assert check_power_cap(v, total, 0, params) == expected


def test_cap_float32_mode_passes_powers_that_round_to_inf():
    # both round to float32 inf, and inf / inf is NaN, which is never above the cap
    exact, compat = StakingParams(), StakingParams(float32_power_cap=True)
    for v, total in ((2**130, 2**130), (2**128, 2**129)):
        assert check_power_cap(v, total, 0, compat)
        assert not check_power_cap(v, total, 0, exact)


def test_float32_cap_refuses_a_power_past_the_float_range():
    # float() of 2**1024 or more raises OverflowError, which must not escape
    # the msg handler: the delegation fails and moves nothing
    gates = HeightGates(staking_power_upgrade_height=5,
                        delegate_power_revert_height=10,
                        staking_power_revert_height=1000,
                        protect_power_height=100)
    bank = fresh_bank([("dora", "uluna", 10**12)])
    st_state = staking_fixture(bank=bank, gates=gates,
                               params=StakingParams(float32_power_cap=True),
                               validators=[("val1", 2**1100), ("val2", 2**1100)])
    with pytest.raises(PowerCapExceeded):
        delegate(bank, st_state, "dora", "val1", Coin("uluna", 10**6), 50)
    assert balance(bank, "dora", "uluna") == 10**12
    assert st_state.validators["val1"].tokens == 2**1100


def test_cap_empty_set_always_passes():
    assert check_power_cap(0, 0, 0, StakingParams())


@given(
    v=st.integers(min_value=0, max_value=10**9),
    extra=st.integers(min_value=0, max_value=10**9),
    delta=st.integers(min_value=0, max_value=10**15),
)
def test_cap_matches_rational_oracle(v, extra, delta):
    params = StakingParams()
    total = v + extra
    d = delta // params.power_reduction
    if total + d == 0:
        expected = True
    else:
        expected = Fraction(v + d, total + d) <= Fraction(1, 4)
    assert check_power_cap(v, total, delta, params) is expected


def test_delegate_checks_gate_before_validator_lookup():
    bank = fresh_bank([("dora", "uluna", 10**9)])
    st_state = staking_fixture(bank=bank, validators=[("val1", 10**9)], gates=GATES)
    inside = GATES.staking_power_upgrade_height + 5
    with pytest.raises(MsgNotSupported):
        delegate(bank, st_state, "dora", "ghost", Coin("uluna", 1), inside)
    with pytest.raises(UnknownValidator):
        delegate(bank, st_state, "dora", "ghost", Coin("uluna", 1),
                 GATES.staking_power_upgrade_height)


def test_delegate_moves_tokens_to_bonded_pool():
    bank = fresh_bank([("dora", "uluna", 5_000_000)])
    st_state = staking_fixture(bank=bank, validators=[("val1", 10_000_000)])
    delegate(bank, st_state, "dora", "val1", Coin("uluna", 3_000_000), height=10)
    assert st_state.validators["val1"].tokens == 13_000_000
    assert st_state.delegations["dora"]["val1"] == 3_000_000
    assert bank.module_balance(BONDED_POOL, "uluna") == 13_000_000
    assert balance(bank, "dora", "uluna") == 2_000_000
    assert consensus_powers(st_state) == {"val1": 13}
    assert bonded_stake_of(st_state, "dora") == 3_000_000
    assert total_bonded(st_state) == 13_000_000


def test_delegate_rejects_when_cap_window_active():
    gates = HeightGates(staking_power_upgrade_height=5,
                        delegate_power_revert_height=10,
                        staking_power_revert_height=1000,
                        protect_power_height=100)
    bank = fresh_bank([("dora", "uluna", 10**12)])
    st_state = staking_fixture(bank=bank, gates=gates, validators=[
        ("val1", 10_000_000_000), ("val2", 30_000_000_000),
    ])
    with pytest.raises(PowerCapExceeded):
        delegate(bank, st_state, "dora", "val1", Coin("uluna", 8_000_000_000), 50)
    # same amount after the window closes
    delegate(bank, st_state, "dora", "val1", Coin("uluna", 8_000_000_000), 100)
    assert st_state.validators["val1"].tokens == 18_000_000_000


def test_delegate_insufficient_funds_after_cap_passes():
    bank = fresh_bank([("dora", "uluna", 100)])
    st_state = staking_fixture(bank=bank, validators=[("val1", 10**9)])
    with pytest.raises(InsufficientFunds):
        delegate(bank, st_state, "dora", "val1", Coin("uluna", 200), 20)


def test_create_validator_respects_gates_and_duplicates():
    st_state = staking_fixture(validators=[("val1", 10**9)], gates=GATES)
    inside = GATES.staking_power_upgrade_height + 1
    with pytest.raises(MsgNotSupported):
        create_validator(st_state, "fresh", inside)
    val = create_validator(st_state, "fresh", GATES.staking_power_revert_height)
    assert val.tokens == 0 and val.status == "active"
    with pytest.raises(DuplicateValidator):
        create_validator(st_state, "fresh", GATES.staking_power_revert_height + 1)


def test_undelegate_schedules_and_matures():
    bank = fresh_bank([("dora", "uluna", 5_000_000)])
    st_state = staking_fixture(bank=bank, validators=[("val1", 10_000_000)])
    delegate(bank, st_state, "dora", "val1", Coin("uluna", 3_000_000), height=10)
    entry = undelegate(bank, st_state, "dora", "val1", Coin("uluna", 1_000_000),
                       height=100)
    assert entry.completion_height == 100 + 259_200
    assert bank.module_balance(NOT_BONDED_POOL, "uluna") == 1_000_000
    assert st_state.validators["val1"].tokens == 12_000_000

    # nothing matures early
    assert mature_unbondings(bank, st_state, entry.completion_height - 1) == []
    done = mature_unbondings(bank, st_state, entry.completion_height)
    assert len(done) == 1
    assert balance(bank, "dora", "uluna") == 2_000_000 + 1_000_000
    assert bank.module_balance(NOT_BONDED_POOL, "uluna") == 0


def test_undelegate_more_than_bonded():
    bank = fresh_bank([("dora", "uluna", 2_000_000)])
    st_state = staking_fixture(bank=bank, validators=[("val1", 10_000_000)])
    delegate(bank, st_state, "dora", "val1", Coin("uluna", 2_000_000), height=10)
    with pytest.raises(InsufficientShares):
        undelegate(bank, st_state, "dora", "val1", Coin("uluna", 3_000_000), 20)


def test_full_undelegation_of_sole_stake_deactivates():
    bank = fresh_bank()
    st_state = staking_fixture(bank=bank, validators=[("val1", 7_000_000)])
    undelegate(bank, st_state, "val1", "val1", Coin("uluna", 7_000_000), height=5)
    assert st_state.validators["val1"].status == "inactive"
    assert consensus_powers(st_state) == {}

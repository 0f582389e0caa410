import pytest

from luncsim.blocktime import SECONDS_PER_BLOCK, blocks_for_days, blocks_for_seconds


def test_sixty_eight_days_of_blocks():
    # 8.571 blocks per minute, integer milli-block arithmetic
    assert blocks_for_days(68) == 839_272


def test_projected_reenable_height():
    assert 8_066_486 + blocks_for_days(68) == 8_905_758


def test_sixty_day_protect_window():
    assert blocks_for_days(60) == 740_534


def test_unbonding_period_block_count():
    assert blocks_for_seconds(21 * 24 * 3600) == 259_200


def test_seconds_must_divide_evenly():
    assert SECONDS_PER_BLOCK == 7
    with pytest.raises(ValueError):
        blocks_for_seconds(10)

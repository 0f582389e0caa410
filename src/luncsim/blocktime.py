"""Block-height arithmetic for a 7-second chain.

Two conversion flavors exist on purpose. Day-based offsets that were written
into the upgrade-height constants were computed with the 3-decimal rounding
60/7 ~= 8.571 blocks per minute and truncated, so `blocks_for_days` reproduces
that arithmetic exactly (68 days -> 839,272 blocks; 60 days -> 740,534).
Durations that were configured directly in seconds divide by 7 exactly
(21 days -> 259,200 blocks), which `blocks_for_seconds` provides.
"""

from __future__ import annotations

SECONDS_PER_BLOCK = 7

# 8.571 blocks/min written as an integer ratio: 8571/1000.
BLOCKS_PER_MINUTE_MILLI = 8571


def blocks_for_days(days: int) -> int:
    """Truncated day count at 8.571 blocks/minute (rounded-rate flavor)."""
    if days < 0:
        raise ValueError("days must be non-negative")
    return BLOCKS_PER_MINUTE_MILLI * 60 * 24 * days // 1000


def blocks_for_seconds(seconds: int) -> int:
    """Exact 7-second block count; raises if not a whole number of blocks."""
    if seconds < 0:
        raise ValueError("seconds must be non-negative")
    q, r = divmod(seconds, SECONDS_PER_BLOCK)
    if r:
        raise ValueError(f"{seconds}s is not a whole number of {SECONDS_PER_BLOCK}s blocks")
    return q

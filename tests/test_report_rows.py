"""Report rows kept as height runs.

`RunResult.rows` holds `(first, last, *values)` runs, each standing for one
blocks.csv row per height. These tests check that the list is canonical (no
two neighbouring runs could be merged), that the CSV written from the runs
is byte for byte what `csv.writer` writes for the expanded per-height rows,
on a replay and on drawn run lists, that writing a long run holds a bounded
amount of memory, and that a long idle tail adds no rows.
"""

import csv
import io
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from luncsim import BUNDLED_SCENARIOS, build_bundled, build_state, parse_scenario, run_scenario
from luncsim.report import CHUNK_HEIGHTS, CSV_NAME, csv_header, write_block_csv, write_reports
from luncsim.simulator import Chain

from fuzztools import build_fuzz_configs

M = 1_000_000
CASES = [f"bundled:{name}" for name in sorted(BUNDLED_SCENARIOS)] + \
    [f"fuzz:{seed}" for seed in range(20)]


def _configs(case: str):
    kind, arg = case.split(":")
    return build_bundled(arg) if kind == "bundled" else build_fuzz_configs(int(arg))


def _expanded(rows) -> list:
    return [(height, *values) for first, last, *values in rows
            for height in range(first, last + 1)]


def _mergeable(run, following) -> bool:
    """True when `following` would have joined `run` as it was added."""
    return following[0] == run[1] + 1 and following[2:] == run[2:]


@pytest.mark.parametrize("case", CASES)
def test_no_two_neighbouring_runs_could_merge(case):
    genesis_cfg, scenario_cfg = _configs(case)
    rows = run_scenario(build_state(genesis_cfg), parse_scenario(scenario_cfg)).rows
    assert rows
    assert all(first <= last for first, last, *_ in rows)
    assert not any(_mergeable(a, b) for a, b in zip(rows, rows[1:]))


# Two validators split 50/50 across versions halt at 20 on a delegation
# that only v21 accepts. val2's upgrade at 25 is pulled forward to recover,
# so height 20 is recommitted. Each send burns its tax, so the reported
# values change at 3, 4, 12 and 33. A rollback at 30 replays heights 26
# onwards with the values the fork left at 29.
HALT_RECOMMIT_ROLLBACK = (
    {
        "accounts": [{"address": "alice", "denom": "uluna", "amount": str(100 * M)}],
        "staking": {
            "gates": {"staking_power_upgrade_height": 5,
                      "delegate_power_revert_height": 10,
                      "staking_power_revert_height": 10**6,
                      "protect_power_height": 10},
            "validators": [{"address": "val1", "tokens": str(10 * M), "version": "v21"},
                           {"address": "val2", "tokens": str(10 * M), "version": "v20"}],
        },
        "treasury": {"epoch_length_blocks": 1000, "tax_rate": "0.01"},
    },
    {
        "name": "halt-recommit-rollback", "end_height": 45,
        "events": [
            {"at_height": h, "action": "submit-tx", "tx": {
                "fee_payer": "alice", "gas_limit": 200_000,
                "declared_fee": [{"denom": "uluna", "amount": "500000"}],
                "msgs": [{"kind": "send", "sender": "alice", "recipient": "bob",
                          "coins": [{"denom": "uluna", "amount": str(h * M)}]}]}}
            for h in (3, 4, 12, 33)
        ] + [
            {"at_height": 20, "action": "submit-tx", "tx": {
                "fee_payer": "alice",
                "msgs": [{"kind": "delegate", "delegator": "alice", "validator": "val1",
                          "amount": {"denom": "uluna", "amount": str(M)}}]}},
            {"at_height": 25, "action": "upgrade-validator", "validator": "val2",
             "version": "v21"},
            {"at_height": 30, "action": "rollback-to", "target_height": 25},
        ],
    },
)


def test_csv_from_runs_matches_csv_writer_on_expanded_rows(tmp_path):
    genesis_cfg, scenario_cfg = HALT_RECOMMIT_ROLLBACK
    result = run_scenario(build_state(genesis_cfg), parse_scenario(scenario_cfg))
    assert result.halt_heights == [20] and not result.terminal_halted
    rows = result.rows
    # the halt row at 20, the recommit of 20 and the fork from 26 after the
    # rollback each start a run
    assert [r[:2] for r in rows] == [(1, 2), (3, 3), (4, 11), (12, 19), (20, 20),
                                     (20, 29), (26, 32), (33, 45)]
    assert rows[5][2:] == rows[6][2:]
    assert [r[-1] for r in rows] == [0, 0, 0, 0, 1, 0, 0, 0]

    write_reports(str(tmp_path), result)
    assert (tmp_path / CSV_NAME).read_bytes() == _csv_writer_bytes(result.denoms, rows)


def _csv_writer_bytes(denoms, rows) -> bytes:
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(csv_header(denoms))
    writer.writerows(_expanded(rows))
    return expected.getvalue().encode()


# the rows of the bundled rebel1-replay: idle up to the halt at 7,684,492,
# the halt row, then the recommitted height and the idle blocks after it
REBEL1_RUNS = [(7_559_601, 7_684_491, 160_000_000_000, 0, 0, 0),
               (7_684_492, 7_684_492, 160_000_000_000, 0, 0, 1),
               (7_684_492, 7_684_600, 160_000_000_000, 0, 0, 0)]


# a run starts at 0 or just below a digit-count change, a century, a chunk
# multiple or rebel1's halt; it is shorter than a century, one century long
# or about one past it, two centuries, or about a chunk long
_starts = st.builds(lambda pivot, back: max(0, pivot - back),
                    st.sampled_from([0, 10, 100, 10_000, CHUNK_HEIGHTS, 10**7,
                                     7_684_400, 10**9]),
                    st.integers(0, 12))
_lengths = st.integers(1, 40) | st.sampled_from([99, 100, 101, 200, CHUNK_HEIGHTS - 1,
                                                 CHUNK_HEIGHTS, CHUNK_HEIGHTS + 1])
_amounts = st.integers(0, 10**6) | st.integers(0, 10**40)


@st.composite
def _run_lists(draw):
    denoms = draw(st.lists(st.sampled_from(["uluna", "uusd", "u,luna", 'u"sd', "stake"]),
                           min_size=1, max_size=3, unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        # a run follows the last one, or starts again lower after a halt or rollback
        first = rows[-1][1] + 1 if rows and draw(st.booleans()) else draw(_starts)
        last = first + draw(_lengths) - 1
        values = [draw(_amounts) for _ in range(3 * len(denoms))]
        rows.append((first, last, *values, draw(st.sampled_from([0, 1]))))
    return sorted(denoms), rows


@settings(max_examples=150, deadline=None)
@given(runs=_run_lists())
@example(runs=(["u,luna", 'u"sd'], [(0, CHUNK_HEIGHTS - 1, 1, 2, 3, 4, 5, 6, 0),
                                    (CHUNK_HEIGHTS, 2 * CHUNK_HEIGHTS, 7, 8, 9, 10, 11, 12, 1)]))
@example(runs=(["uluna"], [(9_995, 10_005 + CHUNK_HEIGHTS, 10**30, 0, 7, 0),
                           (5, 120, 1, 2, 3, 1)]))
@example(runs=(["uluna"], [(0, 150, 1, 2, 3, 0)]))            # from 0 across 100
@example(runs=(["uluna"], [(7_684_400, 7_684_499, 1, 2, 3, 0)]))  # x00 to x99
@example(runs=(["uluna"], [(7_684_399, 7_684_400, 1, 2, 3, 0)]))  # x99 to (x+1)00
@example(runs=(["uluna"], REBEL1_RUNS))
def test_csv_from_drawn_runs_matches_csv_writer(runs, tmp_path_factory):
    denoms, rows = runs
    path = tmp_path_factory.mktemp("csv") / CSV_NAME
    write_block_csv(str(path), SimpleNamespace(denoms=denoms, rows=rows))
    assert path.read_bytes() == _csv_writer_bytes(denoms, rows)


def test_writing_a_long_run_holds_bounded_memory(tmp_path):
    # one run of 300,000 heights is 12.8 MB of text or more, all of it held
    # by a whole-run join; the second run has rebel1's 7-digit heights
    path = tmp_path / CSV_NAME
    for first in (1, 7_559_601):
        result = SimpleNamespace(denoms=["uluna"], rows=[
            (first, first + 299_999, 6_543_210_987_654, 123_456_789_012, 98_765, 0)])
        tracemalloc.start()
        try:
            write_block_csv(str(path), result)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 10 * 10**6
        assert peak < 2**20


def test_idle_tail_adds_no_rows(monkeypatch):
    # a few busy blocks, then 5,000,000 idle ones up to the end height
    genesis_cfg = {
        "accounts": [{"address": "alice", "denom": "uluna", "amount": str(100 * M)}],
        "staking": {"validators": [{"address": f"val{i}", "tokens": str(t * M)}
                                   for i, t in enumerate((3, 2, 2), 1)]},
        "treasury": {"epoch_length_blocks": 10**9},
        "ante": {"gas_price": "0"},
    }
    scenario_cfg = {"name": "idle-tail", "end_height": 5_000_010, "events": [
        {"at_height": h, "action": "submit-tx", "tx": {
            "fee_payer": "alice",
            "declared_fee": [{"denom": "uluna", "amount": str(h * 1000)}],
            "msgs": [{"kind": "send", "sender": "alice", "recipient": "bob",
                      "coins": [{"denom": "uluna", "amount": "5"}]}]}}
        for h in (2, 5, 9)
    ]}
    busy = []
    produce = Chain._produce_block

    def counting_produce(self, height):
        busy.append(height)
        return produce(self, height)

    monkeypatch.setattr(Chain, "_produce_block", counting_produce)
    result = run_scenario(build_state(genesis_cfg), parse_scenario(scenario_cfg))
    assert result.blocks_committed == 5_000_010
    assert result.rows[-1][1] == 5_000_010
    assert len(result.rows) <= len(busy) + len(result.halt_heights) + 1

"""Report rows kept as height runs.

`RunResult.rows` holds `(first, last, *values)` runs, each standing for one
blocks.csv row per height. These tests check that the list is canonical (no
two neighbouring runs could be merged), that the CSV written from the runs
is byte for byte what `csv.writer` writes for the expanded per-height rows,
and that a long idle tail adds no rows.
"""

import csv
import io

import pytest

from luncsim import BUNDLED_SCENARIOS, build_bundled, build_state, parse_scenario, run_scenario
from luncsim.report import CSV_NAME, csv_header, write_reports
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
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(csv_header(result.denoms))
    writer.writerows(_expanded(rows))
    assert (tmp_path / CSV_NAME).read_bytes() == expected.getvalue().encode()


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

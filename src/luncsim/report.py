"""Run reports: a per-block CSV and a JSON summary.

The CSV has one row per committed block (plus a flagged row for a block
height at which the chain halted before committing): height, then for each
denomination in sorted order the total supply, cumulative burn, and
community-pool balance, then the halt flag. The CSV is written from the
run's height runs `(first, last, *values)` (see `simulator`). A run's values
are formatted once, into the row tail `,v1,...,vn\r\n` that follows every one
of its heights. A whole century of heights, `c00` to `c99` with `c >= 1`,
is one C-level join of the prefix `c` and the 100 two-digit suffixes; other
heights are turned into text one by one. A write takes at most
`CHUNK_HEIGHTS` heights, so the writer holds one chunk's text however long
the run is. The bytes are those `csv.writer` writes for the per-height rows:
the values are ints, which it writes as `str` does, and it still writes the
header, whose denoms may need quoting. The summary carries final figures
with every amount rendered as a decimal string, so values beyond 53-bit
float safety survive any JSON reader.
"""

from __future__ import annotations

import csv
import json
import os

from .coins import coins_as_strings
from .ledger import COMMUNITY_POOL
from .simulator import RunResult
from .state import state_hash

CSV_NAME = "blocks.csv"
SUMMARY_NAME = "summary.json"
CHUNK_HEIGHTS = 4000   # most heights a write; a multiple of 100, so no chunk splits a century
_SUFFIXES = [f"{i:02d}" for i in range(100)]


def csv_header(denoms: list) -> list:
    header = ["height"]
    header.extend(f"supply_{d}" for d in denoms)
    header.extend(f"burned_{d}" for d in denoms)
    header.extend(f"community_{d}" for d in denoms)
    header.append("halted")
    return header


def write_block_csv(path: str, result: RunResult) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(csv_header(result.denoms))
        for first, last, *values in result.rows:
            tail = "," + ",".join(map(str, values)) + "\r\n"
            for base in range(first - first % CHUNK_HEIGHTS, last + 1, CHUNK_HEIGHTS):
                lo, hi = max(base, first), min(base + CHUNK_HEIGHTS, last + 1)
                # the whole centuries c in [c0, c1) lie between `cut` and c1 * 100
                c0 = max(-(-lo // 100), 1)
                c1 = max(hi // 100, c0)
                cut = min(c0 * 100, hi)
                fh.write(tail.join([
                    *map(str, range(lo, cut)),
                    *[p + (tail + p).join(_SUFFIXES) for p in map(str, range(c0, c1))],
                    *map(str, range(c1 * 100, hi)),
                ]) + tail)


def build_summary(result: RunResult) -> dict:
    state = result.final_state
    return {
        "scenario": result.scenario_name,
        "chain_id": state.chain_id,
        "end_height": result.end_height,
        "final_height": state.height,
        "blocks_committed": result.blocks_committed,
        "final_state_hash": state_hash(state),
        "halted": result.terminal_halted,
        "halt_heights": list(result.halt_heights),
        "tally_outcomes": {str(k): v for k, v in sorted(result.tally_outcomes.items())},
        "tx_results": {
            str(h): [list(r) for r in results]
            for h, results in sorted(result.tx_log.items())
        },
        "warnings": list(result.warnings),
        "supply": coins_as_strings(state.bank.supply.totals),
        "cumulative_burned": coins_as_strings(state.bank.supply.cumulative_burned),
        "cumulative_minted": coins_as_strings(state.bank.supply.cumulative_minted),
        "community_pool": coins_as_strings(state.bank.module_balances(COMMUNITY_POOL)),
        "epochs": [
            {
                "height": e["height"],
                "minted": coins_as_strings(e["minted"]),
                "burned": coins_as_strings(e["burned"]),
                "distributed": coins_as_strings(e["distributed"]),
                "policies_applied": [
                    {"proposal": pid, "key": key} for pid, key in e["policies_applied"]
                ],
            }
            for e in result.epoch_events
        ],
    }


def write_reports(out_dir: str, result: RunResult) -> dict:
    """Write blocks.csv and summary.json into out_dir; returns the summary."""
    os.makedirs(out_dir, exist_ok=True)
    write_block_csv(os.path.join(out_dir, CSV_NAME), result)
    summary = build_summary(result)
    with open(os.path.join(out_dir, SUMMARY_NAME), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary

"""The benchmark still runs against this engine: pins, checks and span names.

`perfbench/run.py --seconds 0` replays a workload the minimum number of
times and checks every replay against the generator's predictions and, for
seed 0, the pinned final hash and blocks.csv digest. `--trace 1` also looks
up every layer the spans wrap by name, so a renamed engine function fails
here rather than only in the benchmark; on rebel1-replay and fork-replay it
runs them through the idle fast-forward, whose invariant checks must still
go through the wrapped `simulator.verify_invariants`. Every traced layer's
call count is pinned on every workload, so a change that drops a layer from
the trace, or makes a layer run more or less often, fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ["rebel1-replay", "tx-large-state", "tx-mixed-versions", "fork-replay"]
CASES = [(w, 0) for w in WORKLOADS] + [(w, 1) for w in WORKLOADS]

# Each traced layer's calls in one replay at seed 0, in perfbench/spans.py's
# order. tx-mixed-versions keeps its gates out of reach, so v20 and v21 run
# the same rules and every block is applied with no decision (40 apply_txs,
# 1 hash); rebel1's mixed block at 7684492, past the testnet delegate revert,
# is decided once per rule set: it halts (2 apply_txs), then after the
# recovery upgrade is decided again and applied once (3 apply_txs), with
# 1 hash and 129 walks.
LAYERS = [
    "simulator.block", "simulator.apply_event", "simulator.apply_txs",
    "simulator.execute_msg", "simulator.select_proposer", "simulator.version_groups",
    "simulator.report_row", "ante.run_ante_pipeline", "staking.delegate",
    "staking.mature_unbondings", "distribution.allocate_block_fees",
    "treasury.epoch_transition", "governance.tally", "state.clone", "state.state_hash",
    "state.verify_invariants", "report.write_reports", "genesis.build_state",
    "scenario.parse_scenario",
]
CALLS = {
    "rebel1-replay": (11, 7, 5, 5, 140, 11, 21, 5, 5, 0, 0, 1, 0, 0, 1, 129, 1, 1, 1),
    "tx-large-state": (24, 480, 24, 432, 24, 24, 24, 480, 0, 0, 24, 3, 0, 0, 1, 25, 1, 1, 1),
    "tx-mixed-versions": (40, 821, 40, 723, 40, 40, 40, 800, 7, 3, 40, 4, 3, 0, 1, 41, 1, 1, 1),
    "fork-replay": (70, 58, 50, 45, 138, 69, 138, 50, 0, 0, 45, 10, 1, 2, 1, 68, 1, 1, 1),
}


@pytest.mark.parametrize("workload,trace", CASES)
def test_perfbench_replay_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    if trace:
        metrics = report["metrics"]
        assert metrics["state.clone.per_tx"]["value"] == 0
        counts = {name[:-len(".calls")]: m["value"] for name, m in metrics.items()
                  if name.endswith(".calls")}
        assert counts == dict(zip(LAYERS, CALLS[workload]))

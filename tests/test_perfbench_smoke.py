"""The benchmark still runs against this engine: pins, checks and span names.

`perfbench/run.py --seconds 0` replays a workload the minimum number of
times and checks every replay against the generator's predictions and, for
seed 0, the pinned final hash and blocks.csv digest. `--trace 1` also looks
up every layer the spans wrap by name, so a renamed engine function fails
here rather than only in the benchmark; on rebel1-replay and fork-replay it
runs them through the idle fast-forward, whose invariant checks must still
go through the wrapped `simulator.verify_invariants`. The traced block
evaluation and state-hash counts are pinned where versions mix.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ["rebel1-replay", "tx-large-state", "tx-mixed-versions", "fork-replay"]
CASES = [(w, 0) for w in WORKLOADS] + \
    [("rebel1-replay", 1), ("tx-mixed-versions", 1), ("fork-replay", 1)]

# tx-mixed-versions keeps its gates out of reach, so v20 and v21 run the same
# rules and every block is evaluated once; rebel1's mixed blocks past the
# testnet delegate revert still run per version, and the one at 7684492 halts
EVALUATIONS = {
    "tx-mixed-versions": {"simulator.apply_txs.calls": 40, "state.state_hash.calls": 1},
    "rebel1-replay": {"simulator.apply_txs.calls": 4, "state.state_hash.calls": 5},
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
        assert report["metrics"]["state.clone.per_tx"]["value"] == 0
    if trace and workload == "rebel1-replay":
        assert report["metrics"]["state.verify_invariants.calls"]["value"] == 129
    if trace and workload in EVALUATIONS:
        # block evaluations and whole-state hashes, the final hash included
        counts = {name: report["metrics"][name]["value"] for name in EVALUATIONS[workload]}
        assert counts == EVALUATIONS[workload]

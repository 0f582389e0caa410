"""Replay one seeded luncsim workload, check its outputs and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the engine is imported from `src/`.
The inputs are generated from the seed (see workloads.py); the engine only
receives the generated genesis and scenario dicts. Each replay sets up the
chain (`genesis.build_state` + `scenario.parse_scenario`), then times
`run_scenario` followed by `report.write_reports` into a scratch directory,
which is the work `luncsim run --out` does after set-up. Replays repeat
until `--seconds` have passed, and at least MIN_REPLAYS times.

Every replay's outputs are checked: the tx outcome counts and halt heights
the generator predicts, the engine's own final `verify_invariants`, equal
outputs on every replay of the run, and, for inputs listed in pins.json,
the pinned final hash and blocks.csv digest.

With --trace 0, times are taken at the core's full speed: while the
replays run, speed.py samples how fast the core runs, and each replay's
timed region and set-ups are scaled by the core's mean speed over that
replay. On the shared baseline machine this took the run-to-run spread of
throughput from 20-30% of the median down to a few percent. Throughput is
the median over the replays of a replay's work divided by its timed region,
set-up time is the median of three set-ups per replay, and peak RSS is read
after the first replay. The wall-clock throughput and the core's speed are
printed beside the metrics. With --trace 1, untraced and traced replays alternate: the traced
ones give the per-layer metrics (spans.py) and their ratio to the untraced
ones gives `trace.overhead`. The spans of the last traced replay are
written to perfbench/.work/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exit status: 0 when every replay was correct,
1 when one raised or its outputs were wrong, 2 when the engine source is
missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
MIN_REPLAYS = 3
SETUPS_PER_REPLAY = 3


def inputs_digest(inputs) -> str:
    blob = json.dumps([inputs.genesis, inputs.scenario], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Bench:
    """One workload's inputs, its expected outputs and its replays."""

    def __init__(self, workload: str, seed: int):
        import workloads

        self.inputs = workloads.WORKLOADS[workload](seed)
        self.digest = inputs_digest(self.inputs)
        pins = json.loads((HERE / "pins.json").read_text()).get(workload, [])
        self.pin = next((p for p in pins if p["inputs_sha256"] == self.digest), None)
        self.out_dir = WORK / f"reports-{workload}"
        self.reference = None

    def replay(self, setups: int):
        """Set up `setups` times, then time one replay of the last state.

        Returns the result, the timed region and the set-ups, each as a
        (start, end) pair of perf_counter_ns readings.
        """
        from luncsim import genesis, report, scenario, simulator

        setup_ns = []
        for _ in range(setups):
            t0 = time.perf_counter_ns()
            state = genesis.build_state(self.inputs.genesis)
            scen = scenario.parse_scenario(self.inputs.scenario)
            setup_ns.append((t0, time.perf_counter_ns()))
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        t0 = time.perf_counter_ns()
        result = simulator.run_scenario(state, scen)
        report.write_reports(str(self.out_dir), result)
        return result, (t0, time.perf_counter_ns()), setup_ns

    def observe(self, result) -> dict:
        from luncsim.report import CSV_NAME

        counts = Counter(f"{status}:{error}" if error else status
                         for results in result.tx_log.values()
                         for status, error in results)
        csv_bytes = (self.out_dir / CSV_NAME).read_bytes()
        return {
            "final_hash": result.final_hash,
            "blocks_csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
            "tx_outcomes": dict(sorted(counts.items())),
            "halt_heights": list(result.halt_heights),
        }

    def check(self, outputs: dict) -> list:
        """Problems with one replay's outputs; empty when they are correct."""
        problems = []
        if outputs["tx_outcomes"] != self.inputs.outcomes:
            problems.append(f"tx outcomes {outputs['tx_outcomes']}, "
                            f"expected {self.inputs.outcomes}")
        if outputs["halt_heights"] != self.inputs.halts:
            problems.append(f"halts {outputs['halt_heights']}, expected {self.inputs.halts}")
        if self.pin is not None:
            for key, value in outputs.items():
                if self.pin[key] != value:
                    problems.append(f"{key} {value!r} differs from pin {self.pin[key]!r}")
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            problems.append("outputs differ from the first replay of this run")
        return problems


def _txs(result) -> int:
    return sum(len(results) for results in result.tx_log.values())


def _elapsed(interval) -> int:
    return interval[1] - interval[0]


def _run_checked(bench: Bench, replay):
    """Run one replay; returns what Bench.replay returns, or None on failure."""
    try:
        done = replay()
        problems = bench.check(bench.observe(done[0]))
    except Exception:
        traceback.print_exc()
        return None
    for problem in problems:
        print(f"output check failed: {problem}", file=sys.stderr)
    return None if problems else done


def measure(bench: Bench, seconds: float) -> tuple:
    """Untraced replays; returns (attempted, failed, end-to-end metrics, note).

    Times are taken at full speed (speed.py): each replay's timed region and
    set-ups are scaled by the core's mean speed over that replay. Throughput
    is the median over the replays, so that a replay caught in a kind of
    slowdown the probe does not see cannot move it alone.
    """
    import speed

    blocks_per_s, tx_per_s, setup_s, speeds = [], [], [], []
    blocks = txs = wall_ns = 0
    rss_mib = None
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    with speed.SpeedProbe() as probe:
        while attempted < MIN_REPLAYS or (time.monotonic() < deadline and not failed):
            attempted += 1
            done = _run_checked(bench, lambda: bench.replay(SETUPS_PER_REPLAY))
            if done is None:
                failed += 1
                continue
            result, timed, setups = done
            share = probe.speed(*timed)
            replay_s = probe.full_speed_ns(*timed, share) / 1e9
            blocks_per_s.append(result.blocks_committed / replay_s)
            tx_per_s.append(_txs(result) / replay_s)
            setup_s.extend(probe.full_speed_ns(*setup, share) / 1e9 for setup in setups)
            speeds.append(share)
            blocks += result.blocks_committed
            txs += _txs(result)
            wall_ns += _elapsed(timed)
            if rss_mib is None:
                # read after the first replay: later ones only add allocator drift
                rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, note = {}, ""
    if speeds:
        metrics = {
            "blocks_per_s": (statistics.median(blocks_per_s), "blocks/s"),
            "tx_per_s": (statistics.median(tx_per_s), "tx/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mib": (rss_mib, "MiB"),
        }
        note = (f"  wall clock {blocks * 1e9 / wall_ns:.6g} blocks/s, "
                f"{txs * 1e9 / wall_ns:.6g} tx/s; core speed over the replays "
                f"{min(speeds):.3f}-{max(speeds):.3f} of full speed, "
                f"median {statistics.median(speeds):.3f}")
    return attempted, failed, metrics, note


def measure_traced(bench: Bench, seconds: float, spans_path: Path) -> tuple:
    """Alternate untraced and traced replays; returns per-layer metrics."""
    import spans

    stats = spans.LayerStats()
    plain_ns, traced_ns = [], []
    recorder = None
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while attempted < 2 * MIN_REPLAYS or (time.monotonic() < deadline and not failed):
        attempted += 1
        if attempted % 2:
            done = _run_checked(bench, lambda: bench.replay(1))
            if done is not None:
                plain_ns.append(_elapsed(done[1]))
        else:
            recorder = spans.Recorder()

            def traced_replay():
                with spans.traced(recorder):
                    return bench.replay(1)

            done = _run_checked(bench, traced_replay)
            if done is not None:
                traced_ns.append(_elapsed(done[1]))
                stats.add(recorder.buf, _elapsed(done[1]), _txs(done[0]))
        failed += done is None
    if not (plain_ns and traced_ns):
        return attempted, failed, {}
    if not stats.counts_repeat:
        print("span counts differ between traced replays", file=sys.stderr)
        failed += 1
    recorder.write(spans_path)
    overhead = statistics.median(traced_ns) / statistics.median(plain_ns)
    return attempted, failed, stats.metrics(overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "luncsim" / "__init__.py").is_file():
        print(f"no engine source under {ROOT / 'src'}: run from the root of a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed)
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.tsv"
        attempted, failed, metrics = measure_traced(bench, args.seconds, spans_path)
        note = ""
    else:
        attempted, failed, metrics, note = measure(bench, args.seconds)

    pinned = "pinned" if bench.pin else "unpinned"
    print(f"{args.workload} seed {args.seed} ({pinned}): {attempted} replays, {failed} failed")
    print(f"  descriptors {json.dumps(bench.inputs.descriptors)}")
    if bench.pin is None and bench.reference is not None:
        print(f"  outputs {json.dumps({'inputs_sha256': bench.digest, **bench.reference})}")
    shown = dict(metrics)
    if not args.trace:
        shown["run_error_rate"] = (failed / attempted, "ratio")
    for name, (value, unit) in shown.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    if note:
        print(note)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

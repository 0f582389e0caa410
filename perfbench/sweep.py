"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py [--workloads A,B] [--seeds 1-10] [--seconds S]
                               [--trace 0|1] [--record FILE]

Runs perfbench/run.py once per workload and seed, one run at a time, from
the root of the checkout, and prints for every metric the median of the
runs and the distance between their first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median. Workloads
and seconds default to those in BENCHMARK.json. --record merges the per-run
values, the workloads' descriptors and the machine into the JSON file FILE,
under "end_to_end" (--trace 0) or "per_layer" (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One benchmark run; returns (result object, descriptors) from its stdout."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    descriptors = next((json.loads(line.split(None, 1)[1]) for line in lines
                        if line.startswith("  descriptors ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    if proc.returncode != 0:
        result["correct"] = False
        sys.stderr.write(proc.stderr)
    return result, descriptors


def spread(values: list) -> tuple:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "cpu": cpu}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    descriptors = {}
    all_correct = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, descriptors[workload] = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            all_correct &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']}", flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            median, iqr = spread(values)
            metrics[name] = {"unit": first["unit"], "median": median,
                             "iqr_share": iqr, "values": values}
            print(f"  {name:<42} median {median:>14.6g} {first['unit']:<13} "
                  f"iqr/median {iqr:.4f}  runs " + " ".join(f"{v:.4g}" for v in values))
        summary["workloads"][workload] = {
            "correct": [r["correct"] for r in runs], "metrics": metrics}

    if args.record:
        path = Path(args.record)
        record = json.loads(path.read_text()) if path.exists() else {}
        record["machine"] = machine()
        record.setdefault("descriptors", {}).update(descriptors)
        record["per_layer" if args.trace else "end_to_end"] = summary
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

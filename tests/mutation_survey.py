"""Boundary-mutant survey: flip each comparison in the given files and run
the tier-1 suite against each mutant.

    python tests/mutation_survey.py src/luncsim/simulator.py src/luncsim/governance.py

Run it from the root of a checkout; standard library only. Pytest does not
collect this file, since its name does not start with `test_`.

Each `<`, `<=`, `>` and `>=` is flipped to its neighbour (`<` and `<=`,
`>` and `>=`), one mutant at a time, in a copy of the checkout made in a
temporary directory, so the checkout itself is never changed. For each
mutant the suite runs once with `-x`, one process at a time, under a
timeout. The suite fails on a killed mutant, runs past the timeout on a
hung one, and passes on a survivor. The unmutated copy must pass first.

A survivor listed in EQUIVALENT is expected: the flip cannot change any
result. Every other survivor is printed, and the exit status is 1 when
there is one.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}

# Known-equivalent mutants, by `mutant_id`, with the reason the flip cannot
# change a result.
EQUIVALENT = {
    "src/luncsim/ante.py: if owed > cap: #0 > -> >=":
        "the tax is a minimum of the two, so they agree at equality",
    "src/luncsim/governance.py: bonded > 0 #0 > -> >=":
        "a vote weighs bonded stake, so decisive > 0 implies bonded > 0",
    "src/luncsim/governance.py: and voted > 0 #0 > -> >=":
        "decisive votes are votes, so decisive > 0 implies voted > 0",
    "src/luncsim/scenario.py: if type(gas_limit) is not int or gas_limit < 0: #0 < -> <=":
        "0 falls through to integer(..., low=0), which accepts it",
}


def comparisons(source: str):
    """Yield (start offset, operator, line text, index on its line) for each comparison."""
    line_starts = [0]
    for line in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))
    seen: dict = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.OP and tok.string in FLIP:
            row, col = tok.start
            k = seen.get(row, 0)
            seen[row] = k + 1
            yield line_starts[row - 1] + col, tok.string, tok.line.strip(), k


def mutant_id(path: str, op: str, line: str, k: int) -> str:
    """Names a mutant by its line's text, so the name survives moved lines."""
    return f"{path}: {line} #{k} {op} -> {FLIP[op]}"


def run_suite(root: Path, timeout: float) -> str:
    """'passed', 'failed' or 'hung': the tier-1 suite with -x in `root`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the suite and whatever it started
        proc.wait()
        return "hung"
    return "passed" if code == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="source files, relative to the checkout")
    parser.add_argument("--timeout", type=float, default=240.0,
                        help="seconds allowed for one run of the suite")
    args = parser.parse_args(argv)
    root = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="mutation-survey-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work"))
        if run_suite(copy, args.timeout) != "passed":
            print("the unmutated suite does not pass; no survey")
            return 2
        counts = {"killed": 0, "hung": 0, "equivalent": 0, "survived": 0}
        survivors = []
        for path in args.files:
            target = copy / path
            source = target.read_text()
            for offset, op, line, k in comparisons(source):
                name = mutant_id(path, op, line, k)
                target.write_text(source[:offset] + FLIP[op] + source[offset + len(op):])
                start = time.monotonic()
                outcome = run_suite(copy, args.timeout)
                if outcome == "failed":
                    verdict = "killed"
                elif outcome == "hung":
                    verdict = "hung"
                elif name in EQUIVALENT:
                    verdict = "equivalent"
                else:
                    verdict = "survived"
                    survivors.append(name)
                counts[verdict] += 1
                print(f"{verdict:10} {time.monotonic() - start:6.1f}s  {name}", flush=True)
            target.write_text(source)
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    for name in survivors:
        print(f"SURVIVOR {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

"""Every demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# lines a demo must print, in order, among its "row" lines
ROW_LINES = {
    # the block before the halt, the flagged halt row and the recommit
    "rebel1_halt_replay": [
        "row (7684491, 160000000000, 0, 0, 0)",
        "row (7684492, 160000000000, 0, 0, 1)",
        "row (7684492, 160000000000, 0, 0, 0)",
    ],
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo.stem in ROW_LINES:
        rows = [line for line in proc.stdout.splitlines() if line.startswith("row ")]
        assert rows == ROW_LINES[demo.stem]

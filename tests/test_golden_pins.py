"""Golden behaviour pins: exact outputs of every bundled scenario and fuzz seed.

Each case records the final state hash and the sha256 of the `blocks.csv`
and `summary.json` reports (the summary carries the per-tx results). A
refactor that is meant to change nothing must leave `golden_pins.json`
untouched; a change that alters behaviour on purpose regenerates it with

    PYTHONPATH=src python tests/test_golden_pins.py

and says why in its change notes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from luncsim import BUNDLED_SCENARIOS, build_bundled, build_state, parse_scenario, run_scenario
from luncsim.report import CSV_NAME, SUMMARY_NAME, write_reports

from fuzztools import build_fuzz_configs

PINS_PATH = Path(__file__).with_name("golden_pins.json")
FUZZ_SEEDS = range(20)
CASES = [f"bundled:{name}" for name in sorted(BUNDLED_SCENARIOS)] + \
    [f"fuzz:{seed}" for seed in FUZZ_SEEDS]


def _configs(case: str):
    kind, arg = case.split(":")
    return build_bundled(arg) if kind == "bundled" else build_fuzz_configs(int(arg))


def observe(case: str, out_dir: Path) -> dict:
    genesis_cfg, scenario_cfg = _configs(case)
    result = run_scenario(build_state(genesis_cfg), parse_scenario(scenario_cfg))
    write_reports(str(out_dir), result)

    def digest(name):
        return hashlib.sha256((out_dir / name).read_bytes()).hexdigest()

    return {
        "final_hash": result.final_hash,
        "blocks_csv_sha256": digest(CSV_NAME),
        "summary_sha256": digest(SUMMARY_NAME),
    }


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_pins(case, tmp_path):
    pins = json.loads(PINS_PATH.read_text())
    assert observe(case, tmp_path) == pins[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {case: observe(case, Path(tmp) / str(i)) for i, case in enumerate(CASES)}
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PINS_PATH}")

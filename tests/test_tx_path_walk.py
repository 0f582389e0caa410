"""No account-sized walk runs inside the tx path.

The invariant walk and the state hash read every balance column whole; a tx
must read only the accounts it touches, so that its cost does not grow with
the state. The `uluna` column of tx-mixed-versions' genesis (seed 0) is
wrapped in a dict that counts each whole-column read (`__iter__`, `keys`,
`values`, `items`, `copy`), and a full `Chain.run()` must make none of them
inside an `apply_txs` call. The reads outside it, from the walks, show that
the wrapper sees them.
"""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

from luncsim import simulator
from luncsim.genesis import build_state
from luncsim.scenario import parse_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WHOLE_READS = ("__iter__", "keys", "values", "items", "copy")


def _workload(monkeypatch, name: str, seed: int):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
    spec.loader.exec_module(module)
    return module.WORKLOADS[name](seed)


def _counting_column(reads: Counter, where: list) -> type:
    """A dict subclass that counts its whole-column reads under `where[-1]`."""
    def counted(name):
        method = getattr(dict, name)

        def read(self, *args):
            reads[where[-1]] += 1
            return method(self, *args)
        return read

    return type("CountingColumn", (dict,), {name: counted(name) for name in WHOLE_READS})


def test_no_apply_txs_call_walks_an_account_column(monkeypatch):
    inputs = _workload(monkeypatch, "tx-mixed-versions", 0)
    state = build_state(inputs.genesis)
    reads, where, calls = Counter(), ["outside"], Counter()
    column = _counting_column(reads, where)
    state.bank.accounts["uluna"] = column(state.bank.accounts["uluna"])
    original = simulator.apply_txs

    def tracked(*args):
        calls["apply_txs"] += 1
        where.append("inside")
        try:
            return original(*args)
        finally:
            where.pop()

    monkeypatch.setattr(simulator, "apply_txs", tracked)
    result = simulator.Chain(state, parse_scenario(inputs.scenario)).run()

    pin = json.loads((PERFBENCH / "pins.json").read_text())["tx-mixed-versions"][0]
    assert pin["seed"] == 0 and result.final_hash == pin["final_hash"]
    assert type(result.final_state.bank.accounts["uluna"]) is column
    assert calls["apply_txs"] == 40
    assert reads["inside"] == 0
    assert reads["outside"] > 0

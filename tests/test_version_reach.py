"""The acting software version reaches the state only through `version_rules`.

`Chain._decide` signs an agreement class with the per-tx results
alone. That is exact because the version only decides whether `delegate` or
`create_validator` refuses a msg, and a refused tx is rolled back to its
ante writes, so equal results make equal writes. These checks walk the
engine's source: a new use of the version, which could make a write that
depends on it, fails here instead of silently splitting one class's states.
"""

import ast
from pathlib import Path

import luncsim

SRC = Path(luncsim.__file__).parent


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _reads(node, name):
    """Every read of the variable `name` under `node`, with its parent node."""
    parents = {child: parent for parent in ast.walk(node)
               for child in ast.iter_child_nodes(parent)}
    return [(n, parents[n]) for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)]


def _passed_to(read, parent, callees):
    """True when `read` is a positional argument of a call to one of `callees`."""
    return isinstance(parent, ast.Call) and _callee(parent) in callees \
        and read in parent.args


def _keyword_callee(tree, kw):
    """The name of the call that holds the keyword argument `kw`."""
    return next(_callee(call) for call in ast.walk(tree)
                if isinstance(call, ast.Call) and kw in call.keywords)


def test_staking_reads_the_acting_version_only_to_get_its_rules():
    tree = _tree("staking.py")
    reads = _reads(tree, "acting_version")
    assert len(reads) == 2      # delegate and create_validator
    stray = [read.lineno for read, parent in reads
             if not _passed_to(read, parent, {"version_rules"})]
    assert stray == []


def test_the_simulator_only_hands_the_version_on():
    tree = _tree("simulator.py")
    for name in ("execute_msg", "apply_txs"):
        reads = _reads(_function(tree, name), "version")
        assert reads
        stray = []
        for read, parent in reads:
            if isinstance(parent, ast.keyword):
                ok = parent.arg == "acting_version" and \
                    _keyword_callee(tree, parent) in {"delegate", "create_validator"}
            else:
                ok = _passed_to(read, parent, {"execute_msg"})
            if not ok:
                stray.append(read.lineno)
        assert stray == [], name

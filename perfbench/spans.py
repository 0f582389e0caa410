"""Per-layer spans recorded from outside the engine.

`traced(recorder)` replaces, for the duration of a `with` block, each name
the engine calls a layer through with a wrapper that records one span per
call: span name, parent span, start and end in `perf_counter_ns`, and a
status (returned, raised, or for blocks the consensus outcome). A name is
patched where it is looked up: `state_hash` is imported by name into
`simulator` and `report`, so both module globals are replaced, while
`run_ante_pipeline` is reached through the `ante` module attribute.

`LayerStats` turns the spans of one or more replays into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import contextlib
import math
import time
from array import array

from luncsim import ante, distribution, genesis, governance, report, scenario
from luncsim import simulator, staking, state, treasury

# (span name, ((owner, attribute), ...)); the span's code is its index here.
SPANS = (
    ("simulator.block", ((simulator.Chain, "_produce_block"),)),
    ("simulator.apply_event", ((simulator.Chain, "_apply_event"),)),
    ("simulator.apply_txs", ((simulator, "apply_txs"),)),
    ("simulator.execute_msg", ((simulator, "execute_msg"),)),
    ("simulator.select_proposer", ((simulator.Chain, "_select_proposer"),)),
    ("simulator.version_groups", ((simulator.Chain, "_version_groups"),)),
    ("simulator.report_row", ((simulator.Chain, "_report_row"),)),
    ("ante.run_ante_pipeline", ((ante, "run_ante_pipeline"),)),
    ("staking.delegate", ((staking, "delegate"),)),
    ("staking.mature_unbondings", ((staking, "mature_unbondings"),)),
    ("distribution.allocate_block_fees", ((distribution, "allocate_block_fees"),)),
    ("treasury.epoch_transition", ((treasury, "epoch_transition"),)),
    ("governance.tally", ((governance, "tally"),)),
    ("state.clone", ((state.ChainState, "clone"),)),
    ("state.state_hash", ((simulator, "state_hash"), (report, "state_hash"))),
    ("state.verify_invariants", ((simulator, "verify_invariants"),)),
    ("report.write_reports", ((report, "write_reports"),)),
    ("genesis.build_state", ((genesis, "build_state"),)),
    ("scenario.parse_scenario", ((scenario, "parse_scenario"),)),
)
NAMES = [name for name, _ in SPANS]
CODE = {name: i for i, name in enumerate(NAMES)}

# span status
OK, RAISED, HALTED, ROLLED_BACK = 0, 1, 2, 3
WIDTH = 5  # name, parent, start, end, status; parent is a span offset or -1

# A block is idle when none of these layers ran directly under it.
BLOCK_WORK = frozenset(CODE[n] for n in (
    "simulator.apply_event", "simulator.apply_txs", "distribution.allocate_block_fees",
    "staking.mature_unbondings", "governance.tally", "treasury.epoch_transition",
))


def _block_status(outcome) -> int:
    if isinstance(outcome, str):
        return ROLLED_BACK
    return HALTED if outcome.status == simulator.HALTED else OK


class Recorder:
    """Spans of one replay, in start order, five int64 slots each."""

    def __init__(self):
        self.buf = array("q")
        self.stack = [-1]

    def wrap(self, code: int, fn, status=None):
        buf, stack, clock = self.buf, self.stack, time.perf_counter_ns

        def traced_call(*args, **kwargs):
            i = len(buf)
            buf.extend((code, stack[-1], 0, 0, RAISED))
            stack.append(i)
            buf[i + 2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                buf[i + 3] = clock()
                stack.pop()
            buf[i + 4] = status(out) if status else OK
            return out

        return traced_call

    def write(self, path) -> None:
        """Write the spans as TSV: id, parent id, name, start_ns, end_ns, status."""
        buf = self.buf
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tstatus\n")
            for i in range(0, len(buf), WIDTH):
                parent = buf[i + 1] // WIDTH if buf[i + 1] >= 0 else -1
                fh.write(f"{i // WIDTH}\t{parent}\t{NAMES[buf[i]]}\t{buf[i + 2]}\t"
                         f"{buf[i + 3]}\t{buf[i + 4]}\n")


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Route every layer call through `recorder` until the block exits."""
    saved = []
    try:
        for code, (name, targets) in enumerate(SPANS):
            status = _block_status if name == "simulator.block" else None
            for owner, attr in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, recorder.wrap(code, original, status))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class LayerStats:
    """Per-layer metrics pooled over traced replays of one workload."""

    def __init__(self):
        n = len(NAMES)
        self.calls = None            # per-replay call counts, must repeat exactly
        self.counts_repeat = True
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.timed_ns = 0
        self.replays = 0
        self.block_ns: list = []
        self.idle_ns: list = []
        self.tx_blocks = 0
        self.txs = 0
        self.tx_clones = 0
        self.useful_clones = 0
        self.ante_raised = 0
        self.msg_failed = 0

    def add(self, buf: array, timed_ns: int, txs: int) -> None:
        """Fold in the spans of one replay whose timed region took timed_ns."""
        calls = [0] * len(NAMES)
        child_ns = [0] * (len(buf) // WIDTH)
        block = CODE["simulator.block"]
        apply_txs = CODE["simulator.apply_txs"]
        work = {}     # block span -> whether a BLOCK_WORK layer ran in it
        evals = {}    # block span -> apply_txs calls in it
        tx_clones = restores = ante_raised = msg_failed = 0
        for i in range(0, len(buf), WIDTH):
            code, parent, start, end, status = buf[i:i + WIDTH]
            calls[code] += 1
            self.total_ns[code] += end - start
            pcode = -1
            if parent >= 0:
                child_ns[parent // WIDTH] += end - start
                pcode = buf[parent]
            if code == block:
                work[i] = False
            elif pcode == block and code in BLOCK_WORK:
                work[parent] = True
                if code == apply_txs:
                    evals[parent] = evals.get(parent, 0) + 1
            if code == CODE["state.clone"]:
                if pcode == apply_txs:
                    tx_clones += 1
                elif pcode == CODE["simulator.apply_event"]:
                    restores += 1
            elif status == RAISED and code == CODE["ante.run_ante_pipeline"]:
                ante_raised += 1
            elif status == RAISED and code == CODE["simulator.execute_msg"] \
                    and pcode == apply_txs:
                msg_failed += 1
        for i in range(0, len(buf), WIDTH):
            self.self_ns[buf[i]] += buf[i + 3] - buf[i + 2] - child_ns[i // WIDTH]

        # Which clones are later restored or committed: apply_txs restores the
        # pre-ante clone when ante raises and the post-ante clone when a
        # message fails. A block evaluated once per version clones the state
        # per version and commits one branch unless it halts; its other
        # clones are snapshots. A rollback restores one snapshot by committing
        # a clone of it.
        useful = ante_raised + msg_failed + 2 * restores
        useful += sum(1 for i, n in evals.items() if n > 1 and buf[i + 4] == OK)
        for i, busy in work.items():
            self.block_ns.append(buf[i + 3] - buf[i + 2])
            if not busy:
                self.idle_ns.append(buf[i + 3] - buf[i + 2])
        self.useful_clones += useful
        self.tx_clones += tx_clones
        self.ante_raised += ante_raised
        self.msg_failed += msg_failed
        self.tx_blocks += len(evals)
        self.txs += txs
        self.timed_ns += timed_ns
        self.replays += 1
        if self.calls is None:
            self.calls = calls
        elif calls != self.calls:
            self.counts_repeat = False

    def metrics(self, overhead: float) -> dict:
        """Every per-layer metric, as {name: (value, unit)}."""
        out = {}
        calls = {name: c * self.replays for name, c in zip(NAMES, self.calls)}
        for code, name in enumerate(NAMES):
            out[f"{name}.calls"] = (self.calls[code], "count")
            out[f"{name}.us_per_call"] = (_ratio(self.total_ns[code], calls[name]) / 1e3, "us")
            out[f"{name}.self_share"] = (_ratio(self.self_ns[code], self.timed_ns), "ratio")
        blocks = sorted(self.block_ns)
        n = len(blocks)
        # the 99th percentile, or lower so that at least ten samples lie beyond it
        p99 = max(0, min(math.ceil(0.99 * n) - 1, n - 11))
        n_blocks = calls["simulator.block"]
        clones = calls["state.clone"]
        admitted = calls["ante.run_ante_pipeline"] - self.ante_raised
        out.update({
            "simulator.block.p50_us": (blocks[(n - 1) // 2] / 1e3, "us"),
            "simulator.block.p99_us": (blocks[p99] / 1e3, "us"),
            "simulator.block.idle_share": (_ratio(len(self.idle_ns), n), "ratio"),
            "simulator.block.idle_us": (_ratio(sum(self.idle_ns), len(self.idle_ns)) / 1e3, "us"),
            "simulator.apply_txs.per_tx_block": (
                _ratio(calls["simulator.apply_txs"], self.tx_blocks), "evals/block"),
            "state.clone.per_tx": (_ratio(self.tx_clones, self.txs), "clones/tx"),
            "state.clone.per_block": (_ratio(clones - self.tx_clones, n_blocks), "clones/block"),
            "state.clone.useful_ratio": (_ratio(self.useful_clones, clones), "ratio"),
            "state.state_hash.per_block": (
                _ratio(calls["state.state_hash"], n_blocks), "hashes/block"),
            "ante.reject_ratio": (
                _ratio(self.ante_raised, calls["ante.run_ante_pipeline"]), "ratio"),
            "simulator.execute_msg.fail_ratio": (_ratio(self.msg_failed, admitted), "ratio"),
            "trace.overhead": (overhead, "ratio"),
        })
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0

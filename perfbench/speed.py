"""Sample how fast the core runs while a replay is timed.

On a shared host the core switches, several times a second, between full
speed and a slowed state in which the same code takes up to 1.9 times as
long. The process is not descheduled meanwhile (its CPU time moves with
wall time), so the slowdown most likely comes from another tenant of the
physical core.
The share of a 25-second run that falls into slowed spells changes from
run to run, and it moved the throughput of identical runs by 20-30%.

`SpeedProbe` runs a small fixed task from a SIGALRM handler every PERIOD_S
of wall time, twice in a row, and records when it started and how long the
second run took. The probes are spread evenly over the timed region, so
together they sample the speed of the core over it. `full_speed_ns` converts an interval to the time it
would have taken at full speed: each probe stands for an equal slice of
the interval, and a slice that ran s times slower than full speed counts
as 1/s of its length. The probes' own time is taken out first.

The probe task imports nothing from the engine and allocates no object the
garbage collector tracks, so a change to the engine cannot change it and
it does not shift the engine's collections.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

PERIOD_S = 0.01
# Time of one probe task at full speed on the baseline machine
# (perfbench/baseline.json): the lower of its two modes there.
NOMINAL_NS = 27_000

_TABLE = {f"k{i}": i for i in range(64)}
_KEYS = tuple(_TABLE)
_ROWS = [f"{i:05d},{i * 7919 % 1000}" for i in range(64)]


def probe_task() -> int:
    """A fixed mix of dict, string and integer work; about 30 us."""
    table, rows = _TABLE, _ROWS
    total = 0
    for i in range(160):
        key = _KEYS[(i * 37) & 63]
        value = table[key]
        table[key] = value + 1
        total += (value * 3 + len(rows[i & 63])) // 7
        table[key] = value
    rows.sort(reverse=total & 1 == 0)
    return total


class SpeedProbe:
    """Runs probe_task every PERIOD_S while entered; records each one."""

    def __init__(self):
        self.starts = array("q")
        self.times = array("q")     # the timed second run of each probe
        self.busy = array("q")      # both runs

    def _probe(self, signum, frame) -> None:
        # the first run brings the task into the caches, so that the timed
        # one does not depend on what the engine left in them
        t0 = time.perf_counter_ns()
        probe_task()
        t1 = time.perf_counter_ns()
        probe_task()
        t2 = time.perf_counter_ns()
        self.starts.append(t0)
        self.times.append(t2 - t1)
        self.busy.append(t2 - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _span(self, t0_ns: int, t1_ns: int) -> slice:
        return slice(bisect.bisect_left(self.starts, t0_ns),
                     bisect.bisect_left(self.starts, t1_ns))

    def busy_ns(self, t0_ns: int, t1_ns: int) -> int:
        """Time spent in probes that ran in [t0_ns, t1_ns)."""
        return sum(self.busy[self._span(t0_ns, t1_ns)])

    def speed(self, t0_ns: int, t1_ns: int) -> float:
        """Mean speed over [t0_ns, t1_ns) as a share of full speed; the
        interval must be longer than PERIOD_S."""
        times = self.times[self._span(t0_ns, t1_ns)]
        return sum(NOMINAL_NS / t for t in times) / len(times)

    def full_speed_ns(self, t0_ns: int, t1_ns: int, speed: float) -> float:
        """[t0_ns, t1_ns) without its probes, at full speed."""
        return (t1_ns - t0_ns - self.busy_ns(t0_ns, t1_ns)) * speed

"""Host-speed probe: a fixed pure-Python kernel, timed while a command runs.

The benchmark host shares its cores with other tenants, and its speed
drifts by up to a factor of 1.8 within minutes, so raw wall times of the same
code spread widely from run to run. While a command runs, a SIGALRM timer
runs `kernel` every INTERVAL_S and records how long it took. The median of
those samples is the host's speed over the command; scaling the command's
wall time by REF_S / median gives the seconds it would have taken on a
host where the kernel takes REF_S. The time spent in the probe itself is
taken out of the command's wall time first.

In ten runs per workload (see baseline.json) the spread (IQR / median) of
per-run medians was 14-28% for raw wall times and 4-6% for normalized
ones. Of the kernels tried, random reads over a large working set tracked
the host least well; dict updates mixed with a keyed sort tracked it best.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# A typical kernel time on the host of perfbench/baseline.json, where it
# ranged from 1.2 to 2.2 ms; it only scales normalized times to seconds.
REF_S = 0.0020
MIN_SAMPLES = 5


_ROWS = [(i % 17, float(i)) for i in range(400)]


def kernel() -> float:
    """About 2 ms of the work the engine's hot loops do: dict updates keyed
    by tuples, float arithmetic, a keyed sort and grouping into lists."""
    d: dict = {}
    acc = 0.0
    for i in range(2000):
        k = (i % 37, i & 7)
        d[k] = d.get(k, 0.0) + i * 0.5
        acc += d[k] / (i + 1)
    for _ in range(3):
        groups: dict = {}
        for a, b in sorted(_ROWS, key=lambda row: (row[0], -row[1])):
            groups.setdefault(a, []).append(b)
        acc += len(groups)
    return acc


def sample() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def median_sample(count: int) -> float:
    return statistics.median(sample() for _ in range(count))


class Probe:
    """Samples `kernel` on a timer while `call` runs one function."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        took = sample()
        self.samples.append(took)
        self.spent += took

    def call(self, fn, **kwargs):
        self.samples = []
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            return fn(**kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def normalize(self, wall: float) -> float:
        """`wall` of the last call, probe time removed, at reference speed."""
        while len(self.samples) < MIN_SAMPLES:  # a call too short to sample
            self.samples.append(sample())
        return (wall - self.spent) * REF_S / statistics.median(self.samples)

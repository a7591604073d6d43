"""Host speed reference: fixed work timed in the benchmark's own process.

On a shared host the speed of a core drifts by a quarter or more over
minutes, so raw wall times of two sets of runs differ even when the code does
not.  ``HostSpeed.sample()`` times one fixed piece of work, of the kinds the
CLI jobs do (interpreter dict and float churn, unmarshalling code as imports
do, numpy vector arithmetic, number formatting as the CSV writer does).  The
benchmark samples it before every set-up child and every job, and once
after the last, so each timed child or job lies between two samples;
``scaled()`` turns its wall time into the time on a host on which that work
takes ``REFERENCE_S``.  The work is the benchmark's own, so no change to
phonodec moves it.
"""

from __future__ import annotations

import marshal
import statistics
import time

import numpy as np

# Median of sample() on the 2-vCPU VM the benchmark was written on
# (Python 3.11.7, numpy 2.4.6), so scaled times read about as wall seconds.
REFERENCE_S = 0.06

_SOURCE = "\n".join(f"def f{i}(x):\n    return x + {i}" for i in range(200))
_CODE = marshal.dumps(compile(_SOURCE, "<reference>", "exec"))


def reference_work() -> float:
    """The fixed work; returns a value so none of it can be skipped."""
    table: dict[int, float] = {}
    for i in range(80000):
        table[i & 1023] = table.get(i & 1023, 0.0) + i * 0.5
    for _ in range(50):
        marshal.loads(_CODE)
    a = np.arange(100000.0)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    text = ",".join(f"{x:.6g}" for x in a[:20000])
    return sum(table.values()) + len(text)


class HostSpeed:
    """Reference samples of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> int:
        """Take a sample; returns its index."""
        # Timed on its second pass: after a CLI child the first pass also
        # pays for refilling caches, which varies more than the host speed.
        reference_work()
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def scaled(self, wall_s: float, index: int) -> float:
        """A wall time timed between samples ``index`` and ``index + 1``,
        in seconds on the reference host."""
        return wall_s * REFERENCE_S * 2.0 / (self.samples[index] + self.samples[index + 1])

    def reference_s(self) -> float:
        """Median time of the reference work in this run."""
        return statistics.median(self.samples)

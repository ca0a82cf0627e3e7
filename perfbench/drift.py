"""Taking the drift of a shared machine out of operation times.

On the 2-core virtual machine the benchmark was sized on, wall times
drift in two ways, and a run corrects for the one that fits its workload:

* The same one-thread ``anm_direction`` call took 0.135 s in one batch
  and 0.194 s in a batch a minute later, with no time stolen by the
  hypervisor and CPU time equal to wall time.  A workload of short
  one-thread operations therefore times a fixed reference kernel before
  each operation and scales its operation time by
  ``NOMINAL_S / median(kernel times)``: seconds at the machine speed at
  which the kernel takes ``NOMINAL_S``.  Timed next to each operation,
  the kernel sees the machine as the operation does.
* A ``frames_order`` stack that keeps both vCPUs busy took 26.1 s while
  the hypervisor stole 16% of the vCPU time, and 21.2-22.6 s while it
  stole under 3%.  Between operations that last seconds the reference
  kernel does not track their speed (it made the spread worse), so these
  workloads scale their operation time by ``1 - steal share`` over the
  operation loop, read from ``/proc/stat``.

The kernel uses only numpy and the interpreter, in the proportions the
library does: a permutation gather and sum, a ridge-sized solve, a sort
and cumulative sum, and a Python loop.  A change to the library moves
the scaled times; the machine's drift moves them much less.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on that machine in a fast stretch, one BLAS thread.
NOMINAL_S = 0.02


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._k = rng.random((128, 128))
        self._l = rng.random((128, 128))
        self._perms = [rng.permutation(128) for _ in range(150)]
        self._a = rng.random((250, 250)) + 250.0 * np.eye(250)
        self._b = rng.random(250)
        self._x = rng.random((400, 17))
        self.times = []

    def measure(self) -> float:
        t = time.perf_counter()
        for p in self._perms:
            float(np.sum(self._k * self._l[np.ix_(p, p)]))
        np.linalg.solve(self._a, self._b)
        np.cumsum(np.take_along_axis(self._x, np.argsort(self._x, axis=0, kind="stable"), axis=0), axis=0)
        acc = 0.0
        for i in range(60_000):
            acc += i * 0.5
        elapsed = time.perf_counter() - t
        self.times.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """Factor that turns a wall time measured in this run into
        seconds at the nominal machine speed."""
        return NOMINAL_S / float(np.median(self.times))


def cpu_ticks():
    """(all, stolen) clock ticks summed over the machine's CPUs, from the
    first line of /proc/stat; (0, 0) where it cannot be read."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0, 0
    # user nice system idle iowait irq softirq steal; guest time is
    # already counted in user.
    ticks = [int(v) for v in fields[1:9]]
    return sum(ticks), ticks[7] if len(ticks) == 8 else 0


def steal_share(before, after) -> float:
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0

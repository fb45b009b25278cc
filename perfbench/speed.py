"""CPU-speed normalisation of wall times.

On a shared VM the CPU a process runs on slows down by up to 2x for spells
of a fraction of a second to minutes, as other tenants load the host; Python
code, LAPACK and process start-up all slow down, though not equally.  A wall
time therefore
mixes the program's work with the host's load at that moment.  This module
measures the CPU's speed while the workload runs and converts each wall time
into *reference seconds*: the wall time scaled by the CPU's speed at that
moment relative to its speed when unloaded.

``Speedometer.start`` arms a wall-clock interval timer.  Its signal handler
runs in the main thread between two bytecodes of the workload, so on the same
CPU.  It runs a fixed task, ``reference()``, twice and times the second run:
the first refills the caches that the workload evicted, so the sample does not
depend on how much memory the workload touches.  A sample's speed is
``NOMINAL_S`` over that time.  ``reference_seconds(a, b)`` takes an interval of
``perf_counter`` time, subtracts the handler time spent inside it, and scales
the rest by the mean speed of the samples in the interval, widened to at
least ``MIN_SAMPLES`` samples (a trimmed mean: a sample that a page fault or an
interrupt hit does not move it).  A change in the program's own speed does
not touch the reference task and shows in full.

The worker pins itself, and so its children, to one CPU.  While it waits for
a child the timer goes on sampling on that CPU, between the child's time
slices, so work in a child process is measured the same way.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025      # one sample per 25 ms of wall time, about 4% of it
MIN_SAMPLES = 9
TRIM = 0.2              # share of samples dropped at each end before the mean

# The second reference() of a sample on the unloaded reference machine
# (2-vCPU KVM guest, Intel Xeon family 6 model 143, Python 3.11, numpy 2.4).
NOMINAL_S = 0.00045

_A = np.linspace(0.1, 1.0, 32 * 32).reshape(32, 32) * (1 + 0.5j)
_Z = np.exp(2j * np.pi * np.arange(1024) / 1024)
# 30000 random reads from 8 MiB, four times the per-core L2: the host's load
# slows memory access as much as it slows the interpreter.
_GATHER_FROM = np.ones(1 << 20)
_GATHER_AT = np.random.default_rng(0).integers(0, 1 << 20, 30000)


def reference() -> float:
    """A fixed task of about 0.4 ms: interpreted arithmetic, small numpy
    kernels and random memory reads."""
    acc = 0.0
    for k in range(1200):
        acc += (k * 0.5 + 1.0) % 7.0
    acc += float(np.abs(_A @ _A).sum())
    acc += float(np.abs(np.polyval(_A[0], _Z)).max())
    acc += float(_GATHER_FROM[_GATHER_AT].sum())
    return acc


class Speedometer:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []      # of the whole handler
        self.speeds: list[float] = []
        self._running = False

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        reference()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t2 - t0)
        self.speeds.append(NOMINAL_S / (t2 - t1))

    def start(self) -> None:
        if not self._running:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def reference_seconds(self, a: float, b: float, exponent: float = 1.0) -> float:
        """Reference seconds of the work done in the perf_counter interval [a, b].

        The wall time is scaled by the mean speed to the power ``exponent``:
        the share of a slow-down of the reference task that the work suffers
        too (see ``Workload.speed_exponent``).
        """
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        own = b - a - sum(self.durations[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            # Widen towards the nearer neighbour: a short interval takes the
            # speed of the moments around it.
            if hi == len(self.starts) or (lo > 0 and a - self.starts[lo - 1] <= self.starts[hi] - b):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed samples")
        speeds = sorted(self.speeds[lo:hi])
        cut = int(TRIM * len(speeds))
        return own * statistics.fmean(speeds[cut:len(speeds) - cut]) ** exponent

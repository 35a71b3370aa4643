"""Host-speed reference kernel and the sampler that runs it during tasks.

The kernel is a fixed piece of pure-stdlib ``Fraction`` work (about 1 ms
on a quiet 2-core x86-64 VM) that uses no nilforge code.  A shared VM of
that kind was seen to switch between a fast and a half-speed state every
second or so, with CPU time following wall time, so timing the kernel only
between tasks cannot see what happened inside a 5-second task.  The
``Sampler`` therefore runs the kernel from a ``SIGALRM`` handler every
``PERIOD_S`` seconds of wall time, in the worker's only thread, and records
(end time, duration) of every run.  Time spent in the handler is
subtracted from the task it interrupted; each task is then divided by the
mean kernel duration measured during it (plus one sample on each side).
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
# one "ref" unit: the kernel's duration at the reference speed
REF_S = 0.001
_TERMS = 170
_EXPECTED = sum((Fraction(1, 3 * i) for i in range(1, _TERMS)), Fraction(0))


def run_kernel() -> float:
    """Run the kernel once; returns its duration in seconds."""
    t0 = time.perf_counter()
    third = Fraction(1, 3)
    acc = Fraction(0)
    for i in range(1, _TERMS):
        acc += third / i
    dt = time.perf_counter() - t0
    if acc != _EXPECTED:
        raise RuntimeError("reference kernel computed a wrong sum")
    return dt


class Sampler:
    """Runs the kernel from a wall-clock timer signal while started."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, seconds)
        self.handler_s = 0.0

    def _handle(self, signum, frame) -> None:
        t0 = time.perf_counter()
        dt = run_kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, dt))
        self.handler_s += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def kernel_mean(samples, start: float, end: float) -> float:
    """Mean kernel seconds over the samples taken in [start, end], plus the
    last one before and the first one after."""
    ends = [t for t, _ in samples]
    lo = max(bisect.bisect_left(ends, start) - 1, 0)
    hi = min(bisect.bisect_right(ends, end) + 1, len(samples))
    window = [d for _, d in samples[lo:hi]]
    return sum(window) / len(window)

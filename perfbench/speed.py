"""Machine-speed samples taken while a run measures.

On a shared machine the speed of a core changes by tens of percent
within seconds, as other tenants come and go, and the program's time
moves with it.  A timer signal runs a fixed kernel every PERIOD seconds
and records its time.  Dividing an operation's time by the kernel's
slowdown around it gives the time at the kernel's nominal speed, which
is what the end-to-end metrics report; the raw times go to the details.

The kernel shares no code with the program.  It keeps the best of
REPEATS runs so that caches the program evicted do not count.  A program
that runs work on other threads or processes while its caller waits
would slow the samples and flatter itself: judge such a change on the
raw times.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

PERIOD = 0.1
REPEATS = 2
# Nominal kernel time, about its median on a 2-core Intel Xeon sandbox
# with Python 3.11 and numpy 2.4.  Reported times are scaled to it.
NOMINAL_KERNEL_S = 6.0e-4

_clock = time.perf_counter
_MATRIX = np.eye(6, dtype=complex) * 0.5


def kernel() -> float:
    """Interpreter work and small-array numpy calls, the program's own mix."""
    acc = {}
    for k in range(1000):
        acc[k & 15] = acc.get(k & 15, 0) + k * 3
    m = _MATRIX
    for _ in range(60):
        m = m @ _MATRIX + 0.25
    return float(m[0, 0].real) + acc[3]


@contextlib.contextmanager
def held():
    """Defer speed samples while a child process runs.

    The child competes with this process for the same cores, so a sample
    taken meanwhile would measure the child, not the machine.  A deferred
    sample runs as soon as the child is done.
    """
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class Speedometer:
    """Kernel times sampled on a timer signal between ``start`` and ``stop``.

    The handler runs between two bytecodes of whatever the run is doing, so
    samples cover operations as well as the gaps between them.  It keeps
    the best of REPEATS kernel runs: the first refills the caches the
    program evicted, and an interrupt can only lengthen a run.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        begin = _clock()
        best = float("inf")
        for _ in range(REPEATS):
            start = _clock()
            kernel()
            best = min(best, _clock() - start)
        self.times.append(0.5 * (begin + _clock()))
        self.kernel_s.append(best)

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        """Stop sampling; a second call does nothing."""
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
        self._sample()

    def slowdown(self, start: float, end: float) -> float:
        """Kernel time around [start, end] over its nominal time.

        The median of the samples taken inside the interval and the nearest
        one on each side of it, so that one slow sample does not count.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return statistics.median(self.kernel_s[max(0, lo - 1): hi + 1]) / NOMINAL_KERNEL_S

"""Machine-speed reference, sampled while the benchmark runs.

The shared machine this benchmark was built on changes speed by up to 40%
in phases lasting seconds (a fixed CPU loop swings between about 14 ms and
21 ms, in wall and in CPU time alike), which no amount of averaging within a
10-20 s run removes.  So a timer signal interrupts the run every INTERVAL
seconds and times REFERENCE, a fixed pure-Python workload of small-integer,
big-integer (Euclid) and tuple/dict work that does not touch solnorm.  A
command's time is then scaled by the reference's nominal time over its
measured time around that command: the result is the command's time at the
machine's nominal speed.  The time the handler itself takes is subtracted
from every command it interrupts.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.05
# Speed phases last 5-15 s, so samples this close to a command still apply;
# a wider window averages out the noise of single samples.
MARGIN = 2.0
# Nominal REFERENCE time, the median measured on a 2-vCPU x86-64 machine
# with Python 3.11; it only sets the scale of normalised times.
NOMINAL = 0.00068


def reference() -> int:
    """Small-integer, big-integer (Euclid) and int-to-str work.  It makes no
    object the garbage collector tracks, so its time does not depend on
    the size of the benchmark's heap."""
    a, b = 1, 1
    for _ in range(300):
        a, b = b, a + b
    steps = 0
    for k in range(24):
        p, q = a + k, b
        while q:
            p, q = q, p % q
            steps += 1
    digits = 0
    for k in range(200):
        digits += len(str(a >> k))
    return steps + digits


class SpeedSampler:
    """Times REFERENCE every INTERVAL seconds from a SIGALRM handler."""

    def __init__(self) -> None:
        self.times: list[float] = []  # sample start, perf_counter seconds
        self.ratios: list[float] = []  # NOMINAL / measured reference time
        self.spent = 0.0  # seconds spent in the handler
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference()
        elapsed = time.perf_counter() - start
        self.times.append(start)
        self.ratios.append(NOMINAL / elapsed)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Mean of NOMINAL / reference time over the samples taken in
        [start, end], widened by MARGIN on each side so that even a short
        command is scaled by a mean of some eighty samples."""
        lo = bisect.bisect_left(self.times, start - MARGIN)
        hi = bisect.bisect_right(self.times, end + MARGIN)
        window = self.ratios[lo:hi]
        if not window:  # before the first tick: use the nearest samples
            window = self.ratios[max(0, lo - 2):lo + 2] or [1.0]
        return sum(window) / len(window)


def reference_ratio(repeats: int = 5) -> float:
    """NOMINAL / the median of a few reference times, measured now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    times.sort()
    return NOMINAL / times[len(times) // 2]

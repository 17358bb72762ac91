"""Machine-speed normalisation for a shared, noisy host.

On the shared 2-core VM this benchmark was built on, the same verdict takes
anywhere from 1.5 to 2.4 s from one run to the next, while process CPU time
tracks wall time exactly: the host runs the vCPU slower or faster over
periods of about a second, and nothing inside the guest shows it.  A fixed
piece of work timed throughout the run tracks that speed closely.

While a SpeedProbe is active, a SIGALRM timer fires every INTERVAL_S seconds
and its handler times `spin`: a fixed run of `fractions.Fraction` arithmetic,
the kind of work quotcat's hot paths do, with the garbage collector paused so
that the heap the program under test builds cannot slow it.  `normalise`
turns a measured interval into reference seconds: the interval minus the
probe's own time, scaled by REF_SPIN_S over the mean spin time inside it.
A change to quotcat cannot move the spin, so normalised times move with the
code and not with the host.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.02
# Mean spin time on the reference VM in a quiet period; it sets the scale of
# every normalised time, so it must never change once results are recorded.
REF_SPIN_S = 0.0004


def spin() -> Fraction:
    x, y = Fraction(1, 3), Fraction(2, 7)
    for _ in range(40):
        x = (x * y + 1) / (x + 2)
    return x


class SpeedProbe:
    """Samples the host's speed while active (a context manager)."""

    def __init__(self):
        self.starts = array("d")
        self.spins = array("d")
        self._previous = None

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        spin()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.spins.append(t1 - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds that [t0, t1) would have taken at the reference speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.spins[lo:hi]
        # An interval too short to hold a sample takes the run's mean speed.
        mean = statistics.fmean(inside or self.spins)
        return (t1 - t0 - sum(inside)) * REF_SPIN_S / mean

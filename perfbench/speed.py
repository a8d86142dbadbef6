"""A fixed reference loop that measures how fast the machine runs while a call runs.

On a shared VM the same call can run up to twice as slow for seconds or
minutes at a time, and its CPU time slows with it: the contention is on the
host, not in this machine's scheduler, so taking the fastest of a few calls
does not remove it when a slow spell outlasts a run.  While a run lasts, a
`Sampler` thread in the benchmark's process times a short reference loop
every INTERVAL_S, on the CPU the program runs on, and each call's times are
rescaled to the loop's nominal speed:

    scaled = measured * REF_NOMINAL_S / mean(loop CPU times during the call)

The mean drops the slowest and fastest tenth of the loops; it is a mean
rather than a median because a call that spans a fast and a slow spell runs
at their average speed.

The loop is timed in thread CPU time, so the program preempting it does not
count.  It is the benchmark's own code, so no change to the program under
test can move it; it does the kind of work the program does (Fraction
arithmetic on growing big integers, tuple-keyed dicts).  It takes about 3%
of the CPU, on every commit alike.
"""

from __future__ import annotations

import statistics
import threading
import time
from fractions import Fraction

# Thread CPU seconds one reference loop takes in a fast spell of a 2-core VM
# (Intel Xeon, Python 3.11); only a scale, so that scaled times read as seconds.
REF_NOMINAL_S = 0.0025
INTERVAL_S = 0.1  # pause between two loops
MIN_SAMPLES = 7  # a call shorter than this many loops takes the nearest ones


def reference_loop() -> float:
    """Thread CPU seconds of one pass of the fixed loop."""
    t0 = time.thread_time()
    acc, seen = Fraction(0), {}
    for i in range(1, 700):
        acc += Fraction(i % 97 + 1, i)
        seen[(i, i % 7)] = acc.numerator % 1000
    return time.thread_time() - t0


class Sampler:
    """Times the reference loop in a background thread while the `with` block runs."""

    def __init__(self):
        self.samples = []  # (perf_counter when the loop ended, its CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            cpu = reference_loop()
            self.samples.append((time.perf_counter(), cpu))

    def scale(self, start, end):
        """The factor that turns times measured from `start` to `end` into nominal-speed times."""
        during = [cpu for t, cpu in self.samples if start <= t <= end]
        if len(during) < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            during = [cpu for _, cpu in nearest[:MIN_SAMPLES]]
        during.sort()
        trim = len(during) // 10
        return REF_NOMINAL_S / statistics.fmean(during[trim:len(during) - trim])

"""Wall times scaled to a reference machine speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds and between minutes, with other tenants' load on the same
cores and caches.  So a fixed pure-Python calibration loop (rational and
modular integer arithmetic and dict stores, the kinds of work admpoisson's
scalar kernels do) is timed between requests, in the benchmark's own thread
and at most CAL_EVERY seconds apart.  The benchmark and the children it
starts share one CPU, so the loop runs where the requests run.  Each
interval the benchmark measures is multiplied by REF_S over the median
calibration time around it: a scaled time is the time the interval would
have taken on a machine that runs the calibration loop in REF_S seconds.
No admpoisson code runs inside the loop, so a change to the program moves
scaled times as it moves wall times.  Calibrating while a request runs, in
another thread or process, would compete with the request for the host's
few cores.
"""

import bisect
import statistics
import time
from fractions import Fraction

REF_S = 0.008       # the reference machine runs the calibration loop in 8 ms
CAL_EVERY = 0.25    # seconds between calibrations, at most (between requests)
WINDOW = 1.0        # calibrations this close to an interval give its speed


def calibration_work():
    a, s, d = Fraction(3, 7), 0, {}
    for i in range(1, 1200):
        a = a * Fraction(i % 13 + 1, i % 11 + 2) + Fraction(1, i)
        a = Fraction(a.numerator % 10007, a.denominator % 10009 + 1)
        s = (s * 31 + i * i) % 1000003
        d[i % 97] = s
    return a, d


class RefClock:
    def __init__(self):
        self.starts = []    # start time of each calibration, ascending
        self.times = []     # its duration

    def calibrate(self):
        t0 = time.perf_counter()
        calibration_work()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def tick(self):
        """Calibrate when the last calibration is CAL_EVERY seconds old."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= CAL_EVERY:
            self.calibrate()

    def factor(self, t0, t1):
        """REF_S over the median time of the calibrations that start within
        WINDOW of [t0, t1], always counting the last one before t0 and the
        first one after t1."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW)
        lo = min(lo, max(bisect.bisect_right(self.starts, t0) - 1, 0))
        hi = max(hi, min(bisect.bisect_left(self.starts, t1) + 1, len(self.starts)))
        return REF_S / statistics.median(self.times[lo:hi])

"""Host-speed calibration for the timed passes.

On a shared host the speed of one core drifts by up to two times over
tens of seconds (other tenants, frequency), which swamps the effect of
most code changes.  A fixed reference computation, pure Python of the
same kind as extcalc's inner loops (small integer tuple matrices, dict
lookups) but touching no extcalc code, is timed (median of three runs)
between queries at least every SAMPLE_EVERY_S.  Each query's latency is
scaled by NOMINAL_S over the mean of the reference samples just before
and just after it: the result is the query's time on a host where the
reference takes NOMINAL_S.  Raw seconds are kept alongside in every run
record.
"""

import time

NOMINAL_S = 0.004
SAMPLE_EVERY_S = 0.25


def reference():
    """Fixed work: products of 8x8 integer tuple matrices and a dict."""
    a = tuple(tuple((3 * i + 5 * j) % 11 - 5 for j in range(8))
              for i in range(8))
    seen = {}
    for k in range(36):
        cols = tuple(zip(*a))
        a = tuple(tuple((sum(x * y for x, y in zip(row, col)) + k) % 97 - 48
                        for col in cols) for row in a)
        for row in a:
            seen[row] = seen.get(row, 0) + 1
    return len(seen)


class Calibrator:
    """Reference samples taken between queries of one pass."""

    def __init__(self):
        self.samples = []  # (start, end, median of three reference runs)

    def sample(self, force=False):
        clock = time.perf_counter
        if not force and self.samples \
                and clock() - self.samples[-1][1] < SAMPLE_EVERY_S:
            return
        runs = []
        for _ in range(3):
            start = clock()
            reference()
            runs.append(clock() - start)
        self.samples.append((start, clock(), sorted(runs)[1]))

    def scale(self, t0, t1):
        """NOMINAL_S over the mean reference time around [t0, t1]."""
        before = max((s for s in self.samples if s[1] <= t0),
                     key=lambda s: s[1])
        after = min((s for s in self.samples if s[0] >= t1),
                    key=lambda s: s[0])
        return NOMINAL_S / ((before[2] + after[2]) / 2)

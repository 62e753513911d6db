"""A fixed CPU probe that puts op times of Python-bound workloads on one reference speed.

The shared hosts this benchmark runs on change speed by up to 1.8x for tens
of seconds at a time, as other tenants load the cores.  Measured on a 2-core
x86-64 sandbox, the median ingest_csv op took 0.12 s in one 25 s run and
0.21 s in another.  Interpreter-bound code (float formatting and parsing,
small numpy calls) slows down the most, and a probe made of the same kind of
work slows down with it.  So on the workloads whose time goes to the
writers, readers and estimators (figure_bundle, ingest_csv), each op time is
multiplied by REF_S / (probe time around the op); over six seeds that cut
the spread (IQR/median) of ingest_csv's run_s_p50 from 0.28 to 0.04.

baker_grid and qbaker_sweep spend their time in large numpy and BLAS kernels,
which the contention slows much less.  Probes of their own kind (an 8 MB
gather, a 256 x 256 complex matmul) did not make their run-to-run spread
smaller (baker_grid 0.043 raw against 0.087 scaled over five seeds), so they
report raw times.  Raw times stay in every report next to the scaled ones.
"""

import math
import statistics
import time

REF_S = 0.0032  # the probe's time on a quiet 2-core x86-64 host: it only fixes the unit
PROBE_EVERY_S = 0.25
WINDOW_S = 1.0

_floats = [math.sin(i) for i in range(2000)]
_arrays = []


def probe():
    """Best of three runs of float formatting and parsing, a sort and a complex exp."""
    import numpy as np

    if not _arrays:
        rng = np.random.default_rng(0)
        _arrays.extend([rng.random(131072), 1j * rng.random(32768)])
    sort, phase = _arrays
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        text = ",".join(f"{x:.17g}" for x in _floats)
        sum(float(x) for x in text.split(","))
        np.sort(sort)
        np.exp(phase)
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Probe readings over a run, and the scale factor for any time interval in it."""

    def __init__(self):
        self.readings = []  # (perf_counter, probe seconds)

    def tick(self, force=False):
        """Take a reading if the last one is PROBE_EVERY_S old (or always, with force)."""
        if force or not self.readings or time.perf_counter() - self.readings[-1][0] >= PROBE_EVERY_S:
            self.readings.append((time.perf_counter(), probe()))

    def scale(self, start, end):
        """REF_S over the median reading within WINDOW_S of the interval.

        The median outvotes a short burst of odd readings.
        """
        near = [p for t, p in self.readings if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.readings, key=lambda r: min(abs(r[0] - start), abs(r[0] - end)))[1]]
        return REF_S / statistics.median(near)

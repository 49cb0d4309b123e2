"""A fixed reference kernel that measures how fast the machine is running.

The benchmark runs on a few cores of a shared host, whose speed swings by up
to a half from one second or one minute to the next as other tenants load
it.  Wall time alone then moves more between two runs of the same code than
any change worth measuring.  So the benchmark samples the machine's speed
with this kernel while it times a piece of work, and reports the work's time
scaled by ``REF_NOMINAL_S / <mean kernel time>``: the time the work would
have taken had the machine run at the speed at which the kernel takes
``REF_NOMINAL_S``.  A change to the program moves the work's time and leaves
the kernel alone, so it shows in full.

The kernel is timed in short bursts right before and right after the work,
and every ``SAMPLE_INTERVAL_S`` during it from a ``SIGALRM`` handler, which
runs in the benchmark's own thread between two Python bytecodes: no thread
or process is started.  The handler runs the kernel twice and keeps the
second, warm time, so the cache the work leaves behind does not count as
machine speed.  The handler's own time is taken off the work's time.

The kernel uses numpy only, never ``relaxtik``, and mixes the kinds of work
the program does: eigen-projection of a batch of small symmetric blocks and
a Python loop of small-array steps.
"""

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Median time of one warm `kernel()` call while the host was quiet, on the
# machine the bounds were set on (2-vCPU AMD EPYC VM, Python 3.11, numpy
# 2.4, OpenBLAS 0.3.31).  It only fixes the scale of the reported seconds.
REF_NOMINAL_S = 0.00027
SAMPLE_INTERVAL_S = 0.05
BURST = 4  # timed kernel calls right before and right after the work

_rng = np.random.default_rng(20230720)
_A = _rng.standard_normal((120, 4, 4))
_A = _A + np.swapaxes(_A, 1, 2)
_X0 = _rng.standard_normal((32, 3))


def kernel():
    """One call of the reference work; returns its wall seconds."""
    t0 = time.perf_counter()
    w, v = np.linalg.eigh(_A)
    (v * np.maximum(w, 0.0)[:, None, :]) @ np.swapaxes(v, 1, 2)
    x = _X0
    for _ in range(8):
        x = x + 0.1 * (np.roll(x, 1, axis=0) - x)
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
    return time.perf_counter() - t0


class Timing:
    """Result of `SpeedProbe.time`: `wall` seconds, filled in on exit."""

    wall = scaled = None


class SpeedProbe:
    """Times work in the benchmark's main thread at nominal machine speed."""

    def __init__(self):
        self.times = []  # every kernel time, for the record
        self._inside = []
        self._handler_s = 0.0

    def _burst(self):
        kernel()  # warm the cache; not kept
        out = [kernel() for _ in range(BURST)]
        self.times.extend(out)
        return out

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self._inside.append(kernel())
        self._handler_s += time.perf_counter() - t0

    @contextmanager
    def time(self):
        """Time the body.  On exit `wall` holds its wall seconds, less the
        sampler's, and `scaled` the same at nominal machine speed."""
        timing = Timing()
        before = self._burst()
        self._inside, self._handler_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        timing.wall = wall - self._handler_s
        self.times.extend(self._inside)
        samples = before + self._inside + self._burst()
        timing.scaled = timing.wall * REF_NOMINAL_S / statistics.fmean(samples)

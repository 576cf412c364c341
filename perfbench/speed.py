"""Host speed, read from a fixed calibration kernel around and during cells.

The reference machine is a shared VM whose speed moves between states up
to 2x apart, each lasting from a second to over a minute, with process CPU
time moving in step with wall time.  Raw wall times of the same cells
therefore differ between runs by more than any change worth measuring.

`Meter` times a cell and reads the kernel before it, after it and, every
PERIOD_S, during it (from a SIGALRM handler).  The cell's wall time, less
the time spent in the handler, is rescaled by REFERENCE_S over the median
reading: a time in "reference seconds", the wall time the cell would take
on a host that runs the kernel in REFERENCE_S.  The kernel does a fixed
amount of two kinds of the package's work at its sizes: normal draws of a
150x300 instance and argsorts of a 150-long residual.  Of the kinds tried
(interpreter loops, small numpy calls, matrix-vector products, draws,
argsorts and a mix of all), these two followed the package's cell times
across the host's states most closely.  The kernel never calls the
package and draws from its own generator, so a change to the package
cannot move it and it cannot move the package's outputs.  Raw wall times
are kept in the run report next to the rescaled ones.
"""

import signal
import statistics
import time

import numpy as np

# The kernel reading that makes a reference second a wall second.  On the
# reference machine (2-vCPU Xeon VM, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS
# thread) readings run from 2.7 ms in its fastest state to 5 ms and more in
# its slow ones.
REFERENCE_S = 0.0034

# Seconds between readings during a cell; each costs about 2% of that.
PERIOD_S = 0.2

_SEED = 20251207
_RESIDUAL = np.random.default_rng(_SEED).standard_normal(150)


def _once():
    g = np.random.default_rng(_SEED)
    for _ in range(2):
        g.standard_normal((150, 300))
    for _ in range(400):
        np.argsort(np.abs(_RESIDUAL))


def reading():
    """Seconds one run of the calibration kernel takes now."""
    t0 = time.perf_counter()
    _once()
    return time.perf_counter() - t0


def kernel():
    """A reading taken between cells: the median of three."""
    return statistics.median(reading() for _ in range(3))


def rescale(seconds, readings):
    """Wall seconds measured while the kernel gave `readings`, in
    reference seconds."""
    return seconds * REFERENCE_S / statistics.median(readings)


class Meter:
    """Times cells in wall seconds and in reference seconds.

    Every reading taken is kept in `readings`; a cell's reading after it
    serves as the next cell's reading before it.
    """

    def __init__(self):
        self.readings = [kernel()]
        self._during = []
        self._spent = 0.0
        self._t0 = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._during.append(reading())
        self._spent += time.perf_counter() - t0

    def start(self):
        self._during, self._spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()

    def stop(self):
        """End the cell: (wall seconds, reference seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        seconds = time.perf_counter() - self._t0 - self._spent
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        before = self.readings[-1]
        self.readings += self._during
        self.readings.append(kernel())
        return seconds, rescale(seconds, [before, self.readings[-1], *self._during])

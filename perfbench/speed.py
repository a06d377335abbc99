"""Host speed probe: rescales wall times to a fixed reference speed.

The benchmark's host is a few cores of a shared machine whose speed swings
by up to 2x within seconds, and process CPU time swings with it.  The
swings slow interpreter work (the solver's per-step Python loop, float
formatting in the CSV writers) far more than streaming and BLAS work on
large arrays.  Over a run's 30 seconds, the wall time of an interpreter-
bound pass therefore measures the host as much as the program.

The probe times a fixed calibration slice of interpreter work on a timer
signal every ``INTERVAL_S`` while the interpreter-bound part of a pass
runs (the workload says which part that is).  Python runs the handler in
the main thread between bytecodes, so the slices interleave with the
program's own work and see the host at the same moments it does; nothing
runs concurrently.  An interval's rescaled time is its wall time minus the
slices that ran inside it, times ``NOMINAL_SLICE_S`` over their mean time:
the time the interval would take on a host that runs the slice in
``NOMINAL_SLICE_S``.  A faster program lowers it in proportion, as it
lowers the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.05
# A constant near the slice's median time on the 2-vCPU Xeon host the
# benchmark was tuned on (numpy 2.4), so that rescaled times read within
# about a third of wall seconds there.
NOMINAL_SLICE_S = 0.0015
_X = np.linspace(0.0, 1.0, 64)


def calibration_slice() -> float:
    """A fixed amount of interpreter, small-array and float-formatting work."""
    acc = 0.0
    for i in range(300):
        acc += float(_X @ _X) * 1e-3
        if i % 8 == 0:
            acc += len(",".join(f"{v:.17g}" for v in _X[:16]))
    return acc


class SpeedProbe:
    """Records ``(start, seconds)`` of each calibration slice while running."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_slice()
        self.samples.append((start, time.perf_counter() - start))

    @contextmanager
    def running(self):
        """Run slices on SIGALRM, the first one at once, until the block exits."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1e-4, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, start: float, seconds: float) -> list[float]:
        """Times of the slices that ran within ``[start, start + seconds)``.

        The handler runs between bytecodes of the main thread, so a slice
        lies wholly inside or wholly outside an interval timed there.
        """
        return [dt for t, dt in self.samples if start <= t < start + seconds]


def rescale(seconds: float, slices: list[float]) -> tuple[float, float]:
    """(rescaled seconds, speed factor) of an interval and the slices inside it.

    An interval no slice fell into keeps its wall time (factor 1).
    """
    if not slices:
        return seconds, 1.0
    factor = NOMINAL_SLICE_S / statistics.fmean(slices)
    return (seconds - sum(slices)) * factor, factor

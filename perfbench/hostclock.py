"""Timings at a reference host speed, for a shared host.

On a shared host the speed a process gets swings by a third or more, over
milliseconds to minutes, and CPU time swings with it: the guest does not see
that its virtual CPU was held back.  Two timings of the same code made a few
minutes apart can differ by more than any change worth measuring.

``HostClock`` times the caller's work and, while the work runs, interrupts
it about every ``CALIB_EVERY_S`` (jittered, so the samples do not lock onto
a period of the host's scheduler) to time a fixed piece of pure-Python work,
the calibration.  The interruptions are taken out of the work's time, and
the mean calibration time says how slow the host ran meanwhile.  A work
time multiplied by ``scale()`` is the time the work would have taken at the
reference speed, at which one calibration takes ``CALIB_REF_S``.

The calibration creates no containers, so it never starts the garbage
collector, whose cost would depend on the heap the work has built.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

CALIB_ITERS = 12_000
CALIB_REF_S = 5.0e-3        # one calibration at the reference speed
CALIB_EVERY_S = (0.05, 0.15)  # interval between calibrations, drawn uniformly


class _Block:
    def __init__(self):
        self.gain = 1.0
        self.leak = 0.5

    def step(self, x: float, y: float) -> float:
        return x * self.gain + y * self.leak


_BLOCK = _Block()
_SAMPLES = [0.0] * 256
_TRACES = {f"w.u{i}": [] for i in range(4)}


def calibrate() -> float:
    """Seconds for a fixed piece of work shaped like the engine's tick loop:
    float arithmetic, a method call, list reads and writes, and appends to
    lists looked up by a formatted name."""
    block, samples, traces = _BLOCK, _SAMPLES, _TRACES
    x = 0.0
    t0 = perf_counter()
    for i in range(CALIB_ITERS):
        x = block.step(x * 0.999, samples[i & 255])
        samples[i & 255] = x
        traces[f"w.u{i & 3}"].append(x)
    elapsed = perf_counter() - t0
    for trace in traces.values():
        trace.clear()
    return elapsed


class HostClock:
    """Work clock with calibrations taken during the work.

    Use as a context manager around the work; read ``now()`` inside it and
    multiply differences of ``now()`` by ``scale()`` afterwards.  It owns
    SIGALRM while the block runs and puts the old handler back on leaving.
    """

    def __init__(self):
        self.calibrations: list[float] = []
        self.paused_s = 0.0
        self._armed = False
        self._old_handler = None
        self._jitter = random.Random(0)

    def now(self) -> float:
        """Host seconds so far, less the time spent calibrating."""
        while True:
            paused = self.paused_s
            t = perf_counter()
            if self.paused_s == paused:   # no calibration ran in between
                return t - paused

    def scale(self) -> float:
        """Reference seconds per host second of the work."""
        return CALIB_REF_S / statistics.fmean(self.calibrations)

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self._jitter.uniform(*CALIB_EVERY_S))

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.calibrations.append(calibrate())
        if self._armed:
            self._arm()
        self.paused_s += perf_counter() - t0

    def __enter__(self):
        self.calibrations.append(calibrate())
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        self._arm()
        return self

    def __exit__(self, *exc):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.calibrations.append(calibrate())

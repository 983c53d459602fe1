"""Signal histories on the engine's uniform time grid.

Every engine signal is sampled once per tick, so a :class:`Trajectory` is a
float64 column whose sample ``i`` sits at time ``i * dt``.  Delayed reads
are index arithmetic with linear interpolation between samples, a
sample-and-hold running integral gives queue transport masses, and a
bisection over the values inverts monotone (arrival -> departure) time
maps.  The columns are also the engine's output: its traces are zero-copy
views of them.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left

__all__ = ["Trajectory", "HistoryError", "CausalityError"]


class HistoryError(ValueError):
    """Bad trajectory usage: ordering, range or monotonicity violated."""


class CausalityError(HistoryError):
    """A query touched data the simulation has not produced yet."""


class Trajectory:
    """Scalar signal sampled on the grid ``i * dt``, linear between samples.

    Before ``t = 0`` the signal is its pre-history.  By default that is the
    constant ``initial_value``, taken to be sampled at ``-dt`` and
    interpolated to the first sample, so delayed reads at simulation start
    are well defined.  With ``pre_slope`` set it is the line
    ``initial_value + pre_slope * t`` instead (a time map extended
    backwards).  Reads beyond the newest sample raise
    :class:`CausalityError`: the engine must never consume values it has not
    produced yet.

    Concurrency: single writer appends; readers of strictly past data are
    safe.  A numpy view of ``values`` stops the column from growing.
    """

    __slots__ = ("dt", "values", "hold_cumulative", "initial_value",
                 "pre_slope", "pruned_before")

    def __init__(self, dt: float, initial_value: float = 0.0, *,
                 pre_slope: float = 0.0):
        self.dt = dt
        self.values = array("d")
        # hold_cumulative[i] = integral from 0 to i * dt, each value held to
        # the next sample; built on the first integral that needs it
        self.hold_cumulative = array("d")
        self.initial_value = float(initial_value)
        self.pre_slope = float(pre_slope)
        # prune_before() raises this floor; reads older than it fail
        self.pruned_before = -math.inf

    def __len__(self) -> int:
        return len(self.values)

    def record(self, t: float, v: float) -> None:
        """Append the next sample; ``t`` must be its grid time ``len(self) * dt``."""
        n = len(self.values)
        if t != n * self.dt:
            raise HistoryError(f"record at t={t!r} is not sample {n} at "
                               f"{n * self.dt!r} (engine ordering bug)")
        self.values.append(v)

    def _index(self, t: float) -> int:
        """Largest ``i`` with ``i * dt <= t``, for ``t >= 0``."""
        dt = self.dt
        i = int(t / dt)
        if i * dt > t:
            i -= 1
        elif (i + 1) * dt <= t:
            i += 1
        return i

    def _check_not_pruned(self, t: float) -> None:
        if t < self.pruned_before:
            raise HistoryError(
                f"read at t={t!r} precedes pruned history (< {self.pruned_before!r})")

    def eval_at(self, t: float) -> float:
        """Value at ``t``; exact on samples, interpolated between them."""
        values = self.values
        dt = self.dt
        last = len(values) - 1
        if t > last * dt:
            raise CausalityError(
                f"future read at t={t!r} (history ends at {last * dt!r})")
        self._check_not_pruned(t)
        if t < 0.0:
            v0 = self.initial_value
            if self.pre_slope:
                return v0 + self.pre_slope * t
            lag = -t
            if lag >= dt:
                return v0
            return v0 + (values[0] - v0) * (dt - lag) / dt
        i = self._index(t)
        t0 = i * dt
        if t == t0 or i == last:
            return values[i]
        v0, v1 = values[i], values[i + 1]
        return v0 + (v1 - v0) * (t - t0) / ((i + 1) * dt - t0)

    def _hold_cumulative_at(self, t: float) -> float:
        if t < 0.0:
            return self.initial_value * t
        i = self._index(t)
        values, cum, dt = self.values, self.hold_cumulative, self.dt
        for n in range(len(cum), i + 1):  # each cell as wide as its grid times
            cum.append(cum[-1] + values[n - 1] * (n * dt - (n - 1) * dt) if n else 0.0)
        return cum[i] + values[i] * (t - i * dt)

    def integrate_hold(self, t0: float, t1: float) -> float:
        """Integral reading each sample as held until the next one.

        Matches explicit left-point state stepping, so queue transport
        accounting based on it is exact.  The pre-history counts as the
        constant ``initial_value``.
        """
        if t1 < t0:
            raise HistoryError(f"reversed integration bounds [{t0!r}, {t1!r}]")
        if t0 == t1:
            return 0.0
        self._check_not_pruned(t0)
        last = (len(self.values) - 1) * self.dt
        if t1 > last:
            raise CausalityError(
                f"integration end t={t1!r} beyond history ({last!r})")
        return self._hold_cumulative_at(t1) - self._hold_cumulative_at(t0)

    def invert_monotone(self, y: float) -> float:
        """Earliest time where a nondecreasing trajectory reaches ``y``.

        Where the map is flat, the left edge of the flat interval is
        returned (FIFO earliest-arrival tie-break).  ``y`` must lie inside
        the recorded value range, or below it on a rising pre-history line.
        """
        values = self.values
        if not values:
            raise HistoryError("cannot invert an empty trajectory")
        if y < values[0] and self.pre_slope > 0.0:
            x = (y - self.initial_value) / self.pre_slope
        elif y < values[0] or y > values[-1]:
            raise HistoryError(
                f"inverse of {y!r} not determined: recorded range "
                f"[{values[0]!r}, {values[-1]!r}]")
        else:
            dt = self.dt
            i = bisect_left(values, y)
            if values[i] == y:
                x = i * dt
            else:
                v0, v1 = values[i - 1], values[i]  # v0 < y < v1
                t0 = (i - 1) * dt
                x = t0 + (i * dt - t0) * (y - v0) / (v1 - v0)
        self._check_not_pruned(x)
        return x

    def prune_before(self, t: float) -> None:
        """Raise the read floor to the sample bracketing ``t``.

        Reads at or after that sample stay exact; older ones raise
        :class:`HistoryError`.  Every sample is kept: the columns are the
        run's traces, so pruning guards reads and frees no memory.
        """
        n = len(self.values)
        if n and t > 0.0:
            floor = min(self._index(t), n - 1) * self.dt
            self.pruned_before = max(self.pruned_before, floor)

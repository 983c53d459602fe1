"""Sampled signal histories with past-time queries.

The whole simulator runs on :class:`Trajectory`: an append-only record of
(time, value) samples with linear interpolation, a constant pre-history,
a sample-and-hold running integral and monotone-map inversion.  Delayed
reads, queue transport masses and backward (departure -> arrival) time
queries are all answered from here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

__all__ = ["Trajectory", "HistoryError", "CausalityError"]


class HistoryError(ValueError):
    """Bad trajectory usage: ordering, range or monotonicity violated."""


class CausalityError(HistoryError):
    """A query touched data the simulation has not produced yet."""


class Trajectory:
    """Time-indexed scalar signal, linearly interpolated between samples.

    Sample times must be strictly increasing.  Before the first sample the
    signal is the constant ``initial_value``, which is taken to be sampled
    one sample spacing before ``times[0]`` and interpolated from there, so
    delayed reads at simulation start are well defined.  Reads beyond the
    newest sample raise :class:`CausalityError`: the engine must never
    consume values it has not produced yet.

    Concurrency: single writer appends; readers of strictly past data are
    safe.  Within one simulation, single-threaded use is the contract.
    """

    __slots__ = ("times", "values", "hold_cumulative", "initial_value",
                 "pruned_before", "dropped")

    def __init__(self, initial_value: float = 0.0):
        self.times: list[float] = []
        self.values: list[float] = []
        # hold_cumulative[i] = integral from the first sample ever recorded
        # to times[i], each value held to the next sample
        self.hold_cumulative: list[float] = []
        self.initial_value = float(initial_value)
        # prune_before() moves these forward; queries older than the cut
        # fail, and list index i holds sample number i + dropped
        self.pruned_before: float | None = None
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.times)

    def record(self, t: float, v: float) -> None:
        """Append a sample. ``t`` must exceed the last recorded time."""
        times = self.times
        if times:
            prev = times[-1]
            if t <= prev:
                raise HistoryError(
                    f"non-monotone record: t={t!r} after t={prev!r} "
                    "(engine ordering bug)")
            self.hold_cumulative.append(
                self.hold_cumulative[-1] + self.values[-1] * (t - prev))
        else:
            self.hold_cumulative.append(0.0)
        times.append(t)
        self.values.append(v)

    def _check_not_pruned(self, t: float) -> None:
        if self.pruned_before is not None and t < self.pruned_before:
            raise HistoryError(
                f"read at t={t!r} precedes pruned history (< {self.pruned_before!r})")

    def eval_at(self, t: float) -> float:
        """Value at ``t``; exact on samples, interpolated between them."""
        times = self.times
        if not times:
            self._check_not_pruned(t)
            return self.initial_value
        if t > times[-1]:
            raise CausalityError(
                f"future read at t={t!r} (history ends at {times[-1]!r})")
        if t < times[0]:
            self._check_not_pruned(t)
            if len(times) < 2:
                return self.initial_value
            spacing = times[1] - times[0]
            lag = times[0] - t
            if lag >= spacing:
                return self.initial_value
            v0 = self.initial_value
            return v0 + (self.values[0] - v0) * (spacing - lag) / spacing
        i = bisect_right(times, t) - 1
        t0 = times[i]
        if t == t0 or i == len(times) - 1:
            return self.values[i]
        t1 = times[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def _hold_cumulative_at(self, t: float) -> float:
        times = self.times
        if t < times[0]:
            return self.initial_value * (t - times[0])
        i = bisect_right(times, t) - 1
        return self.hold_cumulative[i] + self.values[i] * (t - times[i])

    def integrate_hold(self, t0: float, t1: float) -> float:
        """Integral reading each sample as held until the next one.

        Matches explicit left-point state stepping, so queue transport
        accounting based on it is exact.
        """
        if t1 < t0:
            raise HistoryError(f"reversed integration bounds [{t0!r}, {t1!r}]")
        if t0 == t1:
            return 0.0
        self._check_not_pruned(t0)
        if not self.times:
            return self.initial_value * (t1 - t0)
        if t1 > self.times[-1]:
            raise CausalityError(
                f"integration end t={t1!r} beyond history ({self.times[-1]!r})")
        return self._hold_cumulative_at(t1) - self._hold_cumulative_at(t0)

    def invert_monotone(self, y: float) -> float:
        """Earliest time where a nondecreasing trajectory reaches ``y``.

        Where the map is flat, the left edge of the flat interval is
        returned (FIFO earliest-arrival tie-break).  ``y`` must lie inside
        the recorded value range.
        """
        values = self.values
        if not values:
            raise HistoryError("cannot invert an empty trajectory")
        if y < values[0] or y > values[-1]:
            raise HistoryError(
                f"inverse of {y!r} not determined: recorded range "
                f"[{values[0]!r}, {values[-1]!r}]")
        i = bisect_left(values, y)
        if values[i] == y:
            return self.times[i]
        v0, v1 = values[i - 1], values[i]
        if v1 <= v0:  # defensive; bisect_left guarantees v0 < y < v1
            raise HistoryError("trajectory is not nondecreasing around the target")
        t0, t1 = self.times[i - 1], self.times[i]
        return t0 + (t1 - t0) * (y - v0) / (v1 - v0)

    def prune_before(self, t: float) -> int:
        """Drop samples strictly older than the one bracketing ``t``.

        Keeps interpolation exact for all times >= t.  Queries older than
        the cut raise :class:`HistoryError`.  Returns the number of samples
        dropped.  Intended for bounding memory on very long runs; pruned
        spans disappear from exported traces.
        """
        times = self.times
        if not times or t <= times[0]:
            return 0
        keep_from = bisect_right(times, t) - 1
        if keep_from <= 0:
            return 0
        del self.times[:keep_from]
        del self.values[:keep_from]
        del self.hold_cumulative[:keep_from]
        self.pruned_before = self.times[0]
        self.dropped += keep_from
        return keep_from


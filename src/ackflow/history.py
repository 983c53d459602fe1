"""Signal histories on the engine's uniform time grid.

Every engine signal is sampled once per tick, so a :class:`Trajectory`
holds float64 samples whose sample ``i`` sits at time ``i * dt``: one
signal, or a block of rows on the same grid (a queue's per-flow arrivals).
It is sized once, at its run length.  The engine appends and reads whole
blocks of ticks: ``record`` takes consecutive samples, and the reads take
1-D float64 arrays of times and answer elementwise.  Delayed reads are
index arithmetic with linear interpolation between samples (one formula,
``interpolate``, which the engine's reader shares), a sample-and-hold
running integral gives queue transport masses and the users' flights, and
a binary search over the values inverts monotone (arrival -> departure)
time maps.  The running integral keeps a window of its sums, not a
second full-length copy of the samples.  A read's answer depends only on
the samples, whatever the window held before it, and every read refuses
the future with ``CausalityError``: a time past the newest sample through
``check_recorded``, which the engine's index reads call too, and a value
past a time map's newest sample through the inversion's range check.  A
read of zero times answers zero values.  The samples are also the engine's
output: it carves every history from one store per run, and its traces
are zero-copy views of them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Trajectory", "HistoryError", "CausalityError", "grid_index"]


class HistoryError(ValueError):
    """Bad trajectory usage: ordering, range or monotonicity violated."""


class CausalityError(HistoryError):
    """A query touched data the simulation has not produced yet."""


def first_true(mask: np.ndarray) -> int:
    """Index of the first true entry of a nonempty mask, else its length."""
    i = int(mask.argmax())
    return i if mask[i] else len(mask)


def grid_index(t, step: float) -> np.ndarray:
    """Largest ``i`` with ``i * step <= t``, elementwise: the cell holding
    ``t`` on the grid of floats ``i * step``.  Negative times count down
    from cell ``-1``, which holds ``[-step, 0)``."""
    t = np.asarray(t, dtype=np.float64)
    i = (t / step).astype(np.int64)
    i -= i * step > t
    i += (i + 1) * step <= t  # never after a decrement, which leaves (i+1)*step > t
    return i


def interpolate(v0, v1, t, i, dt: float):
    """The line through ``v0`` at sample ``i``'s time ``i * dt`` and ``v1``
    at the next sample's, at the times ``t``, elementwise: the one formula
    of every read between samples."""
    t0 = i * dt
    return v0 + (v1 - v0) * (t - t0) / ((i + 1) * dt - t0)


class Trajectory:
    """Signal sampled on the grid ``i * dt``, linear between samples.

    A float ``initial_value`` makes one signal; a sequence of them makes a
    block with one row per value, whose rows share the grid, the recorded
    length and the read floor.  ``n_ticks`` sizes the history once, in
    memory that ``empty`` allocates (called with a shape: ``np.empty``, or
    the carver of the engine's one store), and a record past it raises
    :class:`HistoryError`, so views of the samples stay valid for the
    whole run.

    Before ``t = 0`` the signal is its pre-history, the constant
    ``initial_value``, taken to be sampled at ``-dt`` and interpolated to
    the first sample, so delayed reads at simulation start are well
    defined; the hold integral holds it until ``t = 0``.  Reads beyond the
    newest sample, or at a NaN time, raise
    :class:`CausalityError` from ``check_recorded``: the engine must never
    consume values it has not produced yet.  Reads take a 1-D float64
    array of times; a check that fails names the first offending time.
    ``eval_at`` reads one signal: its ``row`` picks a block's row, and the
    default ``...`` takes a one-signal trajectory whole.
    The hold integrals (``integrate_hold`` and its ``_steps`` and
    ``_to_ticks`` forms) answer every row.

    The hold integrals read a running sum from 0 that is kept in a window,
    not for the whole history: the window holds exactly the entries summed
    into it.  The engine's integrals only move forward, so a read past the
    window's end builds the next window from the part still in reach, no
    wider than twice the read's span or 1024 entries.  A read below the
    window restarts it at 0 and sums forward again; a read from ``t = 0``
    after a run does so, and gets the same bits.

    Concurrency: single writer appends; readers of strictly past data are
    safe.
    """

    __slots__ = ("dt", "_buf", "_n", "_cum", "_c0", "initial_value", "pruned_before")

    def __init__(self, dt: float, initial_value=0.0, *, n_ticks: int, empty=np.empty):
        self.dt = dt
        self.initial_value = np.asarray(initial_value, dtype=np.float64)
        self._buf = empty(self.initial_value.shape + (n_ticks,))
        self._n = 0
        # _cum[..., i - _c0] = integral from 0 to i * dt, each value held
        # to the next sample: a window of exactly the entries summed, from
        # entry 0 alone until an integral reads past it
        self._cum = np.zeros(self.initial_value.shape + (1,))
        self._c0 = 0
        # prune_before() raises this floor; reads older than it fail
        self.pruned_before = -math.inf

    def __len__(self) -> int:
        return self._n

    @property
    def values(self) -> np.ndarray:
        """The recorded samples (rows x samples for a block), as a view."""
        return self._buf[..., :self._n]

    def record(self, t: float, v) -> None:
        """Append one sample or an array of consecutive ones (a row each).

        ``t`` is the grid time of the first, which must be the next one,
        ``len(self) * dt``.
        """
        n = self._n
        if t != n * self.dt:
            raise HistoryError(f"record at t={float(t)!r} is not sample {n} at "
                               f"{n * self.dt!r} (engine ordering bug)")
        v = np.asarray(v, dtype=np.float64)
        end = n + (v.shape[-1] if v.ndim else 1)
        size = self._buf.shape[-1]
        if end > size:
            raise HistoryError(f"record of sample {size} at t={size * self.dt!r} "
                               f"is past the sized length of {size} samples")
        self._buf[..., n:end] = v
        self._n = end

    def _check_not_pruned(self, t: np.ndarray) -> None:
        if self.pruned_before == -math.inf:
            return
        below = t < self.pruned_before
        if below.any():
            raise HistoryError(
                f"read at t={float(t[below.argmax()])!r} precedes pruned history "
                f"(< {self.pruned_before!r})")

    def eval_at(self, t: np.ndarray, row=...) -> np.ndarray:
        """Value at each time ``t``; exact on samples, interpolated between
        them, the pre-history as sample ``-1``."""
        values, p0 = self._buf[row, :self._n], float(self.initial_value[row])
        dt = self.dt
        last = self._n - 1
        self.check_recorded(t)
        self._check_not_pruned(t)
        neg = t < 0.0
        # with no sample yet, every read is at least dt early
        first = values[0] if self._n else p0
        out = np.where(t <= -dt, p0, interpolate(p0, first, t, -1, dt))
        if not neg.all():
            i = grid_index(np.where(neg, 0.0, t), dt)
            v0, v1 = values[i], values[np.minimum(i + 1, last)]
            out = np.where(neg, out, np.where((t == i * dt) | (i == last), v0,
                                              interpolate(v0, v1, t, i, dt)))
        return out

    def _cumulative(self, lo: int, top: int) -> int:
        """Sum the hold cumulative's window through entry ``top - 1``,
        sample ``top - 1``'s, with entries ``lo`` on still in it, and return
        the index of its first entry.

        A read past the window's end builds the next window from ``lo``, or
        from the last summed entry if that is lower, copies the live tail
        into it and sums the new cells in place from that last entry:
        ``np.add.accumulate`` adds in sequence, so each entry is exactly the
        one-at-a-time running sum from 0, however the entries are split
        between calls and windows.  A window spans at most
        ``max(2 * (top - lo), 1024)`` entries, so a read far past its end
        slides it forward in steps.  An ``lo`` below it restarts it at
        entry 0.
        """
        if lo < self._c0:
            self._cum, self._c0 = np.zeros(self.initial_value.shape + (1,)), 0
        while top > self._c0 + self._cum.shape[-1]:
            c0, cum = self._c0, self._cum
            last = c0 + cum.shape[-1] - 1
            keep = min(lo, last)
            end = min(top, keep + max(2 * (top - lo), 1024))
            self._cum = np.empty(cum.shape[:-1] + (end - keep,))
            self._cum[..., :last + 1 - keep] = cum[..., keep - c0:]
            self._c0 = keep
            cells = self._cum[..., last - keep:]
            # each cell as wide as its grid times
            grid = np.arange(last, end) * self.dt
            np.subtract(grid[1:], grid[:-1], out=cells[..., 1:])
            cells[..., 1:] *= self._buf[..., last:end - 1]
            np.add.accumulate(cells, axis=-1, out=cells)
        return self._c0

    def integrate_hold(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Integral over each span ``[t0, t1]``, reading each sample as held
        until the next one.

        Matches explicit left-point state stepping, so queue transport
        accounting based on it is exact.  The pre-history counts as the
        constant ``initial_value``.
        """
        self._check_spans(t0, t1)
        held = self._held(np.concatenate((t0, t1)))
        return held[..., len(t0):] - held[..., :len(t0)]

    def integrate_hold_steps(self, t: np.ndarray) -> np.ndarray:
        """``integrate_hold(t[:-1], t[1:])`` to the bit, over two or more
        times ``t``, with the same checks; the held integral is read once
        at each time, not twice at each inner one."""
        self._check_spans(t[:-1], t[1:])
        held = self._held(t)
        return held[..., 1:] - held[..., :-1]

    def integrate_hold_to_ticks(self, t0: np.ndarray, k0: int) -> np.ndarray:
        """``integrate_hold(t0, np.arange(k0, k1) * dt)`` on finite samples
        to the bit, with the same checks, for ``k1 = k0 + len(t0)``: each
        span ends at its tick, where the held integral is the cumulative's
        own entry, so it is read at the starts alone."""
        k1 = k0 + len(t0)
        self._check_spans(t0, np.arange(k0, k1) * self.dt)
        held = self._held(t0, k0, k1)
        return self._cum[..., k0 - self._c0:k1 - self._c0] - held

    def check_recorded(self, t: np.ndarray) -> None:
        """Refuse an array of read times unless each is at or before the
        newest sample's: a later time, or a NaN, raises
        :class:`CausalityError` naming the first."""
        last = (self._n - 1) * self.dt
        recorded = t <= last
        if not recorded.all():
            raise CausalityError(f"future read at t={float(t[recorded.argmin()])!r} "
                                 f"(history ends at {last!r})")

    def _check_spans(self, t0: np.ndarray, t1: np.ndarray) -> None:
        """Refuse reversed bounds, a start below the prune floor and an end
        past the history, for every span ``[t0, t1]``, empty or not.  A
        NaN bound has no order: the first span out of order names it as
        ``check_recorded`` does."""
        ordered = t0 <= t1
        if not ordered.all():
            j = ordered.argmin()
            bounds = np.array([t0[j], t1[j]])
            if np.isnan(bounds).any():
                self.check_recorded(bounds)
            raise HistoryError(
                f"reversed integration bounds [{float(t0[j])!r}, {float(t1[j])!r}]")
        self._check_not_pruned(t0)
        self.check_recorded(t1)

    def _held(self, t: np.ndarray, lo=math.inf, top=0) -> np.ndarray:
        """The held integral from 0 to each time, unchecked; the window
        also keeps the entries from ``lo`` to ``top - 1``."""
        # no sample: every time lies in the pre-history; no time: no value
        if not (self._n and t.size):
            return np.multiply.outer(self.initial_value, t)
        early = t.min() < 0.0
        # a time before 0 reads sample 0 here, and the pre-history below
        tc = np.maximum(t, 0.0) if early else t
        i = grid_index(tc, self.dt)
        c0 = self._cumulative(min(int(i.min()), lo), max(int(i.max()) + 1, top))
        # cum + buf * (tc - i * dt), summed in place: a float sum commutes
        held = self._buf.take(i, axis=-1)
        held *= tc - i * self.dt
        held += self._cum.take(i - c0, axis=-1)
        if early:
            held = np.where(t < 0.0, np.multiply.outer(self.initial_value, t), held)
        return held

    def invert_monotone(self, y: np.ndarray) -> np.ndarray:
        """Earliest time where a nondecreasing trajectory reaches ``y``.

        Where the map is flat, the left edge of the flat interval is
        returned (FIFO earliest-arrival tie-break).  Each ``y`` must lie
        inside the recorded value range, from the first sample's value to
        the newest one's: a ``y`` below it raises :class:`HistoryError`,
        since the pre-history holds no map to invert, and one above it or
        a NaN :class:`CausalityError`.  Zero queries answer zero values, on
        a history with no samples too.

        The search assumes the samples nondecreasing in floats.  A queue's
        map can step down by an ulp while a backlog drains with no
        arrivals; there the crossing found can depend on how many samples
        are recorded when the read happens.
        """
        if not y.size:
            return np.empty(0)
        if not self._n:
            raise HistoryError("cannot invert an empty trajectory")
        values = self.values
        lo, hi = values[0], values[-1]
        if not (lo <= y.min() and y.max() <= hi):  # NaN too
            first = float(y[(~((lo <= y) & (y <= hi))).argmax()])
            # past the newest sample, or a NaN, is a future read
            error = HistoryError if first < lo else CausalityError
            raise error(f"inverse of {first!r} not determined: recorded "
                        f"range [{float(lo)!r}, {float(hi)!r}]")
        # values[i - 1] < y <= values[i]; i == 0 only where y is lo, and
        # there values[i - 1] wraps to an entry the result does not use
        i = np.searchsorted(values, y)
        below = i - 1
        v0, v1 = values.take(below), values.take(i)
        ti = i * self.dt
        t0 = below * self.dt
        # ti where y is v1, else t0 + (ti - t0) * (y - v0) / (v1 - v0), in place
        with np.errstate(divide="ignore", invalid="ignore"):
            x = ti - t0
            x *= y - v0
            x /= v1 - v0
            x += t0
        np.copyto(x, ti, where=v1 == y)
        self._check_not_pruned(x)
        return x

    def prune_before(self, t: float) -> None:
        """Raise the read floor to the sample bracketing ``t``.

        Reads at or after that sample stay exact; older ones raise
        :class:`HistoryError`.  Every sample is kept: the samples are the
        run's traces, so pruning guards reads and frees no memory.
        """
        n = self._n
        if n and t > 0.0:
            floor = min(int(grid_index(t, self.dt)), n - 1) * self.dt
            self.pruned_before = max(self.pruned_before, floor)

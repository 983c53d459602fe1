"""Integrator FIFO queue with mode-switched service and per-flow outputs.

The queue integrates total input minus service rate while congested, and
passes traffic straight through otherwise.  It records the arrival rates at
its input node and the departure rates at its output node (``arrivals``
and ``departures``, row ``i`` for flow ``flow_ids[i]``), plus the
arrival->departure time map whose inverse answers all backward-time
queries.  Per-flow departures are the arrivals scaled and time-warped
through that inverse, which is what makes the queue order-preserving at
the flow level: the mass departing over any interval is exactly the mass
that arrived over the backward image of that interval.

The queue advances a block of ticks per call sequence: ``record_inputs``,
``step``, ``transport_outputs``, ``record_outputs``.  Each call is passed
the block data it needs (the input rates, their total, the congested
flags), so between blocks the queue holds only its backlog and its
histories.  The backlog and mode recurrence runs as regime spans,
congested ones as one running sum of ``(a - c) * dt``, cut at each mode
switch; the transport is array arithmetic over the block and its flows,
on one hold integral.
"""

from __future__ import annotations

import numpy as np

from .history import Trajectory, first_true

__all__ = ["FifoQueue"]

# backlog below this many packets counts as empty (avoids float mode flicker)
EPS_BACKLOG_PKTS = 1e-9
# least first window of a congested span's scan after the block's first one,
# which doubles until the span breaks: a backlog that empties every few ticks
# costs about its block's length, not its square
SPAN_WINDOW_TICKS = 16


class FifoQueue:
    """State and histories of one FIFO buffer.

    Parameters
    ----------
    queue_id : str
    capacity_pps : float
        Service rate in packets per second, positive and finite, as the
        ``Network`` the engine builds each queue from requires.
    flow_ids : sequence of str
        Flows entering this queue, in a fixed order.
    dt_s : float
        Engine grid step; every history holds one sample per step.
    backlog0_pkts : float
        Initial queue size, nonnegative: the engine's is an equilibrium
        ``capacity * tau``.
    input_rates0 : per-flow rates assumed for all times before the start
        (pre-history); also taken as the composition of any initial backlog.
        Before the start the queue holds its initial backlog, so the
        arrival->departure map there is the line t + backlog0 / capacity,
        from which ``backward_time`` answers reads at simulation start.
    n_ticks : int
        Ticks of the run: every history is sized once to hold them.
    empty : callable
        Allocates the histories' samples, called with a shape: ``np.empty``,
        or the carver of the engine's one store.

    ``forward_map`` holds the arrival->departure map from ``t = 0`` on:
    sample ``i`` is the departure time of what arrives at ``i * dt``.  Its
    ``initial_value`` is ``tau0``, the offset of the pre-start line ``t +
    tau0``, which ``backward_time`` reads.  So ``forward_map.eval_at``
    before 0 answers the constant ``tau0``, not ``t + tau0``: a read of
    the map by value there must add the line itself.
    """

    __slots__ = (
        "queue_id", "capacity", "flow_ids", "backlog", "arrivals", "departures",
        "forward_map", "stall_fallbacks",
    )

    def __init__(
        self,
        queue_id: str,
        capacity_pps: float,
        flow_ids,
        *,
        dt_s: float,
        backlog0_pkts: float = 0.0,
        input_rates0: dict[str, float] | None = None,
        n_ticks: int,
        empty=np.empty,
    ):
        self.queue_id = queue_id
        self.capacity = float(capacity_pps)
        self.flow_ids = tuple(flow_ids)
        self.backlog = float(backlog0_pkts)
        rates0 = np.array([(input_rates0 or {}).get(f, 0.0) for f in self.flow_ids],
                          dtype=np.float64)
        self.arrivals = Trajectory(dt_s, rates0, n_ticks=n_ticks, empty=empty)
        self.departures = Trajectory(dt_s, rates0, n_ticks=n_ticks, empty=empty)
        # backward_time answers the pre-start line from the map's
        # initial_value, tau0, which is also its first sample
        tau0 = self.backlog / self.capacity
        self.forward_map = Trajectory(dt_s, tau0, n_ticks=n_ticks + 1, empty=empty)
        self.forward_map.record(0.0, tau0)
        self.stall_fallbacks = 0

    @property
    def inputs(self) -> dict[str, np.ndarray]:
        """Each flow's recorded arrival rates, a row view of ``arrivals``."""
        return dict(zip(self.flow_ids, self.arrivals.values))

    @property
    def outputs(self) -> dict[str, np.ndarray]:
        """Each flow's recorded departure rates, a row view of ``departures``."""
        return dict(zip(self.flow_ids, self.departures.values))

    def record_inputs(self, ticks: np.ndarray, rates) -> np.ndarray:
        """Record one block of per-flow arrival rates.

        ``ticks`` are the grid times of the block's ticks, and row ``i`` of
        ``rates`` holds flow ``flow_ids[i]``'s rate at each.  Returns the
        total arrival rate per tick, which ``step`` takes.
        """
        rates = np.ascontiguousarray(rates, dtype=np.float64)
        if not (rates >= 0).all():  # negative or NaN
            j, f = np.argwhere(~(rates >= 0).T)[0]
            rate = float(rates[f, j])
            raise ValueError(f"queue '{self.queue_id}': {'negative ' if rate < 0 else ''}"
                             f"input flow {rate!r} at t={float(ticks[j])!r}")
        self.arrivals.record(ticks[0], rates)
        return _sum_rows(rates)

    def backward_time(self, t: np.ndarray) -> np.ndarray:
        """Arrival time of the traffic departing at each time ``t``.

        Before ``tau0 = backlog0 / capacity`` the initial backlog departs,
        which arrived on the pre-start line ``t - tau0``.  The later times
        invert the recorded arrival->departure map, in one
        ``invert_monotone`` call.  They are picked by a mask, never clamped
        to ``tau0``: a drained queue's map may sit an ulp below its first
        value.
        """
        tau0 = self.forward_map.initial_value
        if t.min(initial=np.inf) >= tau0:
            return self.forward_map.invert_monotone(t)
        # a NaN is late: the inversion refuses it by name
        late = ~(t < tau0)
        x = t - tau0
        x[late] = self.forward_map.invert_monotone(t[late])
        return x

    def step(self, dt: float, end_times_s: np.ndarray, total_pps: np.ndarray):
        """Advance the backlog over the recorded block.

        ``end_times_s`` are the exact grid times at which its steps end
        (accumulating ``dt`` would drift against later queries), and
        ``total_pps`` is the block's total arrival rate from
        ``record_inputs``.  Locates each emptying instant inside its step
        so the backlog never crosses zero, and extends the
        arrival->departure map at the step ends.
        Returns, per tick, the backlog at the step start, the average
        service rate over the step (the instantaneous rate except on a mode
        switch) and whether the queue was congested.

        The block runs as regime spans.  A congested span integrates
        ``(a - c) * dt`` with ``np.add.accumulate`` from its start backlog
        and ends at the first tick whose start value no longer congests the
        queue, or whose end value is negative: that tick empties the queue
        at the instant ``theta`` inside it.  The block's first congested
        span is summed to the block's end in one call; a later one in
        windows from twice the last one's length (at least
        ``SPAN_WINDOW_TICKS``), doubling, each resumed from the last one's
        end, until one shows the break.  An uncongested span
        holds the backlog and serves the arrivals until the first tick whose
        arrival rate exceeds the capacity.  ``np.add.accumulate`` adds in
        sequence, so the backlog is the tick-by-tick sum whatever the spans
        and windows.
        """
        c = self.capacity
        a = total_pps
        n = len(a)
        over = a > c
        # the backlog at each step's start, then at the last step's end; a
        # congested span sums its steps in place from its start backlog
        backlog = np.empty(n + 1)
        services = np.empty(n)
        congested = np.zeros(n, dtype=bool)
        b = self.backlog
        s = 0
        width = n  # the first congested span's scan reaches the block's end
        while s < n:
            backlog[s] = b
            if b > EPS_BACKLOG_PKTS or over[s]:
                # each window resumes the sum from the last one's end entry
                w0 = s
                while True:
                    w1 = min(n, w0 + width)
                    cum = backlog[w0:w1 + 1]
                    np.subtract(a[w0:w1], c, out=cum[1:])
                    cum[1:] *= dt
                    np.add.accumulate(cum, out=cum)
                    stays = (cum[:-1] > EPS_BACKLOG_PKTS) | over[w0:w1]
                    r = first_true(~(stays & (cum[1:] >= 0.0)))
                    if r < w1 - w0 or w1 == n:
                        break
                    w0, width = w1, 2 * width
                e = w0 + r
                width = max(SPAN_WINDOW_TICKS, 2 * (e - s))
                services[s:e] = c
                congested[s:e] = True
                b = cum[r]
                if e < n and stays[r]:
                    # empties during this step: serve c until theta, then a
                    theta = b / (c - a[e])
                    services[e] = (c * theta + a[e] * (dt - theta)) / dt
                    congested[e] = True
                    b = 0.0
                    e += 1
            else:
                e = s + first_true(over[s:])
                backlog[s:e] = b
                services[s:e] = a[s:e]
            s = e
        backlog[n] = b
        self.backlog = float(b)
        self.forward_map.record(end_times_s[0], end_times_s + backlog[1:] / c)
        return backlog[:n], services, congested

    def transport_outputs(self, times: np.ndarray, total_departed_pkts: np.ndarray,
                          rates: np.ndarray, congested: np.ndarray) -> np.ndarray:
        """Average per-flow departure rates over the block's steps.

        Step ``j`` spans ``[times[j], times[j + 1]]`` and released
        ``total_departed_pkts[j]``.  ``rates`` are the block's per-flow
        arrival rates (flows x ticks, as recorded) and ``congested`` its
        flags (``step``).  While serving a backlog the departures over a
        step are the arrivals over the backward image [g(t0), g(t1)], split
        exactly in proportion to each flow's arrival mass there and
        normalized to the total the server actually released.  Masses use
        the sample-hold quadrature so they agree exactly with the stepping
        that built the time map; per-flow packet counts then survive
        arbitrarily sharp input transients.  A backward image that carries
        no arrivals at all lies before the start, in the initial backlog.
        Under FIFO that backlog leaves in its own mix, the pre-history's
        ``input_rates0``, ahead of any traffic that arrived later.  Each
        such step is counted in ``stall_fallbacks``.  Uncongested, the
        outputs are the inputs.
        """
        outs = rates.copy()
        ticks = np.flatnonzero(congested)
        if not ticks.size:
            return outs
        # the ticks from the first congested one to the last, read as slices;
        # the uncongested ones among them are computed too, then dropped
        busy = slice(ticks[0], ticks[-1] + 1)
        g = self.backward_time(times[busy.start:busy.stop + 1])
        g0, g1 = g[:-1], g[1:]
        t0 = times[busy]
        width = times[1:][busy] - t0
        departed = np.asarray(total_departed_pkts, dtype=np.float64)[busy]
        # arrivals are recorded through t0; within the running step they
        # continue at the current rates (same convention as the state update).
        # The other steps' masses are differences of the held integral at g,
        # whose inner points are both one step's end and the next one's start
        tail = g1 > t0
        if tail[-1]:
            g = np.append(g0, t0[-1])
        masses = self.arrivals.integrate_hold_steps(g)
        if tail.any():
            masses[:, tail] = (self.arrivals.integrate_hold(g0[tail], t0[tail])
                               + rates[:, busy][:, tail] * (g1 - t0)[tail])
        arrived = _sum_rows(masses)
        stalled = ~(arrived > 0.0)
        if stalled.any():
            # no arrival mass to split: the backlog's mix, as masses totalling 1
            masses[:, stalled] = _mix(self.arrivals.initial_value)[:, None]
            arrived[stalled] = 1.0
            self.stall_fallbacks += int(np.count_nonzero(stalled & congested[busy]))
        with np.errstate(over="ignore", invalid="ignore"):
            shares = departed / arrived / width * masses
        # an arrival mass far below the departures over it (subnormal input
        # rates) overflows the quotient; take the masses' fractions first
        if not np.isfinite(shares).all():
            big = ~np.isfinite(shares).all(axis=0)
            shares[:, big] = masses[:, big] / arrived[big] * (departed[big] / width[big])
        np.copyto(outs[:, busy], shares, where=congested[busy])
        return outs

    def record_outputs(self, t: float, rates) -> None:
        """Record one block of per-flow departure rates from grid time ``t``."""
        self.departures.record(t, rates)


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a C-ordered ``a`` added in order from 0.0, as a loop over
    the flows adds them.  ``sum`` adds row after row, except down a single
    column, which is memory's fast axis and which it may sum pairwise."""
    if len(a) and a.shape[1] == 1:
        return np.add.accumulate(a, axis=0)[-1] + 0.0
    return a.sum(axis=0) + 0.0


def _mix(rates: np.ndarray) -> np.ndarray:
    """One tick's per-flow rates over their total, added as ``_sum_rows``
    adds a block's, or an even mix where they total nothing."""
    total = _sum_rows(rates[:, None])[0]
    if total > 0:
        return rates / total
    return np.full(len(rates), 1.0 / max(len(rates), 1))

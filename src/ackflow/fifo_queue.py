"""Integrator FIFO queue with mode-switched service and per-flow outputs.

The queue integrates total input minus service rate while congested, and
passes traffic straight through otherwise.  It records, per input flow, the
arrival-rate history at its input node and the departure-rate history at its
output node, plus the arrival->departure time map whose inverse answers all
backward-time queries.  Per-flow departures are the arrivals scaled and
time-warped through that inverse, which is what makes the queue
order-preserving at the flow level: the mass departing over any interval is
exactly the mass that arrived over the backward image of that interval.

The queue advances a block of ticks per call sequence: ``record_inputs``,
``step``, ``transport_outputs``, ``record_outputs``.  The backlog and mode
recurrence runs as regime spans, congested ones as one ``np.cumsum`` of
``(a - c) * dt``, cut at each mode switch; the transport is array
arithmetic over the block, with one bracket pass shared by all input flows.
"""

from __future__ import annotations

import numpy as np

from .history import Trajectory, first_true, hold_integrals

__all__ = ["FifoQueue"]

# backlog below this many packets counts as empty (avoids float mode flicker)
EPS_BACKLOG_PKTS = 1e-9


class FifoQueue:
    """State and histories of one FIFO buffer.

    Parameters
    ----------
    queue_id : str
    capacity_pps : float
        Service rate in packets per second (> 0).
    flow_ids : sequence of str
        Flows entering this queue, in a fixed order.
    dt_s : float
        Engine grid step; every history holds one sample per step.
    backlog0_pkts : float
        Initial queue size.
    input_rates0 : per-flow rates assumed for all times before the start
        (pre-history); also taken as the composition of any initial backlog.
        Before the start the queue holds its initial backlog, so the
        arrival->departure map there is the line t + backlog0 / capacity,
        which answers backward reads at simulation start.
    n_ticks : int
        Ticks to preallocate in every history.
    """

    __slots__ = (
        "queue_id", "capacity", "flow_ids", "backlog", "inputs", "outputs",
        "forward_map", "stall_fallbacks", "_share_hint", "_hint_before",
        "_rates", "_total", "_congested",
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
        n_ticks: int = 16,
    ):
        if capacity_pps <= 0:
            raise ValueError(f"queue '{queue_id}': capacity must be positive")
        if backlog0_pkts < 0:
            raise ValueError(f"queue '{queue_id}': negative initial backlog")
        self.queue_id = queue_id
        self.capacity = float(capacity_pps)
        self.flow_ids = tuple(flow_ids)
        self.backlog = float(backlog0_pkts)
        rates0 = tuple(float((input_rates0 or {}).get(f, 0.0)) for f in self.flow_ids)
        self.inputs = {f: Trajectory(dt_s, r, capacity=n_ticks)
                       for f, r in zip(self.flow_ids, rates0)}
        self.outputs = {f: Trajectory(dt_s, r, capacity=n_ticks)
                        for f, r in zip(self.flow_ids, rates0)}
        tau0 = self.backlog / self.capacity
        self.forward_map = Trajectory(dt_s, tau0, pre_slope=1.0, capacity=n_ticks + 1)
        self.forward_map.record(0.0, tau0)
        self.stall_fallbacks = 0
        total0 = sum(rates0)
        if total0 > 0:
            self._share_hint = tuple(r / total0 for r in rates0)
        elif self.flow_ids:
            self._share_hint = tuple(1.0 / len(self.flow_ids) for _ in self.flow_ids)
        else:
            self._share_hint = ()
        # the block being stepped: per-flow and total input rates, congested
        # flags, and the mix in force before it (for stalled steps)
        self._rates: list[np.ndarray] = []
        self._total = self._congested = np.zeros(0)
        self._hint_before = self._share_hint

    def record_inputs(self, ticks: np.ndarray, rates) -> np.ndarray:
        """Record one block of per-flow arrival rates.

        ``ticks`` are the grid times of the block's ticks, and ``rates[i]``
        holds flow ``flow_ids[i]``'s rate at each.  Returns the total
        arrival rate per tick.
        """
        rates = [np.asarray(r, dtype=np.float64) for r in rates]
        if rates:
            negative = np.array(rates) < 0
            if negative.any():
                j = negative.any(axis=0).argmax()
                f = negative[:, j].argmax()
                raise ValueError(f"queue '{self.queue_id}': negative input flow "
                                 f"{float(rates[f][j])!r} at t={float(ticks[j])!r}")
        total = np.zeros(len(ticks))
        for traj, r in zip(self.inputs.values(), rates):
            traj.record(ticks[0], r)
            total = total + r
        self._rates, self._total = rates, total
        self._hint_before = self._share_hint
        self._share_hint = self._hint_at(len(total) - 1)
        return total

    def backward_time(self, t):
        """Arrival time of the traffic departing at ``t`` (elementwise)."""
        return self.forward_map.invert_monotone(t)

    def step(self, dt: float, end_times_s: np.ndarray):
        """Advance the backlog over the recorded block.

        ``end_times_s`` are the exact grid times at which its steps end
        (accumulating ``dt`` would drift against later queries).  Locates
        each emptying instant inside its step so the backlog never crosses
        zero, and extends the arrival->departure map at the step ends.
        Returns, per tick, the backlog at the step start, the average
        service rate over the step (the instantaneous rate except on a mode
        switch) and whether the queue was congested.

        The block runs as regime spans.  A congested span integrates
        ``(a - c) * dt`` with one ``np.cumsum`` from its start backlog and
        ends at the first tick whose start value no longer congests the
        queue, or whose end value is negative: that tick empties the queue
        at the instant ``theta`` inside it.  An uncongested span holds the
        backlog and serves the arrivals until the first tick whose arrival
        rate exceeds the capacity.  ``np.cumsum`` adds in sequence, so the
        backlog is the tick-by-tick sum whatever the spans.
        """
        c = self.capacity
        a = self._total
        n = len(a)
        over = a > c
        backlog, services = np.empty(n), np.empty(n)
        congested = np.zeros(n, dtype=bool)
        b = self.backlog
        s = 0
        while s < n:
            if b > EPS_BACKLOG_PKTS or over[s]:
                cum = np.cumsum(np.concatenate(([b], (a[s:] - c) * dt)))
                stays = (cum[:-1] > EPS_BACKLOG_PKTS) | over[s:]
                r = first_true(~(stays & (cum[1:] >= 0.0)))
                e = s + r
                backlog[s:e] = cum[:r]
                services[s:e] = c
                congested[s:e] = True
                b = cum[r]
                if e < n and stays[r]:
                    # empties during this step: serve c until theta, then a
                    backlog[e] = b
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
        self.backlog = float(b)
        ends = np.append(backlog[1:], b)
        self.forward_map.record(end_times_s[0], end_times_s + ends / c)
        self._congested = congested
        return backlog, services, congested

    def transport_outputs(self, times: np.ndarray,
                          total_departed_pkts: np.ndarray) -> list[np.ndarray]:
        """Average per-flow departure rates over the block's steps.

        Step ``j`` spans ``[times[j], times[j + 1]]`` and released
        ``total_departed_pkts[j]``.  While serving a backlog the departures
        over a step are the arrivals over the backward image [g(t0), g(t1)],
        split exactly in proportion to each flow's arrival mass there and
        normalized to the total the server actually released.  Masses use
        the sample-hold quadrature so they agree exactly with the stepping
        that built the time map; per-flow packet counts then survive
        arbitrarily sharp input transients.  If the backward image carries
        no arrivals at all (all sources stalled before a backlog formed),
        the last known mix is reused and the event counted in
        ``stall_fallbacks``.  Uncongested, the outputs are the inputs.
        """
        outs = [r.copy() for r in self._rates]
        busy = np.flatnonzero(self._congested)
        if not busy.size:
            return outs
        g = self.backward_time(times)
        g0, g1 = g[busy], g[busy + 1]
        t0 = times[busy]
        width = times[busy + 1] - t0
        departed = np.asarray(total_departed_pkts, dtype=np.float64)[busy]
        # arrivals are recorded through t0; within the running step they
        # continue at the current rates (same convention as the state update)
        bound = np.where(g1 <= t0, g1, t0)
        tail = g1 > t0
        masses = []
        total = np.zeros(busy.size)
        for m, r in zip(hold_integrals(self.inputs.values(), g0, bound), self._rates):
            m = np.where(tail, m + r[busy] * (g1 - t0), m)
            masses.append(m)
            total = total + m
        fed = total > 0.0
        scale = departed[fed] / total[fed] / width[fed]
        for out, m in zip(outs, masses):
            out[busy[fed]] = scale * m[fed]
        for j in np.flatnonzero(~fed):
            self.stall_fallbacks += 1
            k = busy[j]
            hint = self._hint_at(k)
            for out, s in zip(outs, hint):
                out[k] = departed[j] / width[j] * s
        return outs

    def _hint_at(self, k: int) -> tuple[float, ...]:
        """The arrival mix in force at the block's tick ``k``: the latest
        tick with arrivals, else the mix from before the block."""
        total = self._total
        if k >= 0 and total[k] > 0:
            i = k
        else:
            fed = np.flatnonzero(total[:k + 1] > 0)
            if not fed.size:
                return self._hint_before
            i = fed[-1]
        return tuple(r[i] / total[i] for r in self._rates)

    def record_outputs(self, t: float, rates) -> None:
        """Record one block of per-flow departure rates from grid time ``t``."""
        for traj, r in zip(self.outputs.values(), rates):
            traj.record(t, r)

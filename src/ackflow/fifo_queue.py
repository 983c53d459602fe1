"""Integrator FIFO queue with mode-switched service and per-flow outputs.

The queue integrates total input minus service rate while congested, and
passes traffic straight through otherwise.  It records, per input flow, the
arrival-rate history at its input node and the departure-rate history at its
output node, plus the arrival->departure time map whose inverse answers all
backward-time queries.  Per-flow departures are the arrivals scaled and
time-warped through that inverse, which is what makes the queue
order-preserving at the flow level: the mass departing over any interval is
exactly the mass that arrived over the backward image of that interval.
"""

from __future__ import annotations

from .history import Trajectory

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
    """

    __slots__ = (
        "queue_id", "capacity", "flow_ids", "backlog", "congested",
        "inputs", "outputs", "forward_map", "_last_rates",
        "_last_total", "stall_fallbacks", "_share_hint", "_g_now",
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
    ):
        if capacity_pps <= 0:
            raise ValueError(f"queue '{queue_id}': capacity must be positive")
        if backlog0_pkts < 0:
            raise ValueError(f"queue '{queue_id}': negative initial backlog")
        self.queue_id = queue_id
        self.capacity = float(capacity_pps)
        self.flow_ids = tuple(flow_ids)
        self.backlog = float(backlog0_pkts)
        rates0 = input_rates0 or {}
        self.inputs = {f: Trajectory(dt_s, rates0.get(f, 0.0)) for f in self.flow_ids}
        self.outputs = {f: Trajectory(dt_s, rates0.get(f, 0.0)) for f in self.flow_ids}
        tau0 = self.backlog / self.capacity
        self.forward_map = Trajectory(dt_s, tau0, pre_slope=1.0)
        self.forward_map.record(0.0, tau0)
        self._g_now = None  # (time, backward time) of the latest step end
        self._last_rates: tuple[float, ...] = tuple(
            rates0.get(f, 0.0) for f in self.flow_ids)
        self._last_total = sum(self._last_rates)
        self.congested = self.backlog > EPS_BACKLOG_PKTS or self._last_total > self.capacity
        self.stall_fallbacks = 0
        total0 = self._last_total
        if total0 > 0:
            self._share_hint = tuple(r / total0 for r in self._last_rates)
        elif self.flow_ids:
            self._share_hint = tuple(1.0 / len(self.flow_ids) for _ in self.flow_ids)
        else:
            self._share_hint = ()

    @property
    def last_total_arrival(self) -> float:
        return self._last_total

    def record_inputs(self, t: float, rates) -> None:
        """Record this tick's per-flow arrival rates (same order as flow_ids)."""
        total = 0.0
        for traj, r in zip(self.inputs.values(), rates):
            if r < 0:
                raise ValueError(
                    f"queue '{self.queue_id}': negative input flow {r!r} at t={t!r}")
            traj.record(t, r)
            total += r
        self._last_rates = tuple(rates)
        self._last_total = total
        self.congested = self.backlog > EPS_BACKLOG_PKTS or total > self.capacity
        if total > 0:
            self._share_hint = tuple(r / total for r in rates)

    def record_outputs(self, t: float, rates) -> None:
        for traj, r in zip(self.outputs.values(), rates):
            traj.record(t, r)

    def backward_time(self, t: float) -> float:
        """Arrival time of the traffic departing at ``t``."""
        return self.forward_map.invert_monotone(t)

    def step(self, dt: float, end_time_s: float) -> float:
        """Advance the backlog using this tick's recorded inputs.

        Locates the emptying instant inside the step so the backlog never
        crosses zero, then extends the arrival->departure map at the new
        time.  ``end_time_s`` is the caller's exact grid time for the step
        end (accumulating ``dt`` would drift against later queries).
        Returns the average service rate over the step (the instantaneous
        rate except on a mode switch).
        """
        a = self._last_total
        c = self.capacity
        if self.congested:
            nb = self.backlog + (a - c) * dt
            if nb >= 0.0:
                self.backlog = nb
                service = c
            else:
                theta = self.backlog / (c - a)
                self.backlog = 0.0
                service = (c * theta + a * (dt - theta)) / dt
        else:
            service = a
        self.forward_map.record(end_time_s, end_time_s + self.backlog / c)
        return service

    def transport_outputs(self, t0: float, t1: float,
                          total_departed_pkts: float) -> tuple[float, ...]:
        """Average per-flow departure rates over the step [t0, t1].

        While serving a backlog the departures over the step are the
        arrivals over the backward image [g(t0), g(t1)], split exactly in
        proportion to each flow's arrival mass there and normalized to the
        total the server actually released.  Masses use the sample-hold
        quadrature so they agree exactly with the stepping that built the
        time map; per-flow packet counts then survive arbitrarily sharp
        input transients.  If the backward image carries no arrivals at all
        (all sources stalled before a backlog formed), the last known mix
        is reused and the event counted in ``stall_fallbacks``.
        """
        dt = t1 - t0
        if not self.congested:
            return self._last_rates
        cache = self._g_now
        g0 = cache[1] if cache is not None and cache[0] == t0 else self.backward_time(t0)
        g1 = self.backward_time(t1)
        self._g_now = (t1, g1)
        # arrivals are recorded through t0; within the running step they
        # continue at the current rates (same convention as the state update)
        bound = g1 if g1 <= t0 else t0
        masses = [traj.integrate_hold(g0, bound) for traj in self.inputs.values()]
        if g1 > t0:
            tail = g1 - t0
            masses = [m + r * tail for m, r in zip(masses, self._last_rates)]
        total = sum(masses)
        if total <= 0.0:
            self.stall_fallbacks += 1
            return tuple(total_departed_pkts / dt * s for s in self._share_hint)
        scale = total_departed_pkts / total / dt
        return tuple(scale * m for m in masses)

"""Window controllers: scheduled steps and the FAST-TCP continuous model.

Each controller is its scenario description: ``ScheduledProtocol`` and
``FastProtocol`` are the ``protocol`` of a ``UserConf``, check themselves on
construction and answer the engine and the packet oracle directly.
Controllers only decide how the congestion window moves; turning the window
into a sending flow is the user block's job.  Scheduled controllers report
instantaneous window changes as impulses so the user block can emit the
burst (increase) or absorb the deficit (decrease) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ScheduledProtocol", "FastProtocol", "fast_wdot", "ProtocolError"]


class ProtocolError(ValueError):
    """Invalid controller configuration."""


@dataclass(frozen=True)
class ScheduledProtocol:
    """Piecewise-constant window: an initial value plus timed step changes."""

    initial_window_pkts: float
    steps: tuple[tuple[float, float], ...] = ()  # (time_s, window_pkts)
    kind: str = "scheduled"

    def __post_init__(self):
        if self.initial_window_pkts < 0:
            raise ProtocolError("window values must be nonnegative")
        prev = None
        for t, w in self.steps:
            # a run starts at t=0, so an earlier step would reach no tick
            if (t < 0) if prev is None else (t <= prev):
                raise ProtocolError(
                    "schedule step times must be nonnegative and strictly increasing")
            if w < 0:
                raise ProtocolError("window values must be nonnegative")
            prev = t

    def window_at(self, t: float) -> float:
        """Window value at ``t`` (right-continuous at step instants)."""
        w = self.initial_window_pkts
        for ts, ws in self.steps:
            if t >= ts:
                w = ws
            else:
                break
        return w

    def impulses_by_tick(self, dt: float) -> dict[int, float]:
        """Net window jump per grid tick; steps snap to the nearest tick.

        Snapping keeps step application robust against float jitter in
        ``k * dt`` grids; schedules are expected to lie on the grid anyway.
        """
        jumps: dict[int, float] = {}
        w_prev = self.initial_window_pkts
        for ts, ws in self.steps:
            k = int(ts / dt + 0.5)
            jumps[k] = jumps.get(k, 0.0) + (ws - w_prev)
            w_prev = ws
        return {k: j for k, j in jumps.items() if j != 0.0}


@dataclass(frozen=True)
class FastProtocol:
    """FAST-TCP: update gain, per-user target of queued packets, and the
    window it starts from."""

    gamma: float
    alpha_pkts: float
    initial_window_pkts: float
    kind: str = "fast"

    def __post_init__(self):
        if self.gamma <= 0 or self.alpha_pkts <= 0:
            raise ProtocolError("FAST parameters gamma and alpha must be positive")


def fast_wdot(window_pkts: float, backward_queueing_delay_s: float,
              total_prop_delay_s: float, proto: FastProtocol) -> float:
    """FAST-TCP window rate of change.

    The measurement is the queueing delay experienced by the traffic whose
    acknowledgements are arriving now (the backward queueing delay).  The
    rate is affine in the window: positive below the equilibrium window
    alpha*(T+tau)/tau, negative above it.
    """
    if total_prop_delay_s <= 0:
        raise ProtocolError("total propagation delay must be positive for FAST")
    tau = backward_queueing_delay_s
    return proto.gamma * (
        -tau / (total_prop_delay_s + tau) * window_pkts + proto.alpha_pkts)

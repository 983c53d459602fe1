"""Window controllers: scheduled steps and the FAST-TCP continuous model.

Each controller is its scenario description: ``ScheduledProtocol`` and
``FastProtocol`` are the ``protocol`` of a ``UserConf``, check themselves on
construction and answer the engine and the packet oracle directly.
Controllers only decide how the congestion window moves, each in its
``window_path``, given in ticks.  Turning the window into a sending flow
is the user block's job (``UserState.step``), and snapping the window
jumps (a scheduled step, or a cold start's opening window) to the tick
grid is the engine's.  A jump lands at the start of a path's first tick,
so the user block can emit the burst (increase) or absorb the deficit
(decrease) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ScheduledProtocol", "FastProtocol", "fast_wdot", "ProtocolError"]


class ProtocolError(ValueError):
    """Invalid controller configuration.

    ``field`` is the controller's attribute at fault (``gamma``,
    ``steps``, ...), or None when no single one is.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def _check_window(w: float, field: str) -> None:
    if not 0 <= w < math.inf:  # NaN fails too
        raise ProtocolError("window values must be finite and nonnegative", field)


@dataclass(frozen=True)
class ScheduledProtocol:
    """Piecewise-constant window: an initial value plus timed step changes."""

    initial_window_pkts: float
    steps: tuple[tuple[float, float], ...] = ()  # (time_s, window_pkts)
    kind: str = field(default="scheduled", init=False)

    def __post_init__(self):
        _check_window(self.initial_window_pkts, "initial_window_pkts")
        prev = None
        for t, w in self.steps:
            # a run starts at t=0, so an earlier step would reach no tick
            if not ((t >= 0) if prev is None else (t > prev)) or t == math.inf:
                raise ProtocolError("schedule step times must be finite, nonnegative "
                                    "and strictly increasing", "steps")
            _check_window(w, "steps")
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

    def window_path(self, w: float, n: int, jump: float = 0.0):
        """The window at each of ``n`` tick starts from ``w``, and at their
        end: flat after ``jump``, which lands after the first sample, each
        step adding ``0.0``."""
        end = (w + jump) + 0.0 if n else w
        windows = np.full(n, end)
        windows[:1] = w
        return windows, end


@dataclass(frozen=True)
class FastProtocol:
    """FAST-TCP: update gain, per-user target of queued packets, and the
    window it starts from."""

    gamma: float
    alpha_pkts: float
    initial_window_pkts: float
    kind: str = field(default="fast", init=False)

    def __post_init__(self):
        for name in ("gamma", "alpha_pkts"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ProtocolError(f"FAST {name} must be positive and finite", name)
        _check_window(self.initial_window_pkts, "initial_window_pkts")

    def window_path(self, w: float, tau: np.ndarray, total_delay_s: float, dt: float,
                    jump: float = 0.0):
        """The window at each tick start from ``w``, and at their end, given
        one backward queueing delay per tick in ``tau``: each tick adds
        ``gamma * (gain * w + alpha) * dt`` at its start window ``w``, with
        ``fast_wdot``'s gain ``-tau / (T + tau)``, and the first also takes
        ``jump``, at the rate of the window before it.  A plain loop: the
        window multiplies its own previous value, which no cumulative sum
        rounds alike."""
        gamma, alpha = self.gamma, self.alpha_pkts
        gains = (-tau / (total_delay_s + tau)).tolist()
        windows = []
        if gains:
            windows.append(w)
            w = w + jump + gamma * (gains[0] * w + alpha) * dt
        for gain in gains[1:]:
            windows.append(w)
            w += gamma * (gain * w + alpha) * dt
        return np.array(windows, dtype=np.float64), w


def fast_wdot(window_pkts: np.ndarray | float,
              backward_queueing_delay_s: np.ndarray | float,
              total_prop_delay_s: float, proto: FastProtocol) -> np.ndarray | float:
    """FAST-TCP window rate of change, elementwise over the window and the
    delay: the engine passes one user block's windows and backward queueing
    delays, one entry per tick, in a single call.

    The measurement is the queueing delay experienced by the traffic whose
    acknowledgements are arriving now (the backward queueing delay).  The
    rate is affine in the window: positive below the equilibrium window
    alpha*(T+tau)/tau, negative above it.  The total propagation delay
    ``T`` is positive, as ``Network.add_user`` requires of every user.
    """
    tau = backward_queueing_delay_s
    return proto.gamma * (
        -tau / (total_prop_delay_s + tau) * window_pkts + proto.alpha_pkts)

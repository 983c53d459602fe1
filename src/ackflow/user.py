"""Window source: turns a congestion window into a sending flow.

While active, the source sends at the window's rate of change plus the
arriving acknowledgement rate (send-on-ACK).  When the window drops below
the flight size, the deficit lands in a nonpositive ACK buffer: arriving
acknowledgements are absorbed, sending stays at exactly zero, and traffic
resumes the instant the buffer refills to zero (located inside the step).
"""

from __future__ import annotations

import numpy as np

from .history import Trajectory, first_true
from .scenario import UserConf

__all__ = ["UserState", "circuit_backward_time"]

EPS_ACK_BUFFER_PKTS = 1e-9


class UserState:
    """Evolving state of one window-controlled source."""

    __slots__ = ("window", "ack_buffer", "sending", "acks")

    def __init__(self, window0_pkts: float, *, dt_s: float, sending0_pps: float = 0.0,
                 n_ticks: int):
        self.window = float(window0_pkts)
        self.ack_buffer = 0.0          # nonpositive; packets to absorb
        self.sending = Trajectory(dt_s, sending0_pps, n_ticks=n_ticks)
        self.acks = Trajectory(dt_s, sending0_pps, n_ticks=n_ticks)

    def step(self, acks, dt: float, *, jumps=None, fast=None):
        """Advance window and ACK buffer over one block of steps of ``dt``.

        ``acks`` holds the arriving ACK rate per tick.  ``jumps`` maps a
        tick's offset in the block to an instantaneous window change, applied
        at the tick start (a positive one opens a burst spread over that
        step).  With ``fast = (gains, gamma, alpha, wdot)`` tick ``j``'s
        window rate is ``gamma * (gains[j] * w + alpha)`` at its start
        window ``w``, and ``wdot(windows)`` gives the block's rates in one
        call; without it the window only jumps.  The buffer-refill instant
        is located inside its step so packet counts stay exact.

        The block is cut at its jump ticks and, between cuts, into regime
        spans: an active span sends the whole inflow (window rate plus ACK
        rate) until the first tick whose inflow is negative, which starts
        retaining; a retaining span fills the buffer by ``inflow * dt`` per
        tick, one ``np.cumsum``, until the first tick that ends at or above
        ``-EPS_ACK_BUFFER_PKTS``, where a refill resumes sending for the
        rest of that step.  ``np.cumsum`` adds in sequence and every branch
        is decided on the value a tick-by-tick loop would see, so the
        result does not depend on how the ticks are grouped.  The FAST
        window ODE is a plain loop with no call per tick: the window
        multiplies its own previous value, so no cumulative sum reproduces
        its rounding.

        Returns arrays over the block: the average sending rate over each
        step (what a rate sample at the step start should carry), the
        window before any jump and the ACK buffer after it at each tick
        start, and 1.0 where the source ended the step sending.  Whether the
        source sends follows from the buffer, so the window and the buffer
        are its whole state.
        """
        acks = np.asarray(acks, dtype=np.float64)
        n = len(acks)
        jumps = jumps or {}
        cuts = sorted(j for j in jumps if 0 <= j < n)
        windows, rates, self.window = _window_path(self.window, n, dt, cuts, jumps,
                                                   fast)
        inflow = (rates + 0.0) + acks
        sends, actives, bufs = np.zeros(n), np.zeros(n), np.empty(n)
        buf = self.ack_buffer
        for a, end in zip([0, *cuts], [*cuts, n]):
            if a in jumps and a < end:
                buf, burst = _absorb_jump(buf, jumps[a])
                inflow[a] = (rates[a] + burst / dt) + acks[a]
            while a < end:
                if buf >= -EPS_ACK_BUFFER_PKTS:
                    # active: send the inflow up to the first tick it is negative
                    bufs[a] = buf
                    stop = a + first_true(~(inflow[a:end] >= 0.0))
                    sends[a:stop] = inflow[a:stop]
                    actives[a:stop] = 1.0
                    bufs[a + 1:stop + 1] = 0.0
                    buf = 0.0 if stop == end else inflow[stop] * dt
                    a = stop + 1
                else:
                    # retaining: the buffer fills until a tick ends near zero
                    cum = np.cumsum(np.concatenate(([buf], inflow[a:end] * dt)))
                    r = first_true(cum[1:] >= -EPS_ACK_BUFFER_PKTS)
                    stop = a + r
                    bufs[a:stop] = cum[:r]
                    if stop == end:
                        buf = cum[-1]
                    else:
                        bufs[stop] = cum[r]
                        nb, rate = cum[r + 1], inflow[stop]
                        if nb >= 0.0 and rate > 0.0:
                            # refills during this step: resume for the rest of it
                            theta = -cum[r] / rate
                            sends[stop] = rate * (dt - theta) / dt
                            actives[stop] = 1.0
                            buf = 0.0
                        else:
                            buf = min(nb, 0.0)
                    a = stop + 1
        self.ack_buffer = float(buf)
        return sends, windows, bufs, actives


def _window_path(w: float, n: int, dt: float, cuts: list, jumps: dict, fast):
    """Window at each tick start of a block from ``w``, its rate of change,
    and the window at the block end."""
    if fast is None:
        # flat between jumps: each step adds 0.0 * dt
        windows = np.full(n, w)
        start = 0
        for j in (*cuts, n):
            windows[start + 1:j + 1] = w + 0.0
            if j < n:
                w, start = windows[j] + jumps[j], j
        return windows, np.zeros(n), float(w + 0.0) if n else w
    gains, gamma, alpha, wdot = fast
    windows = []
    for a, end in zip([0, *cuts], [*cuts, n]):
        if a in jumps and a < end:  # the rate is the window's before the jump
            windows.append(w)
            w = w + jumps[a] + gamma * (gains[a] * w + alpha) * dt
            a += 1
        for gain in gains[a:end]:
            windows.append(w)
            w += gamma * (gain * w + alpha) * dt
    windows = np.array(windows, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # the engine names the tick
        return windows, wdot(windows), w


def _absorb_jump(buf: float, delta_pkts: float) -> tuple[float, float]:
    """ACK buffer after a window jump of ``delta_pkts``, and the burst."""
    if buf >= -EPS_ACK_BUFFER_PKTS and delta_pkts >= 0:
        return buf, delta_pkts
    nb = buf + delta_pkts
    if nb > 0:
        return 0.0, nb
    return nb, 0.0


def circuit_backward_time(user: UserConf, queues: dict, t):
    """Entry time of the traffic leaving the user's circuit at ``t``
    (elementwise over an array of times).

    Walks the circuit backwards: undo the return channel, invert each
    queue's arrival->departure map, undo each hop channel.
    """
    x = t - user.return_delay_s
    for qid, hop in zip(reversed(user.queue_path), reversed(user.hop_delays_s)):
        x = queues[qid].backward_time(x)
        x -= hop
    return x


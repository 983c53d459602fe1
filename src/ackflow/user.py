"""Window source: turns a congestion window into a sending flow.

While active, the source sends at the window's rate of change plus the
arriving acknowledgement rate (send-on-ACK).  When the window drops below
the flight size, the deficit lands in a nonpositive ACK buffer: arriving
acknowledgements are absorbed, sending stays at exactly zero, and traffic
resumes the instant the buffer refills to zero (located inside the step).
How the window moves is its controller's ``window_path``; this block takes
the window's rates of change and its jumps as given.  What it reads, and
the circuit inversion a FAST window needs, are the engine's.
"""

from __future__ import annotations

import numpy as np

from .history import Trajectory, first_true

__all__ = ["UserState"]

EPS_ACK_BUFFER_PKTS = 1e-9


class UserState:
    """Evolving state of one window-controlled source: the window, which
    its controller moves, and the ACK buffer, which ``step`` moves.
    ``empty``, called with a shape, allocates the sending history's and the
    ACKs' samples: ``np.empty``, or the carver of the engine's one store."""

    __slots__ = ("window", "ack_buffer", "sending", "acks")

    def __init__(self, window0_pkts: float, *, dt_s: float, sending0_pps: float = 0.0,
                 n_ticks: int, empty=np.empty):
        self.window = float(window0_pkts)
        self.ack_buffer = 0.0          # nonpositive; packets to absorb
        self.sending = Trajectory(dt_s, sending0_pps, n_ticks=n_ticks, empty=empty)
        self.acks = empty((n_ticks,))  # the arrived ACK rates; no block reads them back

    def step(self, acks, rates, dt: float, jump: float = 0.0):
        """Advance the ACK buffer over one block of steps of ``dt``.

        ``acks`` holds the arriving ACK rate per tick and ``rates`` (an
        array) the window's rate of change.  ``jump``, a window change at
        the first tick's start, opens a burst spread over that step or moves
        the buffer; a refill is located inside its step, so packet counts
        stay exact.

        Regime spans: an active span sends the whole inflow (window rate
        plus ACK rate) up to the first tick whose inflow is negative, which
        starts retaining; a retaining span fills the buffer by ``inflow *
        dt`` per tick, one ``np.cumsum``, up to the first tick that ends at
        or above ``-EPS_ACK_BUFFER_PKTS``, where sending resumes for the
        rest of that step.  ``np.cumsum`` adds in sequence and every branch
        is decided on the value a tick-by-tick loop would see, so the result
        does not depend on how the ticks are grouped.

        Returns arrays over the block: the average sending rate over each
        step (what a rate sample at the step start carries), the ACK buffer
        after the jump at each tick start, and 1.0 where the source ended
        the step sending.
        """
        acks = np.asarray(acks, dtype=np.float64)
        n = len(acks)
        inflow = (rates + 0.0) + acks
        sends, actives, bufs = np.zeros(n), np.zeros(n), np.empty(n)
        buf = self.ack_buffer
        if n:
            burst = jump
            if not (buf >= -EPS_ACK_BUFFER_PKTS and jump >= 0):
                # the jump lands in the buffer: only a refill past zero bursts
                nb = buf + jump
                buf, burst = (0.0, nb) if nb > 0 else (nb, 0.0)
            inflow[0] = (rates[0] + burst / dt) + acks[0]
        a = 0
        while a < n:
            if buf >= -EPS_ACK_BUFFER_PKTS:
                # active: send the inflow up to the first tick it is negative
                bufs[a] = buf
                stop = a + first_true(~(inflow[a:] >= 0.0))
                sends[a:stop] = inflow[a:stop]
                actives[a:stop] = 1.0
                bufs[a + 1:stop + 1] = 0.0
                buf = 0.0 if stop == n else inflow[stop] * dt
                a = stop + 1
            else:
                # retaining: the buffer fills until a tick ends near zero
                cum = np.cumsum(np.concatenate(([buf], inflow[a:] * dt)))
                r = first_true(cum[1:] >= -EPS_ACK_BUFFER_PKTS)
                stop = a + r
                bufs[a:stop] = cum[:r]
                if stop == n:
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
        return sends, bufs, actives


"""Window source: turns a congestion window into a sending flow.

While active, the source sends at the window's rate of change plus the
arriving acknowledgement rate (send-on-ACK).  When the window drops below
the flight size, the deficit lands in a nonpositive ACK buffer: arriving
acknowledgements are absorbed, sending stays at exactly zero, and traffic
resumes the instant the buffer refills to zero (located inside the step).
"""

from __future__ import annotations

import numpy as np

from .history import Trajectory
from .scenario import UserConf

__all__ = ["UserState", "circuit_backward_time"]

EPS_ACK_BUFFER_PKTS = 1e-9


class UserState:
    """Evolving state of one window-controlled source."""

    __slots__ = ("user_id", "window", "ack_buffer", "flight_balance",
                 "sending", "acks", "active")

    def __init__(self, user_id: str, window0_pkts: float, *, dt_s: float,
                 sending0_pps: float = 0.0, flight0_pkts: float = 0.0,
                 n_ticks: int = 16):
        self.user_id = user_id
        self.window = float(window0_pkts)
        self.ack_buffer = 0.0          # nonpositive; packets to absorb
        self.flight_balance = float(flight0_pkts)
        self.sending = Trajectory(dt_s, sending0_pps, capacity=n_ticks)
        self.acks = Trajectory(dt_s, sending0_pps, capacity=n_ticks)
        self.active = True

    def apply_window_jump(self, delta_pkts: float) -> float:
        """Instantaneous window change; returns the packet burst to emit.

        A positive jump while sending is a burst of that many packets; any
        jump while retaining moves through the ACK buffer first, and only
        the part that refills it past zero comes out as a burst.
        """
        self.window += delta_pkts
        if self.ack_buffer >= -EPS_ACK_BUFFER_PKTS and delta_pkts >= 0:
            return delta_pkts
        nb = self.ack_buffer + delta_pkts
        if nb > 0:
            self.ack_buffer = 0.0
            return nb
        self.ack_buffer = nb
        return 0.0

    def step(self, acks, dt: float, *, jumps=None, wdot=None):
        """Advance window and ACK buffer over one block of steps of ``dt``.

        ``acks`` holds the arriving ACK rate per tick.  ``jumps`` maps a
        tick's offset in the block to an instantaneous window change, applied
        at the tick start (a positive one opens a burst spread over that
        step).  ``wdot(window, j)`` gives tick ``j``'s window rate of change
        from the window at the tick start; without it the window only jumps.
        The buffer-refill instant is located inside its step so packet
        counts stay exact.

        Returns arrays over the block: the average sending rate over each
        step (what a rate sample at the step start should carry), and at
        each tick start the window before any jump, the ACK buffer after
        it and the flight balance, and 1.0 where the source ended the step
        sending.
        """
        jumps = jumps or {}
        window, buf, balance = self.window, self.ack_buffer, self.flight_balance
        active = self.active
        sends, windows, bufs, balances, actives = [], [], [], [], []
        for j, ack in enumerate(np.asarray(acks, dtype=np.float64).tolist()):
            windows.append(window)
            rate = wdot(window, j) if wdot is not None else 0.0
            burst_rate = 0.0
            if j in jumps:
                self.window, self.ack_buffer = window, buf
                burst_rate = self.apply_window_jump(jumps[j]) / dt
                window, buf = self.window, self.ack_buffer
            bufs.append(buf)
            balances.append(balance)
            window += rate * dt

            inflow = rate + burst_rate + ack
            if buf >= -EPS_ACK_BUFFER_PKTS:
                buf = 0.0
                if inflow >= 0.0:
                    active = True
                    send = inflow
                else:
                    # window falling faster than ACKs arrive: start retaining
                    active = False
                    buf = inflow * dt
                    send = 0.0
            else:
                nb = buf + inflow * dt
                if nb >= 0.0 and inflow > 0.0:
                    # refills during this step: resume for the remaining fraction
                    theta = -buf / inflow
                    buf = 0.0
                    active = True
                    send = inflow * (dt - theta) / dt
                else:
                    buf = min(nb, 0.0)
                    active = False
                    send = 0.0

            balance += (send - ack) * dt
            sends.append(send)
            actives.append(1.0 if active else 0.0)
        self.window, self.ack_buffer, self.flight_balance = window, buf, balance
        self.active = active
        return tuple(np.array(v) for v in (sends, windows, bufs, balances, actives))


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


"""Window source: turns a congestion window into a sending flow.

While active, the source sends at the window's rate of change plus the
arriving acknowledgement rate (send-on-ACK).  When the window drops below
the flight size, the deficit lands in a nonpositive ACK buffer: arriving
acknowledgements are absorbed, sending stays at exactly zero, and traffic
resumes the instant the buffer refills to zero (located inside the step).
"""

from __future__ import annotations

from .history import Trajectory
from .scenario import UserConf

__all__ = ["UserState", "circuit_backward_time"]

EPS_ACK_BUFFER_PKTS = 1e-9


class UserState:
    """Evolving state of one window-controlled source."""

    __slots__ = ("user_id", "window", "ack_buffer", "flight_balance",
                 "sending", "acks", "active")

    def __init__(self, user_id: str, window0_pkts: float, *, dt_s: float,
                 sending0_pps: float = 0.0, flight0_pkts: float = 0.0):
        self.user_id = user_id
        self.window = float(window0_pkts)
        self.ack_buffer = 0.0          # nonpositive; packets to absorb
        self.flight_balance = float(flight0_pkts)
        self.sending = Trajectory(dt_s, sending0_pps)
        self.acks = Trajectory(dt_s, sending0_pps)
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

    def step(self, wdot: float, burst_pkts: float, ack_rate: float,
             dt: float) -> float:
        """Advance window and ACK buffer by one step of length ``dt``.

        ``burst_pkts`` is an opening burst (from a positive window jump)
        spread over this step.  Returns the average sending rate over the
        step (what a rate sample at the step start should carry), locating
        the buffer-refill instant inside the step so packet counts stay
        exact.
        """
        burst_rate = burst_pkts / dt
        self.window += wdot * dt

        inflow = wdot + burst_rate + ack_rate
        if self.ack_buffer >= -EPS_ACK_BUFFER_PKTS:
            self.ack_buffer = 0.0
            if inflow >= 0.0:
                self.active = True
                send_avg = inflow
            else:
                # window falling faster than ACKs arrive: start retaining
                self.active = False
                self.ack_buffer = inflow * dt
                send_avg = 0.0
        else:
            nb = self.ack_buffer + inflow * dt
            if nb >= 0.0 and inflow > 0.0:
                # refills during this step: resume for the remaining fraction
                theta = -self.ack_buffer / inflow
                self.ack_buffer = 0.0
                self.active = True
                send_avg = inflow * (dt - theta) / dt
            else:
                self.ack_buffer = min(nb, 0.0)
                self.active = False
                send_avg = 0.0

        self.flight_balance += (send_avg - ack_rate) * dt
        return send_avg


def circuit_backward_time(user: UserConf, queues: dict, t: float) -> float:
    """Entry time of the traffic leaving the user's circuit at ``t``.

    Walks the circuit backwards: undo the return channel, invert each
    queue's arrival->departure map, undo each hop channel.
    """
    x = t - user.return_delay_s
    for qid, hop in zip(reversed(user.queue_path), reversed(user.hop_delays_s)):
        x = queues[qid].backward_time(x)
        x -= hop
    return x


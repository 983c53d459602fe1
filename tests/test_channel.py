"""Lossless constant-delay channels.

A channel only shifts its input flow in time.  The engine has no channel
object: a channel is a delayed read of its input's history, and the
packets on it are the input's integral over the trailing delay window.
The output tests run the engine on an uncongested two-queue path, where
every queue passes its input straight through, so each flow downstream is
the sending flow shifted by the channel delays in between.
"""

import numpy as np
import pytest

from ackflow.engine import SimConfig, simulate
from ackflow.history import Trajectory
from ackflow.scenario import (
    QueueConf, RunConf, Scenario, ScheduledProtocol, UserConf, to_network,
)
from ackflow.topology import TopologyError, build_network

DT = 1e-3
HOP1, HOP2, RET = 20, 30, 50  # channel delays of u1, in ticks


@pytest.fixture(scope="module")
def traces():
    # u1 halves its window at 0.5 s and falls silent until the ACK buffer
    # refills, which puts a step into its sending flow without a burst;
    # u2 enters b2 through a zero-delay channel
    sc = Scenario(
        name="channels", packet_bytes=1000,
        queues=(QueueConf("b1", 1000.0), QueueConf("b2", 1000.0)),
        users=(
            UserConf("u1", ("b1", "b2"), (HOP1 * DT, HOP2 * DT), RET * DT,
                     ScheduledProtocol(40.0, ((0.5, 20.0),))),
            UserConf("u2", ("b2",), (0.0,), 0.05, ScheduledProtocol(10.0)),
        ),
        run=RunConf(DT, 1.0, "equilibrium"))
    tr = simulate(to_network(sc), sc, SimConfig(dt_s=DT, horizon_s=1.0,
                                                init="equilibrium"))
    assert tr["congested.b1"].max() == 0.0 and tr["congested.b2"].max() == 0.0
    return tr


def grid_flow(rate_at, initial, until=5.0, dt=0.01):
    """A flow sampled from ``rate_at`` on the grid ``k * dt`` up to ``until``."""
    n = int(round(until / dt)) + 1
    tr = Trajectory(dt, initial, n_ticks=n)
    tr.record(0.0, [rate_at(k * dt) for k in range(n)])
    return tr


def constant_flow(rate):
    return grid_flow(lambda t: rate, rate, dt=0.1)


def step_flow(t_step, lo, hi):
    return grid_flow(lambda t: hi if t >= t_step else lo, lo)


def in_transit(flow, delay_s, t):
    """Packets on a channel at each time ``t``: the input over the trailing
    window."""
    return flow.integrate_hold(t - delay_s, t)


class TestOutput:
    def test_constant_input_passes_through(self, traces):
        # 40 pkts over a 0.1 s round trip, uncongested: 400 pkt/s everywhere
        send, into_b1 = traces["send.u1"], traces["in.b1.u1"]
        assert np.all(send[:500] == pytest.approx(400.0))
        assert np.array_equal(into_b1[HOP1:500], send[:500 - HOP1])

    def test_step_appears_after_delay(self, traces):
        send, into_b1 = traces["send.u1"], traces["in.b1.u1"]
        k_stop = int(np.argmax(send == 0.0))
        assert k_stop == 500
        assert into_b1[k_stop + HOP1 - 1] > 0.0
        assert into_b1[k_stop + HOP1] == 0.0

    def test_zero_delay_identity(self, traces):
        assert np.array_equal(traces["in.b2.u2"], traces["send.u2"])

    def test_negative_delay_rejected(self):
        with pytest.raises(TopologyError, match="negative channel delay"):
            build_network([QueueConf("b", 1.0)],
                          [UserConf("u", ("b",), (-0.1,), 0.2, ScheduledProtocol(1.0))])


class TestInTransit:
    def test_constant_rate_times_delay(self):
        flow = constant_flow(100.0)
        assert in_transit(flow, 0.1, np.array([2.0])) == pytest.approx([10.0])

    def test_zero_input(self):
        flow = constant_flow(0.0)
        assert in_transit(flow, 0.3, np.array([2.0])).tolist() == [0.0]

    def test_ramp_triangle(self):
        # ramp to 100 pkt/s over 1 s on a 1 ms grid: the held samples carry
        # the triangle's 50 packets less half a cell's worth
        tr = grid_flow(lambda t: 100.0 * t, 0.0, until=1.0, dt=1e-3)
        assert in_transit(tr, 1.0, np.array([1.0])) == pytest.approx([50.0 - 0.05], rel=1e-9)


class TestInvariants:
    def test_conservation_derivative(self):
        # d/dt (in transit) equals inflow minus outflow, by finite differences
        flow = step_flow(1.0, 20.0, 120.0)
        delay, h = 0.3, 0.01
        t = np.array([0.8, 1.1, 1.5, 2.0])
        lhs = (in_transit(flow, delay, t + h) - in_transit(flow, delay, t)) / h
        mid = t + h / 2
        rhs = flow.eval_at(mid) - flow.eval_at(mid - delay)
        assert lhs == pytest.approx(rhs, abs=1.0)

    def test_two_channels_compose_to_sum_of_delays(self, traces):
        # b1 is transparent, so b2 sees the sending flow HOP1 + HOP2 later,
        # and the ACKs return RET after that
        send = traces["send.u1"]
        n = len(send)
        shift = HOP1 + HOP2
        assert np.array_equal(traces["in.b2.u1"][shift:], send[:n - shift])
        assert np.array_equal(traces["ack.u1"][shift + RET:], send[:n - shift - RET])

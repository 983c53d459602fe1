import numpy as np
import pytest

from ackflow.engine import SimConfig, simulate
from ackflow.fifo_queue import FifoQueue
from ackflow.scenario import (
    QueueConf, RunConf, Scenario, ScheduledProtocol, UserConf, to_network,
)
from ackflow.topology import QueueSpec, UserSpec, build_network
from ackflow.user import UserState, circuit_backward_time


class TestSendingFlow:
    def test_steady_state_send_on_ack(self):
        u = UserState("u", 10.0, dt_s=1e-3)
        assert u.step(0.0, 0.0, 100.0, 1e-3) == pytest.approx(100.0)

    def test_growing_window_adds_to_ack_rate(self):
        # direct evaluation: wdot + ack = 50 + 100
        u = UserState("u", 10.0, dt_s=1e-3)
        assert u.step(50.0, 0.0, 100.0, 1e-3) == pytest.approx(150.0)

    def test_retaining_mode_sends_nothing(self):
        u = UserState("u", 200.0, dt_s=1e-3)
        u.apply_window_jump(-100.0)
        assert u.step(50.0, 0.0, 1000.0, 1e-3) == 0.0
        assert not u.active


class TestAckBufferStep:
    def test_halving_drops_buffer_by_deficit(self):
        u = UserState("u", 500.0, dt_s=1e-3)
        burst = u.apply_window_jump(-250.0)
        assert burst == 0.0
        assert u.ack_buffer == pytest.approx(-250.0)
        assert u.window == pytest.approx(250.0)
        assert u.step(0.0, 0.0, 0.0, 1e-3) == 0.0
        assert not u.active

    def test_refill_time_matches_analytic_fill(self):
        # analytic: |buffer| / ack_rate = 250/100 = 2.5 s to refill
        u = UserState("u", 500.0, dt_s=1e-3)
        dt = 1e-3
        u.apply_window_jump(-250.0)
        t, sends = 0.0, []
        while True:
            send = u.step(0.0, 0.0, 100.0, dt)
            sends.append((t, send))
            t += dt
            if u.active:
                break
        resume_t = sends[-1][0]
        assert resume_t == pytest.approx(2.5, abs=2 * dt)
        # silent the whole way, except the partial resume step
        assert all(s == 0.0 for _, s in sends[:-1])
        assert 0.0 <= sends[-1][1] <= 100.0

    def test_buffer_stays_zero_when_active(self):
        u = UserState("u", 100.0, dt_s=1e-3)
        for _ in range(10):
            u.step(0.0, 0.0, 50.0, 1e-3)
        assert u.ack_buffer == 0.0
        assert u.active

    def test_buffer_never_positive(self):
        u = UserState("u", 100.0, dt_s=1e-3)
        u.apply_window_jump(-30.0)
        for _ in range(2000):
            u.step(0.0, 0.0, 40.0, 1e-3)
            assert u.ack_buffer <= 0.0

    def test_positive_jump_while_retaining_refills_buffer(self):
        u = UserState("u", 100.0, dt_s=1e-3)
        u.apply_window_jump(-50.0)
        burst = u.apply_window_jump(+50.0)
        assert u.ack_buffer == pytest.approx(0.0)
        # the jump only cancels the deficit; nothing to emit
        assert burst == pytest.approx(0.0, abs=1e-9)
        # any further increase comes out as a real burst
        assert u.apply_window_jump(+10.0) == pytest.approx(10.0)

    def test_rapid_decrease_via_wdot_enters_retaining(self):
        u = UserState("u", 100.0, dt_s=1e-3)
        send = u.step(wdot=-500.0, burst_pkts=0.0, ack_rate=100.0, dt=1e-3)
        assert send == 0.0
        assert u.ack_buffer < 0.0
        assert not u.active


def flight_trace(window_pkts, init):
    """Engine flight size (the sending integral since the circuit entry
    time of the traffic acknowledged now) of one user on an idle link."""
    sc = Scenario(
        name="flight", packet_bytes=1000,
        queues=(QueueConf("b", 1000.0),),
        users=(UserConf("u", ("b",), (0.04,), 0.06,
                        ScheduledProtocol(window_pkts)),),
        run=RunConf(1e-3, 0.5, init))
    traces = simulate(to_network(sc), sc, SimConfig(
        dt_s=1e-3, horizon_s=0.5, init=init))
    return traces["send.u"], traces["flight.u"]


class TestFlightSize:
    def test_constant_flow_fixed_rtt(self):
        # 100 pkt/s with a 0.1 s round trip keeps 10 packets in flight
        send, flight = flight_trace(10.0, "equilibrium")
        assert send == pytest.approx(np.full_like(send, 100.0))
        assert flight == pytest.approx(np.full_like(flight, 10.0))

    def test_zero_history_zero_flight(self):
        send, flight = flight_trace(0.0, "cold")
        assert np.all(send == 0.0)
        assert np.all(flight == 0.0)

    def test_balance_form_tracks_burst(self):
        u = UserState("u", 10.0, dt_s=1e-3, flight0_pkts=10.0)
        dt = 1e-3
        burst = u.apply_window_jump(+100.0)
        u.step(0.0, burst, 10.0, dt)  # burst of 100 on top of send-on-ack
        for _ in range(100):
            u.step(0.0, 0.0, 10.0, dt)
        assert u.flight_balance == pytest.approx(110.0, abs=1e-6)


class TestCircuitBackwardOps:
    def make_env(self):
        net = build_network(
            queues=[QueueSpec("b", 100.0)],
            users=[UserSpec("u", ("b",), (0.01,), 0.02)],
        )
        dt = 0.01
        q = FifoQueue("b", 100.0, ["u"], dt_s=dt)
        for k in range(200):
            t = k * dt
            q.record_inputs(t, [150.0])
            service = q.step(dt, (k + 1) * dt)
            q.record_outputs(t, q.transport_outputs(t, (k + 1) * dt, service * dt))
        return net.users["u"], {"b": q}

    def test_backward_time_composition(self):
        circ, queues = self.make_env()
        t = 1.5
        # undo return channel, invert the queue map, undo the entry channel
        x = queues["b"].backward_time(t - 0.02) - 0.01
        assert circuit_backward_time(circ, queues, t) == pytest.approx(x)

    def test_backward_rate_composition(self):
        # channels have slope one, so the circuit's backward map has the
        # queue's slope: capacity over arrival rate, 100 / 150
        circ, queues = self.make_env()
        t, h = 1.5, 0.05
        circuit_slope = (circuit_backward_time(circ, queues, t + h)
                         - circuit_backward_time(circ, queues, t)) / h
        queue_slope = (queues["b"].backward_time(t + h - 0.02)
                       - queues["b"].backward_time(t - 0.02)) / h
        assert circuit_slope == pytest.approx(queue_slope, rel=1e-12)
        assert circuit_slope == pytest.approx(100.0 / 150.0, rel=1e-9)

    def test_rtt_identity(self):
        # entry time + propagation + queueing recovers the departure time
        circ, queues = self.make_env()
        t = 1.5
        b = circuit_backward_time(circ, queues, t)
        g = queues["b"].backward_time(t - 0.02)
        tau_at_g = queues["b"].forward_map.eval_at(g) - g
        rtt = circ.total_delay_s + tau_at_g
        assert b + rtt == pytest.approx(t, abs=1e-9)

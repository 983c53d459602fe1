import numpy as np
import pytest

from ackflow.engine import SimConfig, circuit_backward_time, simulate
from ackflow.fifo_queue import FifoQueue
from ackflow.scenario import (
    QueueConf, RunConf, Scenario, ScheduledProtocol, UserConf, to_network,
)
from ackflow.topology import build_network
from ackflow.user import UserState

# history length of the standalone users, which step but record nothing
N_TICKS = 1000


def one_tick(u, ack, wdot=0.0, dt=1e-3):
    """Sending rate of a one-tick block whose window moves at ``wdot``, and
    whether it ended sending."""
    send, _, active = u.step([ack], np.array([wdot]), dt)
    return send[0], active[0] == 1.0


def burst_of(u, delta_pkts, dt=1e-3):
    """Packets a one-tick block without ACKs emits after a window jump."""
    send, *_ = u.step([0.0], np.zeros(1), dt, delta_pkts)
    return send[0] * dt


class TestSendingFlow:
    def test_steady_state_send_on_ack(self):
        u = UserState(10.0, dt_s=1e-3, n_ticks=N_TICKS)
        assert one_tick(u, 100.0)[0] == pytest.approx(100.0)

    def test_growing_window_adds_to_ack_rate(self):
        # direct evaluation: wdot + ack = 50 + 100
        u = UserState(10.0, dt_s=1e-3, n_ticks=N_TICKS)
        assert one_tick(u, 100.0, wdot=50.0)[0] == pytest.approx(150.0)

    def test_retaining_mode_sends_nothing(self):
        u = UserState(200.0, dt_s=1e-3, n_ticks=N_TICKS)
        burst_of(u, -100.0)
        assert one_tick(u, 1000.0, wdot=50.0) == (0.0, False)


class TestAckBufferStep:
    def test_halving_drops_buffer_by_deficit(self):
        u = UserState(500.0, dt_s=1e-3, n_ticks=N_TICKS)
        burst = burst_of(u, -250.0)
        assert burst == 0.0
        assert u.ack_buffer == pytest.approx(-250.0)
        # the window is its controller's: the same jump halves it
        assert ScheduledProtocol(500.0).window_path(u.window, 1, -250.0)[1] == 250.0
        assert one_tick(u, 0.0) == (0.0, False)

    def test_refill_time_matches_analytic_fill(self):
        # analytic: |buffer| / ack_rate = 250/100 = 2.5 s to refill
        u = UserState(500.0, dt_s=1e-3, n_ticks=N_TICKS)
        dt = 1e-3
        send, _, active = u.step(np.full(3000, 100.0), np.zeros(3000), dt, -250.0)
        k_resume = int(np.argmax(active == 1.0))
        assert k_resume * dt == pytest.approx(2.5, abs=2 * dt)
        # silent the whole way, except the partial resume step
        assert np.all(send[:k_resume] == 0.0)
        assert 0.0 <= send[k_resume] <= 100.0

    def test_buffer_stays_zero_when_active(self):
        u = UserState(100.0, dt_s=1e-3, n_ticks=N_TICKS)
        *_, active = u.step(np.full(10, 50.0), np.zeros(10), 1e-3)
        assert u.ack_buffer == 0.0
        assert active[-1] == 1.0

    def test_buffer_never_positive(self):
        # the buffer at each tick start is the one the step before left
        u = UserState(100.0, dt_s=1e-3, n_ticks=N_TICKS)
        burst_of(u, -30.0)
        _, buffers, _ = u.step(np.full(2000, 40.0), np.zeros(2000), 1e-3)
        assert np.all(buffers <= 0.0)
        assert u.ack_buffer <= 0.0

    def test_positive_jump_while_retaining_refills_buffer(self):
        u = UserState(100.0, dt_s=1e-3, n_ticks=N_TICKS)
        burst_of(u, -50.0)
        burst = burst_of(u, +50.0)
        assert u.ack_buffer == pytest.approx(0.0)
        # the jump only cancels the deficit; nothing to emit
        assert burst == pytest.approx(0.0, abs=1e-9)
        # any further increase comes out as a real burst
        assert burst_of(u, +10.0) == pytest.approx(10.0)

    def test_rapid_decrease_via_wdot_enters_retaining(self):
        u = UserState(100.0, dt_s=1e-3, n_ticks=N_TICKS)
        assert one_tick(u, 100.0, wdot=-500.0) == (0.0, False)
        assert u.ack_buffer < 0.0


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


class TestBlocks:
    def test_block_size_leaves_every_trace_bitwise_equal(self):
        # a window cut into retaining, a refill and a burst over 250 ticks,
        # in one block and in blocks of 16 (the last one short), each cut
        # at the jumps as the engine cuts a user block
        acks = np.where(np.arange(250) < 120, 300.0, 150.0)
        rates = np.full(250, -20.0)
        jumps = {5: -40.0, 200: +25.0}
        runs = []
        for block in (250, 16):
            u = UserState(100.0, dt_s=1e-3, n_ticks=N_TICKS)
            cuts = sorted({*range(0, 250, block), *jumps, 250})
            parts = [u.step(acks[a:b], rates[a:b], 1e-3, jumps.get(a, 0.0))
                     for a, b in zip(cuts, cuts[1:])]
            runs.append([np.concatenate(v).tolist() for v in zip(*parts)]
                        + [u.ack_buffer])
        assert runs[0] == runs[1]
        send, active = np.array(runs[0][0]), np.array(runs[0][2])
        assert send.min() == 0.0 and 0.0 in active and active[-1] == 1.0


class TestCircuitBackwardOps:
    def make_env(self):
        net = build_network(
            queues=[QueueConf("b", 100.0)],
            users=[UserConf("u", ("b",), (0.01,), 0.02, ScheduledProtocol(10.0))],
        )
        dt = 0.01
        q = FifoQueue("b", 100.0, ["u"], dt_s=dt, n_ticks=200)
        for k0 in range(0, 200, 64):  # the last block is short
            times = np.arange(k0, min(k0 + 64, 200) + 1) * dt
            rates = np.full((1, len(times) - 1), 150.0)
            total = q.record_inputs(times[:-1], rates)
            _, service, congested = q.step(dt, times[1:], total)
            q.record_outputs(times[0], q.transport_outputs(times, service * dt, rates,
                                                           congested))
        return net.users["u"], {"b": q}

    def test_backward_time_composition(self):
        circ, queues = self.make_env()
        t = np.array([1.5])
        # undo return channel, invert the queue map, undo the entry channel
        x = queues["b"].backward_time(t - 0.02) - 0.01
        assert circuit_backward_time(circ, queues, t) == pytest.approx(x)

    def test_backward_rate_composition(self):
        # channels have slope one, so the circuit's backward map has the
        # queue's slope: capacity over arrival rate, 100 / 150
        circ, queues = self.make_env()
        t, h = np.array([1.5]), 0.05
        circuit_slope = (circuit_backward_time(circ, queues, t + h)
                         - circuit_backward_time(circ, queues, t)) / h
        queue_slope = (queues["b"].backward_time(t + h - 0.02)
                       - queues["b"].backward_time(t - 0.02)) / h
        assert circuit_slope == pytest.approx(queue_slope, rel=1e-12)
        assert circuit_slope == pytest.approx(100.0 / 150.0, rel=1e-9)

    def test_rtt_identity(self):
        # entry time + propagation + queueing recovers the departure time
        circ, queues = self.make_env()
        t = np.array([1.5])
        b = circuit_backward_time(circ, queues, t)
        g = queues["b"].backward_time(t - 0.02)
        tau_at_g = queues["b"].forward_map.eval_at(g) - g
        rtt = circ.total_delay_s + tau_at_g
        assert b + rtt == pytest.approx(t, abs=1e-9)

import numpy as np
import pytest

from ackflow.oracle import (
    EquilibriumProblem, OracleError, equilibrium_from_scenario,
    equilibrium_queue, packet_sim,
)
from ackflow.scenario import (
    ConstantProfile, FastProtocol, QueueConf, RunConf, Scenario,
    ScheduledProtocol, UserConf, load_scenario,
)


def tiny_scenario(w0=100.0, cap=500.0, t_fwd=0.05, t_back=0.05, steps=(),
                  horizon=4.0, cross=0.0):
    flows = ()
    if cross:
        flows = (  # noqa: shadowing fine in test helper
            __import__("ackflow.scenario", fromlist=["RateFlowConf"]).RateFlowConf(
                "cross_b1", ("b1",), (0.0,), ConstantProfile(cross)),)
    return Scenario(
        name="tiny", packet_bytes=1000,
        queues=(QueueConf("b1", cap),),
        users=(UserConf("u1", ("b1",), (t_fwd,), t_back,
                        ScheduledProtocol(w0, tuple(steps))),),
        rate_flows=flows,
        run=RunConf(1e-4, horizon, "cold"),
    )


class TestEquilibrium:
    def test_single_user_closed_form(self):
        # congested single bottleneck: tau = w/c - T = 100/500 - 0.1 = 0.1
        prob = EquilibriumProblem(
            windows_pkts={"u1": 100.0}, total_delays_s={"u1": 0.1},
            circuits={"u1": ("b1",)}, capacities_pps={"b1": 500.0})
        res = equilibrium_queue(prob)
        assert res.queueing_delays_s["b1"] == pytest.approx(0.1, rel=1e-9)
        assert res.rates_pps["u1"] == pytest.approx(500.0, rel=1e-9)
        assert res.congested["b1"]

    def test_window_too_small_gives_zero_delay(self):
        prob = EquilibriumProblem(
            windows_pkts={"u1": 10.0}, total_delays_s={"u1": 0.1},
            circuits={"u1": ("b1",)}, capacities_pps={"b1": 500.0})
        res = equilibrium_queue(prob)
        assert res.queueing_delays_s["b1"] == 0.0
        assert res.rates_pps["u1"] == pytest.approx(100.0)
        assert not res.congested["b1"]

    def test_two_user_fixed_point_matches_independent_bisection(self):
        # the first preset's post-step operating point, cross-checked with a
        # from-scratch bisection on the single unknown
        c = 100e6 / (8 * 1590)
        prob = EquilibriumProblem(
            windows_pkts={"u1": 150.0, "u2": 550.0},
            total_delays_s={"u1": 0.0032, "u2": 0.117},
            circuits={"u1": ("b1",), "u2": ("b1",)},
            capacities_pps={"b1": c})
        res = equilibrium_queue(prob)

        def total_rate(tau):
            return 150.0 / (0.0032 + tau) + 550.0 / (0.117 + tau)

        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if total_rate(mid) > c:
                lo = mid
            else:
                hi = mid
        tau_ref = 0.5 * (lo + hi)
        assert res.queueing_delays_s["b1"] == pytest.approx(tau_ref, rel=1e-9)
        assert res.rates_pps["u1"] == pytest.approx(150.0 / (0.0032 + tau_ref), rel=1e-9)

    def test_cross_traffic_reduces_effective_capacity(self):
        prob = EquilibriumProblem(
            windows_pkts={"u1": 100.0}, total_delays_s={"u1": 0.1},
            circuits={"u1": ("b1",)}, capacities_pps={"b1": 500.0},
            cross_rates_pps={"b1": 250.0})
        res = equilibrium_queue(prob)
        # user fills the leftover 250 pkt/s: tau = 100/250 - 0.1 = 0.3
        assert res.queueing_delays_s["b1"] == pytest.approx(0.3, rel=1e-9)

    def test_saturating_cross_traffic_rejected(self):
        prob = EquilibriumProblem(
            windows_pkts={"u1": 1.0}, total_delays_s={"u1": 0.1},
            circuits={"u1": ("b1",)}, capacities_pps={"b1": 500.0},
            cross_rates_pps={"b1": 500.0})
        with pytest.raises(OracleError):
            equilibrium_queue(prob)

    def test_two_queue_chain_consistent(self):
        sc = load_scenario("scenario3")
        res = equilibrium_queue(equilibrium_from_scenario(sc))
        tau1 = res.queueing_delays_s["b1"]
        tau2 = res.queueing_delays_s["b2"]
        assert res.congested["b1"] and res.congested["b2"]
        c1, c2 = (q.capacity_pps for q in sc.queues)
        x1 = 1600.0 / (0.12 + tau1 + tau2)
        x2 = 1200.0 / (0.08 + tau2)
        x3 = 5.0 / (0.04 + tau1)
        assert x1 + x3 == pytest.approx(c1, rel=1e-8)
        assert x1 + x2 == pytest.approx(c2, rel=1e-8)


class TestPacketSim:
    def test_throughput_is_window_over_rtt(self):
        # ample capacity: RTT ~ 0.1 s, w = 10 -> about 100 pkt/s
        sc = tiny_scenario(w0=10.0, cap=100000.0, horizon=4.0)
        res = packet_sim(sc, sample_dt_s=0.05)
        sends = res.send_times["u1"]
        n_window = np.count_nonzero((sends >= 1.0) & (sends < 4.0))
        assert n_window / 3.0 == pytest.approx(10.0 / 0.1, rel=0.02)

    def test_steady_queue_matches_equilibrium(self):
        # oracle self-consistency: time-averaged backlog ~ capacity * tau*
        sc = tiny_scenario(w0=100.0, cap=500.0, horizon=3.0)
        res = packet_sim(sc, sample_dt_s=0.01, warmup_s=3.0)
        eq = equilibrium_queue(equilibrium_from_scenario(sc))
        expected = 500.0 * eq.queueing_delays_s["b1"]
        mask = res.sample_times >= 1.0
        avg = float(np.mean(res.queue_lengths["b1"][mask]))
        assert abs(avg - expected) <= 2.0

    def test_fifo_order_exact(self):
        sc = tiny_scenario(w0=30.0, cap=500.0, horizon=1.0)
        res = packet_sim(sc, record_events=True)
        enq = [e.packet_id for e in res.events if e.kind == "enqueue"]
        deq = [e.packet_id for e in res.events if e.kind == "dequeue"]
        assert deq == enq[:len(deq)]

    def test_halving_silence_near_ack_interarrivals(self):
        # after halving, roughly w/2 ACK interarrivals of silence
        cap = 1502.4038461538462  # 12.5 Mb/s at 1040 B
        sc = tiny_scenario(w0=500.0, cap=cap, t_fwd=0.075, t_back=0.075,
                           steps=[(5.0, 250.0)], horizon=7.0)
        res = packet_sim(sc, sample_dt_s=0.01, warmup_s=4.0)
        sends = res.send_times["u1"]
        before = sends[sends <= 5.0]
        after = sends[sends > 5.0]
        silence = after[0] - before[-1]
        assert silence == pytest.approx(250.0 / cap, rel=0.05)
        # queue drains at capacity once the send gap has propagated to it
        i0 = np.searchsorted(res.sample_times, 5.0 + 0.075)
        i1 = np.searchsorted(res.sample_times, after[0] + 0.075)
        drop = res.queue_lengths["b1"][i0] - res.queue_lengths["b1"][i1]
        assert drop == pytest.approx(cap * silence, rel=0.15)

    def test_fast_protocol_rejected(self):
        sc = Scenario(
            name="f", packet_bytes=1000,
            queues=(QueueConf("b1", 100.0),),
            users=(UserConf("u1", ("b1",), (0.05,), 0.05,
                            FastProtocol(0.5, 200.0, 100.0)),),
            run=RunConf(1e-4, 1.0, "cold"))
        with pytest.raises(OracleError):
            packet_sim(sc)

    def test_determinism(self):
        sc = tiny_scenario(w0=50.0, cap=500.0, steps=[(1.0, 80.0)], horizon=2.0)
        r1 = packet_sim(sc, sample_dt_s=0.01)
        r2 = packet_sim(sc, sample_dt_s=0.01)
        assert np.array_equal(r1.queue_lengths["b1"], r2.queue_lengths["b1"])
        assert np.array_equal(r1.send_times["u1"], r2.send_times["u1"])

    def test_rate_flow_emission_counts(self):
        # constant 100 pkt/s for 2 s -> 200 packets through the queue
        from ackflow.scenario import RateFlowConf
        sc = Scenario(
            name="r", packet_bytes=1000,
            queues=(QueueConf("b1", 1000.0),),
            rate_flows=(RateFlowConf("f1", ("b1",), (0.0,),
                                     ConstantProfile(100.0)),),
            run=RunConf(1e-4, 2.0, "cold"))
        res = packet_sim(sc, sample_dt_s=0.1)
        assert res.dequeue_counts[("b1", "f1")][-1] == pytest.approx(200, abs=2)

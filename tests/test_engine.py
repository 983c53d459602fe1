from pathlib import Path

import numpy as np
import pytest

import ackflow.engine as engine
from ackflow.engine import (
    BLOCK_CAP_TICKS, SimConfig, SimulationError, block_ticks, simulate,
    static_link_check,
)
from ackflow.oracle import equilibrium_from_scenario, equilibrium_queue, packet_sim
from ackflow.scenario import (
    ConstantProfile, FastProtocol, QueueConf, RateFlowConf, RunConf, Scenario,
    ScheduledProtocol, SquareProfile, UserConf, load_scenario, mbps_to_pps, preset,
    to_network,
)

OFFGRID_YAML = str(Path(__file__).resolve().parents[1] / "perfbench"
                   / "fast_pair_offgrid.yaml")


def two_user_scenario(w1=100.0, w2=50.0, steps1=(), cap=500.0, horizon=4.0,
                      init="equilibrium", cross=0.0):
    flows = ()
    if cross:
        flows = (RateFlowConf("cross_b1", ("b1",), (0.0,),
                              ConstantProfile(cross)),)
    return Scenario(
        name="small", packet_bytes=1000,
        queues=(QueueConf("b1", cap),),
        users=(
            UserConf("u1", ("b1",), (0.02,), 0.02,
                     ScheduledProtocol(w1, tuple(steps1))),
            UserConf("u2", ("b1",), (0.05,), 0.05, ScheduledProtocol(w2)),
        ),
        rate_flows=flows,
        run=RunConf(1e-3, horizon, init),
    )


def run(sc, **overrides):
    cfg = SimConfig(dt_s=sc.run.dt_s, horizon_s=sc.run.horizon_s,
                    init=sc.run.init, **overrides)
    return simulate(to_network(sc), sc, cfg)


def tail_mean(traces, name, span_s=1.0):
    n = int(span_s / traces.dt_s)
    return float(np.mean(traces[name][-n:]))


class TestBasics:
    def test_zero_traffic_all_silent(self):
        sc = two_user_scenario(w1=0.0, w2=0.0, init="cold")
        traces = run(sc)
        for name in ("q.b1", "send.u1", "send.u2", "ack.u1", "flight.u1"):
            assert np.all(traces[name] == 0.0)

    def test_determinism_bitwise(self):
        sc = two_user_scenario(steps1=[(2.0, 150.0)])
        t1, t2 = run(sc), run(sc)
        for name in t1.signals:
            assert np.array_equal(t1[name], t2[name]), name

    def test_dt_headroom_enforced(self):
        sc = two_user_scenario()
        cfg = SimConfig(dt_s=0.01, horizon_s=1.0, init="cold")
        with pytest.raises(SimulationError, match="headroom"):
            simulate(to_network(sc), sc, cfg)

    def test_flow_traces_are_views_of_the_history_store(self):
        # send/ack/in/out traces are the store's columns, not copies
        traces = run(two_user_scenario(cross=100.0, horizon=0.5))
        q, u = traces.queues["b1"], traces.users["u1"]
        for name, traj in (("send.u1", u.sending), ("ack.u1", u.acks),
                           ("in.b1.u1", q.inputs["u1"]),
                           ("out.b1.cross_b1", q.outputs["cross_b1"])):
            assert np.shares_memory(traces[name], np.frombuffer(traj.values)), name

    def test_return_delay_must_cover_one_step(self):
        # a zero return delay passes the headroom rule, which looks only at
        # positive delays, and must still be refused
        sc = Scenario(
            name="bad", packet_bytes=1000,
            queues=(QueueConf("b1", 500.0),),
            users=(UserConf("u1", ("b1",), (0.05,), 0.0,
                            ScheduledProtocol(10.0)),),
            run=RunConf(1e-3, 1.0, "cold"))
        with pytest.raises(SimulationError, match="return channel"):
            simulate(to_network(sc), sc, SimConfig(
                dt_s=1e-3, horizon_s=1.0, init="cold"))


class TestEquilibrium:
    def test_warm_start_stays_at_fixed_point(self):
        sc = two_user_scenario()
        traces = run(sc)
        eq = equilibrium_queue(equilibrium_from_scenario(sc))
        tau_star = eq.queueing_delays_s["b1"]
        assert tau_star > 0
        tau_tail = tail_mean(traces, "tau.b1")
        assert tau_tail == pytest.approx(tau_star, rel=0.01)

    def test_cold_start_converges_to_same_fixed_point(self):
        sc = two_user_scenario(init="cold", horizon=6.0)
        traces = run(sc)
        eq = equilibrium_queue(equilibrium_from_scenario(sc))
        assert tail_mean(traces, "tau.b1") == pytest.approx(
            eq.queueing_delays_s["b1"], rel=0.02)

    def test_window_step_moves_equilibrium(self):
        sc = two_user_scenario(steps1=[(2.0, 200.0)], horizon=5.0)
        traces = run(sc)
        eq_pre = equilibrium_queue(equilibrium_from_scenario(sc))
        eq_post = equilibrium_queue(
            equilibrium_from_scenario(sc), windows={"u1": 200.0, "u2": 50.0})
        dt = traces.dt_s
        pre_window = traces["tau.b1"][int(1.0 / dt):int(1.9 / dt)]
        assert float(pre_window.mean()) == pytest.approx(
            eq_pre.queueing_delays_s["b1"], rel=0.01)
        assert tail_mean(traces, "tau.b1") == pytest.approx(
            eq_post.queueing_delays_s["b1"], rel=0.01)

    def test_cross_traffic_occupies_capacity(self):
        sc = two_user_scenario(cross=250.0)
        traces = run(sc)
        eq = equilibrium_queue(equilibrium_from_scenario(sc))
        assert tail_mean(traces, "tau.b1") == pytest.approx(
            eq.queueing_delays_s["b1"], rel=0.01)
        # queue output includes the cross flow
        assert tail_mean(traces, "out.b1.cross_b1") > 0


class TestConservation:
    def check_user_balance(self, traces, uid, tol=2.0):
        dt = traces.dt_s
        send = traces[f"send.{uid}"]
        ack = traces[f"ack.{uid}"]
        sent_cum = np.concatenate([[0.0], np.cumsum(send[:-1])]) * dt
        ack_cum = np.concatenate([[0.0], np.cumsum(ack[:-1])]) * dt
        flight = traces[f"flight.{uid}"]
        resid = np.abs(sent_cum - ack_cum - (flight - flight[0]))
        assert resid.max() <= tol

    def test_sent_equals_flight_plus_acked(self):
        traces = run(two_user_scenario(steps1=[(2.0, 150.0)]))
        self.check_user_balance(traces, "u1")
        self.check_user_balance(traces, "u2")

    def test_flight_forms_agree(self):
        traces = run(two_user_scenario(steps1=[(2.0, 150.0)]))
        for uid in ("u1", "u2"):
            gap = np.abs(traces[f"flight.{uid}"] - traces[f"flight_ode.{uid}"])
            assert gap.max() <= 2.0

    def test_queue_content_matches_flow_balance(self):
        traces = run(two_user_scenario(steps1=[(2.0, 150.0)]))
        dt = traces.dt_s
        q = traces["q.b1"]
        net_in = (traces["arrival.b1"] - traces["r.b1"])
        content = q[0] + np.concatenate([[0.0], np.cumsum(net_in[:-1])]) * dt
        assert np.abs(content - q).max() <= 1e-6


class TestBackwardIdentities:
    def test_roundtrip_and_fixed_point_on_grid(self):
        traces = run(two_user_scenario(steps1=[(2.0, 150.0)]))
        q = traces.queues["b1"]
        grid = traces.time
        congested = traces["congested.b1"] > 0.5
        # the store's own reads, pre-history line included
        g = np.array([q.backward_time(t) for t in grid[congested]])
        # departure(arrival time) recovers t, and t = g + delay(g)
        f_of_g = np.array([q.forward_map.eval_at(x) for x in g])
        assert np.abs(f_of_g - grid[congested]).max() <= 1e-6
        tau_at_g = f_of_g - g
        assert np.abs(g + tau_at_g - grid[congested]).max() <= 1e-6


class TestStaticLink:
    def homogeneous_scenario(self):
        return Scenario(
            name="homog", packet_bytes=1000,
            queues=(QueueConf("b1", 500.0),),
            users=(
                UserConf("u1", ("b1",), (0.02,), 0.08,
                         ScheduledProtocol(60.0, ((2.0, 90.0),))),
                UserConf("u2", ("b1",), (0.02,), 0.08, ScheduledProtocol(70.0)),
            ),
            run=RunConf(1e-3, 5.0, "equilibrium"))

    def test_reduced_model_holds_when_applicable(self):
        traces = run(self.homogeneous_scenario())
        res = static_link_check(traces)
        assert res.applicable
        assert res.max_deviation_pkts <= 2.0

    def test_heterogeneous_delays_not_applicable(self):
        traces = run(two_user_scenario())
        res = static_link_check(traces)
        assert not res.applicable
        assert any("heterogeneous" in r for r in res.reasons)

    def test_cross_traffic_not_applicable(self):
        traces = run(two_user_scenario(cross=100.0))
        res = static_link_check(traces)
        assert not res.applicable

    def test_uncongested_not_applicable(self):
        sc = Scenario(
            name="idle", packet_bytes=1000,
            queues=(QueueConf("b1", 500.0),),
            users=(
                UserConf("u1", ("b1",), (0.02,), 0.08, ScheduledProtocol(5.0)),
                UserConf("u2", ("b1",), (0.02,), 0.08, ScheduledProtocol(5.0)),
            ),
            run=RunConf(1e-3, 2.0, "cold"))
        res = static_link_check(run(sc))
        assert not res.applicable
        assert any("congested" in r for r in res.reasons)


class TestRetainingMode:
    def halving_scenario(self, cross=0.0, cap=300.0):
        flows = ()
        if cross:
            flows = (RateFlowConf("cross_b1", ("b1",), (0.0,),
                                  ConstantProfile(cross)),)
        return Scenario(
            name="halve", packet_bytes=1000,
            queues=(QueueConf("b1", cap),),
            users=(UserConf("u1", ("b1",), (0.05,), 0.05,
                            ScheduledProtocol(100.0, ((2.0, 50.0),))),),
            rate_flows=flows,
            run=RunConf(1e-3, 5.0, "equilibrium"))

    def test_silence_and_refill(self):
        traces = run(self.halving_scenario())
        send = traces["send.u1"]
        pi = traces["ackbuf.u1"]
        assert pi.min() == pytest.approx(-50.0, abs=1e-6)
        assert pi.max() <= 1e-9
        # strictly zero sending while the buffer is strictly negative
        neg = (pi[:-1] < -1e-9) & (pi[1:] < -1e-9)
        assert np.all(send[:-1][neg] == 0.0)
        # analytic silence: 50 absorbed ACKs at the service rate
        dt = traces.dt_s
        k_stop = np.argmax(send == 0.0)
        k_resume = k_stop + np.argmax(send[k_stop:] > 0.0)
        silence = (k_resume - k_stop) * dt
        assert silence == pytest.approx(50.0 / 300.0, rel=0.05)

    def test_window_tracked_after_refill(self):
        traces = run(self.halving_scenario())
        assert tail_mean(traces, "flight.u1", 0.5) == pytest.approx(50.0, abs=2.0)
        assert tail_mean(traces, "w.u1", 0.5) == pytest.approx(50.0, abs=1e-9)


class TestGridRefinement:
    def test_halving_dt_barely_moves_equilibria(self):
        sc = two_user_scenario(steps1=[(2.0, 150.0)])
        coarse = run(sc)
        fine = simulate(to_network(sc), sc,
                        SimConfig(dt_s=5e-4, horizon_s=sc.run.horizon_s,
                                  init="equilibrium"))
        for name in ("tau.b1", "flight.u1", "flight.u2"):
            a = tail_mean(coarse, name)
            b = tail_mean(fine, name)
            assert a == pytest.approx(b, rel=0.005)


class TestOffGridReads:
    def test_cold_start_burst_reaches_the_queue_whole(self):
        # two FAST users whose delays fall between grid points: the opening
        # burst is read through interpolated history, and none of it may be
        # lost, so the two flight-size forms must agree once it has cycled
        fast = FastProtocol(gamma=0.5, alpha_pkts=200.0, initial_window_pkts=100.0)
        sc = Scenario(
            name="fast_pair_offgrid", packet_bytes=1590,
            queues=(QueueConf("b1", mbps_to_pps(100.0, 1590)),),
            users=(UserConf("u1", ("b1",), (0.01237,), 0.03771, fast),
                   UserConf("u2", ("b1",), (0.00313,), 0.08859, fast)),
            run=RunConf(1e-4, 2.0, "cold"))
        traces = run(sc)
        second = traces.time >= 1.0
        for uid in ("u1", "u2"):
            gap = np.abs(traces[f"flight.{uid}"] - traces[f"flight_ode.{uid}"])
            assert gap[second].max() < 1.0, uid


class TestHorizonIndependence:
    def test_short_run_is_prefix_of_long_run(self):
        # nothing in a run may depend on how long it is going to be
        sc = preset("scenario1")
        short, long = (simulate(to_network(sc), sc, SimConfig(
            dt_s=sc.run.dt_s, horizon_s=h, init=sc.run.init)) for h in (0.3, 3.0))
        n = len(short.time)
        for name in short.signals:
            assert np.array_equal(short[name], long[name][:n]), name


class TestPruning:
    def test_pruned_run_is_bitwise_equal_to_unpruned(self):
        # pruning starts once t exceeds the delays plus the 5 s margin and
        # repeats every simulated second: 8 s gives two prunes
        sc = two_user_scenario(steps1=[(2.0, 150.0)], horizon=8.0, cross=100.0)
        full, pruned = run(sc), run(sc, prune_history=True)
        assert pruned.queues["b1"].inputs["u1"].pruned_before > 0
        for name in full.signals:
            assert np.array_equal(full[name], pruned[name]), name


class TestSharedPath:
    def test_two_users_on_one_queue_to_queue_hop_match_packet_sim(self):
        # both users cross b1 -> b2 over the same 10 ms link; cross traffic
        # joins at b2, which is the bottleneck
        sc = Scenario(
            name="shared_hop", packet_bytes=1000,
            queues=(QueueConf("b1", 500.0), QueueConf("b2", 600.0)),
            users=(
                UserConf("u1", ("b1", "b2"), (0.01, 0.01), 0.03,
                         ScheduledProtocol(60.0)),
                UserConf("u2", ("b1", "b2"), (0.02, 0.01), 0.06,
                         ScheduledProtocol(50.0)),
            ),
            rate_flows=(RateFlowConf("x", ("b2",), (0.0,), ConstantProfile(300.0)),),
            run=RunConf(1e-3, 4.0, "equilibrium"))
        traces = run(sc)
        ref = packet_sim(sc, sample_dt_s=0.01, warmup_s=5.0)
        dt = traces.dt_s
        idx = np.rint(ref.sample_times / dt).astype(int)
        assert traces["congested.b2"].min() == 1.0
        for qid, q_pkt in ref.queue_lengths.items():
            assert np.abs(traces[f"q.{qid}"][idx] - q_pkt).max() <= 5.0, qid
        for (qid, fid), cnt in ref.dequeue_counts.items():
            cum = np.concatenate(([0.0], np.cumsum(traces[f"out.{qid}.{fid}"]) * dt))
            assert np.abs(cum[idx] - (cnt - cnt[0])).max() <= 5.0, (qid, fid)


class TestBlocks:
    @pytest.mark.parametrize("source, ticks", [
        ("scenario1", 16),               # u1's 1.6 ms return channel
        ("scenario3", 200),              # the 20 ms b1 -> b2 hop
        (OFFGRID_YAML, 377),             # floor(37.71 ms / 0.1 ms)
        ("squarewave", BLOCK_CAP_TICKS),  # no user, no queue-to-queue hop
    ])
    def test_block_is_the_shortest_feedback_delay(self, source, ticks):
        sc = load_scenario(source)
        assert block_ticks(to_network(sc), sc.run.dt_s) == ticks

    def mixed_scenario(self):
        # two queues joined by a 13 ms hop, an off-grid return delay, a
        # window cut into ACK retaining and back, a FAST user and square
        # cross traffic; 1501 ticks are not a whole number of 13-tick blocks
        return Scenario(
            name="mixed", packet_bytes=1000,
            queues=(QueueConf("b1", 500.0), QueueConf("b2", 400.0)),
            users=(
                UserConf("u1", ("b1", "b2"), (0.0, 0.013), 0.0371,
                         ScheduledProtocol(30.0, ((0.5, 10.0), (1.0, 40.0)))),
                UserConf("u2", ("b2",), (0.0152,), 0.02,
                         FastProtocol(gamma=0.5, alpha_pkts=10.0,
                                      initial_window_pkts=5.0)),
            ),
            rate_flows=(RateFlowConf("x", ("b1",), (0.0,),
                                     SquareProfile(600.0, 100.0, 0.4)),),
            run=RunConf(1e-3, 1.5, "cold"))

    def test_block_size_leaves_every_trace_bitwise_equal(self, monkeypatch):
        sc = self.mixed_scenario()
        assert block_ticks(to_network(sc), sc.run.dt_s) == 13
        blocked = run(sc)
        assert blocked["ackbuf.u1"].min() < 0.0 and blocked["congested.b2"].max() == 1.0
        monkeypatch.setattr(engine, "BLOCK_CAP_TICKS", 1)
        per_tick = run(sc)
        for name in blocked.signals:
            assert np.array_equal(blocked[name], per_tick[name]), name

    def test_divergence_names_the_same_tick_whatever_the_block(self, monkeypatch):
        # a FAST gain far too high for the step blows the window up
        fast = FastProtocol(gamma=1e5, alpha_pkts=50.0, initial_window_pkts=10.0)
        sc = Scenario(
            name="diverge", packet_bytes=1000, queues=(QueueConf("b1", 500.0),),
            users=(UserConf("u1", ("b1",), (0.01,), 0.02, fast),),
            run=RunConf(1e-3, 1.0, "cold"))
        messages = []
        for cap in (BLOCK_CAP_TICKS, 1):
            monkeypatch.setattr(engine, "BLOCK_CAP_TICKS", cap)
            with pytest.raises(SimulationError, match="divergence in user block 'u1'") as err:
                run(sc)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "divergence in user block 'u1' at t=0.199000"

import dataclasses
import functools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ackflow.engine as engine
from ackflow.engine import (
    BLOCK_CAP_TICKS, SimConfig, SimulationError, input_lags, shortest_cycles,
    simulate, static_link_check,
)
from ackflow.history import Trajectory
from ackflow.oracle import equilibrium_from_scenario, equilibrium_queue, packet_sim
from ackflow.scenario import (
    ConstantProfile, FastProtocol, QueueConf, RateFlowConf, RunConf, Scenario,
    ScheduledProtocol, SquareProfile, UserConf, load_scenario, mbps_to_pps,
    to_network,
)
from ackflow.user import circuit_backward_time

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


# component keys of input_lags
U1, U2, U3 = ("user", "u1"), ("user", "u2"), ("user", "u3")
B1, B2 = ("queue", "b1"), ("queue", "b2")


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

    @pytest.mark.parametrize("field", ["dt_s", "horizon_s"])
    @pytest.mark.parametrize("value, problem", [
        (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"),
        (0.0, "positive"), (-1e-3, "positive"),
    ])
    def test_bad_step_or_horizon_names_the_field(self, field, value, problem):
        sc = two_user_scenario()
        cfg = SimConfig(**{"dt_s": 1e-3, "horizon_s": 1.0, "init": "cold",
                           field: value})
        with pytest.raises(SimulationError, match=f"^{field} must be {problem}"):
            simulate(to_network(sc), sc, cfg)

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
        eq_post = equilibrium_queue(dataclasses.replace(
            equilibrium_from_scenario(sc), windows_pkts={"u1": 200.0, "u2": 50.0}))
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


class TestFlightRecord:
    @pytest.mark.parametrize("source, horizon_s", [("scenario1", 3.5), (OFFGRID_YAML, 1.0)],
                             ids=["scenario1", "fast_pair_offgrid"])
    def test_flight_is_the_sending_columns_hold_integral(self, source, horizon_s):
        # one record of the sent mass: flight reads the sending column's own
        # hold cumulative back to the circuit entry time, on the grid
        # (scenario1, across its window step) and off it (the FAST pair)
        sc = load_scenario(source)
        traces = simulate(to_network(sc), sc, SimConfig(
            dt_s=sc.run.dt_s, horizon_s=horizon_s, init=sc.run.init))
        t = traces.time
        for u in sc.users:
            entry = circuit_backward_time(u, traces.queues, t)
            expected = traces.users[u.id].sending.integrate_hold(entry, t)
            assert np.array_equal(traces[f"flight.{u.id}"], expected), u.id


class TestHorizonIndependence:
    def test_short_run_is_prefix_of_long_run(self):
        # nothing in a run may depend on how long it is going to be
        sc = load_scenario("scenario1")
        short, long = (simulate(to_network(sc), sc, SimConfig(
            dt_s=sc.run.dt_s, horizon_s=h, init=sc.run.init)) for h in (0.3, 3.0))
        n = len(short.time)
        for name in short.signals:
            assert np.array_equal(short[name], long[name][:n]), name


class TestPruning:
    def test_pruned_run_is_bitwise_equal_to_unpruned(self):
        # pruning starts once t exceeds the delays plus the 5 s margin and
        # repeats every simulated second: 8 s gives three prunes, at 6, 7
        # and 8 s
        sc = two_user_scenario(steps1=[(2.0, 150.0)], horizon=8.0, cross=100.0)
        full, pruned = run(sc), run(sc, prune_history=True)
        assert pruned.queues["b1"].inputs["u1"].pruned_before > 0
        for name in full.signals:
            assert np.array_equal(full[name], pruned[name]), name

    def test_every_history_waits_at_each_pruning_tick(self, monkeypatch):
        # the histories are pruned at 6, 7 and 8 s, once all the components
        # have recorded through that tick and none beyond it
        sc = two_user_scenario(steps1=[(2.0, 150.0)], horizon=8.0, cross=100.0)
        calls = []
        prune = Trajectory.prune_before

        def spy(traj, t):
            # a time map holds one sample more than the flows: its step ends
            calls.append((t, len(traj) - (traj.pre_slope > 0.0)))
            prune(traj, t)

        monkeypatch.setattr(Trajectory, "prune_before", spy)
        run(sc, prune_history=True)
        lag = sum(to_network(sc).channel_delays_s()) + engine.PRUNE_MARGIN_S
        assert sorted({round(t + lag, 9) for t, _ in calls}) == [6.0, 7.0, 8.0]
        for t, recorded in calls:
            assert recorded == round((t + lag) / sc.run.dt_s) + 1


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
    @pytest.mark.parametrize("source, lags", [
        # u1's 1.6 ms hop and return channels, u2's 58.5 ms ones
        ("scenario1", {U1: {B1: 16}, U2: {B1: 585}, B1: {U1: 16, U2: 585}}),
        # u1 reads b2 across its 100 ms return and b1 across the 20 ms hop
        # more; the hop is b2's lag behind b1, and the users enter at 0 ms
        ("scenario3", {U1: {B2: 1000, B1: 1200}, U2: {B2: 800}, U3: {B1: 400},
                       B1: {U1: 0, U3: 0}, B2: {B1: 200, U2: 0}}),
        # off the grid: floor(37.71 ms / 0.1 ms), floor(12.37 ms / 0.1 ms), ...
        (OFFGRID_YAML, {U1: {B1: 377}, U2: {B1: 885}, B1: {U1: 123, U2: 31}}),
        # rate flows only: their profiles are known at every time
        ("squarewave", {B1: {}}),
    ], ids=["scenario1", "scenario3", "fast_pair_offgrid", "squarewave"])
    def test_input_lags_are_the_channel_delays_in_whole_ticks(self, source, lags):
        sc = load_scenario(source)
        assert input_lags(to_network(sc), sc.run.dt_s) == lags

    @pytest.mark.parametrize("source, cycles", [
        # u1 -> b1 -> u1 and u1 -> b1 -> b2 -> u1 both take 1200 ticks; b1's
        # shortest is through u3, b2's through u2
        ("scenario3", {U1: 1200, U2: 800, U3: 400, B1: 400, B2: 800}),
        # 123 + 377 and 31 + 885 ticks; b1 lies on both
        (OFFGRID_YAML, {U1: 500, U2: 916, B1: 500}),
        # no user, so no feedback: b1's blocks are capped only
        ("squarewave", {B1: None}),
    ], ids=["scenario3", "fast_pair_offgrid", "squarewave"])
    def test_shortest_cycles_are_the_least_lag_around_each_loop(self, source, cycles):
        sc = load_scenario(source)
        assert shortest_cycles(input_lags(to_network(sc), sc.run.dt_s)) == cycles

    @pytest.mark.parametrize("source, blocks", [
        # 160001 ticks: u3 and b1 in 400-tick blocks; u1, u2 and b2 wait
        # for 800-tick ones, u1 paced by b2
        ("scenario3", {U1: 201, U2: 201, U3: 401, B1: 401, B2: 201}),
        # 110001 ticks in blocks of BLOCK_CAP_TICKS
        ("squarewave", {B1: 108}),
        # 200001 ticks; u2 (916-tick cycle) is paced by b1's 500-tick blocks
        (OFFGRID_YAML, {U1: 401, U2: 400, B1: 401}),
    ], ids=["scenario3", "squarewave", "fast_pair_offgrid"])
    def test_blocks_counts_each_components_blocks(self, source, blocks):
        assert run(load_scenario(source)).blocks == blocks

    def test_a_long_loop_waits_for_its_own_long_blocks(self):
        # scenario1: u1's loop is 32 ticks, u2's 1170; u2 reads the same
        # queue that u1's short loop moves, yet takes capped blocks
        sc = load_scenario("scenario1")
        blocks = simulate(to_network(sc), sc, SimConfig(
            dt_s=sc.run.dt_s, horizon_s=4.0, init=sc.run.init)).blocks
        assert blocks[U2] <= blocks[U1] / 10

    @staticmethod
    def mixed_scenario():
        # two queues joined by a 13 ms hop, an off-grid return delay, a
        # window cut into ACK retaining and back, a FAST user and square
        # cross traffic; 1501 ticks are a whole number of none of its lags
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
        assert input_lags(to_network(sc), sc.run.dt_s)[B2][B1] == 13
        blocked = run(sc)
        assert blocked["ackbuf.u1"].min() < 0.0 and blocked["congested.b2"].max() == 1.0
        monkeypatch.setattr(engine, "BLOCK_CAP_TICKS", 1)
        per_tick = run(sc)
        for name in blocked.signals:
            assert np.array_equal(blocked[name], per_tick[name]), name

    @given(cap=st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_any_block_cap_leaves_every_trace_bitwise_equal(self, cap):
        # the cap reshapes every component's blocks and so how far each one
        # runs ahead of the others: a different frontier schedule per draw
        default = mixed_default_run()
        with mock.patch.object(engine, "BLOCK_CAP_TICKS", cap):
            capped = run(self.mixed_scenario())
        for name in default.signals:
            assert np.array_equal(default[name], capped[name]), name

    def test_a_sweep_that_advances_nothing_names_the_stuck_components(
            self, monkeypatch):
        # a zero-lag cycle between u1 and b1: neither can move first, and
        # u2 stops one return delay ahead of b1
        sc = two_user_scenario(horizon=0.2)
        lags = input_lags(to_network(sc), sc.run.dt_s)
        lags[U1][B1] = lags[B1][U1] = 0
        monkeypatch.setattr(engine, "input_lags", lambda network, dt: lags)
        with pytest.raises(SimulationError) as err:
            run(sc)
        assert str(err.value) == (
            "no component can advance: user 'u1' at t=0.000000, user 'u2' at "
            "t=0.050000, queue 'b1' at t=0.000000")

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


@functools.cache
def mixed_default_run():
    return run(TestBlocks.mixed_scenario())

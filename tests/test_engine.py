import dataclasses
import functools
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ackflow.engine as engine
from ackflow.engine import (
    BLOCK_CAP_TICKS, SimConfig, SimulationError, block_schedule, input_lags,
    shortest_cycles, simulate,
)
from ackflow.history import CausalityError, Trajectory
from ackflow.oracle import equilibrium_queue, packet_sim, static_link_check
from ackflow.protocol import fast_wdot
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


def zero_hop_chain():
    # u1 crosses b1 -> b2 -> b3 over zero-delay hops, u2 joins at b3; b2
    # and b3 read their upstream queue with no lag at all
    return Scenario(
        name="zero_hop_chain", packet_bytes=1000,
        queues=(QueueConf("b1", 500.0), QueueConf("b2", 400.0), QueueConf("b3", 300.0)),
        users=(
            UserConf("u1", ("b1", "b2", "b3"), (0.01, 0.0, 0.0), 0.02,
                     ScheduledProtocol(40.0, ((1.0, 20.0),))),
            UserConf("u2", ("b3",), (0.01,), 0.015, ScheduledProtocol(20.0)),
        ),
        run=RunConf(1e-3, 2.0, "cold"))


def dumbbell(n):
    """The many-flow case: one 100 Mb/s queue and n scheduled users with
    1500 B packets, hops of 10 ms + 0.1 ms*i and returns of 20 ms + 0.2 ms*i,
    windows of 600/n, and u0's window doubling at 2.005 s; 5 s from an
    equilibrium start."""
    return Scenario(
        name=f"dumbbell{n}", packet_bytes=1500,
        queues=(QueueConf("b1", mbps_to_pps(100.0, 1500)),),
        users=tuple(
            UserConf(f"u{i}", ("b1",), (0.01 + 1e-4 * i,), 0.02 + 2e-4 * i,
                     ScheduledProtocol(600.0 / n, ((2.005, 1200.0 / n),) if i == 0 else ()))
            for i in range(n)),
        run=RunConf(1e-4, 5.0, "equilibrium"))


def reference_schedule(lags, n_ticks, barriers, dt, cap, order):
    """The block schedule as one loop of passes, as ``simulate`` once ran it
    inline around its block bodies; appends each block to ``order`` and
    returns the frontiers.  The barrier moves on through ``barriers`` once
    every component has reached it."""
    cycles = shortest_cycles(lags)
    sweep = []
    for key, inputs in lags.items():
        cycle = cycles[key]
        length = cap if cycle is None else min(cap, cycle)
        sweep.append((key, length, list(inputs.items())))
    frontier = dict.fromkeys(lags, 0)

    def advance(key, k0, k1):
        order.append((key, k0, k1))
        frontier[key] = k1

    ends = iter(barriers)
    barrier = next(ends)
    while True:
        # every whole block, else the one partial block that ends furthest
        advanced, furthest = False, (None, 0, 0)
        for key, length, inputs in sweep:
            k0 = frontier[key]
            k1 = min(barrier, k0 + cap, *[frontier[src] + lag for src, lag in inputs])
            if k1 > k0 and (k1 == barrier or k1 - k0 >= length):
                advance(key, k0, k1)
                advanced = True
            elif k1 > max(k0, furthest[2]):
                furthest = (key, k0, k1)
        if all(f == barrier for f in frontier.values()):
            if barrier == n_ticks:
                return frontier
            barrier = next(ends)
        elif not advanced:
            if furthest[0] is None:
                stuck = ", ".join(f"{kind} '{cid}' at t={k * dt:.6f}"
                                  for (kind, cid), k in frontier.items() if k < barrier)
                raise SimulationError(f"no component can advance: {stuck}")
            advance(*furthest)


@st.composite
def lag_graphs(draw):
    """1-8 components keyed like ``input_lags``, 0-3 inputs each with lags of
    0-40 ticks (zero-lag cycles too), a run of up to 3000 ticks, and
    increasing barriers that end at the run's last tick."""
    keys = [(draw(st.sampled_from(["user", "queue"])), f"c{i}")
            for i in range(draw(st.integers(1, 8)))]
    lags = {key: draw(st.dictionaries(st.sampled_from(keys), st.integers(0, 40),
                                      max_size=3))
            for key in keys}
    n_ticks = draw(st.integers(1, 3000))
    cuts = draw(st.sets(st.integers(1, n_ticks), max_size=5)) if n_ticks > 1 else set()
    return lags, n_ticks, sorted(cuts | {n_ticks})


def cold(sc):
    return dataclasses.replace(sc, run=dataclasses.replace(sc.run, init="cold"))


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

    def test_queue_no_flow_crosses_stays_idle(self):
        # a queue with no input flows records (0 x ticks) blocks
        sc = dataclasses.replace(two_user_scenario(horizon=0.5),
                                 queues=(QueueConf("b1", 500.0), QueueConf("b0", 100.0)))
        traces = run(sc)
        assert traces.queues["b0"].arrivals.values.shape == (0, len(traces.time))
        for name in ("q.b0", "arrival.b0", "r.b0", "congested.b0"):
            assert np.all(traces[name] == 0.0), name

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
        row = q.flow_ids.index
        for name, values in (("send.u1", u.sending.values), ("ack.u1", u.acks.values),
                             ("in.b1.u1", q.arrivals.values[row("u1")]),
                             ("out.b1.cross_b1", q.departures.values[row("cross_b1")])):
            assert np.shares_memory(traces[name], values), name
        assert np.array_equal(traces["in.b1.u1"], q.inputs["u1"])
        assert np.array_equal(traces["out.b1.cross_b1"], q.outputs["cross_b1"])

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

    @pytest.mark.parametrize("horizon_s, dt_s", [(1e308, 1e-4), (1.0, 1e-300)],
                             ids=["infinite_ticks", "too_many_ticks"])
    def test_a_tick_count_past_any_array_names_both_fields(self, horizon_s, dt_s):
        # each is finite and positive, but horizon_s / dt_s overflows to inf
        # or cannot size an array; neither may reach the allocation
        sc = two_user_scenario()
        fields = re.escape(f"(horizon_s={horizon_s!r}, dt_s={dt_s!r})")
        with pytest.raises(SimulationError, match=f"^horizon_s / dt_s is .* {fields}$"):
            simulate(to_network(sc), sc, SimConfig(dt_s=dt_s, horizon_s=horizon_s,
                                                   init="cold"))

    def test_an_unknown_init_mode_is_refused(self):
        sc = two_user_scenario()
        with pytest.raises(SimulationError, match="^unknown init mode 'warm'$"):
            simulate(to_network(sc), sc, SimConfig(dt_s=1e-3, horizon_s=1.0, init="warm"))

    def test_a_protocol_that_is_neither_controller_is_refused(self):
        # a cold start reads no initial window, so only the engine's own
        # check stops a protocol it cannot run
        sc = two_user_scenario(init="cold")
        user = dataclasses.replace(sc.users[1], protocol="reno")
        sc = dataclasses.replace(sc, users=(sc.users[0], user))
        with pytest.raises(SimulationError, match="^user 'u2': unsupported protocol 'reno'$"):
            simulate(to_network(sc), sc, SimConfig(dt_s=1e-3, horizon_s=1.0, init="cold"))

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
        eq = equilibrium_queue(to_network(sc))
        tau_star = eq.queueing_delays_s["b1"]
        assert tau_star > 0
        tau_tail = tail_mean(traces, "tau.b1")
        assert tau_tail == pytest.approx(tau_star, rel=0.01)

    def test_cold_start_converges_to_same_fixed_point(self):
        sc = two_user_scenario(init="cold", horizon=6.0)
        traces = run(sc)
        eq = equilibrium_queue(to_network(sc))
        assert tail_mean(traces, "tau.b1") == pytest.approx(
            eq.queueing_delays_s["b1"], rel=0.02)

    def test_window_step_moves_equilibrium(self):
        sc = two_user_scenario(steps1=[(2.0, 200.0)], horizon=5.0)
        traces = run(sc)
        eq_pre = equilibrium_queue(to_network(sc))
        eq_post = equilibrium_queue(to_network(two_user_scenario(w1=200.0)))
        dt = traces.dt_s
        pre_window = traces["tau.b1"][int(1.0 / dt):int(1.9 / dt)]
        assert float(pre_window.mean()) == pytest.approx(
            eq_pre.queueing_delays_s["b1"], rel=0.01)
        assert tail_mean(traces, "tau.b1") == pytest.approx(
            eq_post.queueing_delays_s["b1"], rel=0.01)

    def test_run_reads_the_network_not_the_scenario(self):
        # the scenario only rides along in the TraceSet: an equilibrium start
        # from a network whose scenario lists no users runs bit for bit alike
        sc = load_scenario("scenario3")
        cfg = SimConfig(dt_s=sc.run.dt_s, horizon_s=0.5, init=sc.run.init)
        plain = simulate(to_network(sc), sc, cfg)
        bare = simulate(to_network(sc), dataclasses.replace(sc, users=()), cfg)
        assert plain.signals.keys() == bare.signals.keys()
        for name, values in plain.signals.items():
            assert values.tobytes() == bare[name].tobytes(), name
        assert plain.blocks == bare.blocks
        assert plain.equilibrium_init == bare.equilibrium_init

    def test_cross_traffic_occupies_capacity(self):
        sc = two_user_scenario(cross=250.0)
        traces = run(sc)
        eq = equilibrium_queue(to_network(sc))
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

    @given(dt=st.floats(1e-5, 1e-2), rows=st.sampled_from([None, 1, 3]),
           recorded=st.integers(0, 40) | st.integers(0, 300_000),
           lag=st.integers(0, 30),
           # the fractional tick: anywhere, or at _grid_shift's 1e-6 edges
           frac=st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(
               [0.0, 1e-6, 1e-6 * (1 - 1e-9), 1e-6 * (1 + 1e-9), 1 - 1e-6,
                1 - 1e-6 * (1 - 1e-9), 1 - 1e-6 * (1 + 1e-9)]),
           pre_slope=st.sampled_from([0.0, 0.5]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_reader_is_eval_at_off_the_grid_and_a_slice_on_it(
            self, dt, rows, recorded, lag, frac, pre_slope, data):
        # off the grid the two slices give eval_at's values and errors to the
        # bit, up to 300k ticks into a run; on it, one slice after a head of
        # initial_value
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        initial = 7.0 if rows is None else (7.0 + np.arange(rows)).tolist()
        traj = Trajectory(dt, initial, n_ticks=recorded, pre_slope=pre_slope)
        traj.record(0.0, rng.uniform(-1e3, 1e3, np.shape(initial) + (recorded,)))
        row = ... if rows is None else data.draw(st.integers(0, rows - 1))
        delay = (lag + frac) * dt
        reader = engine._Reader(traj=traj, row=row, delay_s=delay, dt_s=dt)
        shift = engine._grid_shift(delay, dt)
        lag = engine._lag_ticks(delay, dt)
        # a block that may straddle sample 0, end on the last readable
        # sample, or run past it
        end = recorded + lag  # one past the last readable tick
        k1 = data.draw(st.just(end) | st.integers(1, end + 3) if end else
                       st.integers(1, 3))
        k0 = data.draw(st.integers(max(0, min(k1, lag) - 3), k1 - 1) |
                       st.integers(0, k1 - 1))
        ticks = np.arange(k0, k1) * dt
        if shift is None:
            try:
                want = traj.eval_at(ticks - delay, row)
            except CausalityError as err:
                with pytest.raises(CausalityError, match=re.escape(str(err))):
                    reader.read(k0, ticks)
                assert k1 > end
                return
            got = reader.read(k0, ticks)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        elif k1 > end:
            with pytest.raises(CausalityError, match="touches an unrecorded sample"):
                reader.read(k0, ticks)
        else:
            k = np.arange(k0, k1) - shift
            values = traj.values[row]
            want = np.where(k >= 0, values[np.maximum(k, 0)] if recorded else 0.0,
                            traj.initial_value[row])
            assert reader.read(k0, ticks).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("source, horizon_s", [("scenario3", 2.0), (OFFGRID_YAML, 0.3)],
                             ids=["scenario3", "fast_pair_offgrid"])
    def test_only_the_flight_chunks_and_fast_blocks_invert_the_circuit(
            self, monkeypatch, source, horizon_s):
        # the flight is filled off the block path, one circuit inversion per
        # user and chunk of FLIGHT_CHUNK_TICKS; a FAST user's block inverts
        # the circuit once more, for its queueing delay
        calls = []

        def counted(user, queues, t):
            calls.append(user.id)
            return circuit_backward_time(user, queues, t)

        monkeypatch.setattr(engine, "circuit_backward_time", counted)
        sc = load_scenario(source)
        traces = simulate(to_network(sc), sc, SimConfig(
            dt_s=sc.run.dt_s, horizon_s=horizon_s, init=sc.run.init))
        chunks = -(-len(traces.time) // engine.FLIGHT_CHUNK_TICKS)
        for u in sc.users:
            fast = isinstance(u.protocol, FastProtocol)
            assert calls.count(u.id) == chunks + fast * traces.blocks["user", u.id], u.id

    def test_a_history_fault_in_the_flight_names_the_user_and_its_chunk(self, monkeypatch):
        # a fault in the flight pass is reported like one in a block, from
        # the first tick of the chunk that met it
        start = engine.FLIGHT_CHUNK_TICKS

        def faulty(user, queues, t):
            if t[0] >= start * 1e-4:
                raise CausalityError("read past the history")
            return circuit_backward_time(user, queues, t)

        monkeypatch.setattr(engine, "circuit_backward_time", faulty)
        sc = load_scenario("scenario3")
        with pytest.raises(SimulationError) as err:
            simulate(to_network(sc), sc, SimConfig(
                dt_s=sc.run.dt_s, horizon_s=1.0, init=sc.run.init))
        assert str(err.value) == (f"user flight 'u1' from t={start * 1e-4:.6f}: "
                                  "read past the history")
        assert isinstance(err.value.__cause__, CausalityError)


    @pytest.mark.parametrize("source, init, horizon_s", [
        ("two_user", "cold", 2.5), ("two_user", "equilibrium", 2.5),
        (OFFGRID_YAML, "cold", 1.5)], ids=["cold", "equilibrium", "fast_pair_offgrid"])
    def test_flight_ode_is_the_per_tick_sent_minus_acked_sum(
            self, monkeypatch, source, init, horizon_s):
        # the balance is filled chunk by chunk at each barrier (one each
        # simulated second with pruning on), yet it is the one running sum
        # a tick loop takes from the start's window, to the bit: across the
        # opening burst, a window step and every chunk and barrier edge
        monkeypatch.setattr(engine, "FLIGHT_CHUNK_TICKS", 7)
        if source == "two_user":
            sc = two_user_scenario(steps1=[(1.5, 150.0)], horizon=horizon_s, init=init)
        else:
            sc = load_scenario(source)
        assert sc.run.init == init
        traces = simulate(to_network(sc), sc, SimConfig(
            dt_s=sc.run.dt_s, horizon_s=horizon_s, init=init, prune_history=True))
        dt = traces.dt_s
        for u in sc.users:
            b = u.protocol.initial_window_pkts if init == "equilibrium" else 0.0
            expected = []
            for send, ack in zip(traces[f"send.{u.id}"].tolist(),
                                 traces[f"ack.{u.id}"].tolist()):
                expected.append(b)
                b += (send - ack) * dt
            assert traces[f"flight_ode.{u.id}"].tobytes() == np.array(expected).tobytes()


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
        assert pruned.queues["b1"].arrivals.pruned_before > 0
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
        ("scenario3", {U1: 200, U2: 201, U3: 401, B1: 401, B2: 201}),
        # 110001 ticks in blocks of BLOCK_CAP_TICKS
        ("squarewave", {B1: 108}),
        # 200001 ticks; u2 (916-tick cycle) is paced by b1's 500-tick blocks
        (OFFGRID_YAML, {U1: 401, U2: 400, B1: 401}),
        # 80001 ticks; u1 and b1 in 32-tick blocks, u2 (1170-tick cycle)
        # capped at BLOCK_CAP_TICKS
        ("scenario1", {U1: 2501, U2: 79, B1: 2501}),
    ], ids=["scenario3", "squarewave", "fast_pair_offgrid", "scenario1"])
    def test_blocks_counts_each_components_blocks(self, source, blocks):
        assert run(load_scenario(source)).blocks == blocks

    @pytest.mark.parametrize("declared", [
        cold(load_scenario("scenario3")),
        # the equilibrium start too: equilibrium_queue sweeps in id order
        load_scenario("scenario3"),
        zero_hop_chain(),
    ], ids=["scenario3", "scenario3-equilibrium", "zero_hop_chain"])
    def test_queue_declaration_order_changes_neither_blocks_nor_traces(self, declared):
        reversed_ = dataclasses.replace(declared, queues=declared.queues[::-1])
        assert reversed_.queues != declared.queues
        a, b = run(declared), run(reversed_)
        assert a.blocks == b.blocks
        assert a.signals.keys() == b.signals.keys()
        for name in a.signals:
            assert np.array_equal(a[name], b[name]), name

    @pytest.mark.parametrize("source, message", [
        # an index read past its input's frontier
        ("scenario3", "queue block 'b1' from t=0.000000: read 0.0s behind "
                      "t=0.04 touches an unrecorded sample"),
        # an interpolated read past it
        (OFFGRID_YAML, "queue block 'b1' from t=0.000000: future read at "
                       "t=0.037630000000000004 (history ends at 0.0376)"),
        # an interpolated read of b1's departures across u1's return delay,
        # before b1 has recorded a sample
        (OFFGRID_YAML, "user block 'u1' from t=0.000000: future read at "
                       "t=-9.999999999996123e-06 (history ends at -0.0001)"),
    ], ids=["scenario3", "fast_pair_offgrid", "fast_pair_offgrid-user"])
    def test_a_history_fault_names_the_component_and_its_block(
            self, monkeypatch, source, message):
        # lags 50 ticks too long let the component the message names run
        # ahead of what its inputs recorded
        kind, _, rest = message.partition(" block '")
        key = (kind, rest.partition("'")[0])

        def overlong(network, dt):
            lags = input_lags(network, dt)
            lags[key] = {src: lag + 50 for src, lag in lags[key].items()}
            return lags

        sc = load_scenario(source)
        monkeypatch.setattr(engine, "input_lags", overlong)
        with pytest.raises(SimulationError) as err:
            simulate(to_network(sc), sc, SimConfig(
                dt_s=sc.run.dt_s, horizon_s=1.0, init=sc.run.init))
        assert str(err.value) == message
        assert isinstance(err.value.__cause__, CausalityError)

    def test_fast_wdot_is_called_once_per_fast_user_block(self, monkeypatch):
        # the FAST window loop makes no call per tick: one call on arrays
        # gives a block's rates, through the global a tracer patches
        sc = load_scenario(OFFGRID_YAML)
        config = SimConfig(dt_s=sc.run.dt_s, horizon_s=1.0, init=sc.run.init)
        plain = simulate(to_network(sc), sc, config)
        calls = dict.fromkeys((u.total_delay_s for u in sc.users), 0)

        def counted(window, tau, total_delay, proto):
            calls[total_delay] += 1
            return fast_wdot(window, tau, total_delay, proto)

        monkeypatch.setattr(engine, "fast_wdot", counted)
        patched = simulate(to_network(sc), sc, config)
        assert calls == {u.total_delay_s: patched.blocks["user", u.id] for u in sc.users}
        assert min(calls.values()) > 1
        for name in plain.signals:
            assert np.array_equal(plain[name], patched[name]), name

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

    @given(graph=lag_graphs(), cap=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_block_schedule_is_the_reference_sweep(self, graph, cap):
        # no block body runs: the schedule is a function of the lags alone
        lags, n_ticks, barriers = graph
        want, got = [], []
        try:
            want_frontier = reference_schedule(lags, n_ticks, barriers, 1e-3, cap, want)
        except SimulationError as err:
            want_frontier = str(err)
        frontier = dict.fromkeys(lags, 0)
        with mock.patch.object(engine, "BLOCK_CAP_TICKS", cap):
            try:
                for barrier in barriers:
                    got.extend(block_schedule(lags, shortest_cycles(lags), frontier,
                                              barrier, 1e-3))
            except SimulationError as err:
                frontier = str(err)
        assert got == want
        assert frontier == want_frontier

    @pytest.mark.parametrize("n, blocks", [(10, 1838), (50, 8518)])
    def test_many_users_take_the_baseline_blocks(self, n, blocks):
        # the schedule alone on the dumbbell's lags, with no block body
        sc = dumbbell(n)
        dt = sc.run.dt_s
        lags = input_lags(to_network(sc), dt)
        n_ticks = int(round(sc.run.horizon_s / dt)) + 1
        frontier = dict.fromkeys(lags, 0)
        schedule = block_schedule(lags, shortest_cycles(lags), frontier, n_ticks, dt)
        assert sum(1 for _ in schedule) == blocks
        assert set(frontier.values()) == {n_ticks}

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


@st.composite
def random_chains(draw):
    """1-3 queues in a chain and 1-3 scheduled users on contiguous sub-paths,
    hops of 0 or 10-60 ms on or off the 1 ms grid, an optional constant or
    square rate flow, and a cold or equilibrium start, over 0.5 s."""
    queues = tuple(QueueConf(f"b{i}", draw(st.floats(200.0, 1000.0)))
                   for i in range(draw(st.integers(1, 3))))
    # on the grid, or in steps of 0.1 ms
    delay = st.integers(10, 60).map(lambda ms: ms / 1e3) | st.integers(100, 600).map(
        lambda d: d / 1e4)

    def route():
        first = draw(st.integers(0, len(queues) - 1))
        last = draw(st.integers(first, len(queues) - 1))
        path = tuple(q.id for q in queues[first:last + 1])
        return path, tuple(draw(st.just(0.0) | delay) for _ in path)

    users = tuple(
        UserConf(f"u{i}", *route(), draw(delay), ScheduledProtocol(
            draw(st.floats(1.0, 80.0)),
            tuple(draw(st.lists(st.tuples(st.floats(0.05, 0.45), st.floats(0.0, 80.0)),
                                max_size=1)))))
        for i in range(draw(st.integers(1, 3))))
    kind = draw(st.sampled_from([None, "constant", "square"]))
    flows = ()
    if kind:
        low = draw(st.floats(0.0, 0.5)) * min(q.capacity_pps for q in queues)
        profile = (ConstantProfile(low) if kind == "constant" else SquareProfile(
            2.0 * low, low, draw(st.floats(0.05, 0.4))))
        flows = (RateFlowConf("x", *route(), profile),)
    # the equilibrium start needs a constant rate flow
    init = draw(st.sampled_from(["cold"] if kind == "square" else ["cold", "equilibrium"]))
    return Scenario(name="random_chain", packet_bytes=1000, queues=queues, users=users,
                    rate_flows=flows, run=RunConf(1e-3, 0.5, init))


class TestRandomTopologies:
    @given(sc=random_chains(), cap=st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_random_chains_run_finite_balanced_and_block_free(self, sc, cap):
        traces = run(sc)
        for name, values in traces.signals.items():
            assert np.isfinite(values).all(), name
        # each queue's mass balance, as perfbench checks it
        dt = traces.dt_s
        for qid, q in traces.queues.items():
            arrived = float(np.sum(traces[f"arrival.{qid}"])) * dt
            served = float(np.sum(traces[f"r.{qid}"])) * dt
            departed = sum(float(np.sum(row)) for row in q.outputs.values()) * dt
            gap = max(abs(q.backlog - traces[f"q.{qid}"][0] - (arrived - served)),
                      abs(departed - served))
            assert gap <= 1e-9 * max(1.0, arrived), qid
        with mock.patch.object(engine, "BLOCK_CAP_TICKS", cap):
            capped = run(sc)
        for name in traces.signals:
            assert np.array_equal(traces[name], capped[name]), name


@functools.cache
def mixed_default_run():
    return run(TestBlocks.mixed_scenario())

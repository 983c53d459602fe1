import dataclasses
import functools
import math
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ackflow.engine as engine
from ackflow.engine import (
    BLOCK_CAP_TICKS, SimConfig, SimulationError, _feeds, block_schedule,
    circuit_backward_time, input_lags, shortest_cycles, simulate,
)
from ackflow.history import CausalityError, Trajectory
from ackflow.oracle import equilibrium_queue, packet_sim
from ackflow.protocol import fast_wdot
from ackflow.scenario import (
    ConstantProfile, FastProtocol, QueueConf, RateFlowConf, RunConf, Scenario,
    ScenarioError, ScheduledProtocol, SquareProfile, UserConf, load_scenario,
    mbps_to_pps, to_network,
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


def reference_schedule(lags, n_ticks, barriers, dt, cap, order, lookahead=None):
    """The block schedule as one loop of passes, as ``simulate`` once ran it
    inline around its block bodies; appends each block to ``order`` and
    returns the frontiers.  The barrier moves on through ``barriers`` once
    every component has reached it.  ``lookahead(key, k1, barrier)``, where
    given, is how far a block to ``k1`` records its outputs, which its
    readers run ahead of; else its frontier."""
    cycles = shortest_cycles(lags)
    sweep = []
    for key, inputs in lags.items():
        cycle = cycles[key]
        length = cap if cycle is None else min(cap, cycle)
        sweep.append((key, length, list(inputs.items())))
    frontier = dict.fromkeys(lags, 0)
    reach = dict(frontier)

    def advance(key, k0, k1):
        order.append((key, k0, k1))
        frontier[key] = k1
        reach[key] = lookahead(key, k1, barrier) if lookahead else k1

    ends = iter(barriers)
    barrier = next(ends)
    while True:
        # every whole block, else the one partial block that ends furthest
        advanced, furthest = False, (None, 0, 0)
        for key, length, inputs in sweep:
            k0 = frontier[key]
            k1 = min(barrier, k0 + cap, *[reach[src] + lag for src, lag in inputs])
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
        # send/in/out traces are the store's columns, not copies; no block
        # reads the ACKs back, so ack is a plain column of the user state
        traces = run(two_user_scenario(cross=100.0, horizon=0.5))
        q, u = traces.queues["b1"], traces.users["u1"]
        assert type(u.acks) is np.ndarray and len(u.acks) == len(traces.time)
        row = q.flow_ids.index
        for name, values in (("send.u1", u.sending.values), ("ack.u1", u.acks),
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
        # the run settings refuse it where they are built, so no run and no
        # oracle meets it; ``problem`` is the test the value fails
        with pytest.raises(ScenarioError, match=f"^{field} must be finite and positive, "
                                                f"got {re.escape(repr(value))}$") as err:
            SimConfig(**{"dt_s": 1e-3, "horizon_s": 1.0, "init": "cold", field: value})
        assert err.value.field == field
        assert problem in str(err.value)

    def test_a_nan_horizon_never_reaches_the_packet_oracle(self):
        # packet_sim reads scenario.run itself, and a NaN horizon stopped it
        # as "cannot convert float NaN to integer"
        sc = load_scenario("scenario7")
        with pytest.raises(ScenarioError) as err:
            dataclasses.replace(sc, run=RunConf(1e-4, math.nan, "equilibrium"))
        assert err.value.field == "horizon_s"

    @pytest.mark.parametrize("horizon_s, dt_s", [(1e308, 1e-4), (1.0, 1e-300)],
                             ids=["infinite_ticks", "too_many_ticks"])
    def test_a_tick_count_past_any_array_names_both_fields(self, horizon_s, dt_s):
        # each is finite and positive, but horizon_s / dt_s overflows to inf
        # or cannot size an array; the run settings refuse it where they are
        # built, so no run and no oracle meets it
        fields = re.escape(f"(horizon_s={horizon_s!r}, dt_s={dt_s!r})")
        with pytest.raises(ScenarioError, match=f"^horizon_s / dt_s is .* {fields}$") as err:
            SimConfig(dt_s=dt_s, horizon_s=horizon_s, init="cold")
        assert err.value.field == "horizon_s"

    def test_a_square_wave_too_fast_to_index_is_refused_by_both_models(self):
        # half a period of 5e-301 s puts t = 1e-4 in piece 2e296, past any
        # int64: the index came out as -2**63 + 1 with only a numpy warning,
        # and its parity set f1's rate; both models refuse such a run before
        # it starts, with one check that names the flow and its period
        sc = load_scenario("squarewave")
        f1, f2 = sc.rate_flows
        f1 = dataclasses.replace(f1, profile=SquareProfile(f1.profile.high_pps, 0.0, 1e-300))
        sc = dataclasses.replace(sc, rate_flows=(f1, f2), run=RunConf(1e-4, 0.01, "cold"))
        refusal = r"^rate flow 'f1': period_s=1e-300 is too short to index its half periods"
        for model in (lambda: simulate(to_network(sc), sc, SimConfig(
                          dt_s=1e-4, horizon_s=0.01, init="cold")),
                      lambda: packet_sim(sc)):
            with pytest.raises(ScenarioError, match=refusal) as err:
                model()
            assert err.value.field == "period_s"
        # the rule: |t| / (period_s / 2) below 2**62 at every time of the run
        square = SquareProfile(1.0, 0.0, 2.0)
        assert square.counts_pieces_to(2.0 ** 62 - 2.0 ** 10)
        assert not square.counts_pieces_to(2.0 ** 62)
        assert ConstantProfile(1.0).counts_pieces_to(math.inf)

    def test_an_unknown_init_mode_is_refused(self):
        with pytest.raises(ScenarioError,
                           match="^must be 'cold' or 'equilibrium', got 'warm'$") as err:
            SimConfig(dt_s=1e-3, horizon_s=1.0, init="warm")
        assert err.value.field == "init"

    def test_a_protocol_that_is_neither_controller_is_refused(self):
        # the user refuses it where it is built: the engine, packet_sim and
        # equilibrium_queue all read the protocol as one of the controllers
        sc = two_user_scenario(init="cold")
        with pytest.raises(ScenarioError,
                           match="^user 'u2': unsupported protocol 'reno'$") as err:
            dataclasses.replace(sc.users[1], protocol="reno")
        assert err.value.field == "protocol"

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


FAR_S = 1e305  # far past any run: 1e309 ticks of 1e-4 s, past the float range


def far_scenario7(case, init):
    """scenario7 over 0.5 s with one channel delay, or one schedule step,
    at ``FAR_S``: u1's return or hop, a constant rate flow's hop, or a
    step appended to u1's schedule."""
    sc = load_scenario("scenario7")
    u1, flows = sc.users[0], ()
    if case == "return":
        u1 = dataclasses.replace(u1, return_delay_s=FAR_S)
    elif case == "hop":
        u1 = dataclasses.replace(u1, hop_delays_s=(FAR_S,))
    elif case == "rate_flow":
        flows = (RateFlowConf("far", ("b1",), (FAR_S,),
                              ConstantProfile(0.5 * sc.queues[0].capacity_pps)),)
    else:
        proto = u1.protocol
        u1 = dataclasses.replace(u1, protocol=ScheduledProtocol(
            proto.initial_window_pkts, proto.steps + ((FAR_S, 100.0),)))
    return dataclasses.replace(sc, users=(u1,), rate_flows=flows,
                               run=RunConf(1e-4, 0.5, init))


class TestFarDelays:
    """A delay or a schedule step past the run reaches no tick: it counts
    as ``MAX_TICKS`` ticks, so a read across it sees only the pre-history
    and the step never lands.  Each stopped with a bare ``OverflowError``
    where ``x / dt`` became ticks; now a run meets no overflow at all, not
    even as a numpy warning."""

    @pytest.mark.parametrize("init", ["cold", "equilibrium"])
    @pytest.mark.parametrize("case", ["return", "hop", "rate_flow", "step"])
    def test_a_delay_or_step_past_the_run_reads_the_pre_history(self, case, init):
        sc = far_scenario7(case, init)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = run(sc)
        for name, values in traces.signals.items():
            assert np.isfinite(values).all(), name
        held = traces.users["u1"].sending.initial_value
        if case == "return":
            assert (traces["ack.u1"] == held).all()
        elif case == "hop":
            assert (traces["in.b1.u1"] == held).all()
        elif case == "rate_flow":
            assert (traces["in.b1.far"] == 0.5 * sc.queues[0].capacity_pps).all()
        else:
            plain = run(dataclasses.replace(load_scenario("scenario7"), run=sc.run))
            assert sorted(traces.signals) == sorted(plain.signals)
            for name, values in plain.signals.items():
                assert traces[name].tobytes() == values.tobytes(), name


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
        # the store's own reads; before the start the map is the queue's
        # pre-start line g + tau0, which forward_map.eval_at does not answer
        # there (see FifoQueue's docstring)
        g = q.backward_time(grid[congested])
        tau0 = q.forward_map.values[0]
        assert (g < 0.0).any()
        # departure(arrival time) recovers t, and t = g + delay(g)
        f_of_g = np.where(g < 0.0, g + tau0, q.forward_map.eval_at(g))
        assert np.abs(f_of_g - grid[congested]).max() <= 1e-6
        tau_at_g = f_of_g - g
        assert np.abs(g + tau_at_g - grid[congested]).max() <= 1e-6


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

    # max |q_dt - q_ref| on the 10 ms grid over 2 s, against dt = 2.5e-5:
    # fast2 0.00602, 0.00282 and 0.00121 pkts at dt = 4e-4, 2e-4 and 1e-4
    # (ratios 2.14 and 2.33), scenario3 0.230, 0.0646 and 0.0221 (3.56 and
    # 2.93).  Cold starts, since scenario3's equilibrium start stays steady
    # and shows no step error; every delay is on each grid, so no read
    # interpolates and the error is the step's own
    @pytest.mark.parametrize("name", ["fast2", "scenario3"])
    def test_halving_dt_shrinks_the_steps_own_error(self, name):
        sc = load_scenario(name)
        net = to_network(sc)

        def queues(dt):
            assert not any(engine._lag_ticks(d, dt)[1]
                           for reads in _feeds(net).values() for _, _, d in reads)
            traces = simulate(net, sc, SimConfig(dt_s=dt, horizon_s=2.0, init="cold"))
            stride = round(0.01 / dt)
            assert stride * dt == pytest.approx(0.01, rel=1e-12)
            return np.array([traces[f"q.{q.id}"][::stride] for q in sc.queues])

        ref = queues(2.5e-5)
        errs = [np.abs(queues(dt) - ref).max() for dt in (4e-4, 2e-4, 1e-4)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.5 <= coarse / fine <= 5.0, errs
        assert errs[-1] < 0.05, errs


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
           # the fractional tick: anywhere, or at _lag_ticks's 1e-6 edges
           frac=st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(
               [0.0, 1e-6, 1e-6 * (1 - 1e-9), 1e-6 * (1 + 1e-9), 1 - 1e-6,
                1 - 1e-6 * (1 - 1e-9), 1 - 1e-6 * (1 + 1e-9)]),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_reader_is_eval_at_off_the_grid_and_a_slice_on_it(
            self, dt, rows, recorded, lag, frac, data):
        # off the grid the two slices give eval_at's values and errors to the
        # bit, up to 300k ticks into a run; on it, one slice after a head of
        # initial_value
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        initial = 7.0 if rows is None else (7.0 + np.arange(rows)).tolist()
        traj = Trajectory(dt, initial, n_ticks=recorded)
        traj.record(0.0, rng.uniform(-1e3, 1e3, np.shape(initial) + (recorded,)))
        row = ... if rows is None else data.draw(st.integers(0, rows - 1))
        delay = (lag + frac) * dt
        reader = engine._Reader(traj=traj, row=row, delay_s=delay, dt_s=dt)
        lag, off_grid = engine._lag_ticks(delay, dt)
        # a block that may straddle sample 0, end on the last readable
        # sample, or run past it
        end = recorded + lag  # one past the last readable tick
        k1 = data.draw(st.just(end) | st.integers(1, end + 3) if end else
                       st.integers(1, 3))
        k0 = data.draw(st.integers(max(0, min(k1, lag) - 3), k1 - 1) |
                       st.integers(0, k1 - 1))
        ticks = np.arange(k0, k1) * dt
        if off_grid:
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
            # the history's own check names the first unrecorded tick's time
            t = float(ticks[max(end - k0, 0)] - delay)
            with pytest.raises(CausalityError, match=re.escape(
                    f"future read at t={t!r} (history ends at {(recorded - 1) * dt!r})")):
                reader.read(k0, ticks)
        else:
            k = np.arange(k0, k1) - lag
            values = traj.values[row]
            want = np.where(k >= 0, values[np.maximum(k, 0)] if recorded else 0.0,
                            traj.initial_value[row])
            assert reader.read(k0, ticks).tobytes() == want.tobytes()

    @pytest.mark.parametrize("delay_s", [1.0, 1.25], ids=["on-grid", "off-grid"])
    def test_a_read_answers_zero_ticks_and_refuses_nan_and_the_unrecorded(self, delay_s):
        # a read past the record fails the history's one check on either
        # path, which names the first unrecorded tick's delayed time, or a
        # NaN; zero ticks read zero values wherever they start, where a
        # block of none past the record indexed into its empty ticks
        traj = Trajectory(0.5, 7.0, n_ticks=10)
        traj.record(0.0, np.arange(10.0))
        reader = engine._Reader(traj=traj, delay_s=delay_s, dt_s=0.5)
        end = 10 + reader.lag  # one past the last readable tick
        for k0 in (0, end - 1, end, end + 3):
            got = reader.read(k0, np.array([]))
            assert got.dtype == np.float64 and got.shape == (0,), k0
        ticks = np.arange(end - 2, end + 2) * 0.5
        with pytest.raises(CausalityError, match=re.escape(
                f"future read at t={end * 0.5 - delay_s!r} (history ends at 4.5)")):
            reader.read(end - 2, ticks)
        ticks[2] = math.nan
        with pytest.raises(CausalityError, match=re.escape(
                "future read at t=nan (history ends at 4.5)")):
            reader.read(end - 2, ticks)


class TestFlightRecord:
    @pytest.mark.parametrize("source, horizon_s, pruned", [
        ("scenario1", 3.5, False), (OFFGRID_YAML, 1.0, False), ("scenario3", 1.0, False),
        ("two_user", 2.5, True), (OFFGRID_YAML, 1.5, True), ("scenario3_fast", 1.0, False),
        ("scenario3_fast", 1.5, True)],
        ids=["scenario1", "fast_pair_offgrid", "scenario3", "two_user-pruned",
             "fast_pair_offgrid-pruned", "scenario3_fast", "scenario3_fast-pruned"])
    def test_flight_is_the_sending_columns_hold_integral(
            self, monkeypatch, source, horizon_s, pruned):
        # one record of the sent mass: flight reads the sending column's own
        # hold cumulative back to the circuit entry time, on the grid
        # (scenario1 and two_user, across their window steps) and off it
        # (the FAST pair).  Pruned, with 7-tick blocks and flight chunks and
        # a floor that rises at each barrier, the flight is filled across
        # every chunk seam and barrier, yet it is still the one integral over
        # the whole run, which only the unpruned run's histories can answer.
        # A FAST user's blocks hand the flight their entry times: scenario3
        # with a FAST u1, whose circuit crosses both queues and the 20 ms
        # hop between them, beside two scheduled users
        if source == "two_user":
            sc = two_user_scenario(steps1=[(1.5, 150.0)], horizon=horizon_s)
        elif source == "scenario3_fast":
            sc = load_scenario("scenario3")
            u1 = dataclasses.replace(sc.users[0], protocol=FastProtocol(
                gamma=0.5, alpha_pkts=200.0, initial_window_pkts=1600.0))
            assert u1.queue_path == ("b1", "b2") and u1.hop_delays_s[1] == 0.020
            sc = dataclasses.replace(sc, users=(u1, *sc.users[1:]))
        else:
            sc = load_scenario(source)
        config = SimConfig(dt_s=sc.run.dt_s, horizon_s=horizon_s, init=sc.run.init)
        traces = whole = simulate(to_network(sc), sc, config)
        if pruned:
            monkeypatch.setattr(engine, "BLOCK_CAP_TICKS", 7)
            traces = simulate(to_network(sc), sc,
                              dataclasses.replace(config, prune_history=True))
        t = whole.time
        for u in sc.users:
            assert (traces.users[u.id].sending.pruned_before > 0.0) == pruned, u.id
            entry = circuit_backward_time(u, whole.queues, t)
            expected = whole.users[u.id].sending.integrate_hold(entry, t)
            assert traces[f"flight.{u.id}"].tobytes() == expected.tobytes(), u.id

    @pytest.mark.parametrize("source, horizon_s", [("scenario3", 2.0), (OFFGRID_YAML, 0.3)],
                             ids=["scenario3", "fast_pair_offgrid"])
    def test_a_fast_users_blocks_and_a_scheduled_users_flight_chunks_invert_the_circuit(
            self, monkeypatch, source, horizon_s):
        # a FAST user's block inverts the circuit for its queueing delay and
        # the flight integrates from those entry times, with no inversion
        # of its own; a scheduled user's circuit is inverted once per chunk
        # of BLOCK_CAP_TICKS of the flight, off the block path
        calls = []

        def counted(user, queues, t):
            calls.append(user.id)
            return circuit_backward_time(user, queues, t)

        monkeypatch.setattr(engine, "circuit_backward_time", counted)
        sc = load_scenario(source)
        traces = simulate(to_network(sc), sc, SimConfig(
            dt_s=sc.run.dt_s, horizon_s=horizon_s, init=sc.run.init))
        chunks = -(-len(traces.time) // engine.BLOCK_CAP_TICKS)
        for u in sc.users:
            fast = isinstance(u.protocol, FastProtocol)
            expected = traces.blocks["user", u.id] if fast else chunks
            assert calls.count(u.id) == expected, u.id

    def test_a_history_fault_in_the_flight_names_the_user_and_its_chunk(self, monkeypatch):
        # a fault in the flight pass is reported like one in a block, from
        # the first tick of the chunk that met it
        start = engine.BLOCK_CAP_TICKS

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
            self, source, init, horizon_s):
        # the balance is the one running sum a tick loop takes from the
        # start's window, to the bit, across the opening burst and a window
        # step; pruning, whose floor rises each simulated second, leaves it
        # alone, since it reads only the returned send and ack traces
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

    @pytest.mark.parametrize("horizon_s", [0.03515, 6e-5])
    def test_a_horizon_off_the_grid_ends_at_the_tick_before_it(self, horizon_s):
        # a run's ticks are every k * dt at or before the horizon: the
        # nearest tick would be 0.0352 s and 1e-4 s, past it
        sc = load_scenario("squarewave")
        short, long = (simulate(to_network(sc), sc, SimConfig(
            dt_s=1e-4, horizon_s=h, init=sc.run.init)) for h in (horizon_s, 0.05))
        n = len(short.time)
        assert short.time[-1] <= horizon_s < short.time[-1] + 1e-4
        for name in short.signals:
            assert np.array_equal(short[name], long[name][:n]), name


class TestMemory:
    @pytest.mark.parametrize("source", ["scenario3", OFFGRID_YAML, "squarewave"],
                             ids=["scenario3", "fast_pair_offgrid", "squarewave"])
    def test_memory_beyond_the_returned_arrays_does_not_grow_with_the_horizon(self, source):
        # numpy reports its buffers to tracemalloc: the peak traced during a
        # run, less the arrays it returns (the signals' bases and each
        # queue's time map), grows from a 1 s run to a 4 s one by less than
        # one signal's 3 s of samples; a full-length copy of an integrated
        # history would grow by at least that
        sc = load_scenario(source)
        beyond = []
        for horizon_s in (1.0, 4.0):
            tracemalloc.start()
            try:
                traces = simulate(to_network(sc), sc, SimConfig(
                    dt_s=sc.run.dt_s, horizon_s=horizon_s, init=sc.run.init))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            arrays = [a if a.base is None else a.base for a in traces.signals.values()]
            arrays += [q.forward_map.values.base for q in traces.queues.values()]
            beyond.append(peak - sum({id(a): a.nbytes for a in arrays}.values()))
        assert beyond[1] - beyond[0] < round(3.0 / sc.run.dt_s) * 8

    @pytest.mark.parametrize("source", ["scenario3", OFFGRID_YAML, "squarewave"],
                             ids=["scenario3", "fast_pair_offgrid", "squarewave"])
    def test_every_returned_array_is_a_piece_of_one_store(self, source):
        # the signals, the tick times and the forward maps are disjoint
        # pieces of one allocation, sized exactly: a row per signal and one
        # sample longer, a row per queue's map and one for the tick times
        sc = load_scenario(source)
        traces = simulate(to_network(sc), sc, SimConfig(
            dt_s=sc.run.dt_s, horizon_s=0.3, init=sc.run.init))
        arrays = [*traces.signals.values(), traces.time]
        arrays += [q.forward_map.values for q in traces.queues.values()]
        store = traces.time.base
        assert store is not None and all(a.base is store for a in arrays)
        spans = sorted((a.ctypes.data, a.ctypes.data + a.nbytes) for a in arrays)
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
        n, queues = len(traces.time), len(traces.queues)
        assert store.nbytes == 8 * (len(traces.signals) * n + (queues + 1) * (n + 1))

    @pytest.mark.parametrize("horizon_s, dt_s", [(1e9, 1e-4), (1.0, 2e-18)],
                             ids=["beyond_memory", "past_2**63_bytes"])
    def test_a_run_too_large_to_allocate_names_its_size(self, horizon_s, dt_s):
        # the store is sized before any other full-length array exists, so
        # its failure is the run's: 1e13 ticks want 800 TiB, 5e17 ticks more
        # bytes than any array can hold; squarewave has 9 signals, 1 queue
        sc = load_scenario("squarewave")
        n = round(horizon_s / dt_s) + 1
        size = 8 * (9 * n + 2 * (n + 1))
        with pytest.raises(SimulationError, match=re.escape(
                f"horizon_s={horizon_s!r} at dt_s={dt_s!r} is {n} ticks of 9 signals, "
                f"{size} bytes: too large to allocate")):
            simulate(to_network(sc), sc, SimConfig(dt_s=dt_s, horizon_s=horizon_s,
                                                   init=sc.run.init))


class TestPruning:
    def test_pruned_run_is_bitwise_equal_to_unpruned(self):
        # the histories are pruned at every whole second from 1 s on, and
        # at the horizon: no read goes below a floor, nor does any trace
        # change
        sc = two_user_scenario(steps1=[(2.0, 150.0)], horizon=8.0, cross=100.0)
        full, pruned = run(sc), run(sc, prune_history=True)
        assert pruned.queues["b1"].arrivals.pruned_before > 0
        for name in full.signals:
            assert np.array_equal(full[name], pruned[name]), name

    def test_a_queue_deeper_than_the_channels_prunes_behind_its_backlog(self):
        # an 800-pkt window on a 100 pkt/s queue holds about 8 s of backlog
        # behind 20 ms of channels: the transport and the flight read back
        # that far, so the floor trails each barrier by the queueing delay
        sc = Scenario(
            name="deep", packet_bytes=1000, queues=(QueueConf("b1", 100.0),),
            users=(UserConf("u1", ("b1",), (0.01,), 0.01, ScheduledProtocol(800.0)),),
            run=RunConf(1e-3, 20.0, "equilibrium"))
        full, pruned = run(sc), run(sc, prune_history=True)
        assert full["tau.b1"][-1] == pytest.approx(7.98)
        # the last floor: the horizon's barrier less both channels and tau
        floor = pruned.queues["b1"].arrivals.pruned_before
        assert floor == pytest.approx(20.0 - 0.02 - 7.98, abs=2e-3)
        for name in full.signals:
            assert np.array_equal(full[name], pruned[name]), name

    def test_every_history_waits_at_each_pruning_tick(self, monkeypatch):
        # a barrier falls at every whole second and at the horizon; at each
        # one every history is pruned once, after every component has
        # recorded through the barrier and none beyond it, to the oldest
        # time a later read can reach from the barrier's time T: the least
        # of T less the longest channel delay and one step, each queue's
        # backward image of T and each user's circuit entry time at T, here
        # recomputed from the unpruned run's histories
        sc = two_user_scenario(steps1=[(2.0, 150.0)], horizon=8.0, cross=100.0)
        dt = sc.run.dt_s
        calls = []
        prune = Trajectory.prune_before

        def spy(traj, t):
            calls.append((t, traj, len(traj)))
            prune(traj, t)

        monkeypatch.setattr(Trajectory, "prune_before", spy)
        pruned = run(sc, prune_history=True)
        monkeypatch.undo()
        full = run(sc)
        maps = [q.forward_map for q in pruned.queues.values()]
        histories = len(maps) * 3 + len(sc.users)
        delays = [d for reads in _feeds(to_network(sc)).values() for _, _, d in reads]
        floors = {}
        for t, traj, recorded in calls:
            # a time map holds one sample more than the flows: its step ends
            floors.setdefault(recorded - any(traj is m for m in maps), []).append(t)
        assert sorted(floors) == [*range(1000, 8001, 1000), 8001]
        for barrier, ts in floors.items():
            at = np.array([barrier * dt])
            bound = min(at[0] - max(delays) - dt,
                        *(q.backward_time(at)[0] for q in full.queues.values()),
                        *(circuit_backward_time(u, full.queues, at)[0] for u in sc.users))
            assert ts == [bound] * histories, barrier


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
        ref = packet_sim(sc, warmup_s=5.0)
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
        # a user reads only its last queue: u1 reads b2 across its 100 ms
        # return; the 20 ms hop is b2's lag behind b1, and the users enter
        # at 0 ms
        ("scenario3", {U1: {B2: 1000}, U2: {B2: 800}, U3: {B1: 400},
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
        # 160001 ticks: each loop's cycle plus the backlogs its queues hold
        # (about 900 ticks at b1, 500 at b2) sets a block of about 1270
        ("scenario3", {U1: 126, U2: 126, U3: 125, B1: 126, B2: 126}),
        # 110001 ticks in blocks of BLOCK_CAP_TICKS
        ("squarewave", {B1: 27}),
        # 200001 ticks; b1's backlog stretches the 500-tick loop
        (OFFGRID_YAML, {U1: 230, U2: 230, B1: 230}),
        # 80001 ticks; b1's backlog stretches u1's 32-tick loop to about
        # 220 ticks, and u2 (1170-tick cycle) waits for whole blocks
        ("scenario1", {U1: 358, U2: 60, B1: 358}),
        # 160001 ticks; u1 waits on b2 alone, not on b1 across its hop too
        ("scenario4", {U1: 108, U2: 132, U3: 133, B1: 133, B2: 132}),
    ], ids=["scenario3", "squarewave", "fast_pair_offgrid", "scenario1", "scenario4"])
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
        ("scenario3", "queue block 'b1' from t=0.000000: future read at "
                      "t=0.04 (history ends at 0.039900000000000005)"),
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
        # queue that u1's short loop moves, yet takes only whole blocks of
        # its own cycle or more, while u1 takes about 246
        sc = load_scenario("scenario1")
        dt = sc.run.dt_s
        traces = simulate(to_network(sc), sc, SimConfig(
            dt_s=dt, horizon_s=4.0, init=sc.run.init))
        cycle = shortest_cycles(input_lags(to_network(sc), dt))[U2]
        assert cycle == 1170
        assert traces.blocks[U2] <= math.ceil(len(traces.time) / cycle)
        assert traces.blocks[U1] >= 5 * traces.blocks[U2]

    @staticmethod
    def mixed_scenario():
        # two queues joined by a 13 ms hop, an off-grid return delay, a
        # window cut into ACK retaining and back, a FAST user, window steps
        # on two adjacent ticks (a one-tick piece of u3's block) and square
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
                UserConf("u3", ("b1",), (0.011,), 0.017,
                         ScheduledProtocol(20.0, ((0.3, 5.0), (0.301, 25.0)))),
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

    @given(graph=lag_graphs(), cap=st.integers(1, 64),
           ahead=st.lists(st.integers(0, 50), min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_block_schedule_reads_a_reach_that_moves_with_the_state(
            self, graph, cap, ahead):
        # a queue's readers run ahead of its reach, which each of its blocks
        # moves past the block's end by an amount that depends on where the
        # block ended, as a backlog does; a user's reach is its frontier
        lags, n_ticks, barriers = graph

        def lookahead(key, k1, barrier):
            if key[0] == "user":
                return k1
            return min(barrier, k1 + ahead[int(key[1][1:])] * (k1 % 3))

        want, got = [], []
        try:
            want_frontier = reference_schedule(lags, n_ticks, barriers, 1e-3, cap, want,
                                               lookahead)
        except SimulationError as err:
            want_frontier = str(err)
        frontier = dict.fromkeys(lags, 0)
        reach = dict(frontier)
        with mock.patch.object(engine, "BLOCK_CAP_TICKS", cap):
            try:
                for barrier in barriers:
                    for key, k0, k1 in block_schedule(lags, shortest_cycles(lags), frontier,
                                                      barrier, 1e-3, reach):
                        got.append((key, k0, k1))
                        reach[key] = lookahead(key, k1, barrier)
            except SimulationError as err:
                frontier = str(err)
        assert got == want
        assert frontier == want_frontier

    @pytest.mark.parametrize("source, blocks", [("scenario3", 1404), (OFFGRID_YAML, 1202)],
                             ids=["scenario3", "fast_pair_offgrid"])
    def test_without_lookahead_every_trace_stays_in_the_old_blocks(
            self, monkeypatch, source, blocks):
        # each queue's departures held to its frontier, in blocks of at most
        # 1024 ticks: the blocks of a run with no lookahead, the same traces
        sc = load_scenario(source)
        ahead = run(sc)
        monkeypatch.setattr(engine, "_departure_reach", lambda q, k1, barrier: k1)
        monkeypatch.setattr(engine, "BLOCK_CAP_TICKS", 1024)
        held = run(sc)
        assert sum(held.blocks.values()) == blocks
        assert sum(ahead.blocks.values()) < blocks / 1.7
        for name in ahead.signals:
            assert np.array_equal(ahead[name], held[name]), name

    @pytest.mark.parametrize("source, message", [
        # the held integral of b1's arrivals refuses the read past its
        # newest sample
        ("scenario3", "queue block 'b1' from t=0.000000: future read at "
                      "t=0.039970794818422736 (history ends at 0.039900000000000005)"),
        # an empty b1's forward map ends at its frontier, and its inversion
        # refuses the step past it first
        (OFFGRID_YAML, "queue block 'b1' from t=0.000000: inverse of "
                       "0.050100000000000006 not determined: recorded range [0.0, 0.05]"),
    ], ids=["scenario3", "fast_pair_offgrid"])
    def test_a_reach_past_the_recorded_arrivals_is_refused(
            self, monkeypatch, source, message):
        # one tick too far, b1's first block would transport departures of
        # traffic that has not arrived: whichever read trips, the error names
        # b1 and is a causality fault
        real = engine._departure_reach
        monkeypatch.setattr(engine, "_departure_reach", lambda *args: real(*args) + 1)
        sc = load_scenario(source)
        with pytest.raises(SimulationError) as err:
            simulate(to_network(sc), sc, SimConfig(
                dt_s=sc.run.dt_s, horizon_s=1.0, init=sc.run.init))
        assert str(err.value) == message
        assert isinstance(err.value.__cause__, CausalityError)

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
        # a FAST gain far too high for the step blows the window up; on the
        # long loop the blow-up lands inside a long user block, in the ACK
        # buffer's running sum, and no numpy warning escapes it either
        fast = FastProtocol(gamma=1e5, alpha_pkts=50.0, initial_window_pkts=10.0)
        for hop_s, return_s, t in ((0.01, 0.02, "0.199000"), (0.3, 0.4, "0.986000")):
            sc = Scenario(
                name="diverge", packet_bytes=1000, queues=(QueueConf("b1", 500.0),),
                users=(UserConf("u1", ("b1",), (hop_s,), return_s, fast),),
                run=RunConf(1e-3, 1.0, "cold"))
            messages = []
            for cap in (BLOCK_CAP_TICKS, 1):
                monkeypatch.setattr(engine, "BLOCK_CAP_TICKS", cap)
                with pytest.raises(SimulationError,
                                   match="divergence in user block 'u1'") as err:
                    run(sc)
                messages.append(str(err.value))
            assert messages[0] == messages[1] == f"divergence in user block 'u1' at t={t}"

    def test_queue_divergence_names_the_same_tick_whatever_the_block(self, monkeypatch):
        # a flow of 1e308 pkt/s overflows the backlog; no numpy warning
        # escapes the block, whose own check names the tick
        sc = Scenario(
            name="diverge", packet_bytes=1000, queues=(QueueConf("b1", 100.0),),
            rate_flows=(RateFlowConf("x", ("b1",), (0.0,), ConstantProfile(1e308)),),
            run=RunConf(1e-3, 2.0, "cold"))
        messages = []
        for cap in (BLOCK_CAP_TICKS, 7, 1):
            monkeypatch.setattr(engine, "BLOCK_CAP_TICKS", cap)
            with pytest.raises(SimulationError) as err:
                run(sc)
            messages.append(str(err.value))
        assert messages == ["divergence in queue block 'b1' at t=1.797000"] * 3


@st.composite
def random_chains(draw):
    """1-3 queues in a chain and 1-3 scheduled or FAST users on contiguous
    sub-paths, hops of 0 or 10-60 ms on or off the 1 ms grid, an optional
    constant or square rate flow, and a cold or equilibrium start, over
    0.5 s."""
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

    def protocol():
        w0 = draw(st.floats(1.0, 80.0))
        if draw(st.booleans()):
            # a FAST block inverts the circuit through every queue on its path
            return FastProtocol(gamma=draw(st.floats(0.1, 1.0)),
                                alpha_pkts=draw(st.floats(5.0, 60.0)), initial_window_pkts=w0)
        return ScheduledProtocol(w0, tuple(draw(st.lists(
            st.tuples(st.floats(0.05, 0.45), st.floats(0.0, 80.0)), max_size=1))))

    users = tuple(UserConf(f"u{i}", *route(), draw(delay), protocol())
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
        # and with each queue's departures held to its frontier
        with mock.patch.object(engine, "_departure_reach", lambda q, k1, barrier: k1):
            held = run(sc)
        for name in traces.signals:
            assert np.array_equal(traces[name], capped[name]), name
            assert np.array_equal(traces[name], held[name]), name

    @given(sc=random_chains())
    @settings(max_examples=10, deadline=None)
    def test_random_chains_prune_every_history_and_change_no_trace(self, sc):
        # over 3 s, on or off the grid, with FAST users, rate flows and
        # either start, every history's floor rises above 0 and no read
        # goes below it.  The unpruned run keeps the pruned run's barriers,
        # so only the floors differ between the two: a flight filled at a
        # barrier may invert a time map that is flat to an ulp, whose
        # binary search depends on the samples recorded by then
        sc = dataclasses.replace(sc, run=dataclasses.replace(sc.run, horizon_s=3.0))
        pruned = run(sc, prune_history=True)
        with mock.patch.object(Trajectory, "prune_before", lambda traj, t: None):
            full = run(sc, prune_history=True)
        histories = [st.sending for st in pruned.users.values()]
        histories += [h for q in pruned.queues.values()
                      for h in (q.forward_map, q.arrivals, q.departures)]
        assert min(h.pruned_before for h in histories) > 0.0
        for name in full.signals:
            assert np.array_equal(full[name], pruned[name]), name


@functools.cache
def mixed_default_run():
    return run(TestBlocks.mixed_scenario())

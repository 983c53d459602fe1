import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

import ackflow.oracle as oracle
from ackflow.oracle import OracleError, equilibrium_queue, packet_sim
from ackflow.scenario import (
    ConstantProfile, FastProtocol, QueueConf, RateFlowConf, RunConf, Scenario,
    ScheduledProtocol, SquareProfile, UserConf, load_scenario, to_network,
)
from ackflow.topology import TopologyError, build_network


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


def one_queue_network(cap, users, cross=0.0):
    """Queue b1 with scheduled users ``{id: (window, total delay)}`` and an
    optional constant cross flow; each total delay is split evenly between
    hop and return, and the halves sum back exactly."""
    flows = [RateFlowConf("cross_b1", ("b1",), (0.0,), ConstantProfile(cross))] if cross else []
    return build_network(
        [QueueConf("b1", cap)],
        [UserConf(uid, ("b1",), (t / 2,), t / 2, ScheduledProtocol(w))
         for uid, (w, t) in users.items()],
        flows)


class TestEquilibrium:
    def test_single_user_closed_form(self):
        # congested single bottleneck: tau = w/c - T = 100/500 - 0.1 = 0.1
        res = equilibrium_queue(one_queue_network(500.0, {"u1": (100.0, 0.1)}))
        assert res.queueing_delays_s["b1"] == pytest.approx(0.1, rel=1e-9)
        assert res.rates_pps["u1"] == pytest.approx(500.0, rel=1e-9)

    def test_window_too_small_gives_zero_delay(self):
        res = equilibrium_queue(one_queue_network(500.0, {"u1": (10.0, 0.1)}))
        assert res.queueing_delays_s["b1"] == 0.0
        assert res.rates_pps["u1"] == pytest.approx(100.0)

    def test_two_user_fixed_point_matches_independent_bisection(self):
        # the first preset's post-step operating point, cross-checked with a
        # from-scratch bisection on the single unknown
        c = 100e6 / (8 * 1590)
        res = equilibrium_queue(one_queue_network(
            c, {"u1": (150.0, 0.0032), "u2": (550.0, 0.117)}))

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
        res = equilibrium_queue(one_queue_network(500.0, {"u1": (100.0, 0.1)}, 250.0))
        # user fills the leftover 250 pkt/s: tau = 100/250 - 0.1 = 0.3
        assert res.queueing_delays_s["b1"] == pytest.approx(0.3, rel=1e-9)

    def test_saturating_cross_traffic_rejected(self):
        net = one_queue_network(500.0, {"u1": (1.0, 0.1)}, 500.0)
        with pytest.raises(OracleError):
            equilibrium_queue(net)

    def test_a_square_rate_flow_has_no_steady_state(self):
        # built in Python, so the parser's equilibrium-start check never ran
        net = build_network([QueueConf("b1", 100.0)], [], [RateFlowConf(
            "sq", ("b1",), (0.0,), SquareProfile(50.0, 0.0, 1.0))])
        with pytest.raises(OracleError, match="rate flow 'sq': steady state undefined"):
            equilibrium_queue(net)

    def test_a_window_no_finite_delay_can_hold_is_refused(self):
        net = one_queue_network(1.0, {"u1": (1e15, 0.1)})
        with pytest.raises(OracleError, match="queue 'b1': no finite equilibrium delay"):
            equilibrium_queue(net)

    def test_too_few_sweeps_are_refused(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_SWEEPS", 1)
        with pytest.raises(OracleError, match="did not converge in 1 sweeps"):
            equilibrium_queue(to_network(load_scenario("scenario3")))

    def test_two_queue_chain_consistent(self):
        sc = load_scenario("scenario3")
        res = equilibrium_queue(to_network(sc))
        tau1 = res.queueing_delays_s["b1"]
        tau2 = res.queueing_delays_s["b2"]
        assert tau1 > 0.0 and tau2 > 0.0
        c1, c2 = (q.capacity_pps for q in sc.queues)
        x1 = 1600.0 / (0.12 + tau1 + tau2)
        x2 = 1200.0 / (0.08 + tau2)
        x3 = 5.0 / (0.04 + tau1)
        assert x1 + x3 == pytest.approx(c1, rel=1e-8)
        assert x1 + x2 == pytest.approx(c2, rel=1e-8)

    def test_rates_carry_each_rate_flow_at_its_constant_rate(self):
        # the engine's equilibrium start feeds these rates to every queue
        sc = load_scenario("scenario5")
        res = equilibrium_queue(to_network(sc))
        assert res.rates_pps["cross_b1"].hex() == sc.rate_flows[0].profile.rate_pps.hex()

    def test_declaration_order_leaves_the_fixed_point_bitwise_equal(self):
        # scenario3's two queues and three users, listed in reverse
        sc = load_scenario("scenario3")
        reversed_ = dataclasses.replace(sc, queues=sc.queues[::-1],
                                        users=sc.users[::-1])
        a, b = (equilibrium_queue(to_network(s))
                for s in (sc, reversed_))
        assert list(b.queueing_delays_s) == ["b2", "b1"]
        assert a == b


def send_times(res, fid):
    """A flow's send times, from a run that recorded its events."""
    return np.array([e.time_s for e in res.events if e.kind == "send" and e.flow_id == fid])


class TestPacketSim:
    def test_throughput_is_window_over_rtt(self):
        # ample capacity: RTT ~ 0.1 s, w = 10 -> about 100 pkt/s
        sc = tiny_scenario(w0=10.0, cap=100000.0, horizon=4.0)
        sends = send_times(packet_sim(sc, record_events=True), "u1")
        n_window = np.count_nonzero((sends >= 1.0) & (sends < 4.0))
        assert n_window / 3.0 == pytest.approx(10.0 / 0.1, rel=0.02)

    def test_steady_queue_matches_equilibrium(self):
        # oracle self-consistency: time-averaged backlog ~ capacity * tau*
        sc = tiny_scenario(w0=100.0, cap=500.0, horizon=3.0)
        res = packet_sim(sc, warmup_s=3.0)
        eq = equilibrium_queue(to_network(sc))
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
        res = packet_sim(sc, warmup_s=4.0, record_events=True)
        sends = send_times(res, "u1")
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

    @pytest.mark.parametrize("second, field", [
        (dict(id="u2", queue_path=("b9",)), "queue_path"),
        (dict(id="u2", hop_delays_s=(0.05, 0.05)), "hop_delays_s"),
        (dict(protocol=ScheduledProtocol(50.0)), "id"),
    ], ids=["unknown-queue", "extra-hop-delay", "duplicate-user-id"])
    def test_an_invalid_network_names_the_field(self, second, field):
        # the topology's own checks, as the engine meets them, on a second
        # user edited from the first
        sc = tiny_scenario()
        u1 = sc.users[0]
        sc = dataclasses.replace(sc, users=(u1, dataclasses.replace(u1, **second)))
        with pytest.raises(TopologyError) as err:
            packet_sim(sc)
        assert err.value.field == field

    @pytest.mark.parametrize("param, value, problem", [
        ("warmup_s", math.inf, "finite"), ("warmup_s", -math.inf, "finite"),
        ("warmup_s", math.nan, "finite"), ("warmup_s", -1.0, "nonnegative"),
    ])
    def test_a_bad_warmup_or_sample_step_is_refused_before_any_event(
            self, monkeypatch, param, value, problem):
        # an infinite warm-up put every event at -inf and never returned, a
        # NaN one ran with no dequeues, and a negative one ran as its
        # positive
        def no_event(*args):
            raise AssertionError("an event was pushed")

        monkeypatch.setattr(oracle.heapq, "heappush", no_event)
        with pytest.raises(OracleError, match=f"^{param} must be {problem}, "
                                              f"got {re.escape(repr(value))}$"):
            packet_sim(load_scenario("scenario7"), **{param: value})

    def test_a_sample_count_past_simulates_bound_is_refused_before_any_array(
            self, monkeypatch):
        # numpy stopped it with a bare "Maximum allowed size exceeded"
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} was called")

        def no_event(*args):
            raise AssertionError("an event was pushed")

        # a run of 1e17 ticks of 1 s is 1e19 samples of 0.01 s, past the
        # bound; a finer step refuses such a horizon where the run is built
        sc = load_scenario("scenario7")
        sc = dataclasses.replace(sc, run=RunConf(1.0, 1e17, "cold"))
        monkeypatch.setattr(oracle, "np", NoArrays())
        monkeypatch.setattr(oracle.heapq, "heappush", no_event)
        with pytest.raises(OracleError, match=re.escape(
                f"horizon_s=1e+17 is {1e17 / oracle.SAMPLE_DT_S!r} samples of 0.01 s, "
                "too many for one run")):
            packet_sim(sc)

    def test_determinism(self):
        sc = tiny_scenario(w0=50.0, cap=500.0, steps=[(1.0, 80.0)], horizon=2.0)
        r1 = packet_sim(sc, record_events=True)
        r2 = packet_sim(sc, record_events=True)
        assert np.array_equal(r1.queue_lengths["b1"], r2.queue_lengths["b1"])
        assert r1.events == r2.events

    def test_rate_flow_emission_counts(self):
        # constant 100 pkt/s for 2 s -> 200 packets through the queue
        from ackflow.scenario import RateFlowConf
        sc = Scenario(
            name="r", packet_bytes=1000,
            queues=(QueueConf("b1", 1000.0),),
            rate_flows=(RateFlowConf("f1", ("b1",), (0.0,),
                                     ConstantProfile(100.0)),),
            run=RunConf(1e-4, 2.0, "cold"))
        res = packet_sim(sc)
        assert res.dequeue_counts[("b1", "f1")][-1] == pytest.approx(200, abs=2)

    def test_silent_rate_flows_end_their_walk_and_send_nothing(self):
        # the walk ends at once for a zero-rate constant flow and for a
        # square flow whose pieces carry no mass
        sc = Scenario(
            name="silent", packet_bytes=1000,
            queues=(QueueConf("b1", 100.0),),
            rate_flows=(RateFlowConf("f1", ("b1",), (0.0,), ConstantProfile(0.0)),
                        RateFlowConf("f2", ("b1",), (0.0,), SquareProfile(0.0, 0.0, 0.1))),
            run=RunConf(1e-3, 1.0, "cold"))
        res = packet_sim(sc)
        assert not res.dequeue_counts["b1", "f1"].any()
        assert not res.dequeue_counts["b1", "f2"].any()

    def test_slow_square_flow_keeps_emitting(self):
        # 0.2 pkt/s for half of each 1 ms period: 1e-4 pkts a period, so
        # each packet spans 10 000 periods; 30 s carry 3 pkts of mass
        from ackflow.scenario import RateFlowConf, SquareProfile
        sc = Scenario(
            name="slow", packet_bytes=1000,
            queues=(QueueConf("b1", 100.0),),
            rate_flows=(RateFlowConf("f1", ("b1",), (0.0,),
                                     SquareProfile(0.2, 0.0, 0.001)),),
            run=RunConf(1e-3, 30.0, "cold"))
        res = packet_sim(sc, record_events=True)
        sends = [e.time_s for e in res.events if e.kind == "send"]
        # the midpoint convention: half a packet's mass, then one per packet,
        # each at the end of a high half
        assert sends == pytest.approx([4.9995, 14.9995, 24.9995], abs=1e-9)
        assert res.dequeue_counts[("b1", "f1")][-1] == 3

    @pytest.mark.parametrize("horizon_s", [0.0151, 0.035])
    def test_no_sample_lies_past_a_horizon_off_the_sample_grid(self, horizon_s):
        # the samples stop where the event loop stops: the last one at or
        # before the horizon and the next past it, each the state a longer
        # run samples there
        sc = load_scenario("squarewave")
        res, longer = (packet_sim(dataclasses.replace(sc, run=dataclasses.replace(
            sc.run, horizon_s=h))) for h in (horizon_s, 0.05))
        n = len(res.sample_times)
        assert res.sample_times[-1] <= horizon_s < longer.sample_times[n]
        assert res.sample_times.tobytes() == longer.sample_times[:n].tobytes()
        longer_counts = {**longer.queue_lengths, **longer.dequeue_counts}
        for key, counts in {**res.queue_lengths, **res.dequeue_counts}.items():
            assert counts.tobytes() == longer_counts[key][:n].tobytes(), key


# squarewave over its whole horizon: every rate-flow send time, per flow,
# then every queue length and per-flow dequeue count, as float64 bytes
SQUAREWAVE_PACKET_DIGEST = (
    "10fc98cf12ff8a4335eb9fca44710c4f59020302ae925447f96038485dd9b14e")


def packet_digest(res) -> str:
    digest = hashlib.sha256()
    sends: dict[str, list[float]] = {}
    for e in res.events:
        if e.kind == "send":
            sends.setdefault(e.flow_id, []).append(e.time_s)
    series = [(f"send.{fid}", times) for fid, times in sends.items()]
    series += [(f"q.{qid}", q) for qid, q in res.queue_lengths.items()]
    series += [(f"deq.{qid}.{fid}", n) for (qid, fid), n in res.dequeue_counts.items()]
    for name, values in sorted(series, key=lambda s: s[0]):
        digest.update(name.encode())
        digest.update(np.asarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def test_squarewave_packet_digest_unchanged():
    res = packet_sim(load_scenario("squarewave"), record_events=True)
    assert packet_digest(res) == SQUAREWAVE_PACKET_DIGEST

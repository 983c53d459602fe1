import math

import pytest
from hypothesis import given, settings, strategies as st

from ackflow.fifo_queue import FifoQueue


def drive(queue, input_fns, dt, n_ticks):
    """Run the queue standalone from t = 0; returns per-tick traces."""
    trace = {"t": [], "backlog": [], "service": [], "out": [], "in": []}
    for k in range(n_ticks):
        t = k * dt
        t_next = (k + 1) * dt
        rates = [fn(t) for fn in input_fns]
        queue.record_inputs(t, rates)
        trace["t"].append(t)
        trace["backlog"].append(queue.backlog)
        service = queue.step(dt, t_next)
        out = queue.transport_outputs(t, t_next, service * dt)
        queue.record_outputs(t, out)
        trace["service"].append(service)
        trace["out"].append(out)
        trace["in"].append(tuple(rates))
    return trace


def backward_slope(queue, t, h=1e-3):
    """Right slope of the backward time map, by a finite difference."""
    return (queue.backward_time(t + h) - queue.backward_time(t)) / h


class TestStep:
    def test_linear_growth_when_overloaded(self):
        q = FifoQueue("b", 100.0, ["f"])
        drive(q, [lambda t: 150.0], dt=0.001, n_ticks=1000)
        # analytic: backlog grows at 50 pkt/s, so q(1.0) = 50
        assert q.backlog == pytest.approx(50.0, rel=1e-9)
        assert q.backlog / q.capacity == pytest.approx(0.5, rel=1e-9)

    def test_uncongested_passthrough(self):
        q = FifoQueue("b", 100.0, ["f"])
        tr = drive(q, [lambda t: 50.0], dt=0.01, n_ticks=100)
        assert q.backlog == 0.0
        assert all(s == pytest.approx(50.0) for s in tr["service"])
        assert all(o[0] == pytest.approx(50.0) for o in tr["out"])

    def test_drain_hits_empty_at_analytic_instant(self):
        # analytic drain time is backlog0 / capacity = 10/100 = 0.1 s
        q = FifoQueue("b", 100.0, ["f"], backlog0_pkts=10.0)
        tr = drive(q, [lambda t: 0.0], dt=0.025, n_ticks=9)
        t_empty = 10.0 / 100.0
        for t, b in zip(tr["t"], tr["backlog"]):
            if t <= t_empty:
                assert b == pytest.approx(10.0 - 100.0 * t, abs=1e-12)
            else:
                assert b == 0.0
        served = sum(s * 0.025 for s in tr["service"])
        assert served == pytest.approx(10.0, abs=1e-9)
        # rate is full capacity while draining, zero afterwards
        assert tr["service"][0] == pytest.approx(100.0)
        assert tr["service"][-1] == pytest.approx(0.0)

    def test_negative_input_rejected(self):
        q = FifoQueue("b", 100.0, ["f"])
        with pytest.raises(ValueError):
            q.record_inputs(0.0, [-1.0])

    def test_mid_step_empty_clamps_and_balances(self):
        # dt does not divide the drain time; backlog must clamp at zero and
        # the recorded average rates must still integrate to the backlog
        q = FifoQueue("b", 100.0, ["f"], backlog0_pkts=10.0)
        tr = drive(q, [lambda t: 30.0], dt=0.04, n_ticks=10)
        assert min(tr["backlog"]) >= 0.0
        assert q.backlog == 0.0
        dt = 0.04
        in_total = sum(r[0] for r in tr["in"]) * dt
        out_total = sum(s for s in tr["service"]) * dt
        assert out_total == pytest.approx(in_total + 10.0, abs=1e-9)


class TestBackwardOps:
    def test_idle_queue_backward_identity(self):
        q = FifoQueue("b", 100.0, ["f"])
        drive(q, [lambda t: 20.0], dt=0.01, n_ticks=101)
        assert q.backward_time(0.73) == pytest.approx(0.73, abs=1e-12)
        assert backward_slope(q, 0.73) == pytest.approx(1.0)

    def test_linear_backlog_backward_time(self):
        # input 150, c=100: delay 0.5t so departure(t)=1.5t; analytic inverse
        # of 3.0 is 3.0/1.5 = 2.0
        q = FifoQueue("b", 100.0, ["f"])
        drive(q, [lambda t: 150.0], dt=0.01, n_ticks=301)
        assert q.backward_time(3.0) == pytest.approx(2.0, rel=1e-9)

    def test_constant_delay_backward_time(self):
        # backlog 20 pkts at c=100 and input exactly c: delay locked at 0.2
        q = FifoQueue("b", 100.0, ["f"], backlog0_pkts=20.0,
                      input_rates0={"f": 100.0})
        drive(q, [lambda t: 100.0], dt=0.01, n_ticks=101)
        assert q.backward_time(0.9) == pytest.approx(0.7, rel=1e-9)
        # boundary continuity: arrivals exactly at capacity give slope one
        assert backward_slope(q, 0.9) == pytest.approx(1.0)

    def test_backward_rate_half_when_double_input(self):
        # direct evaluation: capacity / arrivals(backward time) = 100/200
        q = FifoQueue("b", 100.0, ["f"])
        drive(q, [lambda t: 200.0], dt=0.01, n_ticks=101)
        assert backward_slope(q, 1.0) == pytest.approx(0.5, rel=1e-9)

    def test_backward_time_beyond_map_errors(self):
        from ackflow.history import HistoryError
        q = FifoQueue("b", 100.0, ["f"])
        drive(q, [lambda t: 10.0], dt=0.01, n_ticks=2)
        with pytest.raises(HistoryError):
            q.backward_time(5.0)


class TestOutputSeparation:
    def test_symmetric_split_when_congested(self):
        q = FifoQueue("b", 100.0, ["f1", "f2"])
        tr = drive(q, [lambda t: 60.0, lambda t: 60.0], dt=0.01, n_ticks=200)
        o1, o2 = tr["out"][-1]
        assert o1 == pytest.approx(50.0, rel=1e-9)
        assert o2 == pytest.approx(50.0, rel=1e-9)

    def test_uncongested_outputs_equal_inputs(self):
        q = FifoQueue("b", 100.0, ["f1", "f2"])
        tr = drive(q, [lambda t: 30.0, lambda t: 20.0], dt=0.01, n_ticks=50)
        assert tr["out"][-1] == (pytest.approx(30.0), pytest.approx(20.0))

    def test_stalled_sources_reuse_last_mix_with_diagnostic(self):
        # a 10-pkt backlog whose pre-history carries no arrivals: serving
        # it finds no arrival mass to split, so each step's service goes
        # out in the last known mix (even until sources start at 0.05 s,
        # then theirs) and every such step is counted
        q = FifoQueue("b", 100.0, ["f1", "f2"], backlog0_pkts=10.0)
        dt = 0.01
        hints = []
        for k in range(30):
            t, t_next = k * dt, (k + 1) * dt
            q.record_inputs(t, [30.0, 10.0] if k >= 5 else [0.0, 0.0])
            hint, before = q._share_hint, q.stall_fallbacks
            service = q.step(dt, t_next)
            out = q.transport_outputs(t, t_next, service * dt)
            q.record_outputs(t, out)
            if q.stall_fallbacks > before:
                hints.append(hint)
                assert sum(out) == pytest.approx(service, rel=1e-12)
                assert out == pytest.approx(tuple(service * s for s in hint))
        assert q.stall_fallbacks == len(hints) > 0
        assert set(hints) == {(0.5, 0.5), (0.75, 0.25)}


def rect_sum(values, dt):
    return sum(values) * dt


def run_invariant_checks(capacity, rate_fns, dt, n_ticks, backlog0=0.0, rates0=None):
    flows = [f"f{i}" for i in range(len(rate_fns))]
    q = FifoQueue("b", capacity, flows, backlog0_pkts=backlog0,
                  input_rates0=rates0)
    tr = drive(q, rate_fns, dt, n_ticks)
    # backlog never negative, outputs never exceed capacity
    assert min(tr["backlog"]) >= 0.0
    for outs in tr["out"]:
        assert sum(outs) <= capacity * (1 + 1e-9)
    # rectangle balance: total in - total out == backlog change (exact)
    in_tot = rect_sum([sum(r) for r in tr["in"]], dt)
    out_tot = rect_sum([sum(o) for o in tr["out"]], dt)
    assert in_tot - out_tot == pytest.approx(q.backlog - backlog0, abs=1e-6)
    # per-flow conservation: each flow never emits more than it brought in
    for i, f in enumerate(flows):
        fin = rect_sum([r[i] for r in tr["in"]], dt)
        fout = rect_sum([o[i] for o in tr["out"]], dt)
        share0 = backlog0 / len(flows)
        assert fout <= fin + share0 + 2.0
    # backward map identities on congested ticks
    for t in tr["t"][1:]:
        g = q.backward_time(t)
        tau_at_g = q.forward_map.eval_at(g) - g
        assert g + tau_at_g == pytest.approx(t, abs=1e-6)
    return q, tr


class TestInvariants:
    def test_roundtrip_and_fixed_point_congested(self):
        run_invariant_checks(100.0, [lambda t: 140.0, lambda t: 40.0],
                             dt=0.005, n_ticks=200)

    def test_forward_then_backward_is_identity(self):
        q, tr = run_invariant_checks(100.0, [lambda t: 130.0], dt=0.01, n_ticks=100)
        for t in tr["t"][::10]:
            fwd = q.forward_map.eval_at(t)
            assert q.backward_time(fwd) == pytest.approx(t, abs=1e-6)

    def test_fifo_count_transport(self):
        # packets entered by t have all left by departure_time(t)
        q, tr = run_invariant_checks(
            100.0, [lambda t: 150.0 if t < 0.4 else 60.0], dt=0.002, n_ticks=500)
        for t in (0.2, 0.4, 0.6):
            fwd = q.forward_map.eval_at(t)
            n_in = q.inputs["f0"].integrate_hold(0.0, t)
            n_out = q.outputs["f0"].integrate_hold(0.0, fwd)
            # transport uses the same sample-hold masses, so counts match
            assert n_out == pytest.approx(n_in, abs=1e-9)

    @given(
        st.lists(st.floats(0.0, 250.0), min_size=3, max_size=6),
        st.lists(st.floats(0.0, 250.0), min_size=3, max_size=6),
        st.floats(0.0, 30.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_piecewise_inputs(self, seg1, seg2, backlog0):
        def piecewise(segs):
            def fn(t, segs=segs):
                return segs[min(int(t / 0.05), len(segs) - 1)]
            return fn
        rates0 = {"f0": 50.0, "f1": 50.0} if backlog0 > 0 else None
        run_invariant_checks(
            100.0, [piecewise(seg1), piecewise(seg2)],
            dt=0.005, n_ticks=80, backlog0=backlog0, rates0=rates0)

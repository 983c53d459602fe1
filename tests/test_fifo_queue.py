import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ackflow.fifo_queue import FifoQueue


def drive(queue, input_fns, dt, n_ticks, block=7):
    """Run the queue standalone from t = 0 in blocks of ``block`` ticks;
    returns per-tick traces."""
    trace = {"t": [], "backlog": [], "service": [], "out": [], "in": []}
    for k0 in range(0, n_ticks, block):
        times = np.arange(k0, min(k0 + block, n_ticks) + 1) * dt
        ticks = times[:-1]
        rates = [np.array([fn(t) for t in ticks.tolist()]) for fn in input_fns]
        total = queue.record_inputs(ticks, rates)
        backlog, service, congested = queue.step(dt, times[1:], total)
        out = queue.transport_outputs(times, service * dt, rates, total, congested)
        queue.record_outputs(ticks[0], out)
        trace["t"] += ticks.tolist()
        trace["backlog"] += backlog.tolist()
        trace["service"] += service.tolist()
        trace["out"] += zip(*(o.tolist() for o in out))
        trace["in"] += zip(*(r.tolist() for r in rates))
    return trace


def backward_slope(queue, t, h=1e-3):
    """Right slope of the backward time map, by a finite difference."""
    return (queue.backward_time(t + h) - queue.backward_time(t)) / h


class TestStep:
    def test_linear_growth_when_overloaded(self):
        q = FifoQueue("b", 100.0, ["f"], dt_s=0.001)
        drive(q, [lambda t: 150.0], dt=0.001, n_ticks=1000)
        # analytic: backlog grows at 50 pkt/s, so q(1.0) = 50
        assert q.backlog == pytest.approx(50.0, rel=1e-9)
        assert q.backlog / q.capacity == pytest.approx(0.5, rel=1e-9)

    def test_uncongested_passthrough(self):
        q = FifoQueue("b", 100.0, ["f"], dt_s=0.01)
        tr = drive(q, [lambda t: 50.0], dt=0.01, n_ticks=100)
        assert q.backlog == 0.0
        assert all(s == pytest.approx(50.0) for s in tr["service"])
        assert all(o[0] == pytest.approx(50.0) for o in tr["out"])

    def test_drain_hits_empty_at_analytic_instant(self):
        # analytic drain time is backlog0 / capacity = 10/100 = 0.1 s
        q = FifoQueue("b", 100.0, ["f"], dt_s=0.025, backlog0_pkts=10.0)
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
        q = FifoQueue("b", 100.0, ["f"], dt_s=0.01)
        with pytest.raises(ValueError, match="negative input flow -1.0 at t=0.02"):
            q.record_inputs(np.arange(3) * 0.01, [[0.0, 2.0, -1.0]])

    def test_mid_step_empty_clamps_and_balances(self):
        # dt does not divide the drain time; backlog must clamp at zero and
        # the recorded average rates must still integrate to the backlog
        q = FifoQueue("b", 100.0, ["f"], dt_s=0.04, backlog0_pkts=10.0)
        tr = drive(q, [lambda t: 30.0], dt=0.04, n_ticks=10)
        assert min(tr["backlog"]) >= 0.0
        assert q.backlog == 0.0
        dt = 0.04
        in_total = sum(r[0] for r in tr["in"]) * dt
        out_total = sum(s for s in tr["service"]) * dt
        assert out_total == pytest.approx(in_total + 10.0, abs=1e-9)


class TestBackwardOps:
    def test_idle_queue_backward_identity(self):
        q = FifoQueue("b", 100.0, ["f"], dt_s=0.01)
        drive(q, [lambda t: 20.0], dt=0.01, n_ticks=101)
        assert q.backward_time(0.73) == pytest.approx(0.73, abs=1e-12)
        assert backward_slope(q, 0.73) == pytest.approx(1.0)

    def test_linear_backlog_backward_time(self):
        # input 150, c=100: delay 0.5t so departure(t)=1.5t; analytic inverse
        # of 3.0 is 3.0/1.5 = 2.0
        q = FifoQueue("b", 100.0, ["f"], dt_s=0.01)
        drive(q, [lambda t: 150.0], dt=0.01, n_ticks=301)
        assert q.backward_time(3.0) == pytest.approx(2.0, rel=1e-9)

    def test_constant_delay_backward_time(self):
        # backlog 20 pkts at c=100 and input exactly c: delay locked at 0.2
        q = FifoQueue("b", 100.0, ["f"], dt_s=0.01, backlog0_pkts=20.0,
                      input_rates0={"f": 100.0})
        drive(q, [lambda t: 100.0], dt=0.01, n_ticks=101)
        assert q.backward_time(0.9) == pytest.approx(0.7, rel=1e-9)
        # boundary continuity: arrivals exactly at capacity give slope one
        assert backward_slope(q, 0.9) == pytest.approx(1.0)

    def test_backward_rate_half_when_double_input(self):
        # direct evaluation: capacity / arrivals(backward time) = 100/200
        q = FifoQueue("b", 100.0, ["f"], dt_s=0.01)
        drive(q, [lambda t: 200.0], dt=0.01, n_ticks=101)
        assert backward_slope(q, 1.0) == pytest.approx(0.5, rel=1e-9)

    def test_backward_time_beyond_map_errors(self):
        from ackflow.history import HistoryError
        q = FifoQueue("b", 100.0, ["f"], dt_s=0.01)
        drive(q, [lambda t: 10.0], dt=0.01, n_ticks=2)
        with pytest.raises(HistoryError):
            q.backward_time(5.0)


class TestOutputSeparation:
    def test_symmetric_split_when_congested(self):
        q = FifoQueue("b", 100.0, ["f1", "f2"], dt_s=0.01)
        tr = drive(q, [lambda t: 60.0, lambda t: 60.0], dt=0.01, n_ticks=200)
        o1, o2 = tr["out"][-1]
        assert o1 == pytest.approx(50.0, rel=1e-9)
        assert o2 == pytest.approx(50.0, rel=1e-9)

    def test_uncongested_outputs_equal_inputs(self):
        q = FifoQueue("b", 100.0, ["f1", "f2"], dt_s=0.01)
        tr = drive(q, [lambda t: 30.0, lambda t: 20.0], dt=0.01, n_ticks=50)
        assert tr["out"][-1] == (pytest.approx(30.0), pytest.approx(20.0))

    def test_stalled_sources_reuse_last_mix_with_diagnostic(self):
        # a 10-pkt backlog whose pre-history carries no arrivals drains by
        # 0.1 s: serving it finds no arrival mass to split, so each step's
        # service goes out in the mix of the latest arrivals at or before it
        # (the even pre-history mix until the sources send at ticks 5 and
        # 6), and every such step is counted; in blocks of 7, ticks 7-9 have
        # no arrivals and take tick 6's mix from the block before
        dt = 0.01
        sends = {5: (30.0, 10.0), 6: (10.0, 30.0)}
        fns = [lambda t, i=i: sends.get(round(t / dt), (0.0, 0.0))[i] for i in (0, 1)]
        runs = []
        for block in (1, 7):
            q = FifoQueue("b", 100.0, ["f1", "f2"], dt_s=dt, backlog0_pkts=10.0)
            runs.append((drive(q, fns, dt=dt, n_ticks=30, block=block),
                         q.stall_fallbacks))
        assert runs[0] == runs[1]
        tr, stall_fallbacks = runs[0]
        assert stall_fallbacks == 10
        mix, mixes = (0.5, 0.5), set()
        for rates, out, service in list(zip(tr["in"], tr["out"], tr["service"]))[:10]:
            if sum(rates) > 0:
                mix = tuple(r / sum(rates) for r in rates)
            mixes.add(mix)
            assert sum(out) == pytest.approx(service, rel=1e-12)
            assert out == pytest.approx(tuple(service * s for s in mix), rel=1e-12)
        assert mixes == {(0.5, 0.5), (0.75, 0.25), (0.25, 0.75)}


class TestBlocks:
    def test_block_size_leaves_every_trace_bitwise_equal(self):
        # 100 ticks in blocks of 1 and of 7 (the last one short): a block
        # only batches the per-tick arithmetic, so nothing may change; the
        # backlog grows, empties inside a step, then stays empty
        runs = []
        for block in (1, 7):
            q = FifoQueue("b", 100.0, ["f1", "f2"], dt_s=0.005, backlog0_pkts=5.0,
                          input_rates0={"f1": 50.0, "f2": 50.0})
            tr = drive(q, [lambda t: 150.0 if t < 0.1 else 0.0, lambda t: 30.0],
                       dt=0.005, n_ticks=100, block=block)
            runs.append((tr, q.forward_map.values.tolist(), q.backlog))
        assert runs[0] == runs[1]
        assert max(runs[0][0]["backlog"]) > 0.0 and min(runs[0][0]["backlog"]) == 0.0


def rect_sum(values, dt):
    return sum(values) * dt


def run_invariant_checks(capacity, rate_fns, dt, n_ticks, backlog0=0.0, rates0=None):
    flows = [f"f{i}" for i in range(len(rate_fns))]
    q = FifoQueue("b", capacity, flows, dt_s=dt, backlog0_pkts=backlog0,
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

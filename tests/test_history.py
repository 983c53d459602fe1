import math

import pytest
from hypothesis import given, settings, strategies as st

from ackflow.history import CausalityError, HistoryError, Trajectory


def make(samples, initial=0.0):
    tr = Trajectory(initial_value=initial)
    for t, v in samples:
        tr.record(t, v)
    return tr


class TestRecordEval:
    def test_exact_sample_hit(self):
        tr = Trajectory()
        tr.record(0.0, 5.0)
        assert tr.eval_at(0.0) == 5.0

    def test_out_of_order_record_rejected(self):
        tr = make([(2.0, 1.0)])
        with pytest.raises(HistoryError):
            tr.record(1.0, 0.0)
        with pytest.raises(HistoryError):
            tr.record(2.0, 0.0)  # equal time is also non-monotone

    def test_linear_interpolation_midpoint(self):
        tr = make([(0.0, 0.0), (1.0, 10.0)])
        assert tr.eval_at(0.5) == pytest.approx(5.0)

    def test_pre_history_constant(self):
        tr = make([(1.0, 3.0)], initial=7.5)
        assert tr.eval_at(0.0) == 7.5
        assert tr.eval_at(-100.0) == 7.5

    def test_constant_trajectory(self):
        tr = make([(0.0, 100.0), (5.0, 100.0)])
        for t in (0.0, 1.3, 5.0):
            assert tr.eval_at(t) == 100.0

    def test_future_read_rejected(self):
        tr = make([(0.0, 1.0), (1.0, 1.0)])
        with pytest.raises(CausalityError):
            tr.eval_at(1.0 + 1e-9)

    def test_interp_between_samples(self):
        tr = make([(0.0, 0.0), (2.0, 4.0)])
        assert tr.eval_at(1.5) == pytest.approx(3.0)

    def test_gap_before_first_sample_interpolates_from_initial(self):
        # the pre-history value sits one sample spacing before the first
        # sample, as a grid read one tick earlier would see it
        tr = make([(1.0, 10.0), (1.5, 20.0)], initial=4.0)
        assert tr.eval_at(0.5) == 4.0
        assert tr.eval_at(0.75) == pytest.approx(7.0)
        assert tr.eval_at(0.95) == pytest.approx(9.4)
        assert tr.eval_at(1.0) == 10.0


class TestIntegrate:
    """``integrate_hold``: each sample held until the next one."""

    def test_constant_rate(self):
        # 100 pkt/s over half a second -> 50 packets
        tr = make([(0.0, 100.0), (1.0, 100.0)])
        assert tr.integrate_hold(0.0, 0.5) == pytest.approx(50.0)

    def test_zero_length(self):
        tr = make([(0.0, 3.0), (1.0, 9.0)])
        assert tr.integrate_hold(0.7, 0.7) == 0.0

    def test_ramp_triangle_area(self):
        # ramp to 100 over 1 s on a 1 ms grid: the left-point sum is the
        # triangle's 50 less half a cell's worth
        tr = make([(k * 1e-3, 100.0 * k * 1e-3) for k in range(1001)])
        assert tr.integrate_hold(0.0, 1.0) == pytest.approx(50.0 - 0.05, rel=1e-9)

    def test_reversed_bounds_rejected(self):
        tr = make([(0.0, 1.0), (1.0, 1.0)])
        with pytest.raises(HistoryError):
            tr.integrate_hold(0.8, 0.2)

    def test_pre_history_contribution(self):
        tr = make([(1.0, 2.0)], initial=2.0)
        assert tr.integrate_hold(0.0, 1.0) == pytest.approx(2.0)

    def test_partial_cells(self):
        tr = make([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
        # half a cell at 1 and half a cell at 3
        assert tr.integrate_hold(0.5, 1.5) == pytest.approx(2.0)


class TestInvertMonotone:
    def test_identity_map(self):
        tr = make([(0.0, 0.0), (10.0, 10.0)])
        assert tr.invert_monotone(3.2) == pytest.approx(3.2)

    def test_linear_map_analytic_inverse(self):
        # f(t) = 1.5t sampled on a grid; analytic inverse of 3.0 is 3.0/1.5
        tr = Trajectory()
        for k in range(51):
            t = 0.1 * k
            tr.record(t, 1.5 * t)
        expected = 3.0 / 1.5
        assert tr.invert_monotone(3.0) == pytest.approx(expected, abs=1e-12)

    def test_flat_segment_left_edge(self):
        tr = make([(0.0, 0.0), (1.0, 5.0), (2.0, 5.0), (3.0, 8.0)])
        assert tr.invert_monotone(5.0) == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        tr = make([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(HistoryError):
            tr.invert_monotone(2.5)
        with pytest.raises(HistoryError):
            tr.invert_monotone(0.5)


class TestPrune:
    def test_prune_keeps_recent_reads_exact(self):
        tr = make([(float(k), float(k * k)) for k in range(10)])
        before = tr.eval_at(7.5)
        dropped = tr.prune_before(6.2)
        assert dropped == 6
        assert tr.dropped == 6
        assert tr.eval_at(7.5) == before
        whole = make([(float(k), float(k * k)) for k in range(10)])
        # cumulatives stay absolute, so pruned integrals are bitwise equal
        for t0, t1 in ((6.5, 8.0), (6.0, 9.0), (7.0, 7.25)):
            assert tr.integrate_hold(t0, t1) == whole.integrate_hold(t0, t1)

    def test_dropped_counts_every_prune(self):
        tr = make([(float(k), 1.0) for k in range(10)])
        tr.prune_before(3.0)
        tr.prune_before(5.5)
        assert tr.dropped == 5
        assert tr.times[0] == 5.0

    def test_pruned_region_reads_fail(self):
        tr = make([(float(k), 1.0) for k in range(10)])
        tr.prune_before(5.0)
        with pytest.raises(HistoryError):
            tr.eval_at(2.0)
        with pytest.raises(HistoryError):
            tr.integrate_hold(2.0, 7.0)


@st.composite
def sampled_signal(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    dts = draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n))
    vals = draw(st.lists(st.floats(0.0, 1e4), min_size=n, max_size=n))
    t, samples = 0.0, []
    for dt, v in zip(dts, vals):
        samples.append((t, v))
        t += dt
    return samples


class TestProperties:
    @given(sampled_signal())
    @settings(max_examples=60, deadline=None)
    def test_eval_exact_on_grid(self, samples):
        tr = make(samples)
        for t, v in samples:
            assert tr.eval_at(t) == v

    @given(sampled_signal(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_integrate_additivity(self, samples, a, b, c):
        tr = make(samples)
        span = samples[-1][0] - samples[0][0]
        pts = sorted(samples[0][0] + x * span for x in (a, b, c))
        t0, t1, t2 = pts
        whole = tr.integrate_hold(t0, t2)
        split = tr.integrate_hold(t0, t1) + tr.integrate_hold(t1, t2)
        assert whole == pytest.approx(split, rel=1e-12, abs=1e-9)

    @given(sampled_signal(), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_roundtrip(self, samples, frac):
        # build a nondecreasing map from cumulative nonnegative increments
        tr = Trajectory()
        acc = 0.0
        for t, v in samples:
            acc += v * 0.001 + 1e-6
            tr.record(t, acc)
        lo, hi = tr.values[0], tr.values[-1]
        y = lo + frac * (hi - lo)
        x = tr.invert_monotone(y)
        assert tr.eval_at(x) == pytest.approx(y, rel=1e-9, abs=1e-9)


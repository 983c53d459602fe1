import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ackflow.history import CausalityError, HistoryError, Trajectory


def make(values, dt=1.0, initial=0.0, **kwargs):
    """Trajectory holding ``values`` as samples 0, 1, ... at ``i * dt``."""
    tr = Trajectory(dt, initial, **kwargs)
    tr.record(0.0, values)
    return tr


class TestRecordEval:
    def test_exact_sample_hit(self):
        tr = Trajectory(0.1)
        tr.record(0.0, 5.0)
        assert tr.eval_at(0.0) == 5.0

    def test_out_of_order_record_rejected(self):
        # only the next grid time is accepted
        tr = make([1.0, 2.0, 3.0])
        for t in (1.0, 2.0, 4.0):  # past, repeated, skipping a sample
            with pytest.raises(HistoryError):
                tr.record(t, 0.0)
            with pytest.raises(HistoryError):
                tr.record(t, [0.0, 0.0])
        tr.record(3.0, 0.0)
        tr.record(4.0, [5.0, 6.0])
        assert len(tr) == 6
        assert tr.values.tolist() == [1.0, 2.0, 3.0, 0.0, 5.0, 6.0]

    def test_column_grows_past_its_capacity(self):
        tr = Trajectory(0.5, capacity=2)
        for k in range(5):
            tr.record(3 * k * 0.5, [float(k)] * 3)
        assert tr.values.tolist() == [float(k) for k in range(5) for _ in range(3)]

    def test_linear_interpolation_midpoint(self):
        tr = make([0.0, 10.0])
        assert tr.eval_at(0.5) == pytest.approx(5.0)

    def test_pre_history_constant(self):
        tr = make([3.0, 3.0], dt=0.5, initial=7.5)
        assert tr.eval_at(-0.5) == 7.5
        assert tr.eval_at(-100.0) == 7.5

    def test_constant_trajectory(self):
        tr = make([100.0] * 6)
        for t in (0.0, 1.3, 5.0):
            assert tr.eval_at(t) == 100.0

    def test_future_read_rejected(self):
        tr = make([1.0, 1.0])
        with pytest.raises(CausalityError):
            tr.eval_at(1.0 + 1e-9)
        with pytest.raises(CausalityError):
            tr.integrate_hold(0.0, 1.5)
        with pytest.raises(CausalityError):
            Trajectory(1.0).eval_at(0.0)

    def test_interp_between_samples(self):
        tr = make([0.0, 2.0, 4.0])
        assert tr.eval_at(1.5) == pytest.approx(3.0)

    def test_gap_before_first_sample_interpolates_from_initial(self):
        # the pre-history value sits one grid step before the first sample,
        # as a grid read one tick earlier would see it
        tr = make([10.0, 20.0], dt=0.5, initial=4.0)
        assert tr.eval_at(-0.5) == 4.0
        assert tr.eval_at(-0.25) == pytest.approx(7.0)
        assert tr.eval_at(-0.05) == pytest.approx(9.4)
        assert tr.eval_at(0.0) == 10.0


class TestIntegrate:
    """``integrate_hold``: each sample held until the next one."""

    def test_constant_rate(self):
        # 100 pkt/s over half a second -> 50 packets
        tr = make([100.0, 100.0])
        assert tr.integrate_hold(0.0, 0.5) == pytest.approx(50.0)

    def test_zero_length(self):
        tr = make([3.0, 9.0])
        assert tr.integrate_hold(0.7, 0.7) == 0.0

    def test_ramp_triangle_area(self):
        # ramp to 100 over 1 s on a 1 ms grid: the left-point sum is the
        # triangle's 50 less half a cell's worth
        tr = make([100.0 * k * 1e-3 for k in range(1001)], dt=1e-3)
        assert tr.integrate_hold(0.0, 1.0) == pytest.approx(50.0 - 0.05, rel=1e-9)

    def test_reversed_bounds_rejected(self):
        tr = make([1.0, 1.0])
        with pytest.raises(HistoryError):
            tr.integrate_hold(0.8, 0.2)

    def test_pre_history_contribution(self):
        tr = make([2.0], initial=2.0)
        assert tr.integrate_hold(-1.0, 0.0) == pytest.approx(2.0)

    def test_partial_cells(self):
        tr = make([1.0, 3.0, 5.0])
        # half a cell at 1 and half a cell at 3
        assert tr.integrate_hold(0.5, 1.5) == pytest.approx(2.0)


class TestInvertMonotone:
    def test_identity_map(self):
        tr = make([0.0, 10.0], dt=10.0)
        assert tr.invert_monotone(3.2) == pytest.approx(3.2)

    def test_linear_map_analytic_inverse(self):
        # f(t) = 1.5t sampled on a grid; analytic inverse of 3.0 is 3.0/1.5
        tr = make([1.5 * 0.1 * k for k in range(51)], dt=0.1)
        expected = 3.0 / 1.5
        assert tr.invert_monotone(3.0) == pytest.approx(expected, abs=1e-12)

    def test_flat_segment_left_edge(self):
        tr = make([0.0, 5.0, 5.0, 8.0])
        assert tr.invert_monotone(5.0) == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        tr = make([1.0, 2.0])
        with pytest.raises(HistoryError):
            tr.invert_monotone(2.5)
        with pytest.raises(HistoryError):
            tr.invert_monotone(0.5)

    def test_rising_pre_history_line(self):
        # a time map t -> t + 0.2 extended backwards before its first sample
        tr = make([0.2, 0.3], dt=0.1, initial=0.2, pre_slope=1.0)
        assert tr.eval_at(-0.5) == -0.5 + 0.2
        assert tr.invert_monotone(0.1) == 0.1 - 0.2
        assert tr.invert_monotone(0.2) == 0.0


class TestPrune:
    def test_prune_keeps_recent_reads_exact(self):
        tr = make([float(k * k) for k in range(10)])
        whole = make([float(k * k) for k in range(10)])
        tr.prune_before(6.2)
        assert tr.pruned_before == 6.0
        assert tr.eval_at(7.5) == whole.eval_at(7.5)
        for t0, t1 in ((6.5, 8.0), (6.0, 9.0), (7.0, 7.25)):
            assert tr.integrate_hold(t0, t1) == whole.integrate_hold(t0, t1)
        assert tr.invert_monotone(50.0) == whole.invert_monotone(50.0)

    def test_floor_only_rises(self):
        tr = make([1.0] * 10)
        tr.prune_before(3.0)
        tr.prune_before(5.5)
        tr.prune_before(2.0)
        assert tr.pruned_before == 5.0
        assert len(tr) == 10  # every sample stays: the columns are the traces

    def test_pruned_region_reads_fail(self):
        tr = make([float(k) for k in range(10)])
        tr.prune_before(5.0)
        with pytest.raises(HistoryError):
            tr.eval_at(2.0)
        with pytest.raises(HistoryError):
            tr.integrate_hold(2.0, 7.0)
        with pytest.raises(HistoryError):
            tr.invert_monotone(2.0)


class TestBlockReads:
    """Array reads answer elementwise what one-time reads answer."""

    def test_reads_match_scalar_reads(self):
        tr = make([1.0, 2.0, 4.0, 4.0, 9.0], dt=0.5, initial=1.5)
        times = np.array([-1.0, -0.2, 0.0, 0.3, 1.0, 1.7, 2.0])
        assert tr.eval_at(times).tolist() == [tr.eval_at(t) for t in times]
        t1 = np.minimum(times + 0.6, 2.0)
        assert tr.integrate_hold(times, t1).tolist() == [
            tr.integrate_hold(a, b) for a, b in zip(times, t1)]
        ys = np.array([1.0, 3.0, 4.0, 8.0, 9.0])
        assert tr.invert_monotone(ys).tolist() == [tr.invert_monotone(y) for y in ys]

    def test_check_names_the_first_offending_time(self):
        tr = make([float(k) for k in range(10)])
        tr.prune_before(5.0)
        with pytest.raises(HistoryError, match="t=4.5 precedes"):
            tr.eval_at(np.array([6.0, 4.5, 2.0]))
        with pytest.raises(CausalityError, match="t=9.5"):
            tr.eval_at(np.array([6.0, 9.5, 12.0]))
        with pytest.raises(HistoryError, match=r"inverse of 9.5 not"):
            tr.invert_monotone(np.array([6.0, 9.5]))


@st.composite
def sampled_signal(draw):
    dt = draw(st.floats(1e-4, 2.0))
    values = draw(st.lists(st.floats(0.0, 1e4), min_size=2, max_size=30))
    return dt, values


class TestProperties:
    @given(sampled_signal())
    @settings(max_examples=60, deadline=None)
    def test_eval_exact_on_grid(self, signal):
        dt, values = signal
        tr = make(values, dt=dt)
        for i, v in enumerate(values):
            assert tr.eval_at(i * dt) == v

    @given(sampled_signal(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_integrate_additivity(self, signal, a, b, c):
        dt, values = signal
        tr = make(values, dt=dt)
        span = (len(values) - 1) * dt
        t0, t1, t2 = sorted(x * span for x in (a, b, c))
        whole = tr.integrate_hold(t0, t2)
        split = tr.integrate_hold(t0, t1) + tr.integrate_hold(t1, t2)
        assert whole == pytest.approx(split, rel=1e-12, abs=1e-9)

    @given(sampled_signal(), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_roundtrip(self, signal, frac):
        # build a nondecreasing map from cumulative nonnegative increments
        dt, values = signal
        acc, cumulative = 0.0, []
        for v in values:
            acc += v * 0.001 + 1e-6
            cumulative.append(acc)
        tr = make(cumulative, dt=dt)
        lo, hi = tr.values[0], tr.values[-1]
        # lo + (hi - lo) can round one ulp above hi, outside the range
        y = min(lo + frac * (hi - lo), hi)
        x = tr.invert_monotone(y)
        assert tr.eval_at(x) == pytest.approx(y, rel=1e-9, abs=1e-9)

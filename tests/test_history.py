import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ackflow.history import CausalityError, HistoryError, Trajectory, grid_index


def make(values, dt=1.0, initial=0.0, n_ticks=None):
    """Trajectory holding ``values`` as samples 0, 1, ... at ``i * dt``,
    sized to them unless ``n_ticks`` says otherwise."""
    tr = Trajectory(dt, initial, n_ticks=n_ticks or len(values))
    tr.record(0.0, values)
    return tr


class TestRecordEval:
    def test_exact_sample_hit(self):
        tr = Trajectory(0.1, n_ticks=1)
        tr.record(0.0, 5.0)
        assert tr.eval_at(np.array([0.0])).tolist() == [5.0]

    def test_out_of_order_record_rejected(self):
        # only the next grid time is accepted
        tr = make([1.0, 2.0, 3.0], n_ticks=6)
        for t in (1.0, 2.0, 4.0):  # past, repeated, skipping a sample
            with pytest.raises(HistoryError):
                tr.record(t, 0.0)
            with pytest.raises(HistoryError):
                tr.record(t, [0.0, 0.0])
        tr.record(3.0, 0.0)
        tr.record(4.0, [5.0, 6.0])
        assert len(tr) == 6
        assert tr.values.tolist() == [1.0, 2.0, 3.0, 0.0, 5.0, 6.0]

    def test_record_past_the_sized_length_is_refused(self):
        tr = make([1.0, 2.0, 3.0], dt=0.5, n_ticks=5)
        with pytest.raises(HistoryError, match=r"sample 5 at t=2.5 is past the sized"):
            tr.record(1.5, [4.0, 5.0, 6.0])
        assert len(tr) == 3  # nothing was written
        tr.record(1.5, [4.0, 5.0])
        assert tr.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(HistoryError, match="sample 5 "):
            tr.record(2.5, 6.0)

    def test_linear_interpolation_midpoint(self):
        tr = make([0.0, 10.0])
        assert tr.eval_at(np.array([0.5])) == pytest.approx([5.0])

    def test_pre_history_constant(self):
        tr = make([3.0, 3.0], dt=0.5, initial=7.5)
        assert tr.eval_at(np.array([-0.5, -100.0])).tolist() == [7.5, 7.5]

    def test_constant_trajectory(self):
        tr = make([100.0] * 6)
        assert tr.eval_at(np.array([0.0, 1.3, 5.0])).tolist() == [100.0] * 3

    def test_future_read_rejected(self):
        tr = make([1.0, 1.0])
        with pytest.raises(CausalityError):
            tr.eval_at(np.array([1.0 + 1e-9]))
        with pytest.raises(CausalityError):
            tr.integrate_hold(np.array([0.0]), np.array([1.5]))
        with pytest.raises(CausalityError):
            Trajectory(1.0, n_ticks=1).eval_at(np.array([0.0]))

    def test_interp_between_samples(self):
        tr = make([0.0, 2.0, 4.0])
        assert tr.eval_at(np.array([1.5])) == pytest.approx([3.0])

    def test_gap_before_first_sample_interpolates_from_initial(self):
        # the pre-history value sits one grid step before the first sample,
        # as a grid read one tick earlier would see it
        tr = make([10.0, 20.0], dt=0.5, initial=4.0)
        got = tr.eval_at(np.array([-0.5, -0.25, -0.05, 0.0]))
        assert got[[0, 3]].tolist() == [4.0, 10.0]
        assert got[1:3] == pytest.approx([7.0, 9.4])


class TestIntegrate:
    """``integrate_hold``: each sample held until the next one."""

    def test_constant_rate(self):
        # 100 pkt/s over half a second -> 50 packets
        tr = make([100.0, 100.0])
        assert tr.integrate_hold(np.array([0.0]), np.array([0.5])) == pytest.approx([50.0])

    def test_zero_length(self):
        tr = make([3.0, 9.0])
        assert tr.integrate_hold(np.array([0.7]), np.array([0.7])).tolist() == [0.0]

    def test_ramp_triangle_area(self):
        # ramp to 100 over 1 s on a 1 ms grid: the left-point sum is the
        # triangle's 50 less half a cell's worth
        tr = make([100.0 * k * 1e-3 for k in range(1001)], dt=1e-3)
        got = tr.integrate_hold(np.array([0.0]), np.array([1.0]))
        assert got == pytest.approx([50.0 - 0.05], rel=1e-9)

    def test_reversed_bounds_rejected(self):
        tr = make([1.0, 1.0])
        with pytest.raises(HistoryError):
            tr.integrate_hold(np.array([0.8]), np.array([0.2]))

    @pytest.mark.parametrize("t0, t1", [(math.nan, 0.5), (0.0, math.nan),
                                        (0.8, math.nan), (math.nan, math.nan)])
    def test_a_nan_bound_is_named_not_called_reversed(self, t0, t1):
        # a NaN compares false with every bound, which is no order fault
        tr = make([1.0, 1.0])
        for read in (lambda: tr.integrate_hold(np.array([t0]), np.array([t1])),
                     lambda: tr.integrate_hold_steps(np.array([0.0, t0, t1]))):
            with pytest.raises(CausalityError, match=r"^future read at t=nan \("):
                read()

    def test_pre_history_contribution(self):
        tr = make([2.0], initial=2.0)
        assert tr.integrate_hold(np.array([-1.0]), np.array([0.0])) == pytest.approx([2.0])

    def test_partial_cells(self):
        tr = make([1.0, 3.0, 5.0])
        # half a cell at 1 and half a cell at 3
        assert tr.integrate_hold(np.array([0.5]), np.array([1.5])) == pytest.approx([2.0])

    def test_a_history_with_no_samples_integrates_its_pre_history(self):
        block = Trajectory(0.5, [2.0, 3.0], n_ticks=4)
        assert block.integrate_hold(np.array([-2.0]), np.array([-0.5])).tolist() == [[3.0],
                                                                                    [4.5]]
        with pytest.raises(CausalityError):
            block.integrate_hold(np.array([-1.0]), np.array([0.0]))
        # the first sample then ends the pre-history
        block.record(0.0, [[1.0], [5.0]])
        assert block.integrate_hold(np.array([-1.0]), np.array([0.0])).tolist() == [[2.0],
                                                                                   [3.0]]

    def test_records_after_an_integral_keep_it_bitwise(self):
        # records between integrals leave the cumulative as the first
        # integral built it, and the next integral extends it through what
        # it reads; integrals read it as if it were built at once
        values = [0.1 * k + 1.0 / (k + 3) for k in range(40)]
        whole = make(values, dt=0.003)
        tr = Trajectory(0.003, 0.0, n_ticks=40)
        times = np.array([-0.004, 0.0, 0.0017, 0.0031, 0.025])
        start = np.full(len(times), -0.004)
        for a, b in ((0, 1), (1, 2), (2, 9), (9, 40)):
            tr.record(a * 0.003, values[a:b])
            t = np.minimum(times, (b - 1) * 0.003)
            assert (tr.integrate_hold(start, t).tobytes()
                    == whole.integrate_hold(start, t).tobytes()), b


    def test_integrals_after_many_records_match_an_eager_cumulative(self):
        # many blocks recorded with no integral between them, then integrals
        # at scattered times (the pre-history, inner cells, the last sample)
        # in no order: bitwise those of a history whose cumulative was built
        # whole before any of them, for one signal and for a block of rows
        rng = np.random.default_rng(7)
        dt, n = 0.003, 300
        for initial in (0.25, [1.5, 2.0]):
            values = rng.uniform(0.0, 50.0, np.shape(initial) + (n,))
            eager = make(values, dt=dt, initial=initial, n_ticks=n)
            eager.integrate_hold(np.array([0.0]), np.array([(n - 1) * dt]))
            lazy = Trajectory(dt, initial, n_ticks=n)
            for k in range(0, n, 7):
                lazy.record(k * dt, values[..., k:k + 7])
            t0 = rng.uniform(-0.02, (n - 1) * dt, 40)
            t1 = np.minimum(t0 + rng.uniform(0.0, 0.3, 40), (n - 1) * dt)
            t0[:3], t1[:3] = [-0.02, -0.01, 0.0], [-0.005, 0.0, 0.0]
            for j in rng.permutation(40):
                one = t0[j:j + 1], t1[j:j + 1]
                assert (lazy.integrate_hold(*one).tobytes()
                        == eager.integrate_hold(*one).tobytes()), (initial, j)
            assert (lazy.integrate_hold(t0, t1).tobytes()
                    == eager.integrate_hold(t0, t1).tobytes()), initial

    def test_an_integral_extends_the_cumulative_only_through_what_it_reads(self):
        # the cumulative grows on demand, through the last sample a read
        # touches; records alone never extend it
        tr = make([float(k + 1) for k in range(15)], dt=0.5, n_ticks=20)
        tops = []

        def window_end():
            return tr._c0 + tr._cum.shape[-1]

        tr.integrate_hold(np.array([-0.5]), np.array([1.2]))     # through sample 2
        tops.append(window_end())
        tr.integrate_hold(np.array([0.0]), np.array([0.7]))      # already covered
        tops.append(window_end())
        tr.integrate_hold(np.array([-1.0]), np.array([-0.5]))    # the pre-history only
        tops.append(window_end())
        tr.integrate_hold(np.array([0.3, 2.0]), np.array([3.1, 2.6]))  # sample 6
        tops.append(window_end())
        tr.integrate_hold_steps(np.array([3.2, 3.9, 4.5]))      # sample 9
        tops.append(window_end())
        tr.record(7.5, [1.0, 1.0])
        tops.append(window_end())
        assert tops == [3, 3, 3, 7, 10, 10]
        assert tr.integrate_hold(np.array([0.0]), np.array([4.5])).tolist() == [
            sum(range(1, 10)) * 0.5]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_the_window_reads_bitwise_as_a_whole_cumulative(self, data):
        # records in random chunks, integrals between them whose lowest
        # time only rises, as the engine's do, and reads below the window
        # mixed in: every read is bitwise the one on a cumulative built
        # whole, and the window holds at most twice the widest read's cells
        # (or 1024), so it slides forward instead of growing with the
        # history, and ends at or before the highest entry a read needed
        dt = 0.003
        n = data.draw(st.integers(1, 5000), label="n")
        initial = data.draw(st.sampled_from([0.25, [1.5, 2.0]]), label="initial")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = rng.uniform(0.0, 50.0, np.shape(initial) + (n,))
        whole = make(values, dt=dt, initial=initial, n_ticks=n)
        whole.integrate_hold(np.array([0.0]), np.array([(n - 1) * dt]))
        tr = Trajectory(dt, initial, n_ticks=n)
        floor, widest, needed = -2.0 * dt, 0, 0
        while len(tr) < n:
            k = len(tr)
            tr.record(k * dt, values[..., k:k + data.draw(st.integers(1, 700))])
            last = (len(tr) - 1) * dt
            for _ in range(data.draw(st.integers(0, 3))):
                below = floor > 0.0 and data.draw(st.booleans(), label="below")
                lows = (-2.0 * dt, floor) if below else (floor, last)
                t0 = np.array(data.draw(st.lists(st.floats(*lows), min_size=1, max_size=3)))
                t1 = np.minimum(t0 + rng.uniform(0.0, 600 * dt, len(t0)), last)
                if not below:
                    floor = t0.min()
                t = np.concatenate((t0, t1))
                cells = grid_index(np.maximum(t, 0.0), dt)
                widest = max(widest, int(cells.max() - cells.min()) + 1)
                needed = max(needed, int(cells.max()) + 1)
                if data.draw(st.booleans(), label="steps"):
                    t = np.sort(t)
                    assert (tr.integrate_hold_steps(t).tobytes()
                            == whole.integrate_hold_steps(t).tobytes()), t
                else:
                    assert (tr.integrate_hold(t0, t1).tobytes()
                            == whole.integrate_hold(t0, t1).tobytes()), (t0, t1)
                assert tr._cum.shape[-1] <= min(max(2 * widest, 1024), n)
                assert tr._c0 + tr._cum.shape[-1] <= needed

    def test_steps_are_the_pairwise_integrals_with_their_checks(self):
        # integrate_hold_steps(t) is integrate_hold(t[:-1], t[1:]) to the bit,
        # empty spans and the pre-history included, and fails as it does
        block = Trajectory(0.5, [1.5, 2.0], n_ticks=10)
        block.record(0.0, [[1.0, 2.0, 4.0, 4.0, 9.0, 3.0], [0.5, 0.0, 3.0, 7.0, 7.5, 1.0]])
        for t in ([-1.0, -0.2, -0.2, 0.0, 0.3, 0.3, 1.0, 1.7, 2.5, 2.5],
                  [0.4, 0.4, 0.4], [1.1, 1.1, 2.5, 2.5], [0.7, 0.9]):
            t = np.array(t)
            got = block.integrate_hold_steps(t)
            assert got.shape == (2, len(t) - 1)
            assert got.tobytes() == block.integrate_hold(t[:-1], t[1:]).tobytes(), t
        block.prune_before(1.2)
        for t in ([1.0, 1.5, 1.4], [0.5, 0.5, 1.5], [0.5, 1.5], [1.5, 2.0, 2.7],
                  [2.7, 2.7, 3.0]):
            t = np.array(t)
            with pytest.raises(HistoryError) as steps:
                block.integrate_hold_steps(t)
            with pytest.raises(HistoryError) as pairs:
                block.integrate_hold(t[:-1], t[1:])
            assert type(steps.value) is type(pairs.value), t
            assert str(steps.value) == str(pairs.value), t

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_read_to_the_ticks_is_the_hold_integral_to_them(self, data):
        # integrate_hold_to_ticks(t0, k0) is integrate_hold over the spans
        # from t0 to the ticks k0, k0 + 1, ... to the bit, one signal or a
        # block, from starts before 0 (the pre-history), on the grid and
        # between its points, in any order of k0, so that a read below the
        # window restarts it; each read runs on its own copy of the history
        dt = data.draw(st.sampled_from([0.003, 1e-4, 0.5]), label="dt")
        n = data.draw(st.integers(1, 3000), label="n")
        initial = data.draw(st.sampled_from([0.25, [1.5, 2.0]]), label="initial")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = rng.uniform(0.0, 50.0, np.shape(initial) + (n,))
        ticks, spans = (make(values, dt=dt, initial=initial, n_ticks=n) for _ in range(2))
        for _ in range(data.draw(st.integers(1, 4), label="reads")):
            k0 = data.draw(st.integers(0, n - 1), label="k0")
            k1 = data.draw(st.integers(k0, n), label="k1")
            t1 = np.arange(k0, k1) * dt
            t0 = t1 - rng.uniform(0.0, data.draw(st.floats(0.0, 700.0)) * dt, k1 - k0)
            snap = rng.random(k1 - k0) < 0.3
            t0[snap] = np.floor(t0[snap] / dt) * dt
            got = ticks.integrate_hold_to_ticks(t0, k0)
            assert got.shape == np.shape(initial) + (k1 - k0,)
            assert got.tobytes() == spans.integrate_hold(t0, t1).tobytes(), (k0, t0)

    def test_a_read_to_the_ticks_refuses_what_integrate_hold_refuses(self):
        # a span ending before its start, starting below the prune floor or
        # at NaN, or ending past the history fails with integrate_hold's
        # error and message; no span reads nothing
        tr = make([1.0, 2.0, 4.0, 4.0, 9.0, 3.0], dt=0.5, initial=1.5)
        assert tr.integrate_hold_to_ticks(np.array([]), 3).shape == (0,)
        tr.prune_before(1.2)
        for t0, k0 in (([1.5, 2.1], 3), ([0.5, 1.5], 2), ([1.5, math.nan], 3),
                       ([2.0, 2.5, 2.5], 4), ([2.5, 2.5], 6)):
            t0 = np.array(t0)
            with pytest.raises(HistoryError) as ticks:
                tr.integrate_hold_to_ticks(t0, k0)
            with pytest.raises(HistoryError) as spans:
                tr.integrate_hold(t0, np.arange(k0, k0 + len(t0)) * 0.5)
            assert type(ticks.value) is type(spans.value), t0
            assert str(ticks.value) == str(spans.value), t0


class TestInvertMonotone:
    def test_identity_map(self):
        tr = make([0.0, 10.0], dt=10.0)
        assert tr.invert_monotone(np.array([3.2])) == pytest.approx([3.2])

    def test_linear_map_analytic_inverse(self):
        # f(t) = 1.5t sampled on a grid; analytic inverse of 3.0 is 3.0/1.5
        tr = make([1.5 * 0.1 * k for k in range(51)], dt=0.1)
        expected = 3.0 / 1.5
        assert tr.invert_monotone(np.array([3.0])) == pytest.approx([expected], abs=1e-12)

    def test_flat_segment_left_edge(self):
        tr = make([0.0, 5.0, 5.0, 8.0])
        assert tr.invert_monotone(np.array([5.0])) == pytest.approx([1.0])

    def test_out_of_range_rejected(self):
        tr = make([1.0, 2.0])
        with pytest.raises(HistoryError):
            tr.invert_monotone(np.array([2.5]))
        with pytest.raises(HistoryError):
            tr.invert_monotone(np.array([0.5]))
        with pytest.raises(HistoryError, match="cannot invert an empty trajectory"):
            Trajectory(1.0, 0.0, n_ticks=2).invert_monotone(np.array([0.0]))
        # the pre-history is no map: a value below the first sample's is
        # refused, whatever the initial value
        with pytest.raises(HistoryError, match=r"inverse of 0.5 not determined"):
            make([1.0, 2.0], initial=0.0).invert_monotone(np.array([1.5, 0.5]))

    @pytest.mark.parametrize("y, future", [(2.5, True), (math.nan, True), (0.5, False)],
                             ids=["past-the-newest", "nan", "below-the-first"])
    def test_a_value_past_the_map_is_a_future_read(self, y, future):
        # as every other read past the record; below it lies the pre-history
        with pytest.raises(HistoryError) as err:
            make([1.0, 2.0]).invert_monotone(np.array([1.5, y]))
        assert isinstance(err.value, CausalityError) == future

    def test_zero_queries_answer_zero_values_before_any_sample(self):
        # as eval_at and the integrals do; one query is still refused
        empty = Trajectory(1.0, 0.0, n_ticks=2)
        got = empty.invert_monotone(np.array([]))
        assert got.dtype == np.float64 and got.shape == (0,)
        with pytest.raises(HistoryError, match="cannot invert an empty trajectory"):
            empty.invert_monotone(np.array([0.0]))


@st.composite
def inversion_sessions(draw):
    """A nondecreasing map with flat runs, recorded in a few blocks, and the
    inversions asked after each block: ascending, descending, unsorted and
    one-time queries among its values and between them."""
    dt = draw(st.sampled_from([1e-4, 0.5]) | st.floats(1e-3, 2.0))
    steps = draw(st.lists(st.just(0.0) | st.floats(1e-6, 10.0), min_size=1, max_size=80))
    values = np.cumsum([draw(st.floats(-5.0, 5.0)), *steps])
    cuts = sorted(set(draw(st.lists(st.integers(1, len(values)), max_size=4))))
    blocks = []
    for end in (*cuts, len(values)):
        recorded = values[:end]
        pool = st.sampled_from(list(recorded)) | st.floats(recorded[0], recorded[-1])
        calls = []
        for order in draw(st.lists(st.sampled_from(["up", "down", "any", "one"]),
                                   max_size=5)):
            ys = np.array(draw(st.lists(pool, min_size=1, max_size=30)))
            calls.append(ys[:1] if order == "one" else
                         np.sort(ys) if order == "up" else
                         np.sort(ys)[::-1] if order == "down" else ys)
        blocks.append((end, calls))
    return dt, values, blocks


class TestPrune:
    def test_prune_keeps_recent_reads_exact(self):
        tr = make([float(k * k) for k in range(10)])
        whole = make([float(k * k) for k in range(10)])
        tr.prune_before(6.2)
        assert tr.pruned_before == 6.0
        t = np.array([7.5])
        assert tr.eval_at(t).tolist() == whole.eval_at(t).tolist()
        t0, t1 = np.array([6.5, 6.0, 7.0]), np.array([8.0, 9.0, 7.25])
        assert tr.integrate_hold(t0, t1).tolist() == whole.integrate_hold(t0, t1).tolist()
        y = np.array([50.0])
        assert tr.invert_monotone(y).tolist() == whole.invert_monotone(y).tolist()

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
            tr.eval_at(np.array([2.0]))
        with pytest.raises(HistoryError):
            tr.integrate_hold(np.array([2.0]), np.array([7.0]))
        with pytest.raises(HistoryError):
            tr.invert_monotone(np.array([2.0]))


class TestBlockReads:
    """Array reads answer elementwise what one-time reads answer."""

    def test_reads_match_scalar_reads(self):
        # each read of many times is that of each time alone, a one-time array
        tr = make([1.0, 2.0, 4.0, 4.0, 9.0], dt=0.5, initial=1.5)
        times = np.array([-1.0, -0.2, 0.0, 0.3, 1.0, 1.7, 2.0])
        alone = [times[j:j + 1] for j in range(len(times))]
        assert tr.eval_at(times).tolist() == [tr.eval_at(t)[0] for t in alone]
        t1 = np.minimum(times + 0.6, 2.0)
        assert tr.integrate_hold(times, t1).tolist() == [
            tr.integrate_hold(t, np.minimum(t + 0.6, 2.0))[0] for t in alone]
        ys = np.array([1.0, 3.0, 4.0, 8.0, 9.0])
        assert tr.invert_monotone(ys).tolist() == [
            tr.invert_monotone(ys[j:j + 1])[0] for j in range(len(ys))]

    def test_block_rows_read_as_their_own_signals(self):
        rows = [[1.0, 2.0, 4.0, 4.0, 9.0], [0.5, 0.0, 3.0, 7.0, 7.5]]
        block = Trajectory(0.5, [1.5, 2.0], n_ticks=5)
        block.record(0.0, [r[:2] for r in rows])
        block.record(1.0, [r[2:] for r in rows])
        assert block.values.tolist() == rows
        times = np.array([-1.0, -0.2, 0.0, 0.3, 1.0, 1.7, 2.0])
        for i, (row, initial) in enumerate(zip(rows, (1.5, 2.0))):
            one = make(row, dt=0.5, initial=initial)
            assert block.values[i].tolist() == row
            assert block.eval_at(times, i).tolist() == one.eval_at(times).tolist()

    def test_empty_spans_among_nonempty_ones(self):
        # empty spans inside the history, among nonempty ones: every row is
        # the one-span integral, and an empty span exactly 0.0; an empty
        # span past the history is refused, as a read there would be
        block = Trajectory(0.5, [1.5, 2.0], n_ticks=5)
        block.record(0.0, [[1.0, 2.0, 4.0, 4.0, 9.0], [0.5, 0.0, 3.0, 7.0, 7.5]])
        t0 = np.array([0.0, 0.3, 0.3, 1.0, 1.2, 1.4, -0.5, 2.0])
        t1 = np.array([0.0, 0.9, 0.3, 1.7, 1.9, 1.4, 0.2, 2.0])
        got = block.integrate_hold(t0, t1)
        for j in range(len(t0)):
            one = block.integrate_hold(t0[j:j + 1], t1[j:j + 1])
            assert got[:, j].tobytes() == one[:, 0].tobytes()
        assert got[:, t0 == t1].tobytes() == np.zeros((2, 4)).tobytes()
        with pytest.raises(CausalityError,
                           match=r"^future read at t=7.0 \(history ends at 2.0\)$"):
            block.integrate_hold(np.append(t0, 7.0), np.append(t1, 7.0))

    def test_check_names_the_first_offending_time(self):
        tr = make([float(k) for k in range(10)])
        tr.prune_before(5.0)
        with pytest.raises(HistoryError, match="t=4.5 precedes"):
            tr.eval_at(np.array([6.0, 4.5, 2.0]))
        with pytest.raises(CausalityError, match="t=9.5"):
            tr.eval_at(np.array([6.0, 9.5, 12.0]))
        with pytest.raises(HistoryError, match=r"inverse of 9.5 not"):
            tr.invert_monotone(np.array([6.0, 9.5]))
        # a NaN has no place in the map either
        with pytest.raises(HistoryError, match=r"inverse of nan not"):
            tr.invert_monotone(np.array([6.0, math.nan, 7.0]))


@pytest.mark.parametrize("read, late", [
    (lambda tr, t: tr.eval_at(t), "future read at t=9.5 (history ends at 4.5)"),
    # an empty span at each time
    (lambda tr, t: tr.integrate_hold(t, t), "future read at t=9.5 (history ends at 4.5)"),
    (lambda tr, t: tr.integrate_hold_steps(t.repeat(2)),
     "future read at t=9.5 (history ends at 4.5)"),
    (lambda tr, t: tr.invert_monotone(t), "inverse of 9.5 not determined"),
], ids=["eval_at", "integrate_hold", "integrate_hold_steps", "invert_monotone"])
def test_a_read_answers_zero_times_and_refuses_nan_and_the_unrecorded(read, late):
    # zero times read zero values, before any integral too, where numpy's
    # min() of nothing stopped the integrals and the inversion; a NaN time
    # is refused, where the grid index of NaN indexed far out of the samples
    tr = make([float(k) for k in range(10)], dt=0.5)
    got = read(tr, np.array([]))
    assert got.dtype == np.float64 and got.shape == (0,)
    with pytest.raises(HistoryError, match="nan"):
        read(tr, np.array([1.0, math.nan]))
    with pytest.raises(HistoryError, match=f"^{re.escape(late)}"):
        read(tr, np.array([1.0, 9.5]))


@st.composite
def grid_times(draw):
    """A step, and its multiples ``i * step`` of either sign with the float
    on each side of them."""
    step = draw(st.sampled_from([0.5, 2.0 ** -13, 1e-4, 0.3, 0.07])
                | st.floats(1e-4, 5.0))
    i = np.array(draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=20)))
    t = i * step
    return step, np.concatenate((t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)))


class TestGridIndex:
    """``grid_index``: the cell of a time on a grid, at any sign."""

    @given(grid_times())
    @settings(max_examples=200, deadline=None)
    def test_cell_holds_the_time(self, case):
        # the cell's grid point, as a float, is at or below the time, and
        # the next one above it
        step, t = case
        i = grid_index(t, step)
        assert (i * step <= t).all() and ((i + 1) * step > t).all()

    @given(grid_times().filter(lambda c: math.frexp(c[0])[0] == 0.5))
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_steps_floor_the_quotient(self, case):
        # the grid points are exact, so the cell is the floor of the exact
        # quotient, negative times too; a float quotient can round across a
        # cell edge (-5e-324 / 2.0 underflows to -0.0)
        step, t = case
        assert grid_index(t, step).tolist() == [
            math.floor(Fraction(x) / Fraction(step)) for x in t.tolist()]

    def test_cells_at_negative_times(self):
        t = np.array([-1.0, -0.75, -0.5, -0.25, -1e-300, 0.0, 0.25])
        assert grid_index(t, 0.5).tolist() == [-2, -2, -1, -1, -1, 0, 0]
        assert int(grid_index(-0.1, 0.3)) == -1
        assert grid_index(np.array([-5e-324, 5e-324]), 2.0).tolist() == [-1, 0]


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
        assert tr.eval_at(np.arange(len(values)) * dt).tolist() == values

    @given(sampled_signal(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_integrate_additivity(self, signal, a, b, c):
        dt, values = signal
        tr = make(values, dt=dt)
        span = (len(values) - 1) * dt
        t0, t1, t2 = sorted(x * span for x in (a, b, c))
        whole, left, right = tr.integrate_hold(np.array([t0, t0, t1]), np.array([t2, t1, t2]))
        assert whole == pytest.approx(left + right, rel=1e-12, abs=1e-9)

    @given(inversion_sessions())
    @settings(max_examples=150, deadline=None)
    def test_an_inversion_does_not_depend_on_the_calls_before_it(self, session):
        # each answer, and each refusal, is bitwise that of a fresh history
        # holding the same samples, whatever was asked before and whatever
        # was recorded since
        dt, values, blocks = session
        tr = Trajectory(dt, values[0], n_ticks=len(values))
        done = 0
        for end, calls in blocks:
            tr.record(done * dt, values[done:end])
            done = end
            for y in calls:
                fresh = make(values[:end], dt=dt, initial=values[0])
                try:
                    want = fresh.invert_monotone(y)
                except HistoryError as err:
                    with pytest.raises(HistoryError, match=re.escape(str(err))):
                        tr.invert_monotone(y)
                    continue
                assert tr.invert_monotone(y).tobytes() == want.tobytes(), y

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
        x = tr.invert_monotone(np.array([y]))
        assert tr.eval_at(x) == pytest.approx([y], rel=1e-9, abs=1e-9)

"""Regime-span solvers against the tick-by-tick loops they replaced.

``UserState.step`` and ``FifoQueue.step`` solve a block as spans of ticks
in which no branch of the recurrence changes, and the rate profiles answer
a whole block of times at once.  The references below are the per-tick
loops those replaced, kept here verbatim in their arithmetic.  Every
result must match them to the bit (``tobytes`` tells -0.0 from 0.0 and
keeps NaN payloads), whatever the block split.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ackflow.fifo_queue import EPS_BACKLOG_PKTS, FifoQueue
from ackflow.history import HistoryError, Trajectory
from ackflow.scenario import SquareProfile
from ackflow.user import EPS_ACK_BUFFER_PKTS, UserState


def bits(*values) -> list[bytes]:
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


# ---------------------------------------------------------------------------
# reference loops

def reference_user(window, buf, acks, dt, jumps, wdot):
    """One tick at a time; returns the per-tick arrays and the end state."""
    sends, windows, bufs, actives = [], [], [], []
    for j, ack in enumerate(np.asarray(acks, dtype=np.float64).tolist()):
        windows.append(window)
        rate = wdot(window, j) if wdot is not None else 0.0
        burst_rate = 0.0
        if j in jumps:
            delta = jumps[j]
            window += delta
            if buf >= -EPS_ACK_BUFFER_PKTS and delta >= 0:
                burst = delta
            else:
                nb = buf + delta
                if nb > 0:
                    buf, burst = 0.0, nb
                else:
                    buf, burst = nb, 0.0
            burst_rate = burst / dt
        bufs.append(buf)
        window += rate * dt

        inflow = rate + burst_rate + ack
        if buf >= -EPS_ACK_BUFFER_PKTS:
            buf = 0.0
            if inflow >= 0.0:
                active = True
                send = inflow
            else:
                active = False
                buf = inflow * dt
                send = 0.0
        else:
            nb = buf + inflow * dt
            if nb >= 0.0 and inflow > 0.0:
                theta = -buf / inflow
                buf = 0.0
                active = True
                send = inflow * (dt - theta) / dt
            else:
                buf = min(nb, 0.0)
                active = False
                send = 0.0

        sends.append(send)
        actives.append(1.0 if active else 0.0)
    arrays = tuple(np.array(v, dtype=np.float64) for v in (sends, windows, bufs, actives))
    return arrays, (window, buf)


def reference_queue(b, total, c, dt):
    """One tick at a time; returns backlog, service, congested and the end backlog."""
    starts, services, flags = [], [], []
    for a in total.tolist():
        starts.append(b)
        congested = b > EPS_BACKLOG_PKTS or a > c
        flags.append(congested)
        if congested:
            nb = b + (a - c) * dt
            if nb >= 0.0:
                b = nb
                services.append(c)
            else:
                theta = b / (c - a)
                b = 0.0
                services.append((c * theta + a * (dt - theta)) / dt)
        else:
            services.append(a)
    return np.array(starts), np.array(services), np.array(flags), b


# ---------------------------------------------------------------------------
# users

DTS = st.sampled_from([1e-4, 1e-3, 1e-2])
# buffers at the edges of the mode switch, and well inside retaining
BUFFERS = st.one_of(
    st.sampled_from([0.0, -0.0, -EPS_ACK_BUFFER_PKTS, -2 * EPS_ACK_BUFFER_PKTS,
                     -0.5 * EPS_ACK_BUFFER_PKTS]),
    st.floats(-80.0, 0.0))


@st.composite
def user_blocks(draw):
    dt = draw(DTS)
    n = draw(st.integers(1, 60))
    window = draw(st.floats(0.0, 200.0) | st.just(-0.0))
    # ACK rates around the window's fall rate, so inflow changes sign
    fall = draw(st.sampled_from([0.0, 100.0, 300.0]))
    acks = draw(st.lists(
        st.one_of(st.floats(0.0, 600.0), st.sampled_from([0.0, -0.0, fall, 1e-6])),
        min_size=n, max_size=n))
    ticks = st.integers(0, n - 1)
    jumps = draw(st.dictionaries(ticks, st.one_of(
        st.floats(-150.0, 150.0), st.sampled_from([0.0, -window, window])),
        max_size=4))
    # the reference's per-tick wdot, and the step's (gains, gamma, alpha)
    kind = draw(st.sampled_from(["none", "constant", "affine", "per_tick"]))
    if kind == "none":
        wdot = ode = None
    elif kind == "constant":  # gain 0: gamma * (0 * w + 1) is gamma
        wdot = (lambda r: lambda w, j: r)(-fall)
        ode = [0.0] * n, -fall, 1.0
    elif kind == "affine":  # FAST-like: the rate depends on the window itself
        g, k, alpha = draw(st.floats(0.1, 50.0)), draw(st.floats(0.0, 1.0)), \
            draw(st.floats(0.0, 200.0))
        wdot = lambda w, j: g * (-k * w + alpha)
        ode = [-k] * n, g, alpha
    else:  # FAST proper: the gain moves with the measured delay, tick by tick
        g, alpha = draw(st.floats(0.1, 50.0)), draw(st.floats(0.0, 200.0))
        gains = draw(st.lists(st.floats(-1.0, 0.0) | st.just(-0.0),
                              min_size=n, max_size=n))
        wdot = lambda w, j: g * (gains[j] * w + alpha)
        ode = gains, g, alpha
    split = draw(st.integers(0, n))
    return dt, acks, jumps, wdot, ode, (window, draw(BUFFERS)), split


def fast_of(gains, gamma, alpha):
    """``UserState.step``'s ``fast`` for the window rate ``gamma * (gains[j]
    * w + alpha)`` at tick ``j``, its rates over a window array in one call."""
    return list(gains), gamma, alpha, lambda w: gamma * (np.array(gains) * w + alpha)


@given(user_blocks())
@settings(max_examples=300, deadline=None)
def test_user_step_matches_the_tick_loop(block):
    dt, acks, jumps, wdot, ode, (window, buf), split = block
    ref, ref_end = reference_user(window, buf, acks, dt, jumps, wdot)

    u = UserState(window, dt_s=dt, n_ticks=len(acks))
    u.ack_buffer = buf
    parts = []
    for k0, k1 in ((0, split), (split, len(acks))):
        if k1 > k0:  # the second block gets its own ticks' gains
            fast = None if ode is None else fast_of(ode[0][k0:k1], *ode[1:])
            block_jumps = {k - k0: v for k, v in jumps.items() if k0 <= k < k1}
            parts.append(u.step(acks[k0:k1], dt, fast=fast, jumps=block_jumps))
    got = [np.concatenate(v) for v in zip(*parts)]
    assert bits(*got) == bits(*ref)
    assert bits(u.window, u.ack_buffer) == bits(*ref_end)


def check_user(window, buf, acks, dt, jumps=None, wdot=None, fast=None):
    """Run one block against the reference, which takes ``wdot`` where the
    step takes ``fast``; returns the arrays."""
    jumps = jumps or {}
    ref, ref_end = reference_user(window, buf, acks, dt, jumps, wdot)
    u = UserState(window, dt_s=dt, n_ticks=len(acks))
    u.ack_buffer = buf
    got = u.step(acks, dt, jumps=jumps, fast=fast)
    assert bits(*got) == bits(*ref)
    assert bits(u.window, u.ack_buffer) == bits(*ref_end)
    return got


@pytest.mark.parametrize("delta", [-40.0, -40.0 - 1e-12, -10.0, +25.0, +80.0])
def test_jump_while_retaining_and_to_a_zero_window(delta):
    # a cut into retaining at tick 3, then a second jump while retaining:
    # -40.0 takes the window to exactly 0, +80.0 refills the buffer past zero
    got = check_user(100.0, 0.0, np.full(50, 120.0), 1e-3, {3: -60.0, 10: delta})
    assert 0.0 in got[3]  # it did retain


@pytest.mark.parametrize("buf, ack", [
    (-2e-9, 1e-6),      # the buffer ends a tick at exactly -EPS: active next
    (-1.5e-9, 0.75e-6),  # ends inside (-EPS, 0) without refilling
    (-1e-6, 1e-3),      # ends at exactly 0: a refill with nothing left to send
])
def test_retaining_spans_end_at_the_buffer_threshold(buf, ack):
    assert -EPS_ACK_BUFFER_PKTS <= buf + ack * 1e-3 <= 0.0
    got = check_user(100.0, buf, np.full(4, ack), 1e-3)
    assert got[3][-1] == 1.0


def test_negative_zeros_survive():
    # a -0.0 window and -0.0 rates: the span solver keeps the loop's signs
    got = check_user(-0.0, 0.0, np.array([-0.0, 0.0, -0.0]), 1e-3,
                     wdot=lambda w, j: -0.0, fast=fast_of([0.0] * 3, -0.0, 1.0))
    assert bits(got[1]) == bits([-0.0, -0.0, -0.0])
    got = check_user(-0.0, 0.0, np.array([-0.0, 0.0]), 1e-3)
    assert bits(got[1]) == bits([-0.0, 0.0])


def test_empty_block_leaves_the_user_unchanged():
    u = UserState(10.0, dt_s=1e-3, n_ticks=1)
    out = u.step([], 1e-3, jumps={0: 5.0})
    assert len(out) == 4 and all(len(v) == 0 for v in out)
    assert (u.window, u.ack_buffer) == (10.0, 0.0)


# ---------------------------------------------------------------------------
# queues

CAP = 100.0


@st.composite
def queue_blocks(draw):
    dt = draw(DTS)
    n = draw(st.integers(1, 80))
    # rates crossing the capacity, sitting on it, or just above it
    rate = st.one_of(st.floats(0.0, 2.5 * CAP),
                     st.sampled_from([0.0, CAP, CAP * (1 + 1e-12), CAP * (1 - 1e-12)]))
    flows = draw(st.lists(st.lists(rate, min_size=n, max_size=n),
                          min_size=1, max_size=3))
    backlog0 = draw(st.one_of(
        st.sampled_from([0.0, EPS_BACKLOG_PKTS, 2 * EPS_BACKLOG_PKTS,
                         0.5 * EPS_BACKLOG_PKTS]),
        st.floats(0.0, 5.0), st.floats(0.0, 200.0)))
    split = draw(st.integers(0, n))
    return dt, flows, backlog0, split


@given(queue_blocks())
@settings(max_examples=150, deadline=None)
def test_queue_step_matches_the_tick_loop(block):
    dt, flows, backlog0, split = block
    n = len(flows[0])
    q = FifoQueue("b", CAP, [f"f{i}" for i in range(len(flows))], dt_s=dt,
                  backlog0_pkts=backlog0, n_ticks=n)
    b = backlog0
    for k0, k1 in ((0, split), (split, n)):
        if k1 == k0:
            continue
        times = np.arange(k0, k1 + 1) * dt
        rates = np.array([f[k0:k1] for f in flows])
        total = q.record_inputs(times[:-1], rates)
        *ref, b = reference_queue(b, total, CAP, dt)
        got = q.step(dt, times[1:], total)
        assert bits(*got) == bits(*ref)
        assert bits(q.backlog) == bits(b)
        ends = np.append(ref[0][1:], b)
        assert bits(q.forward_map.values[k0 + 1:]) == bits(times[1:] + ends / CAP)
        q.record_outputs(times[0], q.transport_outputs(times, got[1] * dt, rates,
                                                       total, got[2]))


@given(queue_blocks())
@settings(max_examples=100, deadline=None)
def test_queue_transport_is_the_per_tick_one(block):
    # a block's congested ticks may form several runs; one tick per block
    # has one run at most
    dt, flows, backlog0, split = block
    n = len(flows[0])
    departures, stalls = [], []
    for bounds in ([0, split, n], range(n + 1)):
        q = FifoQueue("b", CAP, [f"f{i}" for i in range(len(flows))], dt_s=dt,
                      backlog0_pkts=backlog0, n_ticks=n)
        for k0, k1 in zip(bounds, bounds[1:]):
            if k1 > k0:
                times = np.arange(k0, k1 + 1) * dt
                rates = np.array([f[k0:k1] for f in flows])
                total = q.record_inputs(times[:-1], rates)
                _, service, congested = q.step(dt, times[1:], total)
                q.record_outputs(times[0], q.transport_outputs(
                    times, service * dt, rates, total, congested))
        departures.append(bits(q.departures.values))
        stalls.append(q.stall_fallbacks)
    assert departures[0] == departures[1]
    assert stalls[0] == stalls[1]


def test_subnormal_arrivals_behind_a_backlog_split_the_departures():
    # the backlog drains within the first tick, so its departures map back
    # onto arrival mass of about 1e-312 packets: the flows share them 1:3
    # by that mass, with no overflow on the way
    dt, n = 1e-2, 4
    q = FifoQueue("b", CAP, ["f0", "f1"], dt_s=dt, backlog0_pkts=0.5, n_ticks=n)
    times = np.arange(n + 1) * dt
    rates = np.array([[1e-310] * n, [3e-310] * n])
    total = q.record_inputs(times[:-1], rates)
    _, service, congested = q.step(dt, times[1:], total)
    outs = q.transport_outputs(times, service * dt, rates, total, congested)
    assert congested.tolist() == [True, False, False, False]
    assert outs[:, 0] == pytest.approx([0.25 * service[0], 0.75 * service[0]], rel=1e-9)
    assert bits(outs[:, 1:]) == bits(rates[:, 1:])
    assert q.stall_fallbacks == 0


def check_queue(b0, total, dt):
    """Run one block against the reference; returns the arrays."""
    q = FifoQueue("b", CAP, ["f"], dt_s=dt, backlog0_pkts=b0, n_ticks=len(total))
    times = np.arange(len(total) + 1) * dt
    total = q.record_inputs(times[:-1], [np.asarray(total, dtype=np.float64)])
    *ref, b = reference_queue(b0, total, CAP, dt)
    got = q.step(dt, times[1:], total)
    assert bits(*got) == bits(*ref)
    assert bits(q.backlog) == bits(b)
    return got


@pytest.mark.parametrize("flows, n", [(1, 5), (3, 1), (3, 40), (9, 1), (9, 4), (20, 1)])
def test_total_arrival_adds_the_flows_in_order(flows, n):
    # the per-flow loop from 0.0, whatever the block's shape: numpy's sum
    # pairs the terms of one long column, and -0.0 rates total +0.0
    rng = np.random.default_rng(100 * flows + n)
    rates = rng.random((flows, n)) * 10.0 ** rng.integers(-6, 6, (flows, n))
    if n > 1:
        rates[:, -1] = -0.0
    total = np.zeros(n)
    for r in rates:
        total = total + r
    q = FifoQueue("b", CAP, [f"f{i}" for i in range(flows)], dt_s=1e-3, n_ticks=n)
    assert bits(q.record_inputs(np.arange(n) * 1e-3, rates)) == bits(total)


def test_queue_empties_mid_block_and_idles_at_eps():
    # 5 pkts drained at 50 pkt/s net empty inside a tick near t = 0.1 s
    total = np.concatenate((np.full(150, 50.0), np.full(10, 10.0)))
    got = check_queue(5.0, total, 1e-3)
    assert np.count_nonzero(np.diff(got[2])) == 1 and got[2][0] and not got[2][-1]
    # a backlog of exactly EPS_BACKLOG_PKTS under light load counts as empty
    got = check_queue(EPS_BACKLOG_PKTS, np.full(10, 10.0), 1e-3)
    assert not got[2].any() and (got[0] == EPS_BACKLOG_PKTS).all()


def test_congested_span_ends_on_a_backlog_of_exactly_eps():
    # the first tick drains the backlog to exactly EPS_BACKLOG_PKTS, which
    # no longer congests the queue at the next tick's lighter load
    dt = 2.0 ** -10
    a = CAP - 2.0 ** -31 / dt
    b0 = EPS_BACKLOG_PKTS - (a - CAP) * dt
    assert b0 + (a - CAP) * dt == EPS_BACKLOG_PKTS
    got = check_queue(b0, [a, 10.0, 10.0], dt)
    assert got[2].tolist() == [True, False, False]


def test_congested_span_ends_on_a_backlog_of_exactly_zero():
    # a step that drains the backlog to exactly 0.0 serves c for the whole
    # step; located as an emptying instant it would serve c only to the ulp
    a, dt = 13.436424411240122, 1e-4
    b0 = (CAP - a) * dt
    assert b0 + (a - CAP) * dt == 0.0
    theta = b0 / (CAP - a)
    assert (CAP * theta + a * (dt - theta)) / dt != CAP
    got = check_queue(b0, [a, a], dt)
    assert got[1].tolist() == [CAP, a]


# ---------------------------------------------------------------------------
# rate profiles

@st.composite
def profile_times(draw):
    period = draw(st.sampled_from([1.0, 0.3, 0.07, 1e-3]) | st.floats(1e-3, 5.0))
    profile = SquareProfile(draw(st.floats(0.0, 1e4)), draw(st.floats(0.0, 1e4)),
                            period, draw(st.booleans()))
    dt = draw(DTS)
    delay = draw(st.floats(0.0, 2.0))
    k0 = draw(st.integers(0, 50_000))
    ticks = np.arange(k0, k0 + draw(st.integers(1, 64))) * dt
    # grid reads behind a delay (negative near the start), and the
    # half-period edges with their neighbours
    m = np.arange(-6, 7)
    edges = m * (period / 2.0)
    edges = np.concatenate((edges, np.nextafter(edges, np.inf),
                            np.nextafter(edges, -np.inf)))
    return profile, np.concatenate((ticks - delay, edges))


@given(profile_times())
@settings(max_examples=200, deadline=None)
def test_fluid_reads_and_the_packet_walk_see_the_same_pieces(case):
    # each piece the draws touch, read at its start and one float below it:
    # the engine's rates_at gives the rates packet_sim's walk runs those
    # pieces at, and the walk ends each piece where the next one starts
    profile, t = case
    pieces = sorted({profile.piece_at(x) for x in t.tolist()})
    starts = np.array([h * (profile.period_s / 2.0) for h in pieces])
    assert [profile.piece(h - 1)[1] for h in pieces] == starts.tolist()
    assert bits(profile.rates_at(starts)) == bits(
        [profile.piece(h)[0] for h in pieces])
    assert bits(profile.rates_at(np.nextafter(starts, -np.inf))) == bits(
        [profile.piece(h - 1)[0] for h in pieces])


# ---------------------------------------------------------------------------
# one hold integral for the rows of a block

def test_many_row_hold_integral_equals_each_rows_own():
    dt = 0.1
    rows = np.array([1.0, 2.5])[:, None] * np.arange(20.0)
    block = Trajectory(dt, [3.0, 0.0], n_ticks=20)
    block.record(0.0, rows)
    t0 = np.array([-0.25, 0.0, 0.3, 0.75, 1.2])
    t1 = np.array([0.05, 0.0, 0.95, 1.85, 1.2])
    got = block.integrate_hold(t0, t1)
    for v0, row, g in zip((3.0, 0.0), rows, got):
        one = Trajectory(dt, v0, n_ticks=20)
        one.record(0.0, row)
        assert bits(g) == bits([one.integrate_hold(a, b) for a, b in zip(t0, t1)])
    with pytest.raises(HistoryError, match="reversed integration bounds"):
        block.integrate_hold(t1, t0)

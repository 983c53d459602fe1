import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ackflow.engine import _window_jumps
from ackflow.protocol import FastProtocol, ProtocolError, ScheduledProtocol, fast_wdot
from test_regime_spans import bits, reference_user


def fast(gamma, alpha_pkts):
    return FastProtocol(gamma=gamma, alpha_pkts=alpha_pkts, initial_window_pkts=10.0)


class TestFastWdot:
    def test_zero_queue_pure_increase(self):
        p = fast(gamma=0.5, alpha_pkts=200.0)
        assert fast_wdot(1000.0, 0.0, 0.1, p) == pytest.approx(0.5 * 200.0)

    def test_hand_evaluated_point(self):
        # gamma*(-tau/(T+tau)*w + alpha) = 0.5*(-0.01/0.11*1000 + 200)
        p = fast(gamma=0.5, alpha_pkts=200.0)
        expected = 0.5 * (-0.01 / 0.11 * 1000.0 + 200.0)
        assert expected == pytest.approx(54.5454545, abs=1e-6)
        assert fast_wdot(1000.0, 0.01, 0.1, p) == pytest.approx(expected)

    def test_sign_flips_at_equilibrium_window(self):
        p = fast(gamma=0.7, alpha_pkts=50.0)
        tau, T = 0.02, 0.08
        w_eq = p.alpha_pkts * (T + tau) / tau
        assert fast_wdot(w_eq, tau, T, p) == pytest.approx(0.0, abs=1e-9)
        assert fast_wdot(w_eq - 1.0, tau, T, p) > 0
        assert fast_wdot(w_eq + 1.0, tau, T, p) < 0

    def test_equilibrium_rate_relation(self):
        # wdot = 0  <=>  per-user rate w/(T+tau) equals alpha/tau
        p = fast(gamma=1.0, alpha_pkts=80.0)
        tau, T = 0.05, 0.1
        w_eq = p.alpha_pkts * (T + tau) / tau
        assert w_eq / (T + tau) == pytest.approx(p.alpha_pkts / tau)

    def test_affine_in_window(self):
        p = fast(gamma=0.5, alpha_pkts=200.0)
        f = lambda w: fast_wdot(w, 0.01, 0.1, p)
        slope1 = f(200.0) - f(100.0)
        slope2 = f(900.0) - f(800.0)
        assert slope1 == pytest.approx(slope2)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ProtocolError):
            fast(gamma=0.0, alpha_pkts=10.0)
        with pytest.raises(ProtocolError):
            fast(gamma=1.0, alpha_pkts=-1.0)

    @pytest.mark.parametrize("gamma, alpha, w0", [
        (math.inf, 10.0, 10.0), (1.0, math.inf, 10.0), (math.nan, 10.0, 10.0),
        (1.0, math.nan, 10.0), (1.0, 10.0, -1.0), (1.0, 10.0, math.nan),
    ])
    def test_infinite_or_nan_parameters_rejected(self, gamma, alpha, w0):
        # checked on construction, not only by the scenario parser
        with pytest.raises(ProtocolError):
            FastProtocol(gamma=gamma, alpha_pkts=alpha, initial_window_pkts=w0)

    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 10.0)),
                    min_size=1, max_size=20),
           st.floats(1e-3, 1.0), st.floats(0.01, 100.0), st.floats(0.1, 500.0))
    def test_arrays_give_the_scalar_rates_to_the_bit(self, points, T, gamma, alpha):
        # the engine takes a block's rates in one call on arrays
        p = fast(gamma, alpha)
        w, tau = (np.array(v) for v in zip(*points))
        scalar = [fast_wdot(wi, ti, T, p) for wi, ti in points]
        assert fast_wdot(w, tau, T, p).tobytes() == np.array(scalar).tobytes()


class TestScheduledProtocol:
    def test_step_up_at_instant(self):
        sched = ScheduledProtocol(50.0, ((3.0, 150.0),))
        assert sched.window_at(2.999) == 50.0
        assert sched.window_at(3.0) == 150.0
        assert sched.window_at(10.0) == 150.0

    def test_halving_step(self):
        sched = ScheduledProtocol(500.0, ((5.0, 250.0),))
        assert sched.window_at(4.9) == 500.0
        assert sched.window_at(5.0) == 250.0

    def test_empty_schedule_constant(self):
        sched = ScheduledProtocol(10.0)
        assert sched.window_at(0.0) == 10.0
        assert sched.window_at(99.0) == 10.0
        assert _window_jumps(sched, 1e-4, cold=False) == {}

    def test_impulses_snap_to_grid_ticks(self):
        dt = 1e-4
        sched = ScheduledProtocol(50.0, ((3.0, 150.0), (7.0, 100.0)))
        assert _window_jumps(sched, dt, cold=False) == {30000: 100.0, 70000: -50.0}
        # a cold start opens its window at tick 0
        assert _window_jumps(sched, dt, cold=True) == {0: 50.0, 30000: 100.0, 70000: -50.0}

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ProtocolError):
            ScheduledProtocol(10.0, ((2.0, 5.0), (2.0, 6.0)))

    def test_negative_windows_rejected(self):
        with pytest.raises(ProtocolError):
            ScheduledProtocol(-1.0)
        with pytest.raises(ProtocolError):
            ScheduledProtocol(10.0, ((2.0, -5.0),))

    def test_nan_windows_rejected(self):
        with pytest.raises(ProtocolError, match="nonnegative"):
            ScheduledProtocol(math.nan)
        with pytest.raises(ProtocolError, match="nonnegative"):
            ScheduledProtocol(10.0, ((2.0, math.nan),))

    def test_step_before_the_start_rejected(self):
        # the run starts at t=0: a step at -1 s would land on no tick, so
        # the fluid engine would drop it while the packet oracle applies it
        with pytest.raises(ProtocolError, match="nonnegative"):
            ScheduledProtocol(5.0, ((-1.0, 50.0),))
        sched = ScheduledProtocol(5.0, ((0.0, 50.0),))
        assert _window_jumps(sched, 1e-4, cold=False) == {0: 45.0}
        assert _window_jumps(sched, 1e-4, cold=True) == {0: 50.0}

    @pytest.mark.parametrize("make, field", [
        (lambda: ScheduledProtocol(math.inf), "initial_window_pkts"),
        (lambda: ScheduledProtocol(10.0, ((2.0, math.inf),)), "steps"),
        (lambda: ScheduledProtocol(10.0, ((math.nan, 5.0),)), "steps"),
        (lambda: ScheduledProtocol(10.0, ((1.0, 5.0), (math.nan, 6.0))), "steps"),
        (lambda: ScheduledProtocol(10.0, ((math.inf, 5.0),)), "steps"),
        (lambda: FastProtocol(0.5, 200.0, math.inf), "initial_window_pkts"),
    ], ids=["initial-window", "step-window", "step-time-nan", "later-step-time-nan",
            "step-time-inf", "fast-initial-window"])
    def test_non_finite_values_rejected(self, make, field):
        # each would stop a run mid-way, or put a NaN time in packet_sim's
        # event heap, instead of naming the value
        with pytest.raises(ProtocolError) as err:
            make()
        assert err.value.field == field


# ---------------------------------------------------------------------------
# window paths against the per-tick user reference

DTS = st.sampled_from([1e-4, 1e-3, 1e-2])
WINDOWS = st.floats(0.0, 200.0) | st.just(-0.0)
JUMPS = st.floats(-150.0, 150.0) | st.sampled_from([0.0, -0.0])


def check_path(path, w, n, dt, jump, wdot, split):
    """``path(w, a, b, jump)``, the window path over ticks ``[a, b)``,
    against the reference's windows with ``jump`` at tick 0; and cut at
    ``split``, the second piece resuming from the first one's end."""
    (_, ref, *_), (ref_end, _) = reference_user(w, 0.0, np.zeros(n), dt, {0: jump}, wdot)
    windows, end = path(w, 0, n, jump)
    assert bits(windows, end) == bits(ref, ref_end)
    if 0 < split < n:
        head, mid = path(w, 0, split, jump)
        tail, last = path(mid, split, n, 0.0)
        assert bits(np.concatenate((head, tail)), last) == bits(windows, end)


@given(w=WINDOWS, n=st.integers(0, 40), dt=DTS, jump=JUMPS, split=st.integers(0, 40))
@settings(max_examples=150, deadline=None)
@example(w=7.0, n=0, dt=1e-3, jump=5.0, split=0)  # an empty block drops the jump
@example(w=-0.0, n=2, dt=1e-3, jump=-0.0, split=1)  # only the first sample keeps -0.0
def test_scheduled_window_path_is_the_tick_loop(w, n, dt, jump, split):
    proto = ScheduledProtocol(10.0)
    check_path(lambda w, a, b, jump: proto.window_path(w, b - a, jump),
               w, n, dt, jump, None, split)


@st.composite
def fast_paths(draw):
    n = draw(st.integers(0, 40))
    tau = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
                   dtype=np.float64)
    proto = FastProtocol(gamma=draw(st.floats(0.1, 50.0)),
                         alpha_pkts=draw(st.floats(1e-3, 200.0)), initial_window_pkts=1.0)
    return (proto, tau, draw(st.floats(1e-3, 1.0)), draw(WINDOWS), draw(DTS),
            draw(JUMPS), draw(st.integers(0, n)))


FAST = FastProtocol(gamma=1.0, alpha_pkts=10.0, initial_window_pkts=10.0)


# (controller, tau, T, w, dt, jump, split): an empty block, a -0.0 window,
# and a jump at gain -1/2, where the old and the new window's rates differ
@given(fast_paths())
@settings(max_examples=150, deadline=None)
@example((FAST, np.zeros(0), 0.1, 7.0, 1e-2, 5.0, 0))
@example((FAST, np.zeros(2), 0.1, -0.0, 1e-2, 0.0, 1))
@example((FAST, np.full(3, 0.1), 0.1, 10.0, 1e-2, 5.0, 1))
def test_fast_window_path_is_the_tick_loop(case):
    # the reference moves the window at fast_wdot's per-tick rate
    proto, tau, T, w, dt, jump, split = case
    check_path(lambda w, a, b, jump: proto.window_path(w, tau[a:b], T, dt, jump),
               w, len(tau), dt, jump, lambda w, j: fast_wdot(w, tau[j], T, proto), split)


# ---------------------------------------------------------------------------
# the engine's window jump table against the rule spelled out


def reference_jumps(proto, dt, cold):
    """The jump table in two passes: per nearest tick, the step jumps summed
    from 0.0 in schedule order, zero sums dropped; then on a cold start the
    opening window added at tick 0, and zeros dropped again."""
    jumps, w_prev = {}, proto.initial_window_pkts
    for ts, ws in getattr(proto, "steps", ()):
        k = int(ts / dt + 0.5)
        jumps[k] = jumps.get(k, 0.0) + (ws - w_prev)
        w_prev = ws
    jumps = {k: j for k, j in jumps.items() if j != 0.0}
    if cold:
        jumps[0] = jumps.get(0, 0.0) + proto.initial_window_pkts
    return {k: j for k, j in jumps.items() if j}


# repeated values make zero jumps, half ticks the snap's edge
JUMP_WINDOWS = st.sampled_from([0.0, 5.0, 50.0]) | st.floats(0.0, 1e3)
GAPS_TICKS = st.sampled_from([0.25, 0.5, 1.0]) | st.floats(1e-3, 3.0)


@given(dt=DTS, w0=JUMP_WINDOWS, first=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 3.0),
       gaps=st.lists(GAPS_TICKS, max_size=7),
       windows=st.lists(JUMP_WINDOWS, min_size=8, max_size=8),
       cold=st.booleans(), fast=st.booleans())
@settings(max_examples=300, deadline=None)
@example(dt=1e-3, w0=5.0, first=0.0, gaps=[], windows=[5.0] * 8, cold=True, fast=False)
@example(dt=1e-3, w0=5.0, first=0.0, gaps=[0.25], windows=[0.0, 5.0] + [0.0] * 6,
         cold=True, fast=False)  # a zero net jump at tick 0 under the opening window
@example(dt=1e-3, w0=0.0, first=0.0, gaps=[], windows=[0.0] * 8, cold=True, fast=True)
@example(dt=1e-3, w0=0.1, first=0.0, gaps=[0.25], windows=[0.2] + [1.1] * 7,
         cold=True, fast=False)  # the steps' sum, then the opening window, rounds apart
def test_window_jumps_are_the_schedule_rule(dt, w0, first, gaps, windows, cold, fast):
    # step times in ticks, strictly increasing from the first
    ticks = np.cumsum([first, *gaps])
    if fast:
        proto = FastProtocol(gamma=1.0, alpha_pkts=10.0, initial_window_pkts=w0)
    else:
        proto = ScheduledProtocol(w0, tuple(zip((ticks * dt).tolist(), windows)))
    got, ref = _window_jumps(proto, dt, cold), reference_jumps(proto, dt, cold)
    assert sorted((k, j.hex()) for k, j in got.items()) == sorted(
        (k, j.hex()) for k, j in ref.items())

import pytest

from ackflow.protocol import FastProtocol, ProtocolError, ScheduledProtocol, fast_wdot


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
        with pytest.raises(ProtocolError):
            fast_wdot(10.0, 0.01, 0.0, fast(1.0, 1.0))


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
        assert sched.impulses_by_tick(1e-4) == {}

    def test_impulses_snap_to_grid_ticks(self):
        dt = 1e-4
        sched = ScheduledProtocol(50.0, ((3.0, 150.0), (7.0, 100.0)))
        jumps = sched.impulses_by_tick(dt)
        assert jumps == {30000: 100.0, 70000: -50.0}

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ProtocolError):
            ScheduledProtocol(10.0, ((2.0, 5.0), (2.0, 6.0)))

    def test_negative_windows_rejected(self):
        with pytest.raises(ProtocolError):
            ScheduledProtocol(-1.0)
        with pytest.raises(ProtocolError):
            ScheduledProtocol(10.0, ((2.0, -5.0),))

    def test_step_before_the_start_rejected(self):
        # the run starts at t=0: a step at -1 s would land on no tick, so
        # the fluid engine would drop it while the packet oracle applies it
        with pytest.raises(ProtocolError, match="nonnegative"):
            ScheduledProtocol(5.0, ((-1.0, 50.0),))
        assert ScheduledProtocol(5.0, ((0.0, 50.0),)).impulses_by_tick(1e-4) == {0: 45.0}

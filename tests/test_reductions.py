"""Earlier fluid models as reductions of the engine's, kept as reference code.

The exact reduction: on one static link shared by users with identical
delays, no cross traffic, permanent congestion and no ACK retaining,
capacity * queueing delay is the delayed window sum minus the propagation
backlog (``static_link_check``).

The approximation: the classic rate model (Misra, Gong, Towsley, SIGCOMM
2000; Low, IEEE/ACM ToN 2003), ``rate_model``.  Each user sends at its
window over its round-trip time, ``x_u = w_u / (T_u + sum_l q_l / c_l)``,
and each queue integrates its flows' rates, delayed by their hops, minus its
capacity.  It has no ACK clocking and no ACK buffer: a window step changes
the rate by the step over one round trip, where the engine and
``packet_sim`` send the increase as a burst or hold back every ACK until a
decrease is paid off.  The two models agree in steady state and part in the
second after each window step.  The transient test measures that gap
against ``packet_sim``: the paper's claim that the earlier models miss the
transients.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from ackflow.oracle import equilibrium_queue, packet_sim
from ackflow.scenario import (
    QueueConf, RunConf, Scenario, ScheduledProtocol, UserConf, load_scenario,
    to_network,
)
from test_engine import run, two_user_scenario
from test_oracle_gate import CASES, GATE_PKTS


# ---------------------------------------------------------------------------
# the exact reduction: window sums on a static link

@dataclass(frozen=True)
class StaticLinkResult:
    applicable: bool
    reasons: tuple[str, ...]
    max_deviation_pkts: float | None


def static_link_check(traces) -> StaticLinkResult:
    """Compare a run's ``TraceSet`` against the reduced window-sum model.

    Valid only for a single bottleneck shared by users with identical
    forward and return delays, no exogenous traffic, permanent congestion
    and no ACK retaining; then capacity * delay must track the delayed
    window sum minus the propagation backlog, within a couple packets.
    On any violated condition the check reports not-applicable.
    """
    sc = traces.scenario
    reasons = []
    if len(sc.queues) != 1:
        reasons.append("more than one queue")
    if sc.rate_flows:
        reasons.append("exogenous cross traffic present")
    if not sc.users:
        reasons.append("no users")
    fwd = {u.hop_delays_s[0] for u in sc.users} if sc.users else set()
    ret = {u.return_delay_s for u in sc.users} if sc.users else set()
    if len(fwd) > 1 or len(ret) > 1:
        reasons.append("heterogeneous propagation delays")
    if not reasons:
        qid = sc.queues[0].id
        if traces[f"congested.{qid}"].min() < 1.0:
            reasons.append("queue not permanently congested")
        for u in sc.users:
            if traces[f"active.{u.id}"].min() < 1.0:
                reasons.append(f"user '{u.id}' entered ACK-retaining mode")
                break
    if reasons:
        return StaticLinkResult(False, tuple(reasons), None)

    qid = sc.queues[0].id
    cap = sc.queues[0].capacity_pps
    t_fwd, t_ret = fwd.pop(), ret.pop()
    t_grid = traces.time
    w_sum = np.zeros_like(t_grid)
    for u in sc.users:
        w = traces[f"w.{u.id}"]
        w_sum += np.interp(t_grid - t_fwd, t_grid, w, left=w[0])
    deviation = np.abs(cap * traces[f"tau.{qid}"] - w_sum + cap * (t_fwd + t_ret))
    return StaticLinkResult(True, (), float(deviation.max()))


class TestStaticLink:
    def homogeneous_scenario(self):
        return Scenario(
            name="homog", packet_bytes=1000,
            queues=(QueueConf("b1", 500.0),),
            users=(
                UserConf("u1", ("b1",), (0.02,), 0.08,
                         ScheduledProtocol(60.0, ((2.0, 90.0),))),
                UserConf("u2", ("b1",), (0.02,), 0.08, ScheduledProtocol(70.0)),
            ),
            run=RunConf(1e-3, 5.0, "equilibrium"))

    def test_reduced_model_holds_when_applicable(self):
        traces = run(self.homogeneous_scenario())
        res = static_link_check(traces)
        assert res.applicable
        assert res.max_deviation_pkts <= 2.0

    def test_heterogeneous_delays_not_applicable(self):
        traces = run(two_user_scenario())
        res = static_link_check(traces)
        assert not res.applicable
        assert any("heterogeneous" in r for r in res.reasons)

    def test_cross_traffic_not_applicable(self):
        traces = run(two_user_scenario(cross=100.0))
        res = static_link_check(traces)
        assert not res.applicable

    def test_uncongested_not_applicable(self):
        sc = Scenario(
            name="idle", packet_bytes=1000,
            queues=(QueueConf("b1", 500.0),),
            users=(
                UserConf("u1", ("b1",), (0.02,), 0.08, ScheduledProtocol(5.0)),
                UserConf("u2", ("b1",), (0.02,), 0.08, ScheduledProtocol(5.0)),
            ),
            run=RunConf(1e-3, 2.0, "cold"))
        res = static_link_check(run(sc))
        assert not res.applicable
        assert any("congested" in r for r in res.reasons)


# ---------------------------------------------------------------------------
# the approximation: the classic rate model

def rate_model(sc: Scenario) -> dict[str, np.ndarray]:
    """Each queue's backlog at every tick start of the scenario's run under
    the classic rate model, as the engine's ``q.<id>``.

    The run starts in ``equilibrium_queue``'s steady state, and a user's
    sending before t=0 is its equilibrium rate.  A per-tick loop at the
    run's ``dt``, explicit Euler: tick ``k`` sets each user's rate from the
    backlogs at its start, then steps each queue by its flows' rates, each
    read its hop delays earlier, plus the constant cross traffic, minus the
    capacity, held at zero.  A window step lands on the nearest tick, as in
    the engine.
    """
    net = to_network(sc)
    dt = sc.run.dt_s
    n = int(round(sc.run.horizon_s / dt))
    eq = equilibrium_queue(net)
    qids = list(net.queues)
    caps = [net.queues[qid].capacity_pps for qid in qids]
    backlog = [eq.queueing_delays_s[qid] * c for qid, c in zip(qids, caps)]
    cross = [sum(f.profile.rate_pps for f in net.rate_flows.values()
                 if qid in f.queue_path) for qid in qids]
    users = list(net.users.values())
    windows = []
    for u in users:
        w = np.full(n, u.protocol.initial_window_pkts)
        for ts, ws in u.protocol.steps:
            w[int(ts / dt + 0.5):] = ws
        windows.append(w.tolist())
    # each queue's feeds: (user index, ticks from the user's sending)
    feeds = [[] for _ in qids]
    for i, u in enumerate(users):
        for qid, lag in zip(u.queue_path, np.cumsum(u.hop_delays_s)):
            feeds[qids.index(qid)].append((i, int(round(lag / dt))))
    pad = max([lag for fs in feeds for _, lag in fs], default=0)
    sent = [[eq.rates_pps[u.id]] * pad + [0.0] * n for u in users]
    paths = [[qids.index(qid) for qid in u.queue_path] for u in users]
    out = np.empty((len(qids), n + 1))
    for k in range(n):
        out[:, k] = backlog
        for i, u in enumerate(users):
            rtt = u.total_delay_s + sum(backlog[j] / caps[j] for j in paths[i])
            sent[i][pad + k] = windows[i][k] / rtt
        for j, fs in enumerate(feeds):
            inflow = cross[j] + sum(sent[i][pad + k - lag] for i, lag in fs)
            backlog[j] = max(0.0, backlog[j] + (inflow - caps[j]) * dt)
    out[:, n] = backlog
    return dict(zip(qids, out))


# The rate model's queue error over ackflow's, both against packet_sim, in
# the first second after the window step: at least this factor, two thirds
# of the ratio measured when the test was written, rounded down to a
# multiple of 5 (measured: scenario1 37.2, scenario2 56.8, scenario3 54.1,
# scenario4 42.1, scenario5 65.2, scenario6 60.8, scenario7 201.3,
# scenario8 130.2, staticlink 222.2)
TRANSIENT_FACTORS = {
    "scenario1": 20, "scenario2": 35, "scenario3": 35, "scenario4": 25,
    "scenario5": 40, "scenario6": 40, "scenario7": 130, "scenario8": 85,
    "staticlink": 145,
}
# Before the step both models hold the same equilibrium: the largest gap
# between their backlogs measured 9.5e-7 pkts (scenario5)
PRE_STEP_PKTS = 1e-5


# tier-1 runs scenario7, the shortest; the others run under the slow marker
@pytest.mark.parametrize("name", [
    pytest.param(name, marks=() if name == "scenario7" else pytest.mark.slow)
    for name in sorted(TRANSIENT_FACTORS)])
def test_rate_model_misses_the_transient_after_a_window_step(name):
    sc = load_scenario(name)
    traces = run(sc)
    ref = packet_sim(sc, warmup_s=CASES[name][1])
    rates = rate_model(sc)
    idx = np.rint(ref.sample_times / traces.dt_s).astype(int)
    (t_step,) = {t for u in sc.users for t, _ in u.protocol.steps}
    t = ref.sample_times
    before, after = t < t_step, (t >= t_step) & (t < t_step + 1.0)
    # largest over the queues: |q_rate - q_fluid| before the step, ackflow's
    # error over the run and after the step, the rate model's after the step
    pre_gap, fluid_err, fluid_after, rate_after = 0.0, 0.0, 0.0, 0.0
    for qid, q_pkt in ref.queue_lengths.items():
        q_fluid, q_rate = traces[f"q.{qid}"][idx], rates[qid][idx]
        pre_gap = max(pre_gap, float(np.abs(q_rate - q_fluid)[before].max()))
        fluid_err = max(fluid_err, float(np.abs(q_fluid - q_pkt).max()))
        fluid_after = max(fluid_after, float(np.abs(q_fluid - q_pkt)[after].max()))
        rate_after = max(rate_after, float(np.abs(q_rate - q_pkt)[after].max()))
    assert pre_gap <= PRE_STEP_PKTS, pre_gap
    assert fluid_err <= GATE_PKTS, fluid_err
    assert rate_after >= TRANSIENT_FACTORS[name] * fluid_after, (rate_after, fluid_after)

"""Fixed-step causal integration of the interconnected fluid model.

Every tick evaluates, in circuit order, only data with timestamps at or
before the current time: ACK rates from recorded queue outputs, controller
window rates, sending flows, then queue arrivals, per-flow departures and
the state integration with event sub-stepping (queue emptying, ACK-buffer
refill).

Every signal is one float64 column on the grid ``k * dt``.  The flows
(sending, ACK, queue input and output rates) are the history columns the
blocks read back, by index when a delay is a grid multiple and by
interpolation otherwise; the returned traces are views of the columns.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from .fifo_queue import FifoQueue
from .oracle import EquilibriumResult, equilibrium_from_scenario, equilibrium_queue
from .protocol import FastParams, WindowSchedule, fast_wdot
from .scenario import FastProtocol, Scenario, ScheduledProtocol, to_network
from .topology import Network
from .user import UserState, circuit_backward_time

__all__ = ["SimConfig", "TraceSet", "SimulationError", "simulate",
           "StaticLinkResult", "static_link_check"]


# history readable after pruning: the sum of all channel delays plus this
# margin, which covers the queueing delays in any backward read
PRUNE_MARGIN_S = 5.0


class SimulationError(RuntimeError):
    """Engine abort: the message names the failing block and time."""


@dataclass(frozen=True)
class SimConfig:
    dt_s: float = 1e-4  # must be <= smallest positive delay / 10
    horizon_s: float = 10.0
    init: str = "cold"  # "cold" | "equilibrium"
    # once a simulated second, raise every history's read floor to the
    # oldest time a read can still need, so a read below it fails; this
    # frees nothing, since the traces span the horizon and are the history
    prune_history: bool = False


@dataclass
class TraceSet:
    """All recorded signals of one run, on the shared engine grid.

    The signals view the histories in ``queues`` and ``users``, which can
    therefore no longer grow.
    """

    time: np.ndarray
    dt_s: float
    signals: dict[str, np.ndarray]
    scenario: Scenario
    network: Network
    config: SimConfig
    equilibrium_init: EquilibriumResult | None
    queues: dict[str, FifoQueue]
    users: dict[str, UserState]
    diagnostics: dict[str, float] = field(default_factory=dict)
    runtime_s: float = 0.0

    def __getitem__(self, name: str) -> np.ndarray:
        return self.signals[name]

    def signal_names(self) -> tuple[str, ...]:
        return tuple(self.signals)


class _Reader:
    """Delayed read of a recorded per-tick trajectory or analytic profile."""

    __slots__ = ("values", "initial", "shift", "traj", "delay", "profile")

    def __init__(self, *, traj=None, profile=None, delay_s=0.0, dt_s=1e-4):
        self.profile = profile
        self.traj = traj
        self.delay = delay_s
        if traj is not None:
            ticks = delay_s / dt_s
            if abs(ticks - round(ticks)) < 1e-6:
                self.shift = int(round(ticks))
                self.values = traj.values
                self.initial = traj.initial_value
            else:
                self.shift = None

    def read(self, k: int, t: float) -> float:
        if self.profile is not None:
            return self.profile.rate_at(t - self.delay)
        if self.shift is not None:
            idx = k - self.shift
            if idx < 0:
                return self.initial
            try:
                return self.values[idx]
            except IndexError:
                raise SimulationError(
                    f"causality violation: read {self.delay}s behind t={t} "
                    "touches an unrecorded sample") from None
        return self.traj.eval_at(t - self.delay)


class _UserCtx:
    __slots__ = ("uid", "state", "spec", "fast_params", "impulses", "ack_reader",
                 "rect_cum", "total_delay", "send0", "appends")

    def __init__(self, uid):
        self.uid = uid


def simulate(network: Network, scenario: Scenario, config: SimConfig) -> TraceSet:
    """Run the fluid model; returns every signal on the engine grid."""
    t_wall = time.perf_counter()
    dt = config.dt_s
    if dt <= 0 or config.horizon_s <= 0:
        raise SimulationError("dt and horizon must be positive")
    min_delay = network.min_positive_delay_s()
    if min_delay is not None and dt > min_delay / 10:
        raise SimulationError(
            f"dt={dt} too coarse for the smallest positive propagation delay "
            f"{min_delay}s; need dt <= delay/10 for causality headroom")
    for u in network.users.values():
        if u.return_delay_s < dt:
            raise SimulationError(
                f"user '{u.id}': return channel delay {u.return_delay_s}s must "
                f"be at least one step ({dt}s) so ACK reads stay in the past")

    eq_init: EquilibriumResult | None = None
    if config.init == "equilibrium":
        eq_init = equilibrium_queue(equilibrium_from_scenario(scenario))
    elif config.init != "cold":
        raise SimulationError(f"unknown init mode {config.init!r}")

    profiles = {f.id: f.profile for f in scenario.rate_flows}
    protos = {u.id: u.protocol for u in scenario.users}

    queues: dict[str, FifoQueue] = {}
    for qid in network.queue_order:
        cap = network.queues[qid].capacity_pps
        flows = network.flows_through(qid)
        rates0 = {}
        backlog0 = 0.0
        if eq_init is not None:
            backlog0 = cap * eq_init.queueing_delays_s[qid]
            for fid in flows:
                if fid in profiles:
                    rates0[fid] = profiles[fid].rate_at(0.0)
                else:
                    rates0[fid] = eq_init.rates_pps[fid]
        queues[qid] = FifoQueue(qid, cap, flows, dt_s=dt, backlog0_pkts=backlog0,
                                input_rates0=rates0)

    users: dict[str, _UserCtx] = {}
    for uid, uspec in network.users.items():
        ctx = _UserCtx(uid)
        ctx.spec = uspec
        ctx.total_delay = uspec.total_delay_s
        proto = protos[uid]
        w0 = proto.initial_window_pkts
        send0 = eq_init.rates_pps[uid] if eq_init is not None else 0.0
        window_start = w0 if eq_init is not None else 0.0
        flight0 = w0 if eq_init is not None else 0.0
        ctx.state = UserState(uid, window_start, dt_s=dt, sending0_pps=send0,
                              flight0_pkts=flight0)
        ctx.send0 = send0
        if isinstance(proto, ScheduledProtocol):
            ctx.fast_params = None
            ctx.impulses = WindowSchedule(w0, proto.steps).impulses_by_tick(dt)
        elif isinstance(proto, FastProtocol):
            ctx.fast_params = FastParams(proto.gamma, proto.alpha_pkts)
            ctx.impulses = {}
        else:
            raise SimulationError(f"user '{uid}': unsupported protocol {proto!r}")
        if eq_init is None:
            # the window appears at t=0: emitted as an opening burst
            ctx.impulses = dict(ctx.impulses)
            ctx.impulses[0] = ctx.impulses.get(0, 0.0) + w0
        last_q = uspec.queue_path[-1]
        ctx.ack_reader = _Reader(traj=queues[last_q].outputs[uid],
                                 delay_s=uspec.return_delay_s, dt_s=dt)
        ctx.rect_cum = array("d", [0.0])
        users[uid] = ctx

    # per-queue input readers, in the queue's flow order: the upstream
    # queue's output, else the user's sending flow or the flow's profile
    input_readers: dict[str, list[_Reader]] = {}
    for qid in network.queue_order:
        readers = input_readers[qid] = []
        for fid in queues[qid].flow_ids:
            spec = network.users.get(fid) or network.rate_flows[fid]
            pos = spec.queue_path.index(qid)
            delay = spec.hop_delays_s[pos]
            if pos:
                src = queues[spec.queue_path[pos - 1]].outputs[fid]
            elif fid in users:
                src = users[fid].state.sending
            else:
                readers.append(_Reader(profile=profiles[fid], delay_s=delay))
                continue
            readers.append(_Reader(traj=src, delay_s=delay, dt_s=dt))

    n_ticks = int(round(config.horizon_s / dt)) + 1

    # traces, named here once: the flows are history columns, every other
    # signal a column the tick loop fills through bound append methods
    columns: dict[str, array] = {}

    def appenders(owner: str, *names: str) -> tuple:
        new = [array("d") for _ in names]
        columns.update((f"{name}.{owner}", col) for name, col in zip(names, new))
        return tuple(col.append for col in new)

    queue_appends = {}
    for qid in (q.id for q in scenario.queues):
        q = queues[qid]
        queue_appends[qid] = appenders(qid, "q", "r", "arrival", "congested")
        for fid in q.flow_ids:
            columns[f"in.{qid}.{fid}"] = q.inputs[fid].values
            columns[f"out.{qid}.{fid}"] = q.outputs[fid].values
    user_list = [users[u.id] for u in scenario.users]
    for ctx in user_list:
        ctx.appends = appenders(ctx.uid, "w", "ackbuf", "flight", "flight_ode", "active")
        columns[f"send.{ctx.uid}"] = ctx.state.sending.values
        columns[f"ack.{ctx.uid}"] = ctx.state.acks.values

    queue_steps = [(queues[qid], input_readers[qid], queue_appends[qid])
                   for qid in network.queue_order]
    prune_every = max(1, int(1.0 / dt)) if config.prune_history else 0
    prune_lag = sum(network.channel_delays_s()) + PRUNE_MARGIN_S
    histories = [h for q in queues.values()
                 for h in (q.forward_map, *q.inputs.values(), *q.outputs.values())]
    histories += [h for ctx in user_list for h in (ctx.state.sending, ctx.state.acks)]

    for k in range(n_ticks):
        t = k * dt

        for ctx in user_list:
            st = ctx.state
            ack = ctx.ack_reader.read(k, t)
            w_now = st.window
            # flight by the independent route: sending integral back to the
            # circuit entry time of the traffic being acknowledged now
            b_t = circuit_backward_time(ctx.spec, queues, t)
            flight_int = _rect_at(ctx, t, dt) - _rect_at(ctx, b_t, dt)
            if ctx.fast_params is not None:
                tau_back = max(0.0, (t - b_t) - ctx.total_delay)
                wdot = fast_wdot(w_now, tau_back, ctx.total_delay, ctx.fast_params)
            else:
                wdot = 0.0
            impulse = ctx.impulses.get(k, 0.0)
            burst = st.apply_window_jump(impulse) if impulse else 0.0
            pi_now = st.ack_buffer  # post-jump: the trace shows the drop
            flight_ode = st.flight_balance
            send_avg = st.step(wdot, burst, ack, dt)
            st.sending.record(t, send_avg)
            st.acks.record(t, ack)
            ctx.rect_cum.append(ctx.rect_cum[-1] + send_avg * dt)
            add_w, add_pi, add_flight, add_ode, add_active = ctx.appends
            add_w(w_now)
            add_pi(pi_now)
            add_flight(flight_int)
            add_ode(flight_ode)
            add_active(1.0 if st.active else 0.0)
            if not (math.isfinite(st.window) and math.isfinite(send_avg)
                    and math.isfinite(st.ack_buffer)):
                raise SimulationError(
                    f"divergence in user block '{ctx.uid}' at t={t:.6f}")

        t_next = (k + 1) * dt
        for q, readers, (add_q, add_r, add_arrival, add_congested) in queue_steps:
            rates = [r.read(k, t) for r in readers]
            q.record_inputs(t, rates)
            add_q(q.backlog)
            service_avg = q.step(dt, t_next)
            out = q.transport_outputs(t, t_next, service_avg * dt)
            q.record_outputs(t, out)
            add_r(service_avg)
            add_arrival(q.last_total_arrival)
            add_congested(1.0 if q.congested else 0.0)
            if not math.isfinite(q.backlog):
                raise SimulationError(
                    f"divergence in queue block '{q.queue_id}' at t={t:.6f}")

        if prune_every and k % prune_every == 0 and t > prune_lag:
            for h in histories:
                h.prune_before(t - prune_lag)

    # zero-copy views; tau is q / capacity, which IEEE division rounds
    # exactly as a per-tick division would
    signals = {}
    for name, col in columns.items():
        signals[name] = np.frombuffer(col)
        kind, _, qid = name.partition(".")
        if kind == "q":
            signals[f"tau.{qid}"] = signals[name] / queues[qid].capacity
    return TraceSet(
        time=np.arange(n_ticks) * dt,
        dt_s=dt,
        signals=signals,
        scenario=scenario,
        network=network,
        config=config,
        equilibrium_init=eq_init,
        queues=queues,
        users={uid: ctx.state for uid, ctx in users.items()},
        diagnostics={f"stall_fallbacks.{qid}": float(q.stall_fallbacks)
                     for qid, q in queues.items()},
        runtime_s=time.perf_counter() - t_wall,
    )


def _rect_at(ctx, x: float, dt: float) -> float:
    """Piecewise-linear cumulative of the recorded sending rate at time x.

    Matches the rectangle quadrature of the per-tick rate samples; before
    t=0 the pre-history rate extends linearly.
    """
    if x <= 0.0:
        return ctx.send0 * x
    cum = ctx.rect_cum
    pos = x / dt
    i = int(pos)
    last = len(cum) - 1
    if i >= last:
        return cum[last]
    frac = pos - i
    return cum[i] + (cum[i + 1] - cum[i]) * frac


# ---------------------------------------------------------------------------
# reduced-model check

@dataclass(frozen=True)
class StaticLinkResult:
    applicable: bool
    reasons: tuple[str, ...]
    max_deviation_pkts: float | None


def static_link_check(traces: TraceSet) -> StaticLinkResult:
    """Compare the run against the reduced window-sum model.

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

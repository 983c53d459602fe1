"""Fixed-step causal integration of the interconnected fluid model.

Every tick evaluates, in circuit order, only data with timestamps at or
before the current time: ACK rates from recorded queue outputs, controller
window rates, sending flows, then queue arrivals, per-flow departures and
the state integration with event sub-stepping (queue emptying, ACK-buffer
refill).

Each user and each queue advances in blocks of ticks (the time-stepped
fluid solution of Liu et al., SIGMETRICS 2003, with its step loop batched)
and keeps its own frontier: the number of ticks it has recorded.  This is
conservative lookahead (Chandy and Misra, IEEE TSE 1979; Nicol, JACM 1993).
A component reads another only across a channel, so it may run ahead of
each input by that channel's lag in whole ticks: the index shift for a delay
on the grid, the floor of ``delay / dt`` off it (``input_lags``).  A queue's
inputs are its flows' first-hop users and its upstream queues, across the
hop delays; a user's are its last queue, across the return delay (its ACKs
and the circuit inversion of its flight size), and each upstream queue,
across the return delay plus the hops after it.  A component's next block
ends at the least of the horizon, its frontier plus ``BLOCK_CAP_TICKS``,
and each input's frontier plus that input's lag.

A sweep runs the users, then the queues in ``network.queue_order``, which
serves zero-delay hops, in two passes.  The first advances only the
components whose next block is a full length, or ends at the barrier (the
horizon, or the pruning tick below).  A component's length is its
shortest feedback cycle (``shortest_cycles``), capped at
``BLOCK_CAP_TICKS``: the longest block it can ever take, since around its
cycle each frontier is at most its input's plus the lag, so no block runs
further past its own frontier.  Without the first pass, a long-loop
component would advance whenever the short loop that paces its queue
moved, in that loop's short blocks, and every block has a fixed cost.  If
the first pass advances nothing, the second advances every component that
can, as far as it can.  Every cycle of inputs has a positive total lag (a
return delay is at least one tick, and the topology refuses zero-delay
cycles of queues), so that pass advances some component, and a feedback
loop advances by its whole cycle delay per sweep.  ``TraceSet.blocks``
counts each component's blocks.  With pruning on, every block also ends by
the next pruning tick + 1: the components wait at that barrier, the
histories are pruned, and the barrier moves on.

Reads, profile rates, the circuit inversion and the queue transport are
array arithmetic over a block.  The window, ACK-buffer and backlog
recurrences run as regime spans: runs of ticks in which no branch of the
recurrence changes, each one ``np.cumsum`` or array copy, cut where a
branch would flip (``UserState.step``, ``FifoQueue.step``).  ``np.cumsum``
adds in sequence, so a span's sums are the tick-by-tick ones.  The FAST
window ODE is the one loop left tick by tick: its window multiplies its own
previous value, which no cumulative sum reproduces to the bit.  Every
expression is the per-tick one on the same data, so the traces do not
depend on the blocks, the frontiers or the spans, and a failed check names
the first bad tick.

Every signal is one float64 column on the grid ``k * dt``.  The flows
(sending, queue input and output rates) are the history columns the blocks
read back, by index when a delay is a grid multiple and by
interpolation otherwise; the returned traces are views of the columns.  A
user's flight is its sending column's hold integral back to the circuit
entry time, the same running sum a queue's transport reads from its inputs.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .fifo_queue import FifoQueue
from .oracle import EquilibriumResult, equilibrium_from_scenario, equilibrium_queue
from .protocol import FastProtocol, ScheduledProtocol, fast_wdot
from .scenario import RunConf, Scenario
from .topology import Network
from .user import UserState, circuit_backward_time

__all__ = ["SimConfig", "TraceSet", "SimulationError", "simulate",
           "StaticLinkResult", "static_link_check"]


# history readable after pruning: the sum of all channel delays plus this
# margin, which covers the queueing delays in any backward read
PRUNE_MARGIN_S = 5.0

# most ticks in one block, whatever the delays: bounds the block's arrays
BLOCK_CAP_TICKS = 1024


class SimulationError(RuntimeError):
    """Engine abort: the message names the failing block and time."""


@dataclass(frozen=True)
class SimConfig(RunConf):
    """A scenario's run settings plus what only the engine needs."""

    # once a simulated second, raise every history's read floor to the
    # oldest time a read can still need, so a read below it fails; this
    # frees nothing, since the traces span the horizon and are the history
    prune_history: bool = False


@dataclass
class TraceSet:
    """All recorded signals of one run, on the shared engine grid.

    The flow signals view the histories in ``queues`` and ``users``.
    """

    time: np.ndarray
    dt_s: float
    signals: dict[str, np.ndarray]
    scenario: Scenario
    config: SimConfig
    equilibrium_init: EquilibriumResult | None
    queues: dict[str, FifoQueue]
    users: dict[str, UserState]
    # blocks each component ran, keyed like ``input_lags``
    blocks: dict[tuple[str, str], int]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.signals[name]


class _Reader:
    """Delayed read of a recorded per-tick trajectory or analytic profile."""

    # An index read skips the history's prune floor, and needs no check: its
    # shift is one channel delay, while the floor lags the current time by
    # the sum of all channel delays plus PRUNE_MARGIN_S.
    __slots__ = ("traj", "profile", "delay", "shift")

    def __init__(self, *, dt_s, traj=None, profile=None, delay_s=0.0):
        self.profile = profile
        self.traj = traj
        self.delay = delay_s
        self.shift = None if traj is None else _grid_shift(delay_s, dt_s)

    def read(self, k0: int, ticks: np.ndarray) -> np.ndarray:
        """The delayed values at a block's tick times, the first tick ``k0``."""
        if self.profile is not None:
            return self.profile.rates_at(ticks - self.delay)
        if self.shift is None:
            return self.traj.eval_at(ticks - self.delay)
        traj = self.traj
        lo = k0 - self.shift
        hi = lo + len(ticks)
        if hi > len(traj):
            t = float(ticks[max(len(traj) - lo, 0)])
            raise SimulationError(
                f"causality violation: read {self.delay}s behind t={t} "
                "touches an unrecorded sample")
        if lo >= 0:
            return traj.values[lo:hi]
        head = np.full(min(-lo, len(ticks)), traj.initial_value)
        return np.concatenate((head, traj.values[:max(hi, 0)]))


class _UserCtx:
    __slots__ = ("uid", "state", "conf", "impulses", "ack_reader", "columns")

    def __init__(self, uid):
        self.uid = uid


def _grid_shift(delay_s: float, dt: float) -> int | None:
    """A delay in whole ticks when it is a grid multiple, else None."""
    ticks = delay_s / dt
    if abs(ticks - round(ticks)) < 1e-6:
        return int(round(ticks))
    return None


def _lag_ticks(delay_s: float, dt: float) -> int:
    """Ticks a reader may run ahead of a source across ``delay_s``: the
    index shift on the grid, the floor off it."""
    shift = _grid_shift(delay_s, dt)
    return math.floor(delay_s / dt) if shift is None else shift


def input_lags(network: Network, dt: float) -> dict:
    """Every component's inputs with their lags in whole ticks.

    Components are keyed ``("user", id)`` and ``("queue", id)``, since a
    user and a queue may share an id.  A user reads its last queue across
    the return delay (ACKs and the circuit inversion), and each upstream
    queue across the return delay plus the hops after it, in the order
    ``circuit_backward_time`` walks them.  A queue reads each flow's
    upstream queue across that hop, or a user's sending flow across its
    first hop; a rate flow's profile is known at every time and is no input.
    """
    lags: dict = {}
    for uid, u in network.users.items():
        feeds = lags["user", uid] = {}
        delay = u.return_delay_s
        for qid, hop in zip(reversed(u.queue_path), reversed(u.hop_delays_s)):
            feeds["queue", qid] = _lag_ticks(delay, dt)
            delay += hop
    for qid in network.queue_order:
        feeds = lags["queue", qid] = {}
        for fid in network.flows_through(qid):
            flow = network.users.get(fid) or network.rate_flows[fid]
            pos = flow.queue_path.index(qid)
            if pos:
                src = ("queue", flow.queue_path[pos - 1])
            elif fid in network.users:
                src = ("user", fid)
            else:
                continue
            lag = _lag_ticks(flow.hop_delays_s[pos], dt)
            feeds[src] = min(lag, feeds.get(src, lag))
    return lags


def shortest_cycles(lags: dict) -> dict:
    """Each component's shortest feedback cycle in ticks, from ``input_lags``.

    The least total lag of a cycle of inputs through the component, or None
    when it lies on no cycle.  One Dijkstra per component, walking inputs
    from it until it is reached again; the lags are nonnegative.
    """
    cycles = {}
    for start, feeds in lags.items():
        heap = [(lag, src) for src, lag in feeds.items()]
        heapq.heapify(heap)
        done = set()
        cycles[start] = None
        while heap:
            dist, node = heapq.heappop(heap)
            if node == start:
                cycles[start] = dist
                break
            if node not in done:
                done.add(node)
                for src, lag in lags[node].items():
                    heapq.heappush(heap, (dist + lag, src))
    return cycles


def simulate(network: Network, scenario: Scenario, config: SimConfig) -> TraceSet:
    """Run the fluid model; returns every signal on the engine grid."""
    dt = config.dt_s
    for name in ("dt_s", "horizon_s"):
        value = getattr(config, name)
        if not math.isfinite(value):
            raise SimulationError(f"{name} must be finite, got {value!r}")
        if value <= 0:
            raise SimulationError(f"{name} must be positive, got {value!r}")
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

    n_ticks = int(round(config.horizon_s / dt)) + 1
    queues: dict[str, FifoQueue] = {}
    for qid in network.queue_order:
        cap = network.queues[qid].capacity_pps
        flows = network.flows_through(qid)
        rates0 = {}
        backlog0 = 0.0
        if eq_init is not None:
            backlog0 = cap * eq_init.queueing_delays_s[qid]
            for fid in flows:
                if fid in network.rate_flows:
                    rates0[fid] = network.rate_flows[fid].profile.rate_at(0.0)
                else:
                    rates0[fid] = eq_init.rates_pps[fid]
        queues[qid] = FifoQueue(qid, cap, flows, dt_s=dt, backlog0_pkts=backlog0,
                                input_rates0=rates0, n_ticks=n_ticks)

    users: dict[str, _UserCtx] = {}
    for uid, uconf in network.users.items():
        ctx = _UserCtx(uid)
        ctx.conf = uconf
        proto = uconf.protocol
        w0 = proto.initial_window_pkts
        send0 = eq_init.rates_pps[uid] if eq_init is not None else 0.0
        window_start = w0 if eq_init is not None else 0.0
        flight0 = w0 if eq_init is not None else 0.0
        ctx.state = UserState(uid, window_start, dt_s=dt, sending0_pps=send0,
                              flight0_pkts=flight0, n_ticks=n_ticks)
        if isinstance(proto, ScheduledProtocol):
            impulses = proto.impulses_by_tick(dt)
        elif isinstance(proto, FastProtocol):
            impulses = {}
        else:
            raise SimulationError(f"user '{uid}': unsupported protocol {proto!r}")
        if eq_init is None:
            # the window appears at t=0: emitted as an opening burst
            impulses[0] = impulses.get(0, 0.0) + w0
        ctx.impulses = {k: v for k, v in impulses.items() if v}  # tick -> jump
        last_q = uconf.queue_path[-1]
        ctx.ack_reader = _Reader(traj=queues[last_q].outputs[uid],
                                 delay_s=uconf.return_delay_s, dt_s=dt)
        users[uid] = ctx

    # per-queue input readers, in the queue's flow order: the upstream
    # queue's output, else the user's sending flow or the flow's profile
    input_readers: dict[str, list[_Reader]] = {}
    for qid in network.queue_order:
        readers = input_readers[qid] = []
        for fid in queues[qid].flow_ids:
            flow = network.users.get(fid) or network.rate_flows[fid]
            pos = flow.queue_path.index(qid)
            delay = flow.hop_delays_s[pos]
            if pos:
                src = queues[flow.queue_path[pos - 1]].outputs[fid]
            elif fid in users:
                src = users[fid].state.sending
            else:
                readers.append(_Reader(profile=flow.profile, delay_s=delay, dt_s=dt))
                continue
            readers.append(_Reader(traj=src, delay_s=delay, dt_s=dt))

    # traces, named here once: the flows are history columns, every other
    # signal a preallocated column the blocks fill
    columns: dict[str, np.ndarray] = {}

    def new_columns(owner: str, *names: str) -> tuple:
        new = tuple(np.empty(n_ticks) for _ in names)
        columns.update((f"{name}.{owner}", col) for name, col in zip(names, new))
        return new

    queue_columns = {}
    for qid in network.queues:
        queue_columns[qid] = new_columns(qid, "q", "r", "arrival", "congested")
    user_list = list(users.values())
    for ctx in user_list:
        ctx.columns = new_columns(ctx.uid, "w", "ackbuf", "flight", "flight_ode",
                                  "active")

    prune_every = max(1, int(1.0 / dt)) if config.prune_history else 0
    prune_lag = sum(network.channel_delays_s()) + PRUNE_MARGIN_S
    histories = [h for q in queues.values()
                 for h in (q.forward_map, *q.inputs.values(), *q.outputs.values())]
    histories += [h for ctx in user_list for h in (ctx.state.sending, ctx.state.acks)]

    # the sweep, per component keyed like input_lags (a user and a queue
    # may share an id): its block body, block length and inputs as (key, lag)
    lags = input_lags(network, dt)
    cycles = shortest_cycles(lags)
    bodies = {("user", ctx.uid): functools.partial(_user_block, ctx, queues, dt)
              for ctx in user_list}
    for qid in network.queue_order:
        bodies["queue", qid] = functools.partial(
            _queue_block, queues[qid], input_readers[qid], queue_columns[qid], dt)
    sweep = []
    for key, body in bodies.items():
        cycle = cycles[key]
        length = BLOCK_CAP_TICKS if cycle is None else min(BLOCK_CAP_TICKS, cycle)
        sweep.append((key, body, length, list(lags[key].items())))
    frontier = dict.fromkeys(bodies, 0)
    blocks = dict.fromkeys(bodies, 0)

    barrier = 1 if prune_every else n_ticks  # the next pruning tick + 1
    while True:
        advanced = False
        for eager in (False, True):
            for key, body, length, feeds in sweep:
                k0 = frontier[key]
                k1 = min(barrier, k0 + BLOCK_CAP_TICKS,
                         *[frontier[src] + lag for src, lag in feeds])
                if k1 > k0 and (eager or k1 == barrier or k1 - k0 >= length):
                    body(k0, k1)
                    frontier[key] = k1
                    blocks[key] += 1
                    advanced = True
            if advanced:
                break
        if all(f == barrier for f in frontier.values()):
            k = barrier - 1
            t = k * dt
            if prune_every and k % prune_every == 0 and t > prune_lag:
                for h in histories:
                    h.prune_before(t - prune_lag)
            if barrier == n_ticks:
                break
            barrier = min(barrier + prune_every, n_ticks)
        elif not advanced:
            stuck = ", ".join(f"{kind} '{cid}' at t={k * dt:.6f}"
                              for (kind, cid), k in frontier.items() if k < barrier)
            raise SimulationError(f"no component can advance: {stuck}")

    # the flows are views of the history columns; tau is q / capacity, which
    # IEEE division rounds exactly as a per-tick division would
    for qid, q in queues.items():
        for fid in q.flow_ids:
            columns[f"in.{qid}.{fid}"] = q.inputs[fid].values
            columns[f"out.{qid}.{fid}"] = q.outputs[fid].values
    for ctx in user_list:
        columns[f"send.{ctx.uid}"] = ctx.state.sending.values
        columns[f"ack.{ctx.uid}"] = ctx.state.acks.values
    signals = {}
    for name, col in columns.items():
        signals[name] = col
        kind, _, qid = name.partition(".")
        if kind == "q":
            signals[f"tau.{qid}"] = col / queues[qid].capacity
    return TraceSet(
        time=np.arange(n_ticks) * dt,
        dt_s=dt,
        signals=signals,
        scenario=scenario,
        config=config,
        equilibrium_init=eq_init,
        queues=queues,
        users={uid: ctx.state for uid, ctx in users.items()},
        blocks=blocks,
    )


def _user_block(ctx: _UserCtx, queues: dict, dt: float, k0: int, k1: int) -> None:
    """Advance one user over ticks ``[k0, k1)``."""
    ticks = np.arange(k0, k1) * dt
    st = ctx.state
    acks = ctx.ack_reader.read(k0, ticks)
    # entry time of the traffic being acknowledged now
    b_t = circuit_backward_time(ctx.conf, queues, ticks)
    wdot = None
    proto = ctx.conf.protocol
    if isinstance(proto, FastProtocol):
        total_delay = ctx.conf.total_delay_s
        lag = (ticks - b_t) - total_delay
        wdot = _fast_controller(np.where(lag > 0.0, lag, 0.0).tolist(),
                                total_delay, proto)
    jumps = {k - k0: v for k, v in ctx.impulses.items() if k0 <= k < k1}
    send, w, pi, flight_ode, active = st.step(acks, dt, jumps=jumps, wdot=wdot)
    if not (np.isfinite(send).all() and np.isfinite(w).all()
            and np.isfinite(pi).all() and math.isfinite(st.window)
            and math.isfinite(st.ack_buffer)):
        # a step's end state is the next tick's start
        sane = (np.isfinite(send) & np.isfinite(np.append(w[1:], st.window))
                & np.isfinite(np.append(pi[1:], st.ack_buffer)))
        raise SimulationError(
            f"divergence in user block '{ctx.uid}' at "
            f"t={ticks[sane.argmin()]:.6f}")
    st.sending.record(ticks[0], send)
    st.acks.record(ticks[0], acks)
    # flight by the independent route: the sending integral back to the
    # circuit entry time, each tick's rate held over its step
    flight = st.sending.integrate_hold(b_t, ticks)
    for col, values in zip(ctx.columns, (w, pi, flight, flight_ode, active)):
        col[k0:k1] = values


def _queue_block(q: FifoQueue, readers: list, columns: tuple, dt: float,
                 k0: int, k1: int) -> None:
    """Advance one queue over ticks ``[k0, k1)``."""
    times = np.arange(k0, k1 + 1) * dt
    ticks = times[:-1]
    rates = [r.read(k0, ticks) for r in readers]
    total = q.record_inputs(ticks, rates)
    backlog, service, congested = q.step(dt, times[1:], total)
    if not (math.isfinite(q.backlog) and np.isfinite(backlog).all()):
        ends = np.isfinite(np.append(backlog[1:], q.backlog))
        raise SimulationError(
            f"divergence in queue block '{q.queue_id}' at "
            f"t={ticks[ends.argmin()]:.6f}")
    q.record_outputs(ticks[0], q.transport_outputs(times, service * dt, rates,
                                                   total, congested))
    for col, values in zip(columns, (backlog, service, total, congested)):
        col[k0:k1] = values


def _fast_controller(tau_back: list, total_delay: float, proto: FastProtocol):
    """FAST window rate for a block: tick ``j`` measures ``tau_back[j]``.

    ``fast_wdot`` is looked up at each call, so a patched global is seen.
    """
    def wdot(window: float, j: int) -> float:
        return fast_wdot(window, tau_back[j], total_delay, proto)
    return wdot


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

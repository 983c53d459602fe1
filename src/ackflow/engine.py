"""Fixed-step causal integration of the interconnected fluid model.

Each user and each queue advances in blocks of ticks (the time-stepped
fluid solution of Liu et al., SIGMETRICS 2003, with its step loop batched).
A block reads only recorded samples, each across a channel delay, and
records its own: a user block its ACK rates, window, ACK buffer and sending
flow, a queue block its arrivals, backlog and per-flow departures; each
locates its events (buffer refill, queue emptying) inside their steps.

Every component keeps its own frontier: the number of ticks it has
recorded.  This is conservative lookahead (Chandy and Misra, IEEE TSE 1979;
Nicol, JACM 1993).  A component reads another only across a channel, so it
may run ahead of each input by that channel's lag in whole ticks: the index
shift for a delay on the grid, the floor of ``delay / dt`` off it.  One walk
of the topology, ``_feeds``, lists every component's reads as (source,
flow, delay).  A queue reads each flow across its hop: the upstream queue's
departures, the user's sending flow or the rate flow's profile.  A user
reads its last queue across the return delay (its ACKs and the circuit
inversion of its flight size), and each upstream queue across the return
delay plus the hops after it.  The blocks' readers come from that table,
and so does the schedule (``input_lags``, the least lag per source).  A
component's next block ends at the least of the horizon, its frontier plus
``BLOCK_CAP_TICKS``, and each input's frontier plus that input's lag.

``block_schedule``, a generator over the lags, picks the blocks and knows
nothing of what they run.  A pass visits the users, then the queues, in
declaration order, and takes each component's next block if it is a full
length or ends at the barrier.  A component's length is its shortest
feedback cycle (``shortest_cycles``), capped at ``BLOCK_CAP_TICKS``: the
longest block it can ever take, since around its cycle each frontier is at
most its input's plus the lag, so no block runs further past its own
frontier.  Without that rule, a long-loop component would advance whenever
the short loop that paces its queue moved, in that loop's short blocks, and
every block has a fixed cost.  If a pass takes nothing, the one component
whose block ends furthest advances (the first in sweep order on a tie).
Every cycle of inputs has a positive total lag (a return delay is at least
one tick, and the topology refuses zero-delay cycles of queues), so some
component can always advance.  One partial block at a time needs no order
among the components: a queue behind a zero-delay hop waits for its
upstream queue's block.  ``simulate`` takes the schedule to each barrier in
turn (with pruning on, each pruning tick + 1, then the horizon), runs and
counts the blocks (``TraceSet.blocks``), fills the flights up to it and
prunes the histories there.

Reads, profile rates, the circuit inversion and the queue transport are
array arithmetic over a block.  The window, ACK-buffer and backlog
recurrences run as regime spans: runs of ticks in which no branch of the
recurrence changes, each one ``np.cumsum`` or array copy, cut where a
branch would flip (``UserState.step``, ``FifoQueue.step``).  ``np.cumsum``
adds in sequence, so a span's sums are the tick-by-tick ones.  The FAST
window ODE, whose window multiplies its own previous value (no cumulative
sum reproduces that to the bit), is a plain loop with no call per tick,
and one vectorised ``fast_wdot`` call gives the block's rates.  Every
expression is the per-tick one on the same data, so the traces do not
depend on the blocks, the frontiers or the spans, and a failed check names
the first bad tick.

Every signal is sampled on one grid ``k * dt``, whose times the blocks
slice.  The flows (a user's sending, a queue's (flows x ticks) input and
output rates) are the histories the blocks read back, a reader holding a
history and its row: one slice when a delay is a grid multiple, else two
slices, the samples either side of each tick's delayed time, with a
per-tick interpolation weight; the returned traces are views of the
histories.

A user's flight, in two forms, checks the conservation law (what was sent
is in flight, lost or received): ``flight`` is the sending history's hold
integral back to the circuit entry time, ``flight_ode`` the running sum of
sent minus acked mass.  No block reads them, so ``simulate`` fills both at
each barrier, before pruning, in chunks of ``FLIGHT_CHUNK_TICKS``; only a
FAST user's block inverts the circuit, for its queueing delay.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .fifo_queue import FifoQueue
from .history import CausalityError, HistoryError
from .oracle import EquilibriumResult, equilibrium_queue
from .protocol import FastProtocol, ScheduledProtocol, fast_wdot
from .scenario import RunConf, Scenario, UserConf
from .topology import Network
from .user import UserState, circuit_backward_time

__all__ = ["SimConfig", "TraceSet", "SimulationError", "simulate"]


# history readable after pruning: the sum of all channel delays plus this
# margin, which covers the queueing delays in any backward read
PRUNE_MARGIN_S = 5.0

# most ticks in one block, whatever the delays: bounds the block's arrays
BLOCK_CAP_TICKS = 1024

# ticks of one flight computation, which bounds its arrays the same way
FLIGHT_CHUNK_TICKS = 4096


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
    """Delayed read of a recorded per-tick signal, a history and its row
    (``...`` for a one-signal history), or of an analytic profile."""

    # Neither slice path checks the history's prune floor, and neither needs
    # to: each reads at most one channel delay plus one tick back, while the
    # floor lags the current time by the sum of all channel delays plus
    # PRUNE_MARGIN_S.
    __slots__ = ("traj", "row", "profile", "delay", "lag", "off_grid")

    def __init__(self, *, dt_s, traj=None, row=..., profile=None, delay_s=0.0):
        self.profile = profile
        self.traj = traj
        self.row = row
        self.delay = delay_s
        # tick k reads sample k - lag on the grid; off it, its delayed time
        # lies between samples k - lag - 1 and k - lag
        self.lag = _lag_ticks(delay_s, dt_s)
        self.off_grid = _grid_shift(delay_s, dt_s) is None

    def read(self, k0: int, ticks: np.ndarray) -> np.ndarray:
        """The delayed values at a block's tick times, the first tick ``k0``."""
        if self.profile is not None:
            return self.profile.rates_at(ticks - self.delay)
        values = self.traj.values[self.row]
        lo = k0 - self.lag  # the first tick's right sample
        hi = lo + len(ticks)
        if hi > len(values):
            t = ticks[max(len(values) - lo, 0)]  # the first unrecorded one's
            raise CausalityError(
                f"future read at t={float(t - self.delay)!r} (history ends at "
                f"{(len(values) - 1) * self.traj.dt!r})" if self.off_grid else
                f"read {self.delay}s behind t={float(t)} touches an unrecorded sample")
        if not self.off_grid:
            if lo >= 0:
                return values[lo:hi]
            head = np.full(min(-lo, len(ticks)), self.traj.initial_value[self.row])
            return np.concatenate((head, values[:max(hi, 0)]))
        # The bracket is grid_index(k*dt - delay) for every tick: _grid_shift
        # calls a delay off the grid only 1e-6 ticks or more away from it,
        # and k*dt - delay rounds by about 1e-16*k ticks.  So the operands
        # are eval_at's, and so is the value to the bit; eval_at also stays
        # the one definition of the pre-history, which the head reads.
        n = min(max(1 - lo, 0), len(ticks))  # ticks whose left sample precedes 0
        t, dt = ticks - self.delay, self.traj.dt
        i = np.arange(lo - 1 + n, hi - 1)
        t0 = i * dt
        v0, v1 = values[lo - 1 + n:hi - 1], values[lo + n:hi]
        body = v0 + (v1 - v0) * (t[n:] - t0) / ((i + 1) * dt - t0)
        return np.concatenate((self.traj.eval_at(t[:n], self.row), body)) if n else body


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


def _feeds(network: Network) -> dict:
    """Every component's reads as ``(source, flow id, delay_s)``.

    Components and sources are keyed ``("user", id)`` and ``("queue", id)``,
    since a user and a queue may share an id.  A user reads its last queue
    across the return delay (its ACKs, the first entry, and the circuit
    inversion), then each upstream queue across the return delay plus the
    hops after it, in the order ``circuit_backward_time`` walks them.  A
    queue reads its flows in order: each one's upstream queue across that
    hop, else the user's sending flow across its first hop, else (source
    None) the rate flow's profile, known at every time.
    """
    feeds: dict = {}
    for uid, u in network.users.items():
        reads = feeds["user", uid] = []
        delay = u.return_delay_s
        for qid, hop in zip(reversed(u.queue_path), reversed(u.hop_delays_s)):
            reads.append((("queue", qid), uid, delay))
            delay += hop
    for qid in network.queues:
        reads = feeds["queue", qid] = []
        for fid in network.flows_through(qid):
            flow = network.users.get(fid) or network.rate_flows[fid]
            pos = flow.queue_path.index(qid)
            if pos:
                src = ("queue", flow.queue_path[pos - 1])
            else:
                src = ("user", fid) if fid in network.users else None
            reads.append((src, fid, flow.hop_delays_s[pos]))
    return feeds


def input_lags(network: Network, dt: float) -> dict:
    """Every component's inputs with their lags in whole ticks: the least
    ``_lag_ticks`` over its reads of each source (``_feeds``)."""
    lags: dict = {}
    for key, reads in _feeds(network).items():
        inputs = lags[key] = {}
        for src, _, delay in reads:
            if src is not None:
                lag = _lag_ticks(delay, dt)
                inputs[src] = min(lag, inputs.get(src, lag))
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


def block_schedule(lags: dict, cycles: dict, frontier: dict, barrier: int, dt: float):
    """Yield ``(key, k0, k1)`` for the blocks that bring every component to
    ``barrier``, moving ``frontier[key]`` to ``k1`` on resuming; ``cycles``
    is ``shortest_cycles(lags)``.  Each pass takes every whole block in
    ``lags`` order, and a pass that takes none the partial block that ends
    furthest, the first on a tie.
    """
    cap = BLOCK_CAP_TICKS
    sweep = [(key, cap if cycles[key] is None else min(cap, cycles[key]),
              list(inputs.items())) for key, inputs in lags.items()]
    while True:
        advanced, furthest = False, (None, 0, 0)
        for key, length, inputs in sweep:
            k0 = frontier[key]
            k1 = min(barrier, k0 + cap, *[frontier[src] + lag for src, lag in inputs])
            if k1 > k0 and (k1 == barrier or k1 - k0 >= length):
                yield key, k0, k1
                frontier[key] = k1
                advanced = True
            elif k1 > max(k0, furthest[2]):
                furthest = (key, k0, k1)
        if all(f == barrier for f in frontier.values()):
            return
        if not advanced:
            if furthest[0] is None:
                stuck = ", ".join(f"{kind} '{cid}' at t={k * dt:.6f}"
                                  for (kind, cid), k in frontier.items() if k < barrier)
                raise SimulationError(f"no component can advance: {stuck}")
            yield furthest
            frontier[furthest[0]] = furthest[2]


def simulate(network: Network, scenario: Scenario, config: SimConfig) -> TraceSet:
    """Run the fluid model on ``network``; returns every signal on the
    engine grid.  ``scenario`` is only handed back in the ``TraceSet``."""
    dt = config.dt_s
    for name in ("dt_s", "horizon_s"):
        value = getattr(config, name)
        if not math.isfinite(value):
            raise SimulationError(f"{name} must be finite, got {value!r}")
        if value <= 0:
            raise SimulationError(f"{name} must be positive, got {value!r}")
    if not config.horizon_s / dt < 2.0 ** 60:  # at 8 bytes a tick, past 2**63 bytes
        raise SimulationError(
            f"horizon_s / dt_s is {config.horizon_s / dt!r} ticks, too many for one "
            f"run (horizon_s={config.horizon_s!r}, dt_s={dt!r})")
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
        eq_init = equilibrium_queue(network)
    elif config.init != "cold":
        raise SimulationError(f"unknown init mode {config.init!r}")

    n_ticks = int(round(config.horizon_s / dt)) + 1
    # the tick times, and the end of the last step
    grid = np.arange(n_ticks + 1) * dt
    feeds = _feeds(network)
    queues: dict[str, FifoQueue] = {}
    for qid, qconf in network.queues.items():
        flows = [fid for _, fid, _ in feeds["queue", qid]]
        backlog0, rates0 = 0.0, None
        if eq_init is not None:
            backlog0 = qconf.capacity_pps * eq_init.queueing_delays_s[qid]
            rates0 = eq_init.rates_pps
        queues[qid] = FifoQueue(qid, qconf.capacity_pps, flows, dt_s=dt,
                                backlog0_pkts=backlog0, input_rates0=rates0,
                                n_ticks=n_ticks)

    def reader(src, fid: str, delay_s: float) -> _Reader:
        """The read of one ``_feeds`` entry."""
        if src is None:
            return _Reader(profile=network.rate_flows[fid].profile, delay_s=delay_s,
                           dt_s=dt)
        if src[0] == "user":
            return _Reader(traj=states[src[1]].sending, delay_s=delay_s, dt_s=dt)
        up = queues[src[1]]
        return _Reader(traj=up.departures, row=up.flow_ids.index(fid), delay_s=delay_s,
                       dt_s=dt)

    # traces, named here once: the flows are history rows, every other
    # signal a preallocated column the blocks fill
    columns: dict[str, np.ndarray] = {}

    def new_columns(owner: str, *names: str) -> tuple:
        new = tuple(np.empty(n_ticks) for _ in names)
        columns.update((f"{name}.{owner}", col) for name, col in zip(names, new))
        return new

    # each component's block body, keyed like input_lags: the users, then
    # the queues, as declared, which is the sweep order
    states: dict[str, UserState] = {}
    flights: dict[str, tuple] = {}
    bodies = {}
    for uid, uconf in network.users.items():
        proto = uconf.protocol
        w0 = proto.initial_window_pkts if eq_init is not None else 0.0
        send0 = eq_init.rates_pps[uid] if eq_init is not None else 0.0
        states[uid] = UserState(w0, dt_s=dt, sending0_pps=send0, n_ticks=n_ticks)
        if isinstance(proto, ScheduledProtocol):
            impulses = proto.impulses_by_tick(dt)
        elif isinstance(proto, FastProtocol):
            impulses = {}
        else:
            raise SimulationError(f"user '{uid}': unsupported protocol {proto!r}")
        if eq_init is None:
            # the window appears at t=0: emitted as an opening burst
            impulses[0] = impulses.get(0, 0.0) + proto.initial_window_pkts
        w, ackbuf, flight, flight_ode, active = new_columns(
            uid, "w", "ackbuf", "flight", "flight_ode", "active")
        flights[uid] = (flight, flight_ode, w0)  # w0: the mass in flight at t=0
        bodies["user", uid] = functools.partial(
            _user_block, uconf, states[uid],
            {k: v for k, v in impulses.items() if v},  # tick -> jump
            reader(*feeds["user", uid][0]), (w, ackbuf, active), queues, grid, dt)
    for qid, q in queues.items():
        bodies["queue", qid] = functools.partial(
            _queue_block, q, [reader(*read) for read in feeds["queue", qid]],
            new_columns(qid, "q", "r", "arrival", "congested"), grid, dt)

    prune_every = max(1, int(1.0 / dt)) if config.prune_history else 0
    prune_lag = sum(network.channel_delays_s()) + PRUNE_MARGIN_S
    histories = [h for q in queues.values()
                 for h in (q.forward_map, q.arrivals, q.departures)]
    histories += [h for st in states.values() for h in (st.sending, st.acks)]

    lags = input_lags(network, dt)
    cycles = shortest_cycles(lags)
    frontier = dict.fromkeys(lags, 0)
    blocks = dict.fromkeys(bodies, 0)
    # each pruning tick + 1, then the horizon
    barriers = range(1, n_ticks, prune_every) if prune_every else ()
    done = 0
    for barrier in (*barriers, n_ticks):
        for key, k0, k1 in block_schedule(lags, cycles, frontier, barrier, dt):
            try:
                bodies[key](k0, k1)
            except HistoryError as err:
                raise SimulationError(
                    f"{key[0]} block '{key[1]}' from t={k0 * dt:.6f}: {err}") from err
            blocks[key] += 1
        # every component has recorded through tick barrier - 1: the flights
        # up to it read histories the pruning below may put out of reach
        for uid, (flight, balance, w0) in flights.items():
            conf, sending = network.users[uid], states[uid].sending
            send, ack = sending.values, states[uid].acks.values
            for k0 in range(done, barrier, FLIGHT_CHUNK_TICKS):
                k1 = min(k0 + FLIGHT_CHUNK_TICKS, barrier)
                ticks = grid[k0:k1]
                try:
                    # the sending integral back to the circuit entry time,
                    # each tick's rate held over its step
                    flight[k0:k1] = sending.integrate_hold(
                        circuit_backward_time(conf, queues, ticks), ticks)
                except HistoryError as err:
                    raise SimulationError(
                        f"user flight '{uid}' from t={k0 * dt:.6f}: {err}") from err
                # sent minus acked, added tick by tick: np.cumsum adds in
                # sequence, so each chunk resumes the last one's sum exactly
                start = balance[k0 - 1] + (send[k0 - 1] - ack[k0 - 1]) * dt if k0 else w0
                balance[k0:k1] = np.cumsum(np.concatenate(
                    ([start], (send[k0:k1 - 1] - ack[k0:k1 - 1]) * dt)))
        done = barrier
        t = (barrier - 1) * dt
        if prune_every and (barrier - 1) % prune_every == 0 and t > prune_lag:
            for h in histories:
                h.prune_before(t - prune_lag)

    # the flows are views of the histories; tau is q / capacity, which
    # IEEE division rounds exactly as a per-tick division would
    for qid, q in queues.items():
        columns.update((f"in.{qid}.{fid}", row) for fid, row in q.inputs.items())
        columns.update((f"out.{qid}.{fid}", row) for fid, row in q.outputs.items())
    for uid, st in states.items():
        columns[f"send.{uid}"] = st.sending.values
        columns[f"ack.{uid}"] = st.acks.values
    signals = {}
    for name, col in columns.items():
        signals[name] = col
        kind, _, qid = name.partition(".")
        if kind == "q":
            signals[f"tau.{qid}"] = col / queues[qid].capacity
    return TraceSet(
        time=grid[:n_ticks],
        dt_s=dt,
        signals=signals,
        scenario=scenario,
        config=config,
        equilibrium_init=eq_init,
        queues=queues,
        users=states,
        blocks=blocks,
    )


def _user_block(conf: UserConf, st: UserState, impulses: dict, ack_reader: _Reader,
                columns: tuple, queues: dict, grid: np.ndarray, dt: float,
                k0: int, k1: int) -> None:
    """Advance one user over ticks ``[k0, k1)``."""
    ticks = grid[k0:k1]
    acks = ack_reader.read(k0, ticks)
    fast = None
    proto = conf.protocol
    if isinstance(proto, FastProtocol):
        # the queueing delay since the entry of the traffic acknowledged now
        total_delay = conf.total_delay_s
        lag = (ticks - circuit_backward_time(conf, queues, ticks)) - total_delay
        tau = np.where(lag > 0.0, lag, 0.0)
        # fast_wdot's gains, and its rates from the global a tracer may patch
        fast = ((-tau / (total_delay + tau)).tolist(), proto.gamma, proto.alpha_pkts,
                lambda windows: fast_wdot(windows, tau, total_delay, proto))
    jumps = {k - k0: v for k, v in impulses.items() if k0 <= k < k1}
    send, w, pi, active = st.step(acks, dt, jumps=jumps, fast=fast)
    if not (np.isfinite(send).all() and np.isfinite(w).all()
            and np.isfinite(pi).all() and math.isfinite(st.window)
            and math.isfinite(st.ack_buffer)):
        # a step's end state is the next tick's start
        sane = (np.isfinite(send) & np.isfinite(np.append(w[1:], st.window))
                & np.isfinite(np.append(pi[1:], st.ack_buffer)))
        raise SimulationError(
            f"divergence in user block '{conf.id}' at "
            f"t={ticks[sane.argmin()]:.6f}")
    st.sending.record(ticks[0], send)
    st.acks.record(ticks[0], acks)
    # the flight columns are filled by simulate, off the block path
    for col, values in zip(columns, (w, pi, active)):
        col[k0:k1] = values


def _queue_block(q: FifoQueue, readers: list, columns: tuple, grid: np.ndarray,
                 dt: float, k0: int, k1: int) -> None:
    """Advance one queue over ticks ``[k0, k1)``."""
    times = grid[k0:k1 + 1]
    ticks = times[:-1]
    rates = np.array([r.read(k0, ticks) for r in readers]).reshape(len(readers), k1 - k0)
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

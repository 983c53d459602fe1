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
reads its ACKs from its last queue across the return delay.  A FAST
user's block also inverts its circuit (``circuit_backward_time``) through
every queue's forward map on its path, and the queue chain covers those
reads: each queue's frontier trails its upstream queue's reach by the hop,
and each queue's reach lies at or below its forward map's last sample, so
every inversion lands in a recorded map (``invert_monotone`` refuses any
other as a ``CausalityError``).  The blocks' readers come from that table, and so
does the schedule (``input_lags``, the least lag per source).  A
component's next block ends at the least of the horizon, its frontier
plus ``BLOCK_CAP_TICKS``, and each input's reach plus that input's lag.
Only the engine puts a run on its grid: the elements' descriptions are in
seconds, and ``_window_jumps`` snaps a user's window steps to ticks, while
the delays ``_feeds`` lists give the coarsest ``dt`` allowed.

An input's reach is the number of ticks of its outputs recorded: a user's
frontier, and a queue's departures, which run ahead of its frontier while
it holds a backlog.  In a FIFO queue what arrives at ``s`` leaves at
``s + q(s)/c``, so the departures up to the forward map's sample at the
last recorded arrival left from recorded arrivals, and every step past the
frontier up to there serves the capacity.  A queue block transports them
after its step, up to the barrier and at most ``BLOCK_CAP_TICKS`` past its
frontier (``_departure_reach``).  This is lookahead taken from the state
(Nicol, "Parallel discrete-event simulation of FCFS stochastic queueing
networks", PPEALS 1988): each loop's blocks stretch by the backlogs its
queues hold, in ticks, and the transport of a step is the per-tick one on
the same operands wherever it runs.

``block_schedule``, a generator over the lags, picks the blocks and knows
nothing of what they run; ``simulate`` hands it each block's reach.  A pass
visits the users as declared, then the queues in id order, so a run does
not depend on the order its queues are declared in, and takes each
component's next block if it is a full length or ends at the barrier.  A
component's length is its shortest feedback cycle (``shortest_cycles``),
capped at ``BLOCK_CAP_TICKS``: with no backlog on the loop, the longest
block it can take, since around its cycle each frontier is at most its
input's plus the lag; a backlog's reach only lengthens it.  Without that
rule, a long-loop component would advance whenever the short loop that
paces its queue moved, in that loop's short blocks, and every block has a
fixed cost.  If a pass takes nothing, the one component whose block ends
furthest advances (the first in sweep order on a tie).  Every cycle of
inputs has a positive total lag (a return delay is at least one tick, and
the topology refuses zero-delay cycles of queues), so some component can
always advance.  One partial block at a time needs no order among the
components: a queue behind a zero-delay hop waits for its upstream queue's
block.  ``simulate`` takes the schedule to each barrier in turn (with
pruning on, each whole simulated second, then the horizon), runs and
counts the blocks (``TraceSet.blocks``), fills the flight integrals up to
it and prunes the histories there, to the oldest time a later read can
reach from the barrier's time ``T``: the least of ``T`` less the longest
channel delay and one sample, each queue's backward image of ``T``, where
its transport resumes, and each user's circuit entry time at ``T``.  Both
images are nondecreasing in ``T``, so no later read reaches further back.

Reads, profile rates, the circuit inversion and the queue transport are
array arithmetic over a block.  The ACK-buffer and backlog recurrences run
as regime spans: runs of ticks in which no branch of the recurrence
changes, each one running sum (``np.cumsum``, ``np.add.accumulate``) or
array copy, cut where a branch would flip (``UserState.step``,
``FifoQueue.step``).  A running sum adds in sequence, so a span's sums are
the tick-by-tick ones.  A user block is cut at its window jumps, so each
piece takes at most one, at its first tick; the controller's
``window_path`` gives the piece's windows (FAST's is a plain loop with no
call per tick), and one vectorised ``fast_wdot`` call a FAST piece's
rates.  Every expression is the per-tick one on the same data, so the
traces do not depend on the blocks, the reaches or the spans, and a
failed check names the first bad tick.

Every signal is sampled on one grid ``k * dt``, whose times the blocks
slice.  The flows (a user's sending, a queue's (flows x ticks) input and
output rates) are the histories the blocks read back, a reader holding a
history and its row: one slice when a delay is a grid multiple, else two
slices, the samples either side of each tick's delayed time, with a
per-tick interpolation weight.  Every full-length array of a run, its
histories, its other traces and the tick times, is a contiguous piece of
one store, sized from ``_feeds`` and allocated once (``_store``), and the
returned traces are views of it.

A user's flight, in two forms, checks the conservation law (what was sent
is in flight, lost or received): ``flight`` is the sending history's hold
integral back to the circuit entry time, ``flight_ode`` the running sum of
sent minus acked mass.  No block reads them.  A FAST user's block inverts
the circuit for its queueing delay and writes the entry times in its
``flight`` column, which holds them until the fill; ``simulate`` fills
``flight`` at each barrier, before pruning can put the histories it reads
out of reach, in chunks of ``BLOCK_CAP_TICKS``, inverting a scheduled
user's circuit once per chunk and integrating from the entry times in
place.  So no user's circuit is inverted twice for the same tick.
``flight_ode`` reads only the returned traces, so it is summed once, after
the last block.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .fifo_queue import EPS_BACKLOG_PKTS, FifoQueue
from .history import HistoryError, interpolate
from .oracle import EquilibriumResult, equilibrium_queue
from .protocol import FastProtocol, ScheduledProtocol, fast_wdot
from .scenario import MAX_TICKS, RunConf, Scenario, UserConf, check_square_reach
from .topology import Network
from .user import UserState

__all__ = ["SimConfig", "TraceSet", "SimulationError", "simulate"]


# most ticks in one block, in a queue's departures past its frontier and in
# one chunk of a user's flight, whatever the delays and the backlog: the one
# bound on an array pass
BLOCK_CAP_TICKS = 4096


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

    The flow signals view the histories in ``queues`` and ``users``, and
    every signal and ``time`` view the run's one store.
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
    # to: each reads at most one channel delay plus one sample back from a
    # block's first tick, and ``simulate`` sets the floor at least that far
    # back from the barrier every later block starts at or after.
    __slots__ = ("traj", "row", "profile", "delay", "lag", "off_grid")

    def __init__(self, *, dt_s, traj=None, row=..., profile=None, delay_s=0.0):
        self.profile = profile
        self.traj = traj
        self.row = row
        self.delay = delay_s
        # tick k reads sample k - lag on the grid; off it, its delayed time
        # lies between samples k - lag - 1 and k - lag
        self.lag, self.off_grid = _lag_ticks(delay_s, dt_s)

    def read(self, k0: int, ticks: np.ndarray) -> np.ndarray:
        """The delayed values at a block's tick times, the first tick ``k0``."""
        if self.profile is not None:
            return self.profile.rates_at(ticks - self.delay)
        values = self.traj.values[self.row]
        lo = k0 - self.lag  # the first tick's right sample
        hi = lo + len(ticks)
        if hi > len(values):  # refused from the first unrecorded tick on
            self.traj.check_recorded(ticks[max(len(values) - lo, 0):] - self.delay)
        if not self.off_grid:
            if lo >= 0:
                return values[lo:hi]
            head = np.full(min(-lo, len(ticks)), self.traj.initial_value[self.row])
            return np.concatenate((head, values[:max(hi, 0)]))
        # The bracket is grid_index(k*dt - delay) for every tick: _lag_ticks
        # calls a delay off the grid only 1e-6 ticks or more away from it,
        # and k*dt - delay rounds by about 1e-16*k ticks.  So the body is
        # eval_at's formula on eval_at's operands, and its value to the bit;
        # the head, before sample 0, is eval_at's read of the pre-history.
        n = min(max(1 - lo, 0), len(ticks))  # ticks whose left sample precedes 0
        t = ticks - self.delay
        body = interpolate(values[lo - 1 + n:hi - 1], values[lo + n:hi], t[n:],
                           np.arange(lo - 1 + n, hi - 1), self.traj.dt)
        return np.concatenate((self.traj.eval_at(t[:n], self.row), body)) if n else body


def _lag_ticks(delay_s: float, dt: float) -> tuple[int, bool]:
    """Ticks a reader may run ahead of a source across ``delay_s``, and
    whether the delay is off the grid: the index shift of a delay within
    1e-6 ticks of a grid multiple, else the floor.  A delay past any run,
    ``MAX_TICKS`` ticks or more, counts as that many: its reads see only
    the pre-history.  The same count gives a horizon's steps, so a run's
    last tick lies at or before its horizon."""
    ticks = min(delay_s / dt, MAX_TICKS)
    shift = round(ticks)
    if abs(ticks - shift) < 1e-6:
        return shift, False
    return math.floor(ticks), True


def _feeds(network: Network) -> dict:
    """Every component's reads as ``(source, flow id, delay_s)``: the users
    as declared, then the queues in id order, which is the sweep order.

    Components and sources are keyed ``("user", id)`` and ``("queue", id)``,
    since a user and a queue may share an id.  A user reads its last queue
    across the return delay.  A queue reads its flows in order: each one's
    upstream queue across that hop, else the user's sending flow across
    its first hop, else (source None) the rate flow's profile, known at
    every time.
    """
    feeds = {("user", uid): [(("queue", u.queue_path[-1]), uid, u.return_delay_s)]
             for uid, u in network.users.items()}
    for qid in sorted(network.queues):
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
                lag, _ = _lag_ticks(delay, dt)
                inputs[src] = min(lag, inputs.get(src, lag))
    return lags


def circuit_backward_time(user: UserConf, queues: dict, t):
    """Entry time of the traffic leaving the user's circuit at ``t``, over
    an array of times: undo the return channel, then for each queue back
    along the path invert its arrival->departure map and undo its hop."""
    x = t - user.return_delay_s
    for qid, hop in zip(reversed(user.queue_path), reversed(user.hop_delays_s)):
        x = queues[qid].backward_time(x)
        x -= hop
    return x


def _window_jumps(proto, dt: float, cold: bool) -> dict[int, float]:
    """A user's window jumps, tick -> net jump, none of them zero: each
    scheduled step at its nearest tick, which absorbs float jitter in
    ``k * dt`` (schedules are expected on the grid anyway), and on a cold
    start the opening window at tick 0, emitted as a burst.  A step past
    ``MAX_TICKS`` ticks counts as at that tick, which no run reaches."""
    jumps: dict[int, float] = {}
    w = proto.initial_window_pkts
    for ts, ws in proto.steps if isinstance(proto, ScheduledProtocol) else ():
        k = int(min(ts / dt, MAX_TICKS) + 0.5)
        jumps[k] = jumps.get(k, 0.0) + (ws - w)
        w = ws
    if cold:
        jumps[0] = jumps.get(0, 0.0) + proto.initial_window_pkts
    return {k: j for k, j in jumps.items() if j}


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


def block_schedule(lags: dict, cycles: dict, frontier: dict, barrier: int, dt: float,
                   reach: dict | None = None):
    """Yield ``(key, k0, k1)`` for the blocks that bring every component to
    ``barrier``, moving ``frontier[key]`` to ``k1`` on resuming; ``cycles``
    is ``shortest_cycles(lags)``.  Each pass takes every whole block in
    ``lags`` order, and a pass that takes none the partial block that ends
    furthest, the first on a tie.

    A reader of ``src`` runs ahead of ``reach[src]`` by its lag: the number
    of ticks of ``src``'s outputs recorded, which the caller sets to ``k1``
    or beyond before resuming.  Without ``reach``, the frontiers.
    """
    cap = BLOCK_CAP_TICKS
    reach = frontier if reach is None else reach
    sweep = [(key, cap if cycles[key] is None else min(cap, cycles[key]),
              list(inputs.items())) for key, inputs in lags.items()]
    while True:
        advanced, furthest = False, (None, 0, 0)
        for key, length, inputs in sweep:
            k0 = frontier[key]
            k1 = min(barrier, k0 + cap, *[reach[src] + lag for src, lag in inputs])
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


def _store(feeds: dict, n_ticks: int, config: SimConfig) -> np.ndarray:
    """One float64 allocation for every full-length array of a run, in
    rows of ``n_ticks`` samples: per queue its flows' arrival and departure
    rows and its ``q``, ``r``, ``arrival``, ``congested`` and ``tau``, per
    user its sending history, its ACKs and its ``w``, ``ackbuf``,
    ``flight``, ``flight_ode`` and ``active``; and one sample longer, each
    queue's forward map and the tick times.  numpy asks the kernel to map
    an allocation of 4 MiB or more in huge pages.  A run too large to
    allocate fails here, before any other full-length array exists."""
    queues = [reads for (kind, _), reads in feeds.items() if kind == "queue"]
    signals = sum(2 * len(reads) + 5 for reads in queues) + 7 * (len(feeds) - len(queues))
    size = signals * n_ticks + (len(queues) + 1) * (n_ticks + 1)
    try:
        return np.empty(size)
    except (MemoryError, ValueError) as err:  # ValueError: past 2**63 bytes
        raise SimulationError(
            f"horizon_s={config.horizon_s!r} at dt_s={config.dt_s!r} is {n_ticks} ticks "
            f"of {signals} signals, {8 * size} bytes: too large to allocate") from err


def simulate(network: Network, scenario: Scenario, config: SimConfig) -> TraceSet:
    """Run the fluid model on ``network``; returns every signal on the
    engine grid.  ``scenario`` is only handed back in the ``TraceSet``.

    The descriptions arrive checked: ``config`` and each user's protocol
    refused bad values when they were built, and ``network`` its routes
    and delays, and ``config`` its tick count.  What is checked here needs
    the network and the run together: each square wave's piece index over
    the run, ``dt``'s headroom under the smallest positive delay, and a
    return delay of at least one step.
    """
    dt = config.dt_s
    check_square_reach(network.rate_flows.values(), config.horizon_s)
    feeds = _feeds(network)
    # every channel is read once: each hop by a queue, each return by a user
    delays = [delay for reads in feeds.values() for _, _, delay in reads]
    min_delay = min((d for d in delays if d > 0), default=math.inf)
    if dt > min_delay / 10:
        raise SimulationError(
            f"dt={dt} too coarse for the smallest positive propagation delay "
            f"{min_delay}s; need dt <= delay/10 for causality headroom")
    for u in network.users.values():
        if u.return_delay_s < dt:
            raise SimulationError(
                f"user '{u.id}': return channel delay {u.return_delay_s}s must "
                f"be at least one step ({dt}s) so ACK reads stay in the past")

    eq_init = equilibrium_queue(network) if config.init == "equilibrium" else None

    n_ticks = _lag_ticks(config.horizon_s, dt)[0] + 1
    store, used = _store(feeds, n_ticks, config), 0

    def empty(shape: tuple) -> np.ndarray:
        """The store's next ``shape`` of samples, contiguous."""
        nonlocal used
        start, used = used, used + math.prod(shape)
        return store[start:used].reshape(shape)

    # the tick times, and the end of the last step, a bitwise arange * dt
    # made a piece at a time: a full-length temporary would stay resident
    grid = empty((n_ticks + 1,))
    for k0 in range(0, n_ticks + 1, BLOCK_CAP_TICKS):
        k1 = min(k0 + BLOCK_CAP_TICKS, n_ticks + 1)
        np.multiply(np.arange(k0, k1), dt, out=grid[k0:k1])
    queues: dict[str, FifoQueue] = {}
    for qid, qconf in network.queues.items():
        flows = [fid for _, fid, _ in feeds["queue", qid]]
        backlog0, rates0 = 0.0, None
        if eq_init is not None:
            backlog0 = qconf.capacity_pps * eq_init.queueing_delays_s[qid]
            rates0 = eq_init.rates_pps
        queues[qid] = FifoQueue(qid, qconf.capacity_pps, flows, dt_s=dt,
                                backlog0_pkts=backlog0, input_rates0=rates0,
                                n_ticks=n_ticks, empty=empty)

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
    # signal a column of the store the blocks fill
    columns: dict[str, np.ndarray] = {}

    def new_columns(owner: str, *names: str) -> tuple:
        new = tuple(empty((n_ticks,)) for _ in names)
        columns.update((f"{name}.{owner}", col) for name, col in zip(names, new))
        return new

    # each component's block body, keyed like input_lags: run over ticks
    # [k0, k1) up to a barrier, it returns its reach
    states: dict[str, UserState] = {}
    flights: dict[str, tuple] = {}
    bodies = {}
    for uid, uconf in network.users.items():
        proto = uconf.protocol
        w0 = proto.initial_window_pkts if eq_init is not None else 0.0
        send0 = eq_init.rates_pps[uid] if eq_init is not None else 0.0
        states[uid] = UserState(w0, dt_s=dt, sending0_pps=send0, n_ticks=n_ticks,
                                empty=empty)
        w, ackbuf, flight, flight_ode, active = new_columns(
            uid, "w", "ackbuf", "flight", "flight_ode", "active")
        flights[uid] = (flight, flight_ode, w0)  # w0: the mass in flight at t=0
        bodies["user", uid] = functools.partial(
            _user_block, uconf, states[uid], _window_jumps(proto, dt, eq_init is None),
            reader(*feeds["user", uid][0]), (w, ackbuf, active), flight, queues, grid, dt)
    for qid, q in queues.items():
        bodies["queue", qid] = functools.partial(
            _queue_block, q, [reader(*read) for read in feeds["queue", qid]],
            new_columns(qid, "q", "r", "arrival", "congested"), grid, dt)
    # filled after the last block, named there to keep the signals' order
    taus = {qid: empty((n_ticks,)) for qid in queues}
    # _store's count and the arrays carved here must agree
    if used != store.size:
        raise SimulationError(f"the run's arrays hold {used} samples, its store {store.size}")

    prune_every = max(1, int(1.0 / dt)) if config.prune_history else 0
    histories = [h for q in queues.values()
                 for h in (q.forward_map, q.arrivals, q.departures)]
    histories += [st.sending for st in states.values()]

    lags = input_lags(network, dt)
    cycles = shortest_cycles(lags)
    frontier = dict.fromkeys(lags, 0)
    reach = dict(frontier)
    blocks = dict.fromkeys(bodies, 0)
    # with pruning on, each whole simulated second, then the horizon
    barriers = range(prune_every, n_ticks, prune_every) if prune_every else ()
    done = 0
    for barrier in (*barriers, n_ticks):
        for key, k0, k1 in block_schedule(lags, cycles, frontier, barrier, dt, reach):
            try:
                reach[key] = bodies[key](k0, k1, barrier)
            except HistoryError as err:
                raise SimulationError(
                    f"{key[0]} block '{key[1]}' from t={k0 * dt:.6f}: {err}") from err
            blocks[key] += 1
        # every component has recorded through tick barrier - 1: the flight
        # integrals up to it read histories the pruning below may put out of
        # reach; each is the sending integral back to the circuit entry
        # time, each tick's rate held over its step.  A FAST user's blocks
        # wrote its entry times in its flight column; a scheduled user's
        # are written here
        for uid, (flight, _, _) in flights.items():
            conf, sending = network.users[uid], states[uid].sending
            fast = isinstance(conf.protocol, FastProtocol)
            for k0 in range(done, barrier, BLOCK_CAP_TICKS):
                k1 = min(k0 + BLOCK_CAP_TICKS, barrier)
                entry = flight[k0:k1]
                try:
                    if not fast:
                        entry[:] = circuit_backward_time(conf, queues, grid[k0:k1])
                    entry[:] = sending.integrate_hold_to_ticks(entry, k0)
                except HistoryError as err:
                    raise SimulationError(
                        f"user flight '{uid}' from t={k0 * dt:.6f}: {err}") from err
        done = barrier
        if prune_every:
            # every later read starts at or after this barrier's time
            now = grid[barrier:barrier + 1]
            floor = min(now[0] - max(delays, default=0.0) - dt,
                        *(q.backward_time(now)[0] for q in queues.values()),
                        *(circuit_backward_time(u, queues, now)[0]
                          for u in network.users.values()))
            for h in histories:
                h.prune_before(floor)

    # sent minus acked, added tick by tick in place from the start's window
    for uid, (_, balance, w0) in flights.items():
        send, ack = states[uid].sending.values, states[uid].acks
        balance[0] = w0
        np.subtract(send[:-1], ack[:-1], out=balance[1:])
        balance[1:] *= dt
        np.add.accumulate(balance, out=balance)
    # the flows are views of the histories
    for qid, q in queues.items():
        columns.update((f"in.{qid}.{fid}", row) for fid, row in q.inputs.items())
        columns.update((f"out.{qid}.{fid}", row) for fid, row in q.outputs.items())
        # q / capacity, which IEEE division rounds as a per-tick one would
        columns[f"tau.{qid}"] = np.divide(columns[f"q.{qid}"], q.capacity, out=taus[qid])
    for uid, st in states.items():
        columns[f"send.{uid}"] = st.sending.values
        columns[f"ack.{uid}"] = st.acks
    return TraceSet(
        time=grid[:n_ticks],
        dt_s=dt,
        signals=columns,
        scenario=scenario,
        config=config,
        equilibrium_init=eq_init,
        queues=queues,
        users=states,
        blocks=blocks,
    )


def _user_block(conf: UserConf, st: UserState, jumps: dict, ack_reader: _Reader,
                columns: tuple, flight: np.ndarray, queues: dict, grid: np.ndarray,
                dt: float, k0: int, k1: int, barrier: int) -> int:
    """Advance one user over ticks ``[k0, k1)``, cut at its window jumps
    (``jumps``, tick -> jump): each piece takes at most one, at its first
    tick.  A FAST user writes its circuit entry times in its ``flight``
    column, which ``simulate`` integrates from.  Returns ``k1``, its reach
    whatever the ``barrier``: a user records its sending flow as far as its
    frontier."""
    ticks = grid[k0:k1]
    acks = ack_reader.read(k0, ticks)
    st.acks[k0:k1] = acks
    proto = conf.protocol
    fast = isinstance(proto, FastProtocol)
    if fast:
        # the queueing delay since the entry of the traffic acknowledged now
        total_delay = conf.total_delay_s
        entry = circuit_backward_time(conf, queues, ticks)
        flight[k0:k1] = entry
        lag = (ticks - entry) - total_delay
        tau = np.where(lag > 0.0, lag, 0.0)
    cuts = [k0, *sorted(k for k in jumps if k0 < k < k1), k1]
    for a, b in zip(cuts, cuts[1:]):
        piece, jump = slice(a - k0, b - k0), jumps.get(a, 0.0)
        if fast:
            w, st.window = proto.window_path(st.window, tau[piece], total_delay, dt, jump)
        else:
            w, st.window = proto.window_path(st.window, b - a, jump)
        with np.errstate(over="ignore", invalid="ignore"):  # the check below names the tick
            # fast_wdot, the global a tracer may patch
            rates = fast_wdot(w, tau[piece], total_delay, proto) if fast else np.zeros(b - a)
            send, pi, active = st.step(acks[piece], rates, dt, jump)
        if not (np.isfinite(send).all() and np.isfinite(w).all()
                and np.isfinite(pi).all() and math.isfinite(st.window)
                and math.isfinite(st.ack_buffer)):
            # a step's end state is the next tick's start
            sane = (np.isfinite(send) & np.isfinite(np.append(w[1:], st.window))
                    & np.isfinite(np.append(pi[1:], st.ack_buffer)))
            raise SimulationError(
                f"divergence in user block '{conf.id}' at "
                f"t={grid[a + sane.argmin()]:.6f}")
        st.sending.record(grid[a], send)
        # the flight column holds a FAST user's entry times until simulate
        # integrates from them, off the block path
        for col, values in zip(columns, (w, pi, active)):
            col[a:b] = values
    return k1


def _departure_reach(q: FifoQueue, k1: int, barrier: int) -> int:
    """The ticks of departures a queue can record once its arrivals are
    recorded through tick ``k1 - 1``: up to the last step end before the
    forward map's sample there, capped ``BLOCK_CAP_TICKS`` past ``k1`` and
    at ``barrier``, and at least ``k1`` and the departures recorded.

    What arrives at tick ``k1 - 1`` departs at that sample, and no arrival
    rate is negative, so each step before it serves ``capacity`` and
    departs recorded arrivals.  The sample is cut by a relative 1e-10 and
    ``EPS_BACKLOG_PKTS`` of service, far above the rounding of a backlog
    summed over ``BLOCK_CAP_TICKS`` steps, so ``FifoQueue.step`` finds each
    of those steps congested.  A sample past any run counts as
    ``MAX_TICKS`` ticks, as in ``_lag_ticks``.
    """
    fmap = q.forward_map
    f = float(fmap.values[k1 - 1]) * (1.0 - 1e-10) - EPS_BACKLOG_PKTS / q.capacity
    ahead = math.floor(min(f / fmap.dt, MAX_TICKS))
    return max(len(q.departures), k1, min(barrier, k1 + BLOCK_CAP_TICKS, ahead))


def _queue_block(q: FifoQueue, readers: list, columns: tuple, grid: np.ndarray,
                 dt: float, k0: int, k1: int, barrier: int) -> int:
    """Advance one queue over ticks ``[k0, k1)`` and transport its departures
    from where the last block left them to ``_departure_reach``, which it
    returns.  Past ``k1`` the transport reads no arrival rate: each step
    there serves the capacity and departs traffic that arrived before it."""
    times = grid[k0:k1 + 1]
    ticks = times[:-1]
    rates = np.array([r.read(k0, ticks) for r in readers]).reshape(len(readers), k1 - k0)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the tick
        total = q.record_inputs(ticks, rates)
        backlog, service, congested = q.step(dt, times[1:], total)
    if not (math.isfinite(q.backlog) and np.isfinite(backlog).all()):
        ends = np.isfinite(np.append(backlog[1:], q.backlog))
        raise SimulationError(
            f"divergence in queue block '{q.queue_id}' at "
            f"t={ticks[ends.argmin()]:.6f}")
    for col, values in zip(columns, (backlog, service, total, congested)):
        col[k0:k1] = values
    # the steps from the last block's reach: this block's own, then any
    # past k1, congested at capacity
    d0 = len(q.departures)
    d1 = _departure_reach(q, k1, barrier)
    own = slice(min(d0, k1) - k0, None)
    departed, flags, rates = service[own] * dt, congested[own], rates[:, own]
    ahead = d1 - max(d0, k1)
    if ahead > 0:
        departed = np.append(departed, np.full(ahead, q.capacity * dt))
        flags = np.append(flags, np.ones(ahead, dtype=bool))
        rates = np.hstack((rates, np.zeros((len(rates), ahead))))
    q.record_outputs(grid[d0], q.transport_outputs(grid[d0:d1 + 1], departed, rates, flags))
    return d1

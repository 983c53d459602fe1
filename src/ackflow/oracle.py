"""Independent ground truth for validating the fluid model.

Two unrelated routes to the same physics: a packet-level discrete-event
simulation (integer packets, FIFO service, per-packet timings) and an
analytic fixed point for steady-state queueing delays.  The fluid engine is
checked against them; neither shares code with it beyond the scenario
description, whose window controllers (``ScheduledProtocol``) the engine
and the packet simulation both run.  Both oracles read the validated
``Network`` (``to_network``), the one the engine runs on, so they refuse
what the engine refuses; neither reads the engine's traces.  The earlier
fluid models recovered from the engine's, by exact reduction (the
window-sum model of a static link) or approximation (the classic rate
model), are reference code in ``tests/test_reductions.py``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .protocol import FastProtocol
from .scenario import MAX_TICKS, ConstantProfile, Scenario, check_square_reach, to_network
from .topology import Network

__all__ = [
    "OracleError", "PacketEvent", "PacketSimResult", "SAMPLE_DT_S", "packet_sim",
    "EquilibriumResult", "equilibrium_queue",
]


class OracleError(RuntimeError):
    """Oracle could not handle the request (unsupported input, divergence)."""


# ---------------------------------------------------------------------------
# packet-level discrete-event simulation

@dataclass(frozen=True)
class PacketEvent:
    packet_id: int
    flow_id: str
    kind: str  # "send" | "enqueue" | "dequeue" | "ack"
    time_s: float


@dataclass
class PacketSimResult:
    sample_times: np.ndarray
    queue_lengths: dict[str, np.ndarray]
    dequeue_counts: dict[tuple[str, str], np.ndarray]  # cumulative, per (queue, flow)
    events: list[PacketEvent] | None = None


# the sample step: the engine's traces are compared with the packets' on it
SAMPLE_DT_S = 0.01


class _PQueue:
    __slots__ = ("qid", "service_s", "buf", "deq")

    def __init__(self, qid, capacity_pps, flow_ids):
        self.qid = qid
        self.service_s = 1.0 / capacity_pps
        # the packet in service stays at the head until it departs
        self.buf = deque()
        self.deq = {f: 0 for f in flow_ids}


def _emissions(profile, t: float):
    """The times after ``t`` at which the profile's cumulative mass crosses
    each next packet: a walk over its pieces by index, from the one
    holding ``t``.

    Emissions use the midpoint convention: the first packet leaves after
    half a packet of mass has accumulated, so the integer packet stream
    stays centered on the fluid mass it discretizes.  The walk ends when
    the profile never sends again.
    """
    h, need = profile.piece_at(t), 0.5
    while True:
        r, end = profile.piece(h)
        if r > 0:
            while t + need / r <= end:
                t += need / r
                yield t
                need = 1.0
            need -= (end - t) * r
        if end == math.inf:
            return
        # a piece that ends is a square wave's: skip the whole periods the
        # need spans but one, an even count of pieces
        h, t = h + 1, end
        mass = (profile.high_pps + profile.low_pps) * profile.period_s / 2.0
        if mass <= 0.0:
            return
        skip = math.floor(need / mass) - 1
        if skip > 0:
            h += 2 * skip
            t = h * (profile.period_s / 2.0)
            need -= skip * mass


def packet_sim(scenario: Scenario, *, warmup_s: float = 0.0,
               record_events: bool = False) -> PacketSimResult:
    """Event-driven packet simulation of a scenario.

    Sources with scheduled windows send whenever their flight size is below
    the window (one packet per ACK, bursts on window increases); FIFO queues
    serve one packet every 1/capacity seconds; channels delay; exogenous
    rate flows emit deterministically whenever their cumulative rate
    integral crosses an integer.  Fully deterministic: simultaneous events
    run in insertion order.  A sample reads the state before every event of
    its instant, the left limit: the backlog before that tick's arrivals and
    departures, as the engine's ``q.*`` holds it at each tick start.

    ``warmup_s`` starts the system that long before t=0 so it reaches its
    own steady state before the reported window; samples cover [0, horizon]
    every ``SAMPLE_DT_S``.  ``record_events`` keeps every packet's send,
    enqueue, dequeue and ACK, the one record of its send times.
    FAST-controlled users are not supported here (they are validated against
    the analytic fixed point instead).
    """
    # an infinite warm-up puts every event at -inf, so the run never ends
    if not math.isfinite(warmup_s):
        raise OracleError(f"warmup_s must be finite, got {warmup_s!r}")
    if warmup_s < 0:
        raise OracleError(f"warmup_s must be nonnegative, got {warmup_s!r}")
    horizon = scenario.run.horizon_s
    if not horizon / SAMPLE_DT_S < MAX_TICKS:
        raise OracleError(
            f"horizon_s={horizon!r} is {horizon / SAMPLE_DT_S!r} samples of "
            f"{SAMPLE_DT_S!r} s, too many for one run")
    t0 = -warmup_s
    net = to_network(scenario)
    check_square_reach(net.rate_flows.values(), horizon, warmup_s)
    users = net.users
    for u in users.values():
        if isinstance(u.protocol, FastProtocol):
            raise OracleError(
                f"user '{u.id}': the packet oracle only supports scheduled "
                "windows; validate FAST runs against the equilibrium oracle")

    queues = {qid: _PQueue(qid, q.capacity_pps, net.flows_through(qid))
              for qid, q in net.queues.items()}

    heap: list = []
    seq = 0

    def push(t, kind, data):
        nonlocal seq
        # a sample sorts before every event of its instant (the left limit)
        heapq.heappush(heap, (t, -1 if kind == "sample" else seq, kind, data))
        seq += 1

    events: list[PacketEvent] | None = [] if record_events else None
    flight = dict.fromkeys(users, 0)
    window = {uid: u.protocol.window_at(t0) for uid, u in users.items()}
    next_pid = 0

    def log(pid, fid, kind, t):
        if events is not None:
            events.append(PacketEvent(pid, fid, kind, t))

    def send_packet(uid, t):
        nonlocal next_pid
        pid = next_pid
        next_pid += 1
        flight[uid] += 1
        log(pid, uid, "send", t)
        u = users[uid]
        push(t + u.hop_delays_s[0], "arrive", (u, pid, 0))

    def fill_window(uid, t):
        while flight[uid] < int(window[uid] + 1e-9):
            send_packet(uid, t)

    # initial bursts, schedule steps, exogenous emissions, sampling chain
    for uid in window:
        fill_window(uid, t0)
    for uid, u in users.items():
        for ts, ws in u.protocol.steps:
            push(ts, "window", (uid, ws))
    for f in net.rate_flows.values():
        emissions = _emissions(f.profile, t0)
        first = next(emissions, None)
        if first is not None:
            push(first, "emit", (f, emissions))
    # the samples the loop below takes: each one's time at or before its stop
    stop = horizon + 1e-12
    n_samples = int(round(horizon / SAMPLE_DT_S)) + 1
    if (n_samples - 1) * SAMPLE_DT_S > stop:  # rounded up past the horizon
        n_samples -= 1
    sample_times = np.arange(n_samples) * SAMPLE_DT_S
    qlen = {qid: np.zeros(n_samples) for qid in queues}
    deq_counts = {(qid, fid): np.zeros(n_samples)
                  for qid, q in queues.items() for fid in q.deq}
    push(0.0, "sample", 0)

    while heap:
        t, _, kind, data = heapq.heappop(heap)
        if t > stop:
            break
        if kind == "arrive":
            f, pid, hop_idx = data
            q = queues[f.queue_path[hop_idx]]
            q.buf.append(data)
            log(pid, f.id, "enqueue", t)
            if len(q.buf) == 1:  # it found the server idle
                push(t + q.service_s, "depart", q.qid)
        elif kind == "depart":
            q = queues[data]
            f, pid, hop_idx = q.buf.popleft()
            q.deq[f.id] += 1
            log(pid, f.id, "dequeue", t)
            if q.buf:
                push(t + q.service_s, "depart", q.qid)
            if hop_idx + 1 < len(f.queue_path):
                push(t + f.hop_delays_s[hop_idx + 1], "arrive", (f, pid, hop_idx + 1))
            elif f.id in users:
                push(t + f.return_delay_s, "ack", (f.id, pid))
            # rate flows leave the network after their last queue
        elif kind == "ack":
            uid, pid = data
            flight[uid] -= 1
            log(pid, uid, "ack", t)
            fill_window(uid, t)
        elif kind == "window":
            uid, new_w = data
            window[uid] = new_w
            fill_window(uid, t)
        elif kind == "emit":
            f, emissions = data
            pid = next_pid
            next_pid += 1
            log(pid, f.id, "send", t)
            push(t + f.hop_delays_s[0], "arrive", (f, pid, 0))
            nxt = next(emissions, None)
            if nxt is not None and nxt <= stop:
                push(nxt, "emit", data)
        elif kind == "sample":
            k = data
            for qid, q in queues.items():
                qlen[qid][k] = len(q.buf)
                for fid, n in q.deq.items():
                    deq_counts[(qid, fid)][k] = n
            if k + 1 < n_samples:
                push((k + 1) * SAMPLE_DT_S, "sample", k + 1)

    return PacketSimResult(
        sample_times=sample_times,
        queue_lengths=qlen,
        dequeue_counts=deq_counts,
        events=events,
    )


# ---------------------------------------------------------------------------
# analytic steady state

@dataclass(frozen=True)
class EquilibriumResult:
    queueing_delays_s: dict[str, float]
    rates_pps: dict[str, float]  # each user's, then each rate flow's
    sweeps: int


# Gauss-Seidel sweeps before giving up, and the residual each queue must
# meet, relative to its capacity
MAX_SWEEPS = 100_000
TOL_FACTOR = 1e-9


def equilibrium_queue(network: Network) -> EquilibriumResult:
    """Steady-state queueing delays and per-flow rates.

    At equilibrium each user's rate is window / (propagation + queueing
    along its path), and every congested queue's arrivals exactly fill the
    capacity left over by the rate flows, whose profiles must be constant.
    Solved by Gauss-Seidel sweeps with a monotone bisection for each
    queue's delay; queues whose arrivals fit within capacity settle at zero
    delay.  The sweeps take the queues, and each queue's inflow sums its
    users, in sorted-id order, so the result does not depend on the order a
    scenario declares them in.  A user enters at its protocol's initial
    window, a FAST user too, so the engine's equilibrium start is that
    window's operating point, not FAST's fixed point.
    """
    flow_rates: dict[str, float] = {}
    cross = dict.fromkeys(network.queues, 0.0)
    for fid, f in network.rate_flows.items():
        if not isinstance(f.profile, ConstantProfile):
            raise OracleError(
                f"rate flow '{fid}': steady state undefined for a "
                "time-varying exogenous profile")
        flow_rates[fid] = f.profile.rate_pps
        for qid in f.queue_path:
            cross[qid] += flow_rates[fid]
    users = network.users
    w = {uid: u.protocol.initial_window_pkts for uid, u in users.items()}
    T = {uid: u.total_delay_s for uid, u in users.items()}
    circuits = {uid: u.queue_path for uid, u in users.items()}
    caps = {qid: q.capacity_pps for qid, q in network.queues.items()}
    users_at = {q: [u for u in sorted(circuits) if q in circuits[u]] for q in caps}
    targets = {}
    for q, c in caps.items():
        target = c - cross[q]
        if target <= 0:
            raise OracleError(f"queue '{q}': cross traffic saturates the capacity")
        targets[q] = target
    tau = {q: 0.0 for q in caps}

    def inflow(q, tq):
        s = 0.0
        for uid in users_at[q]:
            base = T[uid] + sum(tau[p] for p in circuits[uid] if p != q)
            s += w[uid] / (base + tq)
        return s

    for sweeps in range(1, MAX_SWEEPS + 1):
        for q in sorted(caps):
            target = targets[q]
            if not users_at[q] or inflow(q, 0.0) <= target:
                new = 0.0
            else:
                hi = max(tau[q], 1e-6)
                while inflow(q, hi) > target:
                    hi *= 2.0
                    if hi > 1e9:
                        raise OracleError(f"queue '{q}': no finite equilibrium delay")
                lo = 0.0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if inflow(q, mid) > target:
                        lo = mid
                    else:
                        hi = mid
                    if hi - lo <= 1e-15 + 1e-13 * hi:
                        break
                new = 0.5 * (lo + hi)
            tau[q] = new
        # residuals with the full, updated delay set
        max_resid = 0.0
        ok = True
        for q in caps:
            flow_in = inflow(q, tau[q])
            if tau[q] > 1e-12:
                resid = abs(flow_in - targets[q])
            else:
                resid = max(0.0, flow_in - targets[q])
            max_resid = max(max_resid, resid)
            if resid > TOL_FACTOR * caps[q]:
                ok = False
        if ok:
            break
    else:
        raise OracleError(
            f"equilibrium iteration did not converge in {MAX_SWEEPS} sweeps "
            f"(residual {max_resid:.3e} pkt/s)")

    rates = {uid: w[uid] / (T[uid] + sum(tau[p] for p in circuits[uid]))
             for uid in w}
    rates.update(flow_rates)
    return EquilibriumResult(tau, rates, sweeps)

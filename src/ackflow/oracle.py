"""Independent ground truth for validating the fluid model.

Two unrelated routes to the same physics: a packet-level discrete-event
simulation (integer packets, FIFO service, per-packet timings) and an
analytic fixed point for steady-state queueing delays.  The fluid engine is
checked against both; neither shares code with it beyond the scenario
description, whose window controllers (``ScheduledProtocol``) both run.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .protocol import FastProtocol
from .scenario import ConstantProfile, Scenario

__all__ = [
    "OracleError", "PacketEvent", "PacketSimResult", "packet_sim",
    "EquilibriumProblem", "EquilibriumResult", "equilibrium_queue",
    "equilibrium_from_scenario",
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
    send_times: dict[str, np.ndarray]
    events: list[PacketEvent] | None = None


class _PQueue:
    __slots__ = ("qid", "capacity", "service_s", "buf", "busy", "deq")

    def __init__(self, qid, capacity_pps, flow_ids):
        self.qid = qid
        self.capacity = capacity_pps
        self.service_s = 1.0 / capacity_pps
        self.buf = deque()
        self.busy = False
        self.deq = {f: 0 for f in flow_ids}


def _next_emission(profile, t: float, need: float = 1.0) -> float | None:
    """Time when the profile's cumulative mass next grows by ``need``.

    Emissions use the midpoint convention: the first packet leaves after
    half a packet of mass has accumulated, so the integer packet stream
    stays centered on the fluid mass it discretizes.
    """
    cur = t
    for _ in range(10000):
        r = profile.rate_at(cur)
        boundary = profile.next_change_after(cur)
        if r > 0:
            dt_need = need / r
            if cur + dt_need <= boundary:
                return cur + dt_need
            need -= (boundary - cur) * r
        if boundary == float("inf"):
            return None
        cur = boundary
    return None


def packet_sim(scenario: Scenario, *, sample_dt_s: float = 0.01,
               warmup_s: float = 0.0, record_events: bool = False) -> PacketSimResult:
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
    own steady state before the reported window; samples cover [0, horizon].
    FAST-controlled users are not supported here (they are validated against
    the analytic fixed point instead).
    """
    horizon = scenario.run.horizon_s
    t0 = -abs(warmup_s)

    flow_ids_by_queue = {q.id: [] for q in scenario.queues}
    routes: dict[str, tuple] = {}
    for u in scenario.users:
        if isinstance(u.protocol, FastProtocol):
            raise OracleError(
                f"user '{u.id}': the packet oracle only supports scheduled "
                "windows; validate FAST runs against the equilibrium oracle")
        routes[u.id] = (tuple(zip(u.hop_delays_s, u.queue_path)), u.return_delay_s)
        for qid in u.queue_path:
            flow_ids_by_queue[qid].append(u.id)
    for f in scenario.rate_flows:
        routes[f.id] = (tuple(zip(f.hop_delays_s, f.queue_path)), None)
        for qid in f.queue_path:
            flow_ids_by_queue[qid].append(f.id)

    queues = {q.id: _PQueue(q.id, q.capacity_pps, flow_ids_by_queue[q.id])
              for q in scenario.queues}

    heap: list = []
    seq = 0

    def push(t, kind, data):
        nonlocal seq
        # a sample sorts before every event of its instant (the left limit)
        heapq.heappush(heap, (t, -1 if kind == "sample" else seq, kind, data))
        seq += 1

    events: list[PacketEvent] | None = [] if record_events else None
    send_times: dict[str, list[float]] = {u.id: [] for u in scenario.users}
    flight = {u.id: 0 for u in scenario.users}
    window = {u.id: u.protocol.window_at(t0) for u in scenario.users}
    next_pid = 0

    def log(pid, fid, kind, t):
        if events is not None:
            events.append(PacketEvent(pid, fid, kind, t))

    def send_packet(uid, t):
        nonlocal next_pid
        pid = next_pid
        next_pid += 1
        flight[uid] += 1
        send_times[uid].append(t)
        log(pid, uid, "send", t)
        hops, _ = routes[uid]
        push(t + hops[0][0], "arrive", (uid, pid, 0))

    def fill_window(uid, t):
        while flight[uid] < int(window[uid] + 1e-9):
            send_packet(uid, t)

    # initial bursts, schedule steps, exogenous emissions, sampling chain
    for uid in window:
        fill_window(uid, t0)
    for u in scenario.users:
        for ts, ws in u.protocol.steps:
            push(ts, "window", (u.id, ws))
    for f in scenario.rate_flows:
        first = _next_emission(f.profile, t0, need=0.5)
        if first is not None:
            push(first, "emit", f.id)
    n_samples = int(round(horizon / sample_dt_s)) + 1
    sample_times = np.arange(n_samples) * sample_dt_s
    qlen = {qid: np.zeros(n_samples) for qid in queues}
    deq_counts = {(qid, fid): np.zeros(n_samples)
                  for qid, q in queues.items() for fid in q.deq}
    push(0.0, "sample", 0)

    while heap:
        t, _, kind, data = heapq.heappop(heap)
        if t > horizon + 1e-12:
            break
        if kind == "arrive":
            fid, pid, hop_idx = data
            hops, _ = routes[fid]
            q = queues[hops[hop_idx][1]]
            q.buf.append((fid, pid, hop_idx))
            log(pid, fid, "enqueue", t)
            if not q.busy:
                q.busy = True
                push(t + q.service_s, "depart", q.qid)
        elif kind == "depart":
            q = queues[data]
            fid, pid, hop_idx = q.buf.popleft()
            q.deq[fid] += 1
            log(pid, fid, "dequeue", t)
            if q.buf:
                push(t + q.service_s, "depart", q.qid)
            else:
                q.busy = False
            hops, return_delay = routes[fid]
            if hop_idx + 1 < len(hops):
                push(t + hops[hop_idx + 1][0], "arrive", (fid, pid, hop_idx + 1))
            elif return_delay is not None:
                push(t + return_delay, "ack", (fid, pid))
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
            fid = data
            pid = next_pid
            next_pid += 1
            log(pid, fid, "send", t)
            hops, _ = routes[fid]
            push(t + hops[0][0], "arrive", (fid, pid, 0))
            prof = next(f.profile for f in scenario.rate_flows if f.id == fid)
            nxt = _next_emission(prof, t)
            if nxt is not None and nxt <= horizon + 1e-12:
                push(nxt, "emit", fid)
        elif kind == "sample":
            k = data
            for qid, q in queues.items():
                qlen[qid][k] = len(q.buf)
                for fid, n in q.deq.items():
                    deq_counts[(qid, fid)][k] = n
            if k + 1 < n_samples:
                push((k + 1) * sample_dt_s, "sample", k + 1)

    return PacketSimResult(
        sample_times=sample_times,
        queue_lengths=qlen,
        dequeue_counts=deq_counts,
        send_times={u: np.asarray(v) for u, v in send_times.items()},
        events=events,
    )


# ---------------------------------------------------------------------------
# analytic steady state

@dataclass(frozen=True)
class EquilibriumProblem:
    windows_pkts: dict[str, float]
    total_delays_s: dict[str, float]
    circuits: dict[str, tuple[str, ...]]   # user id -> queue ids on its path
    capacities_pps: dict[str, float]
    cross_rates_pps: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class EquilibriumResult:
    queueing_delays_s: dict[str, float]
    rates_pps: dict[str, float]
    congested: dict[str, bool]
    sweeps: int
    max_residual_pps: float


def equilibrium_from_scenario(scenario: Scenario) -> EquilibriumProblem:
    cross: dict[str, float] = {}
    for f in scenario.rate_flows:
        if not isinstance(f.profile, ConstantProfile):
            raise OracleError(
                f"rate flow '{f.id}': steady state undefined for a "
                "time-varying exogenous profile")
        for qid in f.queue_path:
            cross[qid] = cross.get(qid, 0.0) + f.profile.rate_pps
    return EquilibriumProblem(
        windows_pkts={u.id: u.protocol.initial_window_pkts for u in scenario.users},
        total_delays_s={u.id: u.total_delay_s for u in scenario.users},
        circuits={u.id: u.queue_path for u in scenario.users},
        capacities_pps={q.id: q.capacity_pps for q in scenario.queues},
        cross_rates_pps=cross,
    )


# Gauss-Seidel sweeps before giving up, and the residual each queue must
# meet, relative to its capacity
MAX_SWEEPS = 100_000
TOL_FACTOR = 1e-9


def equilibrium_queue(problem: EquilibriumProblem) -> EquilibriumResult:
    """Steady-state queueing delays and per-user rates.

    At equilibrium each user's rate is window / (propagation + queueing
    along its path), and every congested queue's arrivals exactly fill the
    capacity left over by cross traffic.  Solved by Gauss-Seidel sweeps
    with a monotone bisection for each queue's delay; queues whose arrivals
    fit within capacity settle at zero delay.
    """
    w = problem.windows_pkts
    T = problem.total_delays_s
    circuits = problem.circuits
    caps = problem.capacities_pps
    users_at = {q: [u for u, path in circuits.items() if q in path] for q in caps}
    targets = {}
    for q, c in caps.items():
        target = c - problem.cross_rates_pps.get(q, 0.0)
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
        for q in caps:
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
    congested = {q: tau[q] > 1e-12 for q in caps}
    return EquilibriumResult(tau, rates, congested, sweeps, max_resid)

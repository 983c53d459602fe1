"""Network validation and ordering over the scenario's flow descriptions.

The flow types, ``QueueConf``, ``UserConf`` and ``RateFlowConf``, are
defined once, in ``scenario``; this module reads only their ids,
capacities, queue paths and channel delays, so it imports nothing from
there.  A user's closed circuit is its ``UserConf``: hop channels into
each queue on the path, then the return channel back to the user.  A
``Network`` indexes those objects by id, checks each one as it is added,
and keeps a causal evaluation order for the queues.
"""

from __future__ import annotations

__all__ = ["TopologyError", "Network", "build_network"]


class TopologyError(ValueError):
    """Invalid network description; the offending element is named.

    ``field`` is the attribute of the element at fault (``id``,
    ``queue_path``, ``hop_delays_s``, ...), or None when no single one is.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class Network:
    """Queues and flows by id, in declaration order; validated as added."""

    def __init__(self):
        self.queues: dict = {}      # id -> QueueConf
        self.users: dict = {}       # id -> UserConf
        self.rate_flows: dict = {}  # id -> RateFlowConf
        self.queue_order: tuple[str, ...] = ()  # the engine's sweep order

    def add_queue(self, q) -> None:
        if q.id in self.queues:
            raise TopologyError(f"duplicate queue id '{q.id}'", "id")
        if q.capacity_pps <= 0:
            raise TopologyError(f"queue '{q.id}' capacity must be positive",
                                "capacity_pps")
        self.queues[q.id] = q
        self.queue_order += (q.id,)

    def add_user(self, u) -> None:
        order = self.check_route("user", u.id, u.queue_path, u.hop_delays_s)
        if u.return_delay_s < 0:
            raise TopologyError(f"user '{u.id}' has a negative return delay",
                                "return_delay_s")
        if u.total_delay_s <= 0:
            raise TopologyError(
                f"user '{u.id}' circuit has zero total propagation delay; "
                "at least one channel must be strictly positive")
        self.queue_order = order
        self.users[u.id] = u

    def add_rate_flow(self, f) -> None:
        """An exogenous open-loop flow: enters its first queue after
        ``hop_delays_s[0]``, leaves after its last queue, is never acknowledged."""
        self.queue_order = self.check_route(
            "rate flow", f.id, f.queue_path, f.hop_delays_s)
        self.rate_flows[f.id] = f

    def check_route(self, kind: str, fid: str, path, hops) -> tuple[str, ...]:
        """Check a new flow's id and route; returns the queue order with it.

        The order is topological over zero-delay inter-queue channels: a
        queue fed through one needs its upstream queue evaluated first
        within the same tick; positive delays impose nothing.
        """
        if fid in self.users or fid in self.rate_flows:
            raise TopologyError(f"duplicate flow id '{fid}' ({kind})", "id")
        if not path:
            raise TopologyError(f"{kind} '{fid}' has an empty queue path", "queue_path")
        seen = set()
        for qid in path:
            if qid not in self.queues:
                raise TopologyError(
                    f"{kind} '{fid}' references unknown queue '{qid}'", "queue_path")
            if qid in seen:
                raise TopologyError(
                    f"{kind} '{fid}' traverses buffer '{qid}' twice (unsupported)",
                    "queue_path")
            seen.add(qid)
        if len(hops) != len(path):
            raise TopologyError(
                f"{kind} '{fid}': {len(path)} queues but {len(hops)} hop delays",
                "hop_delays_s")
        if any(d < 0 for d in hops):
            raise TopologyError(f"{kind} '{fid}' has a negative channel delay",
                                "hop_delays_s")
        if 0.0 not in hops[1:]:
            return self.queue_order  # the route adds no same-tick dependency

        ids = list(self.queues)
        deps: dict[str, set[str]] = {q: set() for q in ids}
        routes = [(f.queue_path, f.hop_delays_s)
                  for f in (*self.users.values(), *self.rate_flows.values())]
        for p, h in (*routes, (path, hops)):
            for i in range(1, len(p)):
                if h[i] == 0.0:
                    deps[p[i]].add(p[i - 1])
        order: list[str] = []
        ready = [q for q in ids if not deps[q]]
        while ready:
            q = ready.pop(0)
            order.append(q)
            for other in ids:
                if q in deps[other]:
                    deps[other].discard(q)
                    if not deps[other] and other not in order and other not in ready:
                        ready.append(other)
        if len(order) != len(ids):
            stuck = sorted(set(ids) - set(order))
            raise TopologyError(
                f"{kind} '{fid}' closes a zero-delay channel cycle through queues "
                f"{stuck}; insert a positive propagation delay", "hop_delays_s")
        return tuple(order)

    def flows_through(self, queue_id: str) -> tuple[str, ...]:
        """Flow ids entering a queue, in deterministic declaration order."""
        out = []
        for uid, u in self.users.items():
            if queue_id in u.queue_path:
                out.append(uid)
        for fid, f in self.rate_flows.items():
            if queue_id in f.queue_path:
                out.append(fid)
        return tuple(out)

    def channel_delays_s(self) -> tuple[float, ...]:
        """Every channel delay: users' hops then return, then rate flows' hops.

        The engine sums these for the history its pruning must keep; the
        fixed order keeps that float sum reproducible.
        """
        delays: list[float] = []
        for u in self.users.values():
            delays.extend(u.hop_delays_s)
            delays.append(u.return_delay_s)
        for f in self.rate_flows.values():
            delays.extend(f.hop_delays_s)
        return tuple(delays)

    def min_positive_delay_s(self) -> float | None:
        delays = [d for d in self.channel_delays_s() if d > 0]
        return min(delays) if delays else None


def build_network(queues, users, rate_flows=()) -> Network:
    """Index the scenario's queue, user and rate-flow objects, checking each."""
    net = Network()
    for q in queues:
        net.add_queue(q)
    for u in users:
        net.add_user(u)
    for f in rate_flows:
        net.add_rate_flow(f)
    return net

"""Network validation over the scenario's flow descriptions.

The flow types, ``QueueConf``, ``UserConf`` and ``RateFlowConf``, are
defined once, in ``scenario``; this module reads only their ids,
capacities, queue paths and channel delays, so it imports nothing from
there.  A user's closed circuit is its ``UserConf``: hop channels into
each queue on the path, then the return channel back to the user.  A
``Network`` indexes those objects by id and checks each one as it is
added; the engine walks the circuits and sums their delays.
"""

from __future__ import annotations

import graphlib
import math

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

    def add_queue(self, q) -> None:
        _check_id("queue", q.id)
        if q.id in self.queues:
            raise TopologyError(f"duplicate queue id '{q.id}'", "id")
        if not 0 < q.capacity_pps < math.inf:  # NaN fails too
            what = "positive" if q.capacity_pps <= 0 else "finite"
            raise TopologyError(f"queue '{q.id}' capacity must be {what}", "capacity_pps")
        self.queues[q.id] = q

    def add_user(self, u) -> None:
        self.check_route("user", u.id, u.queue_path, u.hop_delays_s)
        if not 0 <= u.return_delay_s < math.inf:  # NaN fails too
            what = "negative" if u.return_delay_s < 0 else "non-finite"
            raise TopologyError(f"user '{u.id}' has a {what} return delay",
                                "return_delay_s")
        if u.total_delay_s <= 0:
            raise TopologyError(
                f"user '{u.id}' circuit has zero total propagation delay; "
                "at least one channel must be strictly positive")
        self.users[u.id] = u

    def add_rate_flow(self, f) -> None:
        """An exogenous open-loop flow: enters its first queue after
        ``hop_delays_s[0]``, leaves after its last queue, is never acknowledged."""
        self.check_route("rate flow", f.id, f.queue_path, f.hop_delays_s)
        self.rate_flows[f.id] = f

    def check_route(self, kind: str, fid: str, path, hops) -> None:
        """Check a new flow's id and route.

        A route may not close a cycle of zero-delay channels between
        queues with the routes already added: around such a cycle no queue
        could advance before the others.
        """
        _check_id(kind, fid)
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
        for d in hops:
            if not 0 <= d < math.inf:  # NaN fails too
                what = "negative" if d < 0 else "non-finite"
                raise TopologyError(f"{kind} '{fid}' has a {what} channel delay",
                                    "hop_delays_s")
        if 0.0 not in hops[1:]:
            return  # the route adds no zero-delay channel between queues
        upstream: dict[str, set[str]] = {}
        routes = [(f.queue_path, f.hop_delays_s)
                  for f in (*self.users.values(), *self.rate_flows.values())]
        for p, h in (*routes, (path, hops)):
            for i in range(1, len(p)):
                if h[i] == 0.0:
                    upstream.setdefault(p[i], set()).add(p[i - 1])
        try:
            graphlib.TopologicalSorter(upstream).prepare()
        except graphlib.CycleError as err:
            raise TopologyError(
                f"{kind} '{fid}' closes a zero-delay channel cycle through queues "
                f"{sorted(set(err.args[1]))}; insert a positive propagation delay",
                "hop_delays_s") from None

    def flows_through(self, queue_id: str) -> tuple[str, ...]:
        """Flow ids entering a queue: users, then rate flows, as declared."""
        return tuple(fid for flows in (self.users, self.rate_flows)
                     for fid, f in flows.items() if queue_id in f.queue_path)


def _check_id(kind: str, cid: str) -> None:
    """Refuse an id with a ``.``: trace names join ids with it, so two
    elements could share a trace name and one of the traces be lost."""
    if "." in cid:
        raise TopologyError(f"{kind} id '{cid}' contains '.', the trace name separator",
                            "id")


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

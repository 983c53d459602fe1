"""Network description: queues and the flows that cross them.

Users, FIFO buffers and exogenous (cross-traffic style) sources are declared
by the queue path their packets take and the channel delay before each
queue.  A user's closed circuit is its ``UserSpec``: hop channels into each
queue on the path, then the return channel back to the user.  Building the
network validates the description and fixes a causal evaluation order for
the queues.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "TopologyError", "Network", "QueueSpec", "UserSpec", "RateFlowSpec",
    "build_network",
]


class TopologyError(ValueError):
    """Invalid network description; the offending element is named."""


@dataclass(frozen=True)
class QueueSpec:
    id: str
    capacity_pps: float  # service rate, packets per second


@dataclass(frozen=True)
class UserSpec:
    """Window-controlled source and the queue path its packets traverse."""

    id: str
    queue_path: tuple[str, ...]
    hop_delays_s: tuple[float, ...]  # channel delay before each queue
    return_delay_s: float            # last queue output -> user input

    @property
    def total_delay_s(self) -> float:
        return sum(self.hop_delays_s) + self.return_delay_s


@dataclass(frozen=True)
class RateFlowSpec:
    """Exogenous open-loop flow (cross traffic, prescribed demos).

    Enters its first queue after ``hop_delays_s[0]`` and leaves the network
    after its last queue; nothing is acknowledged.
    """

    id: str
    queue_path: tuple[str, ...]
    hop_delays_s: tuple[float, ...]


@dataclass
class Network:
    queues: dict[str, QueueSpec]
    users: dict[str, UserSpec]
    rate_flows: dict[str, RateFlowSpec]
    queue_order: tuple[str, ...]  # causal evaluation order per tick

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


def _check_path(kind: str, fid: str, path, hops, queues) -> None:
    if not path:
        raise TopologyError(f"{kind} '{fid}' has an empty queue path")
    if len(hops) != len(path):
        raise TopologyError(
            f"{kind} '{fid}': {len(path)} queues but {len(hops)} hop delays")
    seen = set()
    for qid in path:
        if qid not in queues:
            raise TopologyError(f"{kind} '{fid}' references unknown queue '{qid}'")
        if qid in seen:
            raise TopologyError(
                f"{kind} '{fid}' traverses buffer '{qid}' twice (unsupported)")
        seen.add(qid)
    for d in hops:
        if d < 0:
            raise TopologyError(f"{kind} '{fid}' has a negative channel delay")


def _queue_eval_order(queues, users, rate_flows) -> tuple[str, ...]:
    """Topological order over zero-delay inter-queue channels.

    A queue fed through a zero-delay channel needs its upstream queue
    evaluated first within the same tick; positive delays impose nothing.
    """
    ids = list(queues)
    deps: dict[str, set[str]] = {q: set() for q in ids}
    for spec in list(users.values()) + list(rate_flows.values()):
        path, hops = spec.queue_path, spec.hop_delays_s
        for i in range(1, len(path)):
            if hops[i] == 0.0:
                deps[path[i]].add(path[i - 1])
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
            f"zero-delay channel cycle through queues {stuck}; "
            "insert a positive propagation delay")
    return tuple(order)


def build_network(
    queues: list[QueueSpec],
    users: list[UserSpec],
    rate_flows: list[RateFlowSpec] = (),
) -> Network:
    """Validate the description and fix the queue evaluation order."""
    qmap: dict[str, QueueSpec] = {}
    for q in queues:
        if q.id in qmap:
            raise TopologyError(f"duplicate queue id '{q.id}'")
        if q.capacity_pps <= 0:
            raise TopologyError(f"queue '{q.id}' capacity must be positive")
        qmap[q.id] = q

    umap: dict[str, UserSpec] = {}
    fmap: dict[str, RateFlowSpec] = {}
    flow_ids: set[str] = set()
    for u in users:
        if u.id in flow_ids:
            raise TopologyError(f"duplicate flow id '{u.id}'")
        flow_ids.add(u.id)
        _check_path("user", u.id, u.queue_path, u.hop_delays_s, qmap)
        if u.return_delay_s < 0:
            raise TopologyError(f"user '{u.id}' has a negative return delay")
        if u.total_delay_s <= 0:
            raise TopologyError(
                f"user '{u.id}' circuit has zero total propagation delay; "
                "at least one channel must be strictly positive")
        umap[u.id] = u
    for f in rate_flows:
        if f.id in flow_ids:
            raise TopologyError(f"duplicate flow id '{f.id}'")
        flow_ids.add(f.id)
        _check_path("rate flow", f.id, f.queue_path, f.hop_delays_s, qmap)
        fmap[f.id] = f

    return Network(queues=qmap, users=umap, rate_flows=fmap,
                   queue_order=_queue_eval_order(qmap, umap, fmap))

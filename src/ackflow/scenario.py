"""Scenario descriptions: topology, protocols, traffic and run settings.

This module owns the flow types: ``QueueConf``, ``UserConf`` and
``RateFlowConf`` describe each queue, user and rate flow once, and the
same objects are the network (``topology`` checks their ids, paths and
delays).  A user's ``protocol`` is one of the controllers of ``protocol``
(``ScheduledProtocol``, ``FastProtocol``), re-exported here: the one
description that the engine and the packet oracle both run.  ``RunConf``
holds the run settings.  Each description checks itself where it is
built, from Python or from a document: the controllers, the profiles,
``RunConf`` and a user's protocol kind in their constructors, a route and
its delays in the ``Network`` they join.  A fault names the attribute at
fault, where one is, as its ``field``, and no reader of a description
re-checks it.

One YAML document describes a run.  Keys carry explicit units
(``capacity_mbps``, ``hop_delays_ms``) and everything is normalized to
packets and seconds on load; capacities given in Mb/s are converted with
the scenario's packet size (bits per second divided by 8 * packet bytes).
The parser checks what only the document holds (its keys and types, and
the units and fractions it converts).  It adds each entry to a ``Network``
as it reads it and builds each description, and only maps a fault's
``field`` to the entry's key, so the message names the key.
Serialization emits the canonical normalized form, which parses back to an
identical scenario.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from .history import grid_index
from .protocol import FastProtocol, ProtocolError, ScheduledProtocol
from .topology import Network, TopologyError, build_network

__all__ = [
    "Scenario", "QueueConf", "UserConf", "RateFlowConf", "RunConf",
    "ScheduledProtocol", "FastProtocol", "ConstantProfile", "SquareProfile",
    "ScenarioError", "parse_scenario", "serialize_scenario", "load_scenario",
    "preset_names", "mbps_to_pps", "to_network",
]


# ticks of one run, and samples of one packet run, must stay below this
MAX_TICKS = 2.0 ** 60


class ScenarioError(ValueError):
    """Malformed scenario; the message names the offending field, and
    ``field`` the description's attribute at fault, or None."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def mbps_to_pps(mbps: float, packet_bytes: int) -> float:
    return mbps * 1e6 / (8.0 * packet_bytes)


@dataclass(frozen=True)
class QueueConf:
    id: str
    capacity_pps: float


@dataclass(frozen=True)
class UserConf:
    id: str
    queue_path: tuple[str, ...]
    hop_delays_s: tuple[float, ...]
    return_delay_s: float
    protocol: ScheduledProtocol | FastProtocol

    def __post_init__(self):
        if not isinstance(self.protocol, (ScheduledProtocol, FastProtocol)):
            raise ScenarioError(
                f"user '{self.id}': unsupported protocol {self.protocol!r}", "protocol")

    @property
    def total_delay_s(self) -> float:
        return sum(self.hop_delays_s) + self.return_delay_s


@dataclass(frozen=True)
class ConstantProfile:
    rate_pps: float
    kind: str = field(default="constant", init=False)

    def __post_init__(self):
        if not 0 <= self.rate_pps < math.inf:  # NaN fails too
            raise ScenarioError(
                f"rate must be finite and nonnegative, got {self.rate_pps!r}")

    def rates_at(self, t) -> np.ndarray:
        """The rate at each of the times ``t``."""
        return np.full(np.shape(t), float(self.rate_pps))

    def piece_at(self, t: float) -> int:
        """The piece holding ``t``."""
        return 0

    def counts_pieces_to(self, t: float) -> bool:
        """Whether every time in ``[-t, t]`` has a piece index: one piece."""
        return True

    def piece(self, h: int) -> tuple[float, float]:
        """The rate of piece ``h`` and its end: one piece, which never ends."""
        return self.rate_pps, math.inf


@dataclass(frozen=True)
class SquareProfile:
    """Square wave alternating between two rates, half a period each: piece
    ``h`` holds ``[h * half, (h + 1) * half)`` by ``grid_index``'s rule, with
    ``half = period_s / 2``, and runs at ``high_pps`` where ``(h % 2 == 0)
    == start_high``, at ``low_pps`` elsewhere."""

    high_pps: float
    low_pps: float
    period_s: float
    start_high: bool = True
    kind: str = field(default="square", init=False)

    def __post_init__(self):
        # NaN fails each test
        if not (0 <= self.high_pps < math.inf and 0 <= self.low_pps < math.inf):
            raise ScenarioError(f"rates must be finite and nonnegative, got "
                                f"{self.high_pps!r} and {self.low_pps!r}")
        if not 0 < self.period_s < math.inf:
            raise ScenarioError(
                f"period_s must be finite and positive, got {self.period_s!r}")

    def _high(self, h):
        return (h % 2 == 0) == self.start_high

    def rates_at(self, t) -> np.ndarray:
        """The rate at each of the times ``t``."""
        return np.where(self._high(grid_index(t, self.period_s / 2.0)),
                        float(self.high_pps), float(self.low_pps))

    def piece_at(self, t: float) -> int:
        """The piece holding ``t``."""
        return int(grid_index(t, self.period_s / 2.0))

    def counts_pieces_to(self, t: float) -> bool:
        """Whether every time in ``[-t, t]`` has an int64 piece index, with
        room for ``grid_index``'s neighbour ``h + 1``: ``t / half`` below
        2**62.  Past it the index is garbage, and so is the rate."""
        return t / (self.period_s / 2.0) < 2.0 ** 62

    def piece(self, h: int) -> tuple[float, float]:
        """The rate of piece ``h`` and its end."""
        rate = self.high_pps if self._high(h) else self.low_pps
        return rate, (h + 1) * (self.period_s / 2.0)


@dataclass(frozen=True)
class RateFlowConf:
    id: str
    queue_path: tuple[str, ...]
    hop_delays_s: tuple[float, ...]
    profile: ConstantProfile | SquareProfile


def check_square_reach(rate_flows, horizon_s: float, warmup_s: float = 0.0) -> None:
    """Refuse a rate flow whose profile cannot index its pieces at every time
    a model reads it: up to ``horizon_s``, and back to its first hop (the
    engine's reads) or ``warmup_s`` (the packet oracle's start) before 0."""
    for f in rate_flows:
        reach = max(horizon_s, warmup_s, f.hop_delays_s[0])
        if not f.profile.counts_pieces_to(reach):
            raise ScenarioError(
                f"rate flow '{f.id}': period_s={f.profile.period_s!r} is too short to "
                f"index its half periods up to t={reach!r}", "period_s")


@dataclass(frozen=True)
class RunConf:
    dt_s: float = 1e-4  # the engine refuses more than its smallest positive delay / 10
    horizon_s: float = 10.0
    init: str = "cold"  # "cold" | "equilibrium"

    def __post_init__(self):
        for name in ("dt_s", "horizon_s"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ScenarioError(f"{name} must be finite and positive, "
                                    f"got {getattr(self, name)!r}", name)
        if not self.horizon_s / self.dt_s < MAX_TICKS:
            raise ScenarioError(
                f"horizon_s / dt_s is {self.horizon_s / self.dt_s!r} ticks, too many for "
                f"one run (horizon_s={self.horizon_s!r}, dt_s={self.dt_s!r})", "horizon_s")
        if self.init not in ("cold", "equilibrium"):
            raise ScenarioError(f"must be 'cold' or 'equilibrium', got {self.init!r}", "init")


@dataclass(frozen=True)
class Scenario:
    name: str
    packet_bytes: int
    queues: tuple[QueueConf, ...]
    users: tuple[UserConf, ...] = ()
    rate_flows: tuple[RateFlowConf, ...] = ()
    run: RunConf = field(default_factory=RunConf)


def to_network(scenario: Scenario) -> Network:
    return build_network(scenario.queues, scenario.users, scenario.rate_flows)


# ---------------------------------------------------------------------------
# parsing

def _err(path: str, msg: str) -> ScenarioError:
    return ScenarioError(f"{path}: {msg}")


def _take(d: dict, path: str, key: str, required=True, default=None):
    if key in d:
        return d.pop(key)
    if required:
        raise _err(path, f"missing required key '{key}'")
    return default


def _no_leftovers(d: dict, path: str):
    if d:
        raise _err(path, f"unknown key(s) {sorted(d)}")


def _number(x, path: str) -> float:
    """A finite number as float; non-numbers, .nan and .inf are refused."""
    if not isinstance(x, bool) and isinstance(x, (int, float)):
        try:
            v = float(x)
        except OverflowError:
            v = math.inf
        if math.isfinite(v):
            return v
    raise _err(path, f"expected a finite number, got {x!r}")


def _name(x, path: str) -> str:
    if not isinstance(x, str):
        raise _err(path, f"expected a name, got {x!r}")
    return x


def _mapping(x, path: str) -> dict:
    if not isinstance(x, dict):
        raise _err(path, f"expected a mapping, got {x!r}")
    return dict(x)


def _list(x, path: str) -> list:
    if not isinstance(x, list):
        raise _err(path, f"expected a list, got {x!r}")
    return x


def _section(doc: dict, key: str) -> list:
    """An optional top-level list of mappings, e.g. ``users``."""
    items = _list(_take(doc, "scenario", key, required=False, default=[]), key)
    return [_mapping(x, f"{key}[{i}]") for i, x in enumerate(items)]


def _validated(path: str, check, *args, keys: dict | None = None):
    """Run a description's own checks, naming the field; returns what
    ``check`` returns.

    ``keys`` maps the attribute a fault names to the entry's key in the
    document, e.g. ``queue_path`` to ``path``; without it, the key is the
    attribute.
    """
    try:
        return check(*args)
    except (ProtocolError, ScenarioError, TopologyError) as e:
        key = e.field if keys is None else keys.get(e.field)
        raise _err(f"{path}.{key}" if key else path, str(e)) from None


def _rate_pps(d: dict, path: str, prefix: str, packet_bytes: int,
              capacity_pps: float | None = None) -> tuple[float, str]:
    """One rate given as _pps, _mbps, or a fraction of ``capacity_pps``, in
    packets per second, and the key it came in; without a capacity a
    fraction is refused."""
    options = [f"{prefix}_pps", f"{prefix}_mbps"]
    if capacity_pps is not None:
        options.append(f"{prefix}_fraction")
    elif f"{prefix}_fraction" in d:
        raise _err(f"{path}.{prefix}_fraction", "no capacity to take a fraction "
                                                f"of; give {' or '.join(options)}")
    keys = [k for k in options if k in d]
    if len(keys) != 1:
        raise _err(path, f"give exactly one of {' / '.join(options)} "
                         f"(got {keys or 'none'})")
    key = keys[0]
    val = _number(d.pop(key), f"{path}.{key}")
    if val < 0:
        raise _err(f"{path}.{key}", "must be nonnegative")
    if key.endswith("_pps"):
        return val, key
    if key.endswith("_mbps"):
        val = mbps_to_pps(val, packet_bytes)
        if not math.isfinite(val):
            raise _err(f"{path}.{key}", f"converts to {val!r} pkt/s, not a finite rate")
        return val, key
    if not 0.0 <= val < 1.0:
        raise _err(f"{path}.{key}", "must lie in [0, 1)")
    return val * capacity_pps, key


def _parse_protocol(d, path: str):
    d = _mapping(d, path)
    kind = _take(d, path, "kind")
    if kind not in ("scheduled", "fast"):
        raise _err(path, f"unknown protocol kind '{kind}'")
    w0 = _number(_take(d, path, "initial_window_pkts"), f"{path}.initial_window_pkts")
    if kind == "scheduled":
        raw_steps = _list(_take(d, path, "steps", required=False, default=[]),
                          f"{path}.steps")
        steps = []
        for i, s in enumerate(raw_steps):
            sp = f"{path}.steps[{i}]"
            s = _mapping(s, sp)
            at = _number(_take(s, sp, "at_s"), f"{sp}.at_s")
            w = _number(_take(s, sp, "window_pkts"), f"{sp}.window_pkts")
            _no_leftovers(s, sp)
            steps.append((at, w))
        _no_leftovers(d, path)
        return _validated(path, ScheduledProtocol, w0, tuple(steps))
    gamma = _number(_take(d, path, "gamma"), f"{path}.gamma")
    alpha = _number(_take(d, path, "alpha_pkts"), f"{path}.alpha_pkts")
    _no_leftovers(d, path)
    return _validated(path, FastProtocol, gamma, alpha, w0)


def _delays_s(d: dict, path: str, prefix: str, listed: bool):
    """One of <prefix>_s / <prefix>_ms in seconds, and the key it came in.

    With ``listed`` the value is a tuple, one delay per queue; a single
    number stands for a one-entry list.
    """
    keys = [k for k in (f"{prefix}_s", f"{prefix}_ms") if k in d]
    if len(keys) != 1:
        raise _err(path, f"give exactly one of {prefix}_s / {prefix}_ms")
    key = keys[0]
    scale = 1.0 if key.endswith("_s") else 1e-3
    raw = d.pop(key)
    if listed and isinstance(raw, list):
        return tuple(_number(x, f"{path}.{key}[{i}]") * scale
                     for i, x in enumerate(raw)), key
    value = _number(raw, f"{path}.{key}") * scale
    return ((value,) if listed else value), key


def _queue_path(raw, path: str) -> tuple[str, ...]:
    return tuple(_name(q, f"{path}[{i}]") for i, q in enumerate(_list(raw, path)))


class _UniqueKeys:
    """Loader mixin that refuses a mapping repeating a key, of which PyYAML
    would keep the last value; a key merged in by ``<<`` may still be
    overridden, as YAML's merge allows."""

    def construct_mapping(self, node, deep=False):
        pairs = node.value if isinstance(node, yaml.MappingNode) else ()
        own = sum(k.tag != "tag:yaml.org,2002:merge" for k, _ in pairs)
        mapping = super().construct_mapping(node, deep)  # merged pairs first
        if len(mapping) < len(node.value):
            seen = set()
            # each key is built once: construct_object answers from its cache
            for key_node, _ in node.value[len(node.value) - own:]:
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return mapping


class _Loader(_UniqueKeys, yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """The safe loader on libyaml where PyYAML was built with it, else in
    pure Python, refusing repeated keys."""


def parse_scenario(text: str) -> Scenario:
    """Parse and validate one YAML scenario document."""
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as e:
        raise ScenarioError(f"invalid YAML: {e}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario file must contain a YAML mapping")
    doc = dict(doc)

    name = _name(_take(doc, "scenario", "name"), "name")
    packet_bytes = _take(doc, "scenario", "packet_bytes")
    # a YAML true is an int to isinstance, not a packet size; a size past
    # the float range cannot convert a Mb/s rate
    if (not isinstance(packet_bytes, int) or isinstance(packet_bytes, bool)
            or not 0 < packet_bytes <= sys.float_info.max):
        raise _err("packet_bytes", "must be a positive integer within the float range")

    # every entry joins the network as it is read, so the topology's own
    # checks run on it and a fault names the entry's field
    net = Network()
    for i, q in enumerate(_list(_take(doc, "scenario", "queues"), "queues")):
        path = f"queues[{i}]"
        q = _mapping(q, path)
        qid = _name(_take(q, path, "id"), f"{path}.id")
        cap, cap_key = _rate_pps(q, path, "capacity", packet_bytes)
        _no_leftovers(q, path)
        _validated(path, net.add_queue, QueueConf(qid, cap),
                   keys={"id": "id", "capacity_pps": cap_key})

    for i, u in enumerate(_section(doc, "users")):
        path = f"users[{i}]"
        uid = _name(_take(u, path, "id"), f"{path}.id")
        qpath = _queue_path(_take(u, path, "path"), f"{path}.path")
        hops, hop_key = _delays_s(u, path, "hop_delays", listed=True)
        ret, ret_key = _delays_s(u, path, "return_delay", listed=False)
        proto = _parse_protocol(_take(u, path, "protocol"), f"{path}.protocol")
        _no_leftovers(u, path)
        _validated(path, net.add_user, UserConf(uid, qpath, hops, ret, proto),
                   keys={"id": "id", "queue_path": "path", "hop_delays_s": hop_key,
                         "return_delay_s": ret_key})

    for i, f in enumerate(_section(doc, "rate_flows")):
        path = f"rate_flows[{i}]"
        fid = _name(_take(f, path, "id"), f"{path}.id")
        qpath = _queue_path(_take(f, path, "path"), f"{path}.path")
        hops, hop_key = _delays_s(f, path, "hop_delays", listed=True)
        # a capacity fraction needs the first queue, so check the route first
        _validated(path, net.check_route, "rate flow", fid, qpath, hops,
                   keys={"id": "id", "queue_path": "path", "hop_delays_s": hop_key})
        cap_of_first = net.queues[qpath[0]].capacity_pps
        ppath = f"{path}.profile"
        praw = _mapping(_take(f, path, "profile"), ppath)
        pkind = _take(praw, ppath, "kind")
        if pkind == "constant":
            rate, _ = _rate_pps(praw, ppath, "rate", packet_bytes, cap_of_first)
            profile = ConstantProfile(rate)
        elif pkind == "square":
            high, _ = _rate_pps(praw, ppath, "high", packet_bytes, cap_of_first)
            low, _ = _rate_pps(praw, ppath, "low", packet_bytes, cap_of_first)
            period = _number(_take(praw, ppath, "period_s"), f"{ppath}.period_s")
            start_high = _take(praw, ppath, "start_high", required=False, default=True)
            if not isinstance(start_high, bool):
                raise _err(f"{ppath}.start_high", f"expected true or false, got {start_high!r}")
            profile = _validated(ppath, SquareProfile, high, low, period, start_high)
        else:
            raise _err(ppath, f"unknown profile kind '{pkind}'")
        _no_leftovers(praw, ppath)
        _no_leftovers(f, path)
        net.add_rate_flow(RateFlowConf(fid, qpath, hops, profile))

    run_raw = _mapping(_take(doc, "scenario", "run", required=False, default={}), "run")
    dt = _number(_take(run_raw, "run", "dt_s", required=False, default=RunConf.dt_s),
                 "run.dt_s")
    horizon = _number(_take(run_raw, "run", "horizon_s", required=False,
                            default=RunConf.horizon_s), "run.horizon_s")
    init = _take(run_raw, "run", "init", required=False, default=RunConf.init)
    run = _validated("run", RunConf, dt, horizon, init)
    if init == "equilibrium":
        for fid, f in net.rate_flows.items():
            if not isinstance(f.profile, ConstantProfile):
                raise _err("run.init", f"an equilibrium start needs constant rate "
                                       f"flows, and rate flow '{fid}' varies in time")
    _no_leftovers(run_raw, "run")

    _no_leftovers(doc, "scenario")
    return Scenario(name, packet_bytes, tuple(net.queues.values()),
                    tuple(net.users.values()), tuple(net.rate_flows.values()), run)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical YAML form; parsing it back yields an identical scenario."""
    doc = {
        "name": scenario.name,
        "packet_bytes": scenario.packet_bytes,
        "queues": [{"id": q.id, "capacity_pps": q.capacity_pps}
                   for q in scenario.queues],
        "users": [],
        "rate_flows": [],
        "run": {"dt_s": scenario.run.dt_s, "horizon_s": scenario.run.horizon_s,
                "init": scenario.run.init},
    }
    # each controller and profile as its fields, ``kind`` among them, which
    # are the document's keys but for a schedule's steps
    for u in scenario.users:
        proto = asdict(u.protocol)
        if "steps" in proto:
            proto["steps"] = [{"at_s": t, "window_pkts": w} for t, w in u.protocol.steps]
        doc["users"].append({
            "id": u.id, "path": list(u.queue_path),
            "hop_delays_s": list(u.hop_delays_s),
            "return_delay_s": u.return_delay_s, "protocol": proto,
        })
    for f in scenario.rate_flows:
        doc["rate_flows"].append({
            "id": f.id, "path": list(f.queue_path),
            "hop_delays_s": list(f.hop_delays_s), "profile": asdict(f.profile),
        })
    return yaml.safe_dump(doc, sort_keys=False)


def scenario_digest(scenario: Scenario) -> str:
    """Stable content hash used to freeze the preset library."""
    blob = json.dumps(asdict(scenario), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_scenario(name_or_path: str) -> Scenario:
    """Resolve a preset name or read a scenario file."""
    if name_or_path in _PRESETS:
        return _PRESETS[name_or_path]()
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ScenarioError(
            f"'{name_or_path}' is neither a preset ({', '.join(preset_names())}) "
            f"nor a readable file: {e.strerror}") from None
    return parse_scenario(text)


# ---------------------------------------------------------------------------
# preset library
#
# Two users over one 100 Mb/s bottleneck (1590 B packets), two-queue chains
# at 72/180 Mb/s (1448 B), single-user halving runs (1040 B), a square-wave
# flow-separation demo, a two-user FAST run and a homogeneous pair for the
# reduced static-link check (tests/test_reductions.py, beside the classic
# rate model).  Parameter values are frozen and covered by a digest test.

def _sched(w0, *steps):
    return ScheduledProtocol(float(w0), tuple((float(t), float(w)) for t, w in steps))


def _one_bottleneck(name, w1, steps1, w2, t1_ms, t2_ms, horizon):
    cap = mbps_to_pps(100.0, 1590)
    return Scenario(
        name=name, packet_bytes=1590,
        queues=(QueueConf("b1", cap),),
        users=(
            UserConf("u1", ("b1",), (t1_ms / 2 * 1e-3,), t1_ms / 2 * 1e-3,
                     _sched(w1, *steps1)),
            UserConf("u2", ("b1",), (t2_ms / 2 * 1e-3,), t2_ms / 2 * 1e-3,
                     _sched(w2)),
        ),
        run=RunConf(1e-4, horizon, "equilibrium"),
    )


def _two_queue_chain(name, w1, w2, w3, step_user, cross=False, horizon=16.0):
    # chain: user 1 crosses both queues (20 ms between them), user 3 the
    # first only, user 2 the second only; round trips 120/80/40 ms
    c1 = mbps_to_pps(72.0, 1448)
    c2 = mbps_to_pps(180.0, 1448)
    step = [(10.0, {"u1": w1, "u2": w2, "u3": w3}[step_user] + 200)]
    protos = {
        "u1": _sched(w1, *(step if step_user == "u1" else [])),
        "u2": _sched(w2, *(step if step_user == "u2" else [])),
        "u3": _sched(w3, *(step if step_user == "u3" else [])),
    }
    flows = ()
    if cross:
        flows = (RateFlowConf("cross_b1", ("b1",), (0.0,),
                              ConstantProfile(0.5 * c1)),)
    return Scenario(
        name=name, packet_bytes=1448,
        queues=(QueueConf("b1", c1), QueueConf("b2", c2)),
        users=(
            UserConf("u1", ("b1", "b2"), (0.0, 0.020), 0.100, protos["u1"]),
            UserConf("u2", ("b2",), (0.0,), 0.080, protos["u2"]),
            UserConf("u3", ("b1",), (0.0,), 0.040, protos["u3"]),
        ),
        rate_flows=flows,
        run=RunConf(1e-4, horizon, "equilibrium"),
    )


def _halving(name, cap_mbps, cross_fraction):
    cap = mbps_to_pps(cap_mbps, 1040)
    flows = ()
    if cross_fraction:
        flows = (RateFlowConf("cross_b1", ("b1",), (0.0,),
                              ConstantProfile(cross_fraction * cap)),)
    return Scenario(
        name=name, packet_bytes=1040,
        queues=(QueueConf("b1", cap),),
        users=(UserConf("u1", ("b1",), (0.075,), 0.075,
                        _sched(500, (5.0, 250))),),
        rate_flows=flows,
        run=RunConf(1e-4, 10.0, "equilibrium"),
    )


def _squarewave():
    # two square flows in phase opposition at 0.55 c each: constant total
    # 1.1 c, alternating composition; exercises the per-flow output split
    cap = mbps_to_pps(100.0, 1590)
    rate = 1.1 * cap
    return Scenario(
        name="squarewave", packet_bytes=1590,
        queues=(QueueConf("b1", cap),),
        rate_flows=(
            RateFlowConf("f1", ("b1",), (0.0,),
                         SquareProfile(rate, 0.0, 1.0, start_high=True)),
            RateFlowConf("f2", ("b1",), (0.0,),
                         SquareProfile(rate, 0.0, 1.0, start_high=False)),
        ),
        run=RunConf(1e-4, 11.0, "cold"),
    )


def _fast2():
    cap = mbps_to_pps(100.0, 1590)
    proto = FastProtocol(gamma=0.5, alpha_pkts=200.0, initial_window_pkts=100.0)
    return Scenario(
        name="fast2", packet_bytes=1590,
        queues=(QueueConf("b1", cap),),
        users=(
            UserConf("u1", ("b1",), (0.050,), 0.050, proto),
            UserConf("u2", ("b1",), (0.050,), 0.050, proto),
        ),
        run=RunConf(1e-4, 20.0, "cold"),
    )


def _staticlink():
    # homogeneous delays, no cross traffic, permanently congested, no
    # retaining: the reduced window-sum model must hold to a couple packets
    cap = mbps_to_pps(100.0, 1590)
    return Scenario(
        name="staticlink", packet_bytes=1590,
        queues=(QueueConf("b1", cap),),
        users=(
            UserConf("u1", ("b1",), (0.020,), 0.080, _sched(500, (3.0, 700))),
            UserConf("u2", ("b1",), (0.020,), 0.080, _sched(600)),
        ),
        run=RunConf(1e-4, 8.0, "equilibrium"),
    )


_PRESETS = {
    "scenario1": lambda: _one_bottleneck(
        "scenario1", 50, [(3.0, 150)], 550, 3.2, 117.0, 8.0),
    "scenario2": lambda: _one_bottleneck(
        "scenario2", 210, [(5.0, 300)], 750, 10.0, 90.0, 10.0),
    "scenario3": lambda: _two_queue_chain("scenario3", 1600, 1200, 5, "u1"),
    "scenario4": lambda: _two_queue_chain("scenario4", 1600, 1200, 5, "u2"),
    "scenario5": lambda: _two_queue_chain("scenario5", 1200, 1600, 5, "u1", cross=True),
    "scenario6": lambda: _two_queue_chain("scenario6", 1200, 1600, 5, "u2", cross=True),
    "scenario7": lambda: _halving("scenario7", 12.5, 0.0),
    "scenario8": lambda: _halving("scenario8", 25.0, 0.5),
    "squarewave": _squarewave,
    "fast2": _fast2,
    "staticlink": _staticlink,
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)

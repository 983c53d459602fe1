"""Scenario descriptions: topology, protocols, traffic and run settings.

This module owns the flow types: ``QueueConf``, ``UserConf`` and
``RateFlowConf`` describe each queue, user and rate flow once, and the
same objects are the network (``topology`` checks their ids, paths and
delays and orders the queues).  A user's ``protocol`` is one of the
controllers of ``protocol`` (``ScheduledProtocol``, ``FastProtocol``),
re-exported here: the one description that the engine and the packet
oracle both run.  One YAML document describes a run.  Keys carry explicit
units (``capacity_mbps``, ``hop_delays_ms``) and everything is normalized to packets and seconds on load; capacities given in Mb/s
are converted with the scenario's packet size (bits per second divided by
8 * packet bytes).  The parser adds each entry to a ``Network`` as it
reads it, so a topology fault names the entry's field.  Serialization
emits the canonical normalized form, which parses back to an identical
scenario.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from .protocol import FastProtocol, ProtocolError, ScheduledProtocol
from .topology import Network, TopologyError, build_network

__all__ = [
    "Scenario", "QueueConf", "UserConf", "RateFlowConf", "RunConf",
    "ScheduledProtocol", "FastProtocol", "ConstantProfile", "SquareProfile",
    "ScenarioError", "parse_scenario", "serialize_scenario", "load_scenario",
    "preset_names", "mbps_to_pps", "to_network",
]


class ScenarioError(ValueError):
    """Malformed scenario; the message names the offending field."""


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

    @property
    def total_delay_s(self) -> float:
        return sum(self.hop_delays_s) + self.return_delay_s


@dataclass(frozen=True)
class ConstantProfile:
    rate_pps: float
    kind: str = "constant"

    def rate_at(self, t: float) -> float:
        return self.rate_pps

    def rates_at(self, t: np.ndarray) -> np.ndarray:
        """``rate_at`` over an array of times."""
        return np.full(np.shape(t), float(self.rate_pps))

    def next_change_after(self, t: float) -> float:
        return float("inf")


@dataclass(frozen=True)
class SquareProfile:
    """Square wave alternating between two rates, half a period each."""

    high_pps: float
    low_pps: float
    period_s: float
    start_high: bool = True
    kind: str = "square"

    def rate_at(self, t: float) -> float:
        phase = (t % self.period_s) / self.period_s
        in_first_half = phase < 0.5
        if in_first_half == self.start_high:
            return self.high_pps
        return self.low_pps

    def rates_at(self, t: np.ndarray) -> np.ndarray:
        """``rate_at`` over an array of times; numpy's float ``%`` takes the
        divisor's sign as Python's does, so the values are the same."""
        in_first_half = (t % self.period_s) / self.period_s < 0.5
        return np.where(in_first_half == self.start_high,
                        float(self.high_pps), float(self.low_pps))

    def next_change_after(self, t: float) -> float:
        half = self.period_s / 2.0
        nxt = (math.floor(t / half) + 1) * half
        while nxt <= t + 1e-15:
            nxt += half
        return nxt


@dataclass(frozen=True)
class RateFlowConf:
    id: str
    queue_path: tuple[str, ...]
    hop_delays_s: tuple[float, ...]
    profile: ConstantProfile | SquareProfile


@dataclass(frozen=True)
class RunConf:
    dt_s: float = 1e-4  # must be <= smallest positive delay / 10
    horizon_s: float = 10.0
    init: str = "cold"  # "cold" | "equilibrium"


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
    """Run a controller's or the topology's own checks, naming the field;
    returns what ``check`` returns.

    ``keys`` maps the attribute a topology fault names to the entry's key
    in the document, e.g. ``queue_path`` to ``path``.
    """
    try:
        return check(*args)
    except (ProtocolError, TopologyError) as e:
        key = (keys or {}).get(getattr(e, "field", None))
        raise _err(f"{path}.{key}" if key else path, str(e)) from None


def _rate_pps(d: dict, path: str, prefix: str, packet_bytes: int,
              capacity_pps: float | None = None) -> float:
    """Resolve one rate given as _pps, _mbps, or a fraction of
    ``capacity_pps``; without a capacity a fraction is refused."""
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
        return val
    if key.endswith("_mbps"):
        return mbps_to_pps(val, packet_bytes)
    if not 0.0 <= val < 1.0:
        raise _err(path, f"{key} must lie in [0, 1)")
    return val * capacity_pps


def _parse_protocol(d, path: str):
    d = _mapping(d, path)
    kind = _take(d, path, "kind")
    if kind not in ("scheduled", "fast"):
        raise _err(path, f"unknown protocol kind '{kind}'")
    w0 = _number(_take(d, path, "initial_window_pkts"), f"{path}.initial_window_pkts")
    if w0 < 0:
        raise _err(f"{path}.initial_window_pkts", "must be nonnegative")
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
        return _validated(f"{path}.steps", ScheduledProtocol, w0, tuple(steps))
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


def parse_scenario(text: str) -> Scenario:
    """Parse and validate one YAML scenario document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ScenarioError(f"invalid YAML: {e}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario file must contain a YAML mapping")
    doc = dict(doc)

    name = _name(_take(doc, "scenario", "name"), "name")
    packet_bytes = _take(doc, "scenario", "packet_bytes")
    # a YAML true is an int to isinstance, not a packet size
    if (not isinstance(packet_bytes, int) or isinstance(packet_bytes, bool)
            or packet_bytes <= 0):
        raise _err("packet_bytes", "must be a positive integer")

    # every entry joins the network as it is read, so the topology's own
    # checks run on it and a fault names the entry's field
    net = Network()
    for i, q in enumerate(_list(_take(doc, "scenario", "queues"), "queues")):
        path = f"queues[{i}]"
        q = _mapping(q, path)
        qid = _name(_take(q, path, "id"), f"{path}.id")
        cap = _rate_pps(q, path, "capacity", packet_bytes)
        _no_leftovers(q, path)
        _validated(path, net.add_queue, QueueConf(qid, cap), keys={"id": "id"})

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
            rate = _rate_pps(praw, ppath, "rate", packet_bytes, cap_of_first)
            profile = ConstantProfile(rate)
        elif pkind == "square":
            high = _rate_pps(praw, ppath, "high", packet_bytes, cap_of_first)
            low = _rate_pps(praw, ppath, "low", packet_bytes, cap_of_first)
            period = _number(_take(praw, ppath, "period_s"), f"{ppath}.period_s")
            start_high = _take(praw, ppath, "start_high", required=False, default=True)
            if not isinstance(start_high, bool):
                raise _err(f"{ppath}.start_high", f"expected true or false, got {start_high!r}")
            if period <= 0:
                raise _err(ppath, "period_s must be positive")
            profile = SquareProfile(high, low, period, start_high)
        else:
            raise _err(ppath, f"unknown profile kind '{pkind}'")
        _no_leftovers(praw, ppath)
        _no_leftovers(f, path)
        net.add_rate_flow(RateFlowConf(fid, qpath, hops, profile))

    # cross_traffic is sugar for a constant rate flow into one queue, whose
    # flow id is cross_<queue>
    for i, x in enumerate(_section(doc, "cross_traffic")):
        path = f"cross_traffic[{i}]"
        qid = _name(_take(x, path, "queue"), f"{path}.queue")
        fid = f"cross_{qid}"
        _validated(path, net.check_route, "cross traffic", fid, (qid,), (0.0,),
                   keys={"id": "queue", "queue_path": "queue"})
        frac = _number(_take(x, path, "fraction"), f"{path}.fraction")
        if not 0.0 <= frac < 1.0:
            raise _err(path, "fraction must lie in [0, 1)")
        _no_leftovers(x, path)
        net.add_rate_flow(RateFlowConf(
            fid, (qid,), (0.0,), ConstantProfile(frac * net.queues[qid].capacity_pps)))

    run_raw = _mapping(_take(doc, "scenario", "run", required=False, default={}), "run")
    dt = _number(_take(run_raw, "run", "dt_s", required=False, default=RunConf.dt_s),
                 "run.dt_s")
    horizon = _number(_take(run_raw, "run", "horizon_s", required=False,
                            default=RunConf.horizon_s), "run.horizon_s")
    init = _take(run_raw, "run", "init", required=False, default=RunConf.init)
    if init not in ("cold", "equilibrium"):
        raise _err("run.init", f"must be 'cold' or 'equilibrium', got {init!r}")
    if init == "equilibrium":
        for fid, f in net.rate_flows.items():
            if not isinstance(f.profile, ConstantProfile):
                raise _err("run.init", f"an equilibrium start needs constant rate "
                                       f"flows, and rate flow '{fid}' varies in time")
    if dt <= 0 or horizon <= 0:
        raise _err("run", "dt_s and horizon_s must be positive")
    _no_leftovers(run_raw, "run")

    _no_leftovers(doc, "scenario")
    return Scenario(name, packet_bytes, tuple(net.queues.values()),
                    tuple(net.users.values()), tuple(net.rate_flows.values()),
                    RunConf(dt, horizon, init))


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
    for u in scenario.users:
        if isinstance(u.protocol, ScheduledProtocol):
            proto = {"kind": "scheduled",
                     "initial_window_pkts": u.protocol.initial_window_pkts,
                     "steps": [{"at_s": t, "window_pkts": w}
                               for t, w in u.protocol.steps]}
        else:
            proto = {"kind": "fast", "gamma": u.protocol.gamma,
                     "alpha_pkts": u.protocol.alpha_pkts,
                     "initial_window_pkts": u.protocol.initial_window_pkts}
        doc["users"].append({
            "id": u.id, "path": list(u.queue_path),
            "hop_delays_s": list(u.hop_delays_s),
            "return_delay_s": u.return_delay_s, "protocol": proto,
        })
    for f in scenario.rate_flows:
        if isinstance(f.profile, ConstantProfile):
            profile = {"kind": "constant", "rate_pps": f.profile.rate_pps}
        else:
            profile = {"kind": "square", "high_pps": f.profile.high_pps,
                       "low_pps": f.profile.low_pps,
                       "period_s": f.profile.period_s,
                       "start_high": f.profile.start_high}
        doc["rate_flows"].append({
            "id": f.id, "path": list(f.queue_path),
            "hop_delays_s": list(f.hop_delays_s), "profile": profile,
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
# reduced static-link check.  Parameter values are frozen and covered by a
# digest test.

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


def _scenario1():
    return _one_bottleneck("scenario1", 50, [(3.0, 150)], 550, 3.2, 117.0, 8.0)


def _scenario2():
    return _one_bottleneck("scenario2", 210, [(5.0, 300)], 750, 10.0, 90.0, 10.0)


def _two_queue_chain(name, w1, w2, w3, step_user, cross, horizon=16.0):
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


def _scenario3():
    return _two_queue_chain("scenario3", 1600, 1200, 5, "u1", cross=False)


def _scenario4():
    return _two_queue_chain("scenario4", 1600, 1200, 5, "u2", cross=False)


def _scenario5():
    return _two_queue_chain("scenario5", 1200, 1600, 5, "u1", cross=True)


def _scenario6():
    return _two_queue_chain("scenario6", 1200, 1600, 5, "u2", cross=True)


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


def _scenario7():
    return _halving("scenario7", 12.5, 0.0)


def _scenario8():
    return _halving("scenario8", 25.0, 0.5)


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
    "scenario1": _scenario1,
    "scenario2": _scenario2,
    "scenario3": _scenario3,
    "scenario4": _scenario4,
    "scenario5": _scenario5,
    "scenario6": _scenario6,
    "scenario7": _scenario7,
    "scenario8": _scenario8,
    "squarewave": _squarewave,
    "fast2": _fast2,
    "staticlink": _staticlink,
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)

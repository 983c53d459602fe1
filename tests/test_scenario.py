"""Scenario files: round trip, the frozen preset library, malformed input."""

import copy
import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from ackflow import scenario
from ackflow.engine import SimConfig, simulate
from ackflow.scenario import (
    ConstantProfile, FastProtocol, QueueConf, RateFlowConf, RunConf, Scenario,
    ScenarioError, ScheduledProtocol, SquareProfile, UserConf, load_scenario,
    parse_scenario, preset_names, scenario_digest, serialize_scenario, to_network,
)

OFFGRID_YAML = Path(__file__).resolve().parents[1] / "perfbench" / "fast_pair_offgrid.yaml"
README = Path(__file__).resolve().parents[1] / "README.md"

# scenario_digest of every preset; a change to a preset's parameters must
# re-freeze its entry and say why in CHANGES.md
FROZEN_PRESETS = {
    "scenario1": "227287b0743a7808",
    "scenario2": "53477ea83f40aefc",
    "scenario3": "f17590dca07235c8",
    "scenario4": "00c885422d88bde3",
    "scenario5": "c865331156aec197",
    "scenario6": "79e551cde49834f4",
    "scenario7": "52c55f13934e45a2",
    "scenario8": "4d3428e3f8295d57",
    "squarewave": "eab474e4b82a540e",
    "fast2": "22c3a2f85b7b70f6",
    "staticlink": "6209bbed59fed8ab",
}


@pytest.mark.parametrize("source", [*preset_names(), str(OFFGRID_YAML)])
def test_serialize_parse_round_trip(source):
    sc = load_scenario(source)
    assert parse_scenario(serialize_scenario(sc)) == sc


def test_the_readme_example_is_scenario8():
    # README.md's scenario file, its constant cross flow a rate_flows entry
    (text,) = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    sc = parse_scenario(text)
    assert dataclasses.replace(sc, name="scenario8") == load_scenario("scenario8")


def test_the_readme_python_example_runs_as_written():
    # README.md's simulate call and trace reads, run as written, so the
    # documented API cannot drift from the code
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    scope: dict = {}
    exec(code, scope)
    traces = scope["traces"]
    assert traces.scenario == load_scenario("scenario7")
    assert len(traces["q.b1"]) == len(traces.time) == round(
        traces.config.horizon_s / traces.dt_s) + 1


def test_the_readme_lists_every_signal_simulate_returns():
    # README.md's Signals table, each row's ids filled in from a run with
    # two queues, a scheduled user, a FAST user and a rate flow, names
    # exactly the signals simulate returns
    rows = re.findall(r"^\| `(\w+)\.(<[\w.<>]+>)` \|", README.read_text(encoding="utf-8"),
                      re.M)
    sc = Scenario(
        name="signals", packet_bytes=1000,
        queues=(QueueConf("b1", 500.0), QueueConf("b2", 800.0)),
        users=(UserConf("u1", ("b1", "b2"), (0.01, 0.01), 0.02, ScheduledProtocol(10.0)),
               UserConf("u2", ("b2",), (0.01,), 0.02, FastProtocol(0.5, 20.0, 10.0))),
        rate_flows=(RateFlowConf("x", ("b1",), (0.0,), ConstantProfile(50.0)),),
        run=RunConf(1e-3, 0.1))
    net = to_network(sc)
    ids = {"<user>": [(u,) for u in net.users], "<queue>": [(q,) for q in net.queues],
           "<queue>.<flow>": [(q, f) for q in net.queues for f in net.flows_through(q)]}
    listed = [".".join((family, *key)) for family, slots in rows for key in ids[slots]]
    traces = simulate(net, sc, SimConfig(dt_s=sc.run.dt_s, horizon_s=sc.run.horizon_s))
    assert len(rows) == 14
    assert sorted(listed) == sorted(traces.signals)


def test_every_preset_digest_frozen():
    assert ({name: scenario_digest(load_scenario(name)) for name in preset_names()}
            == FROZEN_PRESETS)


@pytest.mark.parametrize("make, kind", [
    (lambda *k: ConstantProfile(1.0, *k), "constant"),
    (lambda *k: SquareProfile(1.0, 0.0, 1.0, True, *k), "square"),
    (lambda *k: ScheduledProtocol(1.0, (), *k), "scheduled"),
    (lambda *k: FastProtocol(0.5, 1.0, 1.0, *k), "fast"),
])
def test_kind_follows_the_type_and_is_not_settable(make, kind):
    # still a field, so the scenario digest's asdict carries it
    assert dataclasses.asdict(make())["kind"] == kind
    with pytest.raises(TypeError):
        make("other")


BASE = {
    "name": "malformed",
    "packet_bytes": 1000,
    "queues": [{"id": "b1", "capacity_pps": 500.0}],
    "users": [
        {"id": "u1", "path": ["b1"], "hop_delays_s": 0.02, "return_delay_s": 0.02,
         "protocol": {"kind": "scheduled", "initial_window_pkts": 10.0,
                      "steps": [{"at_s": 1.0, "window_pkts": 20.0}]}},
        {"id": "u2", "path": ["b1"], "hop_delays_s": 0.02, "return_delay_s": 0.02,
         "protocol": {"kind": "fast", "gamma": 0.5, "alpha_pkts": 20.0,
                      "initial_window_pkts": 10.0}},
    ],
    "rate_flows": [{"id": "x", "path": ["b1"], "hop_delays_s": 0.0,
                    "profile": {"kind": "constant", "rate_pps": 50.0}}],
    "run": {"dt_s": 1e-3, "horizon_s": 1.0},
}


def test_base_document_is_valid():
    assert parse_scenario(yaml.safe_dump(BASE)).name == "malformed"


def sched(doc):
    return doc["users"][0]["protocol"]


def zero_delay_cycle(doc):
    # u1 feeds b2 from b1 and u2 feeds b1 from b2, both without delay
    doc["queues"].append({"id": "b2", "capacity_pps": 500.0})
    doc["users"][0].update(path=["b1", "b2"], hop_delays_s=[0.0, 0.0])
    doc["users"][1].update(path=["b2", "b1"], hop_delays_s=[0.0, 0.0])


def capacity_fraction(doc):
    # a queue's capacity has nothing to be a fraction of
    del doc["queues"][0]["capacity_pps"]
    doc["queues"][0]["capacity_fraction"] = 0.5


MALFORMED = {
    "queues-not-a-list": (lambda d: d.update(queues=5), "queues"),
    "queue-not-a-mapping": (lambda d: d.update(queues=["b1"]), "queues[0]"),
    "users-not-a-list": (lambda d: d.update(users="hello"), "users"),
    "user-not-a-mapping": (lambda d: d["users"].append(7), "users[2]"),
    "rate-flows-not-a-list": (lambda d: d.update(rate_flows=3), "rate_flows"),
    "profile-not-a-mapping": (lambda d: d["rate_flows"][0].update(profile="flat"),
                              "rate_flows[0].profile"),
    "rate-flow-entry-not-a-mapping": (lambda d: d["rate_flows"].append(0.5),
                                      "rate_flows[1]"),
    "steps-not-a-list": (lambda d: sched(d).update(steps=3), "users[0].protocol.steps"),
    "step-not-a-mapping": (lambda d: sched(d).update(steps=["a"]),
                           "users[0].protocol.steps[0]"),
    "protocol-not-a-mapping": (lambda d: d["users"][1].update(protocol="fast"),
                               "users[1].protocol"),
    "queue-id-not-a-name": (lambda d: d["queues"][0].update(id=["b1"]), "queues[0].id"),
    "path-entry-not-a-name": (lambda d: d["users"][0].update(path=[["b1"]]),
                              "users[0].path[0]"),
    "rate-flow-path-entry-not-a-name": (lambda d: d["rate_flows"][0].update(path=[1]),
                                        "rate_flows[0].path[0]"),
    "start-high-not-a-bool": (
        lambda d: d["rate_flows"][0].update(profile={
            "kind": "square", "high_pps": 5.0, "low_pps": 0.0, "period_s": 1.0,
            "start_high": "maybe"}),
        "rate_flows[0].profile.start_high"),
    "packet-bytes-a-bool": (lambda d: d.update(packet_bytes=True), "packet_bytes"),
    "run-not-a-mapping": (lambda d: d.update(run="fast"), "run"),
    "nan-step": (lambda d: d["run"].update(dt_s=float("nan")), "run.dt_s"),
    "infinite-horizon": (lambda d: d["run"].update(horizon_s=float("inf")), "run.horizon_s"),
    # the controllers' own checks, each naming its field
    "negative-initial-window": (lambda d: sched(d).update(initial_window_pkts=-5.0),
                                "users[0].protocol.initial_window_pkts"),
    "negative-fast-initial-window": (
        lambda d: d["users"][1]["protocol"].update(initial_window_pkts=-1.0),
        "users[1].protocol.initial_window_pkts"),
    "zero-gamma": (lambda d: d["users"][1]["protocol"].update(gamma=0.0),
                   "users[1].protocol.gamma"),
    "zero-alpha": (lambda d: d["users"][1]["protocol"].update(alpha_pkts=0.0),
                   "users[1].protocol.alpha_pkts"),
    "unsorted-steps": (lambda d: sched(d)["steps"].insert(0, {"at_s": 2.0, "window_pkts": 5.0}),
                       "users[0].protocol.steps"),
    "negative-step-time": (
        lambda d: sched(d)["steps"].insert(0, {"at_s": -1.0, "window_pkts": 50.0}),
        "users[0].protocol.steps"),
    "queue-capacity-fraction": (capacity_fraction, "queues[0].capacity_fraction"),
    "zero-capacity-pps": (lambda d: d["queues"][0].update(capacity_pps=0),
                          "queues[0].capacity_pps"),
    "zero-capacity-mbps": (lambda d: d.update(queues=[{"id": "b1", "capacity_mbps": 0}]),
                           "queues[0].capacity_mbps"),
    "negative-rate": (lambda d: d["rate_flows"][0]["profile"].update(rate_pps=-50.0),
                      "rate_flows[0].profile.rate_pps"),
    "negative-square-low": (
        lambda d: d["rate_flows"][0].update(profile={
            "kind": "square", "high_pps": 5.0, "low_pps": -5.0, "period_s": 1.0}),
        "rate_flows[0].profile.low_pps"),
    # the profile's own check
    "zero-square-period": (
        lambda d: d["rate_flows"][0].update(profile={
            "kind": "square", "high_pps": 5.0, "low_pps": 0.0, "period_s": 0.0}),
        "rate_flows[0].profile"),
    "equilibrium-with-square-wave": (
        lambda d: (d["run"].update(init="equilibrium"), d["rate_flows"][0].update(profile={
            "kind": "square", "high_pps": 5.0, "low_pps": 0.0, "period_s": 1.0})),
        "run.init"),
    "negative-step-window": (
        lambda d: sched(d)["steps"].append({"at_s": 2.0, "window_pkts": -5.0}),
        "users[0].protocol.steps"),
    "return-delay-a-list": (lambda d: d["users"][0].update(return_delay_s=[0.02]),
                            "users[0].return_delay_s"),
    # topology faults, found by the network's own checks
    "duplicate-user-id": (lambda d: d["users"][1].update(id="u1"), "users[1].id"),
    "user-id-is-a-rate-flow-id": (lambda d: d["rate_flows"][0].update(id="u2"),
                                  "rate_flows[0].id"),
    "duplicate-rate-flow-id": (
        lambda d: d["rate_flows"].append(copy.deepcopy(d["rate_flows"][0])),
        "rate_flows[1].id"),
    "negative-hop-delay": (lambda d: d["users"][0].update(hop_delays_s=-0.01),
                           "users[0].hop_delays_s"),
    "negative-return-delay": (lambda d: d["users"][1].update(return_delay_s=-0.01),
                              "users[1].return_delay_s"),
    "hop-count-mismatch": (lambda d: d["users"][0].update(hop_delays_s=[0.01, 0.01]),
                           "users[0].hop_delays_s"),
    "queue-repeated-in-path": (
        lambda d: d["users"][0].update(path=["b1", "b1"], hop_delays_s=[0.01, 0.01]),
        "users[0].path"),
    "zero-total-delay": (lambda d: d["users"][0].update(hop_delays_s=0.0, return_delay_s=0.0),
                         "users[0]"),
    "zero-delay-queue-cycle": (zero_delay_cycle, "users[1].hop_delays_s"),
    # an id with the trace names' separator
    "dotted-queue-id": (lambda d: d["queues"][0].update(id="b.1"), "queues[0].id"),
    "dotted-user-id": (lambda d: d["users"][1].update(id="u.2"), "users[1].id"),
    "dotted-rate-flow-id": (lambda d: d["rate_flows"][0].update(id="x.1"),
                            "rate_flows[0].id"),
    # Mb/s converted past the float range, and a packet size that cannot
    # convert at all
    "infinite-capacity-mbps": (lambda d: d.update(queues=[{"id": "b1", "capacity_mbps": 1e308}]),
                               "queues[0].capacity_mbps"),
    "infinite-rate-mbps": (lambda d: d["rate_flows"][0].update(profile={
        "kind": "constant", "rate_mbps": 1e308}), "rate_flows[0].profile.rate_mbps"),
    "oversized-packet-bytes": (
        lambda d: d.update(packet_bytes=10**400, queues=[{"id": "b1", "capacity_mbps": 1.0}]),
        "packet_bytes"),
    "zero-step": (lambda d: d["run"].update(dt_s=0), "run.dt_s"),
    "negative-horizon": (lambda d: d["run"].update(horizon_s=-1), "run.horizon_s"),
    # finite and positive, but 2**60 ticks of dt_s: past any run's arrays
    "tick-count-past-any-run": (lambda d: d["run"].update(horizon_s=2.0 ** 60 * 1e-3),
                                "run.horizon_s"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_names_the_field(case):
    edit, field = MALFORMED[case]
    doc = copy.deepcopy(BASE)
    edit(doc)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(yaml.safe_dump(doc))
    assert str(err.value).startswith(f"{field}: "), str(err.value)


def edited(edit):
    """BASE after ``edit``, as YAML text."""
    doc = copy.deepcopy(BASE)
    edit(doc)
    return yaml.safe_dump(doc)


def profile(doc):
    return doc["rate_flows"][0]["profile"]


# refusals each named by the start of its message: the field, then the
# reason; the last two documents have no field to name
REFUSED = {
    "missing-key": (lambda d: d["users"][0].pop("path"),
                    "users[0]: missing required key 'path'"),
    "unknown-key": (lambda d: d["queues"][0].update(colour="red"),
                    "queues[0]: unknown key(s) ['colour']"),
    "int-past-float-range": (lambda d: d["users"][1]["protocol"].update(gamma=10**400),
                             "users[1].protocol.gamma: expected a finite number"),
    "two-rate-keys": (lambda d: profile(d).update(rate_mbps=1.0),
                      "rate_flows[0].profile: give exactly one of rate_pps / rate_mbps"),
    "rate-fraction-past-one": (
        lambda d: d["rate_flows"][0].update(profile={"kind": "constant", "rate_fraction": 1.5}),
        "rate_flows[0].profile.rate_fraction: must lie in [0, 1)"),
    "unknown-protocol-kind": (lambda d: sched(d).update(kind="cubic"),
                              "users[0].protocol: unknown protocol kind 'cubic'"),
    "unknown-profile-kind": (lambda d: profile(d).update(kind="ramp"),
                             "rate_flows[0].profile: unknown profile kind 'ramp'"),
    "hop-delays-in-s-and-ms": (lambda d: d["users"][0].update(hop_delays_ms=20.0),
                               "users[0]: give exactly one of hop_delays_s / hop_delays_ms"),
    "rate-fraction-one": (
        lambda d: d["rate_flows"][0].update(profile={"kind": "constant", "rate_fraction": 1.0}),
        "rate_flows[0].profile.rate_fraction: must lie in [0, 1)"),
    # a constant cross flow is a rate_flows entry, with no section of its own
    "cross-traffic-section": (
        lambda d: d.update(cross_traffic=[{"queue": "b1", "fraction": 0.1}]),
        "scenario: unknown key(s) ['cross_traffic']"),
    "warm-start": (lambda d: d["run"].update(init="warm"),
                   "run.init: must be 'cold' or 'equilibrium', got 'warm'"),
    "empty-user-path": (lambda d: d["users"][0].update(path=[]),
                        "users[0].path: user 'u1' has an empty queue path"),
    "invalid-yaml": ("queues: [unclosed", "invalid YAML: "),
    "not-a-mapping": ("- 1\n- 2\n", "scenario file must contain a YAML mapping"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refusals_start_with_the_field_and_the_reason(case):
    doc, prefix = REFUSED[case]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc if isinstance(doc, str) else edited(doc))
    assert str(err.value).startswith(prefix), str(err.value)


@pytest.mark.parametrize("once, twice, key, line", [
    ("packet_bytes: 1000\n", "packet_bytes: 1000\npacket_bytes: 1500\n", "packet_bytes", 3),
    ("  capacity_pps: 500.0\n", "  capacity_pps: 100.0\n  capacity_pps: 900.0\n",
     "capacity_pps", 6),
    ("    gamma: 0.5\n", "    gamma: 0.5\n    gamma: 5.0\n", "gamma", 26),
    ("  horizon_s: 1.0\n", "  horizon_s: 1.0\n  horizon_s: 9.0\n", "horizon_s", 39),
], ids=["top-level", "queue", "protocol", "run"])
def test_a_repeated_key_is_refused_with_its_line(once, twice, key, line):
    # PyYAML alone keeps the last value: the queue would serve 900 pkt/s
    text = yaml.safe_dump(BASE, sort_keys=False)
    assert text.count(once) == 1
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text.replace(once, twice))
    message = str(err.value)
    assert message.startswith("invalid YAML: while constructing a mapping"), message
    assert f"found duplicate key '{key}'\n  in \"<unicode string>\", line {line}," in message


@pytest.mark.parametrize("base", [
    yaml.SafeLoader,
    pytest.param(getattr(yaml, "CSafeLoader", None), marks=pytest.mark.skipif(
        not yaml.__with_libyaml__, reason="PyYAML built without libyaml")),
], ids=["python", "libyaml"])
def test_both_loader_bases_parse_alike(base, monkeypatch):
    # parse_scenario loads on libyaml where PyYAML has it: on either base a
    # repeated key is refused at its line, and every preset's text parses
    # to the same scenario
    monkeypatch.setattr(scenario, "_Loader", type("_Loader", (scenario._UniqueKeys, base), {}))
    text = yaml.safe_dump(BASE, sort_keys=False)
    with pytest.raises(ScenarioError, match=r"found duplicate key 'horizon_s'\n"
                       r"  in \"<unicode string>\", line 39,"):
        parse_scenario(text.replace("  horizon_s: 1.0\n", "  horizon_s: 1.0\n  horizon_s: 9.0\n"))
    for name in preset_names():
        sc = parse_scenario(serialize_scenario(load_scenario(name)))
        assert scenario_digest(sc) == FROZEN_PRESETS[name], name


def test_a_merged_key_may_be_overridden():
    # YAML's merge key: b2 takes b1's entry and overrides its id
    sc = parse_scenario("name: merged\npacket_bytes: 1000\nqueues:\n"
                        "- &b1 {id: b1, capacity_pps: 500.0}\n- {<<: *b1, id: b2}\n")
    assert sc.queues == (QueueConf("b1", 500.0), QueueConf("b2", 500.0))


def test_a_rate_fraction_is_of_the_first_queues_capacity():
    def quarter(doc):
        doc["queues"][0]["capacity_pps"] = 100.0
        doc["rate_flows"][0]["profile"] = {"kind": "constant", "rate_fraction": 0.25}

    assert parse_scenario(edited(quarter)).rate_flows[0].profile.rate_pps == 25.0


@pytest.mark.parametrize("make", [
    lambda: ConstantProfile(float("nan")),
    lambda: ConstantProfile(float("inf")),
    lambda: SquareProfile(800.0, float("nan"), 1.0),
    lambda: SquareProfile(800.0, 0.0, -1.0),
    lambda: SquareProfile(800.0, 0.0, 0.0),
    lambda: SquareProfile(800.0, 0.0, float("inf")),
], ids=["nan-rate", "infinite-rate", "nan-low", "negative-period", "zero-period",
        "infinite-period"])
def test_a_profile_refuses_what_no_run_could_read(make):
    # each would run as some other flow, or fail mid-run
    with pytest.raises(ScenarioError, match="must be finite"):
        make()


def test_a_directory_is_refused_with_its_path(tmp_path):
    with pytest.raises(ScenarioError, match=re.escape(f"'{tmp_path}' is neither a preset")):
        load_scenario(str(tmp_path))

"""Scenario files: round trip, the frozen preset library, malformed input."""

import copy
import re
from pathlib import Path

import pytest
import yaml

from ackflow.scenario import (
    ScenarioError, load_scenario, parse_scenario, preset_names,
    scenario_digest, serialize_scenario,
)

OFFGRID_YAML = Path(__file__).resolve().parents[1] / "perfbench" / "fast_pair_offgrid.yaml"

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


def test_every_preset_digest_frozen():
    assert ({name: scenario_digest(load_scenario(name)) for name in preset_names()}
            == FROZEN_PRESETS)


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
    "cross_traffic": [{"queue": "b1", "fraction": 0.1}],
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
    "cross-traffic-entry-not-a-mapping": (lambda d: d.update(cross_traffic=[0.5]),
                                          "cross_traffic[0]"),
    "steps-not-a-list": (lambda d: sched(d).update(steps=3), "users[0].protocol.steps"),
    "step-not-a-mapping": (lambda d: sched(d).update(steps=["a"]),
                           "users[0].protocol.steps[0]"),
    "protocol-not-a-mapping": (lambda d: d["users"][1].update(protocol="fast"),
                               "users[1].protocol"),
    "queue-id-not-a-name": (lambda d: d["queues"][0].update(id=["b1"]), "queues[0].id"),
    "path-entry-not-a-name": (lambda d: d["users"][0].update(path=[["b1"]]),
                              "users[0].path[0]"),
    "cross-traffic-queue-not-a-name": (lambda d: d["cross_traffic"][0].update(queue=[1]),
                                       "cross_traffic[0].queue"),
    "start-high-not-a-bool": (
        lambda d: d["rate_flows"][0].update(profile={
            "kind": "square", "high_pps": 5.0, "low_pps": 0.0, "period_s": 1.0,
            "start_high": "maybe"}),
        "rate_flows[0].profile.start_high"),
    "packet-bytes-a-bool": (lambda d: d.update(packet_bytes=True), "packet_bytes"),
    "run-not-a-mapping": (lambda d: d.update(run="fast"), "run"),
    "nan-step": (lambda d: d["run"].update(dt_s=float("nan")), "run.dt_s"),
    "infinite-horizon": (lambda d: d["run"].update(horizon_s=float("inf")), "run.horizon_s"),
    "negative-initial-window": (lambda d: sched(d).update(initial_window_pkts=-5.0),
                                "users[0].protocol.initial_window_pkts"),
    "negative-fast-initial-window": (
        lambda d: d["users"][1]["protocol"].update(initial_window_pkts=-1.0),
        "users[1].protocol.initial_window_pkts"),
    "zero-gamma": (lambda d: d["users"][1]["protocol"].update(gamma=0.0), "users[1].protocol"),
    "unsorted-steps": (lambda d: sched(d)["steps"].insert(0, {"at_s": 2.0, "window_pkts": 5.0}),
                       "users[0].protocol.steps"),
    "negative-step-time": (
        lambda d: sched(d)["steps"].insert(0, {"at_s": -1.0, "window_pkts": 50.0}),
        "users[0].protocol.steps"),
    "queue-capacity-fraction": (capacity_fraction, "queues[0].capacity_fraction"),
    "negative-rate": (lambda d: d["rate_flows"][0]["profile"].update(rate_pps=-50.0),
                      "rate_flows[0].profile.rate_pps"),
    "negative-square-low": (
        lambda d: d["rate_flows"][0].update(profile={
            "kind": "square", "high_pps": 5.0, "low_pps": -5.0, "period_s": 1.0}),
        "rate_flows[0].profile.low_pps"),
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
    "cross-traffic-twice-on-one-queue": (
        lambda d: d["cross_traffic"].append({"queue": "b1", "fraction": 0.2}),
        "cross_traffic[1].queue"),
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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_names_the_field(case):
    edit, field = MALFORMED[case]
    doc = copy.deepcopy(BASE)
    edit(doc)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(yaml.safe_dump(doc))
    assert str(err.value).startswith(f"{field}: "), str(err.value)


def test_a_directory_is_refused_with_its_path(tmp_path):
    with pytest.raises(ScenarioError, match=re.escape(f"'{tmp_path}' is neither a preset")):
        load_scenario(str(tmp_path))

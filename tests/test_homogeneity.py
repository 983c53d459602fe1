"""Homogeneity of the fluid model in its packet counts.

Scale every capacity, window, FAST ``alpha_pkts`` and rate-flow rate by
``N`` and keep every delay: every signal of the run scales by ``N``, and
the congestion and activity flags and the queueing delays ``tau`` stay as
they were.  At a power of two each product is exact, so each signal is
bitwise ``N`` times the base run's, and every ``TraceSet.blocks`` count is
equal.  At other ``N`` the products round, so each signal is ``N`` times
the base run's to within a rounding bound stated from measurement.  The
engine's ``EPS`` thresholds are absolute packet counts, which do not
scale, so this is checked at the ``N`` named here only.

Under the ``slow`` marker the scaled runs also meet ``packet_sim``: where
the fluid model is the limit of the packet model, its gap to the packets
stays under a packet while the packet counts grow as ``N``.
"""

import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest

from ackflow.engine import SimConfig, simulate
from ackflow.scenario import FastProtocol, SquareProfile, load_scenario, to_network
from test_oracle_gate import CASES, oracle_errors, run as gated_run

HORIZON_S = 1.0
SCALES = (4.0, 16.0)
OFFGRID_YAML = str(Path(__file__).resolve().parents[1] / "perfbench"
                   / "fast_pair_offgrid.yaml")
SOURCES = ("scenario1", "scenario3", "scenario7", "squarewave", "fast2", "staticlink",
           OFFGRID_YAML)
# signals that do not scale with the packet counts
UNSCALED = ("congested", "active", "tau")


def scaled(sc, n: float):
    """``sc`` with every capacity, window, FAST alpha and rate times ``n``."""
    def protocol(p):
        if isinstance(p, FastProtocol):
            return dataclasses.replace(p, alpha_pkts=n * p.alpha_pkts,
                                       initial_window_pkts=n * p.initial_window_pkts)
        return dataclasses.replace(p, initial_window_pkts=n * p.initial_window_pkts,
                                   steps=tuple((t, n * w) for t, w in p.steps))

    def profile(p):
        if isinstance(p, SquareProfile):
            return dataclasses.replace(p, high_pps=n * p.high_pps, low_pps=n * p.low_pps)
        return dataclasses.replace(p, rate_pps=n * p.rate_pps)

    return dataclasses.replace(
        sc,
        queues=tuple(dataclasses.replace(q, capacity_pps=n * q.capacity_pps)
                     for q in sc.queues),
        users=tuple(dataclasses.replace(u, protocol=protocol(u.protocol))
                    for u in sc.users),
        rate_flows=tuple(dataclasses.replace(f, profile=profile(f.profile))
                         for f in sc.rate_flows))


def run(sc):
    return simulate(to_network(sc), sc, SimConfig(dt_s=sc.run.dt_s, horizon_s=HORIZON_S,
                                                  init=sc.run.init))


@functools.lru_cache(maxsize=None)
def base_run(source: str):
    return run(load_scenario(source))


@pytest.mark.parametrize("n", SCALES)
@pytest.mark.parametrize("source", SOURCES, ids=[Path(s).stem for s in SOURCES])
def test_scaling_the_packet_counts_scales_every_signal_bitwise(source, n):
    base = base_run(source)
    big = run(scaled(load_scenario(source), n))
    assert big.blocks == base.blocks
    assert sorted(big.signals) == sorted(base.signals)
    for name, values in base.signals.items():
        want = values if name.split(".")[0] in UNSCALED else n * values
        assert big[name].tobytes() == want.tobytes(), name


# at N = 3 and 5 the worst gap is 2.2e-11 and 3.4e-11 of the signal's
# largest magnitude, both on squarewave's out.b1.*, and tau moves by at most
# 1.4e-13 s; the flags and the block counts stay equal
ROUNDING_REL = 1e-9
TAU_S = 1e-12


@pytest.mark.parametrize("n", (3.0, 5.0))
@pytest.mark.parametrize("source", SOURCES, ids=[Path(s).stem for s in SOURCES])
def test_scaling_by_other_counts_scales_every_signal_to_rounding(source, n):
    base = base_run(source)
    big = run(scaled(load_scenario(source), n))
    assert big.blocks == base.blocks
    assert sorted(big.signals) == sorted(base.signals)
    for name, values in base.signals.items():
        kind = name.split(".")[0]
        if kind == "tau":
            assert np.abs(big[name] - values).max() <= TAU_S, name
        elif kind in UNSCALED:
            assert big[name].tobytes() == values.tobytes(), name
        else:
            want = n * values
            gap = np.abs(big[name] - want).max()
            assert gap <= ROUNDING_REL * np.abs(want).max(), name


# full horizons at N = 1, 4 and 16 read a queue gap of 0.64, 0.64 and 0.81
# pkts on scenario7 (dequeues 0.66, 0.64 and 0.54) and 0.84, 0.65 and 0.62
# on staticlink, while packet_sim's time grows as N.  staticlink's
# dequeues are not gated: its users share one round trip, so each window
# travels as one train of N times the packets, and the per-flow split
# swings by the train (204, 814 and 3257 pkts)
LIMIT_PKTS = 1.0


@pytest.mark.slow
@pytest.mark.parametrize("n", (1.0, 4.0, 16.0))
@pytest.mark.parametrize("name", ["scenario7", "staticlink"])
def test_the_gap_to_packet_sim_does_not_grow_with_the_packet_counts(name, n):
    sc = scaled(load_scenario(name), n)
    q_err, dep_err = oracle_errors(*gated_run(sc, sc.run.horizon_s), CASES[name][1])
    assert q_err <= LIMIT_PKTS, q_err
    if name == "scenario7":
        assert dep_err <= LIMIT_PKTS, dep_err

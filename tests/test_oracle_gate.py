"""The fluid engine against the packet-level oracle, as a standing gate.

On ``packet_sim``'s 10 ms sample grid, the queue lengths and the
cumulative dequeues per (queue, flow) must agree within ``GATE_PKTS``, the
bound the benchmark applies as well.  scenario3 runs 11 s, past its window
step at 10 s, with the packet simulator started 5 s early so that it has
reached the equilibrium the fluid run starts in; squarewave starts cold and
runs its full 11 s.  staticlink runs its full 8 s, warmed up like scenario3,
and gates the queue length only: its users share one round-trip time, so in
``packet_sim`` each window travels as one train and the per-flow dequeues
swing by the train size around the fluid's even split.
"""

import dataclasses

import numpy as np
import pytest

from ackflow.engine import SimConfig, simulate
from ackflow.oracle import packet_sim
from ackflow.scenario import preset, to_network

GATE_PKTS = 5.0

# preset -> (horizon, packet-oracle warm-up), in seconds
CASES = {"scenario3": (11.0, 5.0), "squarewave": (11.0, 0.0),
         "staticlink": (8.0, 5.0)}
QUEUE_ONLY = {"staticlink"}


def oracle_errors(name: str) -> tuple[float, float]:
    """Largest queue-length and cumulative-dequeue gaps to packet_sim, in pkts."""
    horizon_s, warmup_s = CASES[name]
    sc = preset(name)
    sc = dataclasses.replace(sc, run=dataclasses.replace(sc.run, horizon_s=horizon_s))
    traces = simulate(to_network(sc), sc, SimConfig(
        dt_s=sc.run.dt_s, horizon_s=horizon_s, init=sc.run.init))
    ref = packet_sim(sc, sample_dt_s=0.01, warmup_s=warmup_s)
    dt = traces.dt_s
    idx = np.rint(ref.sample_times / dt).astype(int)
    q_err = max(float(np.abs(traces[f"q.{qid}"][idx] - q_pkt).max())
                for qid, q_pkt in ref.queue_lengths.items())
    dep_err = 0.0
    for (qid, fid), count in ref.dequeue_counts.items():
        cum = np.concatenate(([0.0], np.cumsum(traces[f"out.{qid}.{fid}"]) * dt))
        dep_err = max(dep_err, float(np.abs(cum[idx] - (count - count[0])).max()))
    return q_err, dep_err


@pytest.mark.parametrize("name", sorted(CASES))
def test_fluid_tracks_packet_sim_within_the_gate(name):
    q_err, dep_err = oracle_errors(name)
    assert q_err <= GATE_PKTS, q_err
    if name not in QUEUE_ONLY:
        assert dep_err <= GATE_PKTS, dep_err

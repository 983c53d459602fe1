"""Frozen trace digests: every preset's signals, bit for bit.

Each preset runs over a shortened 0.3 s horizon with its own dt and init
mode; the SHA-256 covers every signal name and its float64 bytes in sorted
order.  ``FROZEN_LONG`` adds longer runs that reach what 0.3 s does not: a
window step (scenario1, staticlink), ACK retaining after a window cut
(scenario7) and interpolated reads of off-grid delays (fast_pair_offgrid).
``FROZEN_REFILL`` moves scenario7's window cut off the ACK grid, so that
its ACK buffer refills inside a step, which no preset does.
``FROZEN_FULL`` runs every preset and fast_pair_offgrid over its whole
horizon, with pruning off and on, under the ``slow`` marker.
A refactor that claims identical engine behaviour must leave these digests
unchanged.  A deliberate behaviour change re-freezes them and says why in
CHANGES.md.
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from ackflow.engine import SimConfig, simulate
from ackflow.scenario import ScheduledProtocol, load_scenario, preset_names, to_network

HORIZON_S = 0.3
OFFGRID_YAML = str(Path(__file__).resolve().parents[1] / "perfbench"
                   / "fast_pair_offgrid.yaml")

FROZEN = {
    "scenario1": "5d9e479d9988bc1683d25d5dd85d8018379ac2abd33fa1225dc8f743871d164e",
    "scenario2": "3cc9ce0b234a3ead76304ccc9e01430f13cac718cc73fe17ffe3b0ab2edf6560",
    "scenario3": "e877d8daa4977554f8abd8b689386a0b262ecb3452c0e830b92686db79dfe962",
    "scenario4": "e877d8daa4977554f8abd8b689386a0b262ecb3452c0e830b92686db79dfe962",
    "scenario5": "880a10bfd6ec93d6f5bcb6ac7a8e052731072cd5bcb30c4ff8fcd6f2b85a81de",
    "scenario6": "880a10bfd6ec93d6f5bcb6ac7a8e052731072cd5bcb30c4ff8fcd6f2b85a81de",
    "scenario7": "d47345deb6f5a85ec277931efebc18ca4842c82ccae41a11c62cf349a3e252a1",
    "scenario8": "d418d8edd55a36e9ba6be0404453d9238d4bbe9d11e9b861b10261972b5cbf83",
    "squarewave": "3aca413b5f8328c99ab264cd4c374e5513de175dfbda8592dd91898f9c428098",
    "fast2": "fa252acbe818b347edc724396929565b5755e86ee693714def0fce02f290242d",
    "staticlink": "eb7661cd80916b1649f24d038c6a30dd65e39aa6bbd488f896c0e4adf10ef6b9",
}


# (scenario source, horizon in seconds) -> digest
FROZEN_LONG = {
    ("scenario1", 3.5):
        "88648ef78f27f2994672c0d088d970232bfbf769cdcc6e9dd8a30a3244ea9fea",
    ("scenario7", 5.5):
        "b1e6fa1cece36811502649820203ba0df822ada88a4ae0b134f22afdaa82d345",
    ("staticlink", 3.5):
        "9ee606a19efdc8dfe09cd9dd359e974f99fa7e1eb870f4e18eca1f0413dd69df",
    (OFFGRID_YAML, 0.3):
        "89e37218fa3267ba8bf1f5305fdda5544652f29de551d383765c236a6867946d",
}

# scenario7 cut from 500 to 249.9 pkts at 5 s, over 5.5 s: the buffer
# retains through 1664 whole ticks of ACK mass and refills inside the next
# (tests/test_oracle_gate.py gates the same run against packet_sim)
FROZEN_REFILL = "09643ee7aaa50ea6230b5902255d4cfa2394a41143f78fc7e66e22b0bfe72475"


# scenario source -> digest over the scenario's own horizon (``slow``)
FROZEN_FULL = {
    "fast2":
        "a121ba0ec4ea2a4b9c42817e4fc46d44252a1e508de387108eb51cfb7940bf43",
    "scenario1":
        "3f509602e417ade9a7d80b388bc2db93c752803e9b7d657b9112e556e753a102",
    "scenario2":
        "3afe38863ac96ccc2eb1e6b751c5d3ceb2960e174cdf8f8406b638b30c87cdc6",
    "scenario3":
        "5e11c89ed3cb1b5b6a16e7d59f9bbc293e8a4a4f17b31b5268ae8ab0024d704e",
    "scenario4":
        "7fc031356a5f8abb65235e796a26d16a75bfb8f766429248e9dc12260ff5406e",
    "scenario5":
        "74d41b07c18b29994f9a2c3d66f7fbadbae720083bb0fa5315e8e66738478d93",
    "scenario6":
        "b52f3ad6488459d7f67805baecf74b2aa296a62905026400f13800e11f4a19ea",
    "scenario7":
        "4dafb503a7285a1148b576467d9d5522660a909370ee36f801f549822c890234",
    "scenario8":
        "c0dc7ad7900ea69cc6ba2d2c61e0740519de8147382ae1c07bd21a8c2f68c78f",
    "squarewave":
        "8162401f3323aec1d36084aa035f4681c1bf467d94bda1b63f732c6e1589e020",
    "staticlink":
        "6caa62f3614fc54fe0a72127db904ebb663a0cafcddb0a6c491f7bf85f40abee",
    OFFGRID_YAML:
        "f21be986cd218fbd14f055be944775406349c0474010b1da73c34997fd8f495a",
}


def trace_digest(source, horizon_s: float | None = HORIZON_S,
                 prune_history: bool = False) -> str:
    """Digest of a run of a scenario, or of the one a source names, over
    ``horizon_s``, or the scenario's own horizon."""
    sc = load_scenario(source) if isinstance(source, str) else source
    traces = simulate(to_network(sc), sc, SimConfig(
        dt_s=sc.run.dt_s, horizon_s=horizon_s or sc.run.horizon_s, init=sc.run.init,
        prune_history=prune_history))
    digest = hashlib.sha256()
    for signal in sorted(traces.signals):
        digest.update(signal.encode())
        digest.update(np.ascontiguousarray(
            traces.signals[signal], dtype=np.float64).tobytes())
    return digest.hexdigest()


def test_every_preset_is_frozen():
    assert set(FROZEN) == set(preset_names())
    assert set(FROZEN_FULL) == set(preset_names()) | {OFFGRID_YAML}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_preset_trace_digest_unchanged(name):
    assert trace_digest(name) == FROZEN[name]


@pytest.mark.parametrize("source, horizon_s", list(FROZEN_LONG),
                         ids=[f"{Path(s).stem}-{h}" for s, h in FROZEN_LONG])
def test_long_trace_digest_unchanged(source, horizon_s):
    assert trace_digest(source, horizon_s) == FROZEN_LONG[source, horizon_s]


def test_an_ack_buffer_refill_inside_a_step_is_frozen():
    sc = load_scenario("scenario7")
    (user,) = sc.users
    user = dataclasses.replace(user, protocol=ScheduledProtocol(500.0, ((5.0, 249.9),)))
    assert trace_digest(dataclasses.replace(sc, users=(user,)), 5.5) == FROZEN_REFILL


@pytest.mark.slow
@pytest.mark.parametrize("source, prune_history", [
    (s, prune) for s in FROZEN_FULL for prune in (False, True)],
    ids=[Path(s).stem + suffix for s in FROZEN_FULL for suffix in ("", "-pruned")])
def test_full_horizon_trace_digest_unchanged(source, prune_history):
    # pruning only raises the floor below which a read fails, so a pruned
    # run hashes as the unpruned one does
    assert trace_digest(source, None, prune_history) == FROZEN_FULL[source]

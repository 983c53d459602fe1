"""Frozen trace digests: every preset's signals, bit for bit.

Each preset runs over a shortened 0.3 s horizon with its own dt and init
mode; the SHA-256 covers every signal name and its float64 bytes in sorted
order.  ``FROZEN_LONG`` adds longer runs that reach what 0.3 s does not: a
window step (scenario1, staticlink), ACK retaining after a window cut
(scenario7) and interpolated reads of off-grid delays (fast_pair_offgrid).
A refactor that claims identical engine behaviour must leave these digests
unchanged.  A deliberate behaviour change re-freezes them and says why in
CHANGES.md.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from ackflow.engine import SimConfig, simulate
from ackflow.scenario import load_scenario, preset_names, to_network

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


def trace_digest(source: str, horizon_s: float = HORIZON_S) -> str:
    sc = load_scenario(source)
    traces = simulate(to_network(sc), sc, SimConfig(
        dt_s=sc.run.dt_s, horizon_s=horizon_s, init=sc.run.init))
    digest = hashlib.sha256()
    for signal in sorted(traces.signals):
        digest.update(signal.encode())
        digest.update(np.ascontiguousarray(
            traces.signals[signal], dtype=np.float64).tobytes())
    return digest.hexdigest()


def test_every_preset_is_frozen():
    assert set(FROZEN) == set(preset_names())


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_preset_trace_digest_unchanged(name):
    assert trace_digest(name) == FROZEN[name]


@pytest.mark.parametrize("source, horizon_s", list(FROZEN_LONG),
                         ids=[f"{Path(s).stem}-{h}" for s, h in FROZEN_LONG])
def test_long_trace_digest_unchanged(source, horizon_s):
    assert trace_digest(source, horizon_s) == FROZEN_LONG[source, horizon_s]

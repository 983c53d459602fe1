"""Frozen trace digests: every preset's signals, bit for bit.

Each preset runs over a shortened 0.3 s horizon with its own dt and init
mode; the SHA-256 covers every signal name and its float64 bytes in sorted
order.  A refactor that claims identical engine behaviour must leave these
digests unchanged.  A deliberate behaviour change re-freezes them and says
why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from ackflow.engine import SimConfig, simulate
from ackflow.scenario import preset, preset_names, to_network

HORIZON_S = 0.3

FROZEN = {
    "scenario1": "38af81d020cd242b86383dcdad2a4879d545dd4075db785bb1422d39d033aaa7",
    "scenario2": "948aff5e6def6d33260176a102ae41e3ce6c53dcc4a6fed53b29c6a4592723b4",
    "scenario3": "6e0fffae486df3e0c562c0a97f92a51a6507b75fca5dd872ffe100b6f3457f6c",
    "scenario4": "6e0fffae486df3e0c562c0a97f92a51a6507b75fca5dd872ffe100b6f3457f6c",
    "scenario5": "1a7689535124554cb15e8aca6c8b0626e51a9e2ba7f991d6327ef0e680b3e750",
    "scenario6": "1a7689535124554cb15e8aca6c8b0626e51a9e2ba7f991d6327ef0e680b3e750",
    "scenario7": "4795226b139ff732cdcd816ed709808a9c24a0fb28061fa419d4796d431fb335",
    "scenario8": "44347a1d5f365ccfb4f1d25e46bd60c245b3b0950e975b8e6313dcb417d9b056",
    "squarewave": "3aca413b5f8328c99ab264cd4c374e5513de175dfbda8592dd91898f9c428098",
    "fast2": "ff744bf57bc22bd101ba099da654521afa4ce6d023647c1b89a0fb9b8624f6d2",
    "staticlink": "78ec9fdf1d5861288ca2c84572031c552cb54070806f4ee5088b18b3a7c0b2ec",
}


def trace_digest(name: str) -> str:
    sc = preset(name)
    traces = simulate(to_network(sc), sc, SimConfig(
        dt_s=sc.run.dt_s, horizon_s=HORIZON_S, init=sc.run.init))
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

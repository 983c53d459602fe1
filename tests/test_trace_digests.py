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
    "scenario1": "99e80c03a5987ff1e0c5b51e191a56be889a47187bddd26c5da63650b306af02",
    "scenario2": "183dded0edf0b86b9890226e6c51ef164014246c8185582e89cb19c87ec2a268",
    "scenario3": "f91811fc3c723a90eb26a8cbe38a67f4f1e88ca944974c1d0c2d4d419df8672a",
    "scenario4": "f91811fc3c723a90eb26a8cbe38a67f4f1e88ca944974c1d0c2d4d419df8672a",
    "scenario5": "1823ff192ff6727cdd809fbc36fc15b32a805c3aa5f36480f26a91ebcb69e291",
    "scenario6": "1823ff192ff6727cdd809fbc36fc15b32a805c3aa5f36480f26a91ebcb69e291",
    "scenario7": "2aab0f25d139be4418860eb03200d0d8a0e6cb95647c044470bdc47c1887b566",
    "scenario8": "65696250566d7a3580f72d119ca37715944b92db3c495724cd3c314d85bbb612",
    "squarewave": "3aca413b5f8328c99ab264cd4c374e5513de175dfbda8592dd91898f9c428098",
    "fast2": "f21021489d3100da71ef0b9f7de93ef1df4a76353dd520bf6d414ff3869f0967",
    "staticlink": "a161aea5f140ef989a98f0df076fd4492d59985c2a08204f0cde898d446cef51",
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

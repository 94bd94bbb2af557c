"""Golden captures: the simulator and the ``.ctr`` encoder, byte for byte.

Each pinned application is captured on its pinned scheduler seeds and
encoded as a columnar trace.  The SHA-256 of the container bytes pins
the whole event stream — every scheduler RNG draw, every interleaving,
every encoded column — and the per-launch ``(batches, instructions,
native_parallel)`` triples pin the executor's cycle account, so a
drifting RNG stream or a reordered float sum fails here directly.

The digests were recorded before the simulator's type-dispatched inner
loop and the encoder's per-chunk memo existed; both must reproduce them
exactly.  ``interac`` dispatches the most events of the Table 4 basket.
"""

import hashlib
import io

import pytest

from repro.engine import capture_workload
from repro.engine.coltrace import write_columnar
from repro.gpu.events import KernelEndEvent
from repro.workloads import get_workload

#: name -> (pinned seeds, .ctr SHA-256, per-launch
#: (batches, instructions, native_parallel)).
GOLDEN = {
    "cuML_gsync": (
        (1, 2, 3),
        "f63faec69344c700c354fd694f1a45cf38a0564bf70de41632c2c99b2ebf2219",
        ((176, 708, 11000.0), (193, 794, 13064.0), (201, 856, 14552.0)),
    ),
    "graph-color": (
        (1, 2, 3),
        "af3764c45c07eb32815341d5a246bbcfd99bb07d1199d63ff8b3b25b601a1989",
        ((81, 211, 1604.0), (68, 194, 1196.0), (103, 232, 2108.0)),
    ),
    "interac": (
        (1, 2, 3),
        "7fbae7595eb47a6cc73d1ee784baf9f797bf0030bfbf9ad184a1dabf0ede3bb0",
        ((3752, 13084, 396504.0), (4233, 15818, 462120.0),
         (4704, 18618, 529320.0)),
    ),
    "reduction": (
        (1, 2, 3),
        "e4fdba9d7e73bffa6b559bca8c3043adc2b4fd5083a74cb4207574a94e77e2d8",
        ((132, 328, 3700.0), (140, 317, 3436.0), (148, 342, 4036.0)),
    ),
    "rule-110": (
        (1, 2, 3),
        "9336ae27147bd7e5f91f82f7c73ea4b6f1dcc10ac7d0a7ed50d5216ce781b23e",
        ((160, 886, 10972.0), (201, 897, 11236.0), (197, 888, 11020.0)),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_capture_matches_golden(name):
    seeds, digest, launches = GOLDEN[name]
    workload = get_workload(name)
    assert tuple(workload.seeds) == seeds
    trace = capture_workload(workload)
    ends = tuple(
        (e.batches, e.instructions, e.native_parallel)
        for e in trace.events
        if type(e) is KernelEndEvent
    )
    assert ends == launches
    buffer = io.BytesIO()
    write_columnar(buffer, trace.events)
    assert hashlib.sha256(buffer.getvalue()).hexdigest() == digest

"""Golden replays: the detector's per-launch cycle accounts and counts.

Each pinned application is captured on its pinned scheduler seeds,
encoded as a columnar trace, decoded again and replayed under a
default-config :class:`IGuard`, one fresh device and tool per seed.  For
every launch the golden file holds the ``TimingBreakdown.snapshot()``
times as ``repr`` strings and every ``LaunchStats`` field (floats as
``repr`` too), so a reordered float sum in the detector's cycle
charging — not just a changed race verdict — fails here directly.

The values were recorded before the detector bound its INSTRUMENTATION
and DETECTION accounts once per launch and before the Table 2 check was
flattened; both must reproduce them exactly.  Regenerate with
``PYTHONPATH=src python tests/test_replay_golden.py`` only when a change
is *meant* to move the detector's accounts.
"""

import dataclasses
import io
import json
import os

import pytest

from repro.core.detector import IGuard
from repro.engine import capture_workload
from repro.engine.coltrace import read_events, write_columnar
from repro.engine.replay import ReplayDevice, replay
from repro.engine.trace import Trace
from repro.workloads import get_workload

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "replay_golden.json"
)

#: Racy Table 4 applications covering every race type; ``interac``
#: dispatches the most events of the basket.
APPS = ("cuML_gsync", "graph-color", "interac", "reduction", "rule-110")


def _exact(value):
    """Floats as their ``repr`` so the comparison is bit-exact."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in sorted(value.items())}
    return value


def observe(name: str) -> list:
    """Per seed, per launch: the timing snapshot and the launch stats."""
    buffer = io.BytesIO()
    write_columnar(buffer, capture_workload(get_workload(name)).events)
    buffer.seek(0)
    events, corruption = read_events(buffer)
    assert corruption is None
    trace = Trace(events)
    seeds = []
    for seed, run in trace.runs():
        device = ReplayDevice(trace.gpu_config)
        tool = device.add_tool(IGuard())
        replay(run, device=device)
        assert len(device.runs) == len(tool.stats)
        seeds.append({
            "seed": seed,
            "launches": [
                {
                    "timing": _exact(kernel_run.timing.snapshot()),
                    "stats": _exact(dataclasses.asdict(stats)),
                }
                for kernel_run, stats in zip(device.runs, tool.stats)
            ],
        })
    return seeds


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_the_pinned_apps():
    assert sorted(_golden()) == sorted(APPS)


@pytest.mark.parametrize("name", APPS)
def test_replay_matches_golden(name):
    assert observe(name) == _golden()[name]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as out:
        json.dump({name: observe(name) for name in APPS}, out, indent=1)
        out.write("\n")

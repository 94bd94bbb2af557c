"""The pinned Table 4 racy basket and the three ways it is run.

Every way runs the same inputs: the 22 Table 4 applications, each on
its pinned scheduler seeds shifted by the benchmark seed.  ``live`` runs
simulation and detection together, ``replay`` re-drives the detector
over a columnar trace captured at set-up, ``capture`` simulates and
writes that trace with no detector.  The differences between them split
host time between the layers.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core import report as report_mod
from repro.core.detector import IGuard
from repro.core.engine import IGuardCore
from repro.core.report import RaceLog
from repro.engine import coltrace
from repro.engine import replay as replay_mod
from repro.engine.bus import EventBus
from repro.engine.trace import Trace, TraceSink
from repro.gpu.device import Device
from repro.gpu.events import KernelEndEvent, MemoryEvent, SyncEvent
from repro.workloads import runner
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.registry import racy_workloads

#: Seed ``n`` runs every application on its pinned seeds plus
#: ``n * SEED_STRIDE``; the stride keeps shifted seeds clear of the
#: small pinned ones.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class App:
    """One application of the basket on its (shifted) scheduler seeds."""

    workload: Workload
    seeds: Tuple[int, ...]

    @property
    def name(self) -> str:
        return self.workload.name


def table4_basket(seed: int = 0) -> List[App]:
    """The racy basket; seed 0 keeps every application's pinned seeds."""
    return [
        App(w, tuple(s + seed * SEED_STRIDE for s in w.seeds))
        for w in racy_workloads()
    ]


class RecordingFactory(runner.DetectorFactory):
    """The serial default-config iGUARD factory, keeping each tool built."""

    def __init__(self) -> None:
        super().__init__(IGuard, shards=1)
        self.tools: List[IGuard] = []

    def __call__(self, shards=None) -> IGuard:
        tool = super().__call__(shards)
        self.tools.append(tool)
        return tool

    def take_counts(self) -> Dict[str, int]:
        """Detector counts summed over the tools built since the last call."""
        stats = [s for tool in self.tools for s in tool.stats]
        self.tools = []
        return {
            "checked": sum(s.accesses_checked for s in stats),
            "coalesced": sum(s.accesses_coalesced for s in stats),
            "elided": sum(s.accesses_elided for s in stats),
            "races_reported": sum(s.races_reported for s in stats),
        }


def detector_factory() -> runner.DetectorFactory:
    """What a user runs: default ``IGuardConfig``, one shard."""
    return runner.DetectorFactory(IGuard, shards=1)


# -- the three operations ------------------------------------------------
# Entry points are looked up on their modules at call time, so the span
# wrappers a traced round installs there are the ones called.


def run_live(app: App, factory) -> WorkloadResult:
    return runner.run_workload(app.workload, factory, seeds=app.seeds)


def run_replay(app: App, path: str, factory) -> WorkloadResult:
    return replay_mod.replay_workload(Trace.load(path), factory, app.name)


def run_capture(app: App, path: str) -> Trace:
    trace = replay_mod.capture_workload(app.workload, seeds=app.seeds)
    trace.save(path)
    return trace


# -- set-up --------------------------------------------------------------


@dataclass(frozen=True)
class Capture:
    """An application's reference trace on disk and what it holds."""

    path: str
    events: int
    instructions: int
    launches: int
    bytes: int


def trace_counts(trace: Trace, path: str) -> Capture:
    events = instructions = launches = 0
    for event in trace.events:
        kind = type(event)
        if kind is MemoryEvent or kind is SyncEvent:
            events += 1
        elif kind is KernelEndEvent:
            launches += 1
            instructions += event.instructions
    return Capture(path, events, instructions, launches, os.path.getsize(path))


def prepare(apps: List[App], workdir: str) -> Dict[str, Capture]:
    """Capture every application once to ``<workdir>/<name>.ctr``."""
    captures = {}
    for app in apps:
        path = os.path.join(workdir, f"{app.name}.ctr")
        captures[app.name] = trace_counts(run_capture(app, path), path)
    return captures


# -- correctness ---------------------------------------------------------


def table4_problems(workload: Workload, result: WorkloadResult) -> List[str]:
    """Where a pinned-seed result departs from the paper's Table 4 row."""
    problems = []
    if result.races != workload.expected_races:
        problems.append(f"{result.races} race sites, Table 4 has {workload.expected_races}")
    if set(result.race_types) != set(workload.expected_types):
        problems.append(
            f"race types {sorted(result.race_types)}, "
            f"Table 4 has {sorted(workload.expected_types)}"
        )
    return problems


def result_problems(result: WorkloadResult, reference: WorkloadResult) -> List[str]:
    """Where a detector result differs from the reference one, exactly."""
    problems = []
    if result.status != "ok":
        problems.append(f"status {result.status}: {result.detail}")
    for field in ("race_sites", "race_types", "overhead"):
        got, want = getattr(result, field), getattr(reference, field)
        if got != want:
            problems.append(f"{field} {got!r} != {want!r}")
    return problems


def file_problems(path: str, reference_path: str) -> List[str]:
    """A capture is correct when it is byte-identical to the reference."""
    with open(path, "rb") as got, open(reference_path, "rb") as want:
        if got.read() != want.read():
            return [f"{path} differs from the reference capture"]
    return []


@dataclass
class Tally:
    """Application operations attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0

    def record(self, label: str, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {label}: {problem}", file=sys.stderr)
        return not problems


@dataclass
class Reference:
    """Verified per-application results and the deterministic counts."""

    results: Dict[str, WorkloadResult]
    counts: Dict[str, Dict[str, int]]


def verify(
    apps: List[App], captures: Dict[str, Capture], seed: int, tally: Tally
) -> Reference:
    """Run each application live and replayed once and check both.

    Live must equal replay exactly under every seed; under the pinned
    seeds each application must also reproduce its Table 4 row.  The
    live run also yields the detector half of the deterministic counts.
    """
    factory = RecordingFactory()
    results, counts = {}, {}
    for app in apps:
        capture = captures[app.name]
        try:
            live = run_live(app, factory)
            detector = factory.take_counts()
            replayed = run_replay(app, capture.path, factory)
            replay_detector = factory.take_counts()
        except Exception as exc:  # noqa: BLE001 - every app must be tried
            tally.record(f"verify {app.name}", [f"{type(exc).__name__}: {exc}"])
            continue
        problems = result_problems(replayed, live)
        if replay_detector != detector:
            problems.append(f"detector counts {replay_detector} on replay, {detector} live")
        if seed == 0:
            problems += table4_problems(app.workload, live)
        tally.record(f"verify {app.name}", problems)
        results[app.name] = live
        counts[app.name] = {
            "events": capture.events,
            "instructions": capture.instructions,
            "launches": capture.launches,
            **detector,
            "bytes": capture.bytes,
        }
    return Reference(results, counts)


class Operations:
    """The timed operation and output check of each workload."""

    def __init__(self, captures: Dict[str, Capture], reference: Reference, workdir: str):
        self.captures = captures
        self.reference = reference
        self.workdir = workdir
        #: Swapped for a :class:`RecordingFactory` in traced passes.
        self.factory = detector_factory()

    def op(self, workload: str):
        if workload == "live-table4":
            return lambda app: run_live(app, self.factory)
        if workload == "replay-table4":
            return lambda app: run_replay(app, self.captures[app.name].path, self.factory)
        return lambda app: run_capture(app, self.capture_path(app))

    def check(self, workload: str):
        if workload == "capture-table4":
            return lambda app, _: file_problems(
                self.capture_path(app), self.captures[app.name].path
            )
        return lambda app, result: result_problems(result, self.reference.results[app.name])

    def capture_path(self, app: App) -> str:
        return os.path.join(self.workdir, f"timed-{app.name}.ctr")


# -- layer spans -----------------------------------------------------------

#: Public entry points wrapped per layer.  A layer's self time excludes
#: the spans of the layers it calls into.
LAYER_ENTRY_POINTS = (
    ("workloads.runner", runner, ("run_workload",)),
    ("workloads.runner", replay_mod, ("capture_workload", "replay_workload")),
    ("engine.replay", replay_mod, ("replay",)),
    ("engine.bus", EventBus, (
        "publish_alloc", "publish_launch_begin", "publish_memory",
        "publish_sync", "publish_launch_end", "publish_timeout",
        "publish_kernel_end",
    )),
    ("engine.trace.sink", TraceSink, (
        "attach", "mark_run", "on_alloc", "on_launch_begin", "on_memory",
        "on_sync", "on_launch_end", "on_timeout", "on_kernel_end",
    )),
    ("engine.coltrace.encode", coltrace, ("save_columnar",)),
    ("engine.coltrace.decode", coltrace, ("read_events",)),
    ("core.detector", IGuard, (
        "on_alloc", "on_launch_begin", "on_launch_end", "on_timeout",
        "on_sync", "on_kernel_end",
    )),
    ("core.engine", IGuardCore, ("handle", "apply_sync", "infer_locks")),
    ("core.report", RaceLog, ("report",)),
    ("core.report", report_mod, ("merge_race_records",)),
)


def install_layer_spans(recorder) -> None:
    """Wrap every layer's entry points; counts ride the same wrappers."""
    for layer, owner, attrs in LAYER_ENTRY_POINTS:
        for attr in attrs:
            recorder.wrap(owner, attr, layer)
    recorder.wrap(
        Device, "launch", "gpu",
        on_return=lambda _, run: recorder.count("gpu.instructions", run.instructions),
    )
    recorder.wrap(
        IGuard, "on_memory", "core.detector",
        on_return=lambda *_: recorder.count("core.detector.memory_events"),
    )

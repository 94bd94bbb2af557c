"""Layered Table 4 benchmark: ``python3 perfbench/run.py --workload NAME``.

Runs the pinned Table 4 racy basket in one of three ways and
prints every metric by name with its unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` reports per-layer self time and counts from a run with
spans around every layer's entry points, plus ``trace_overhead``.
The exit code is 0 when every output was correct, 1 when some was not,
and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import spans, stats  # noqa: E402 - needs ROOT on the path

WORKLOADS = ("live-table4", "replay-table4", "capture-table4")
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
#: A traced run makes at least this many rounds, for a median overhead.
MIN_TRACED_ROUNDS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=0,
        help="shift every application's scheduler seeds; 0 (default) keeps the pinned seeds "
             "and adds the Table 4 check",
    )
    parser.add_argument("--seconds", type=float, default=45.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def timed_pass(apps, op, check, tally, samples_ms: Dict[str, List[float]]) -> float:
    """One checked pass over the basket; returns its timed seconds.

    Each correct operation's host milliseconds go to ``samples_ms``
    under its application's name.
    """
    # Collect the previous pass's garbage outside this pass's timing.
    gc.collect()
    total = 0.0
    for app in apps:
        start = time.perf_counter()
        try:
            output = op(app)
        except Exception as exc:  # noqa: BLE001 - a failed app is counted, not fatal
            tally.record(app.name, [f"{type(exc).__name__}: {exc}"])
            continue
        elapsed = time.perf_counter() - start
        if tally.record(app.name, check(app, output)):
            samples_ms.setdefault(app.name, []).append(elapsed * 1e3)
            total += elapsed
    return total


def untraced_run(args, apps, workdir, tally) -> Dict[str, float]:
    from perfbench import basket

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        captures = basket.prepare(apps, workdir)
        setups.append(time.perf_counter() - start)
    reference = basket.verify(apps, captures, args.seed, tally)
    ops = basket.Operations(captures, reference, workdir)
    op, check = ops.op(args.workload), ops.check(args.workload)

    min_passes = -(-stats.samples_needed(90) // len(apps))
    samples_ms: Dict[str, List[float]] = {}
    passes = 0
    started = time.perf_counter()
    while True:
        last = timed_pass(apps, op, check, tally, samples_ms)
        passes += 1
        if passes >= min_passes and time.perf_counter() - started + last > args.seconds:
            break
    every = [ms for app in samples_ms.values() for ms in app]
    print(f"timed passes: {passes}, app operations timed: {len(every)}")
    report_counts(reference, args)
    # A pass takes each application's median time: one slow operation
    # moves a median pass less than it moves any single pass.
    median_pass_s = sum(stats.median(app) for app in samples_ms.values()) / 1e3
    return {
        "events_per_s": sum(c.events for c in captures.values()) / median_pass_s,
        "workload_ms_p50": stats.percentile(every, 50),
        "workload_ms_p90": stats.percentile(every, 90),
        "setup_s": stats.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_overhead_geomean": stats.geomean([r.overhead for r in reference.results.values()]),
    }


def traced_run(args, apps, workdir, tally) -> Dict[str, float]:
    """Rounds of: an untraced pass of the workload, then all three traced.

    No one workload enters every layer, so each traced round runs the
    basket through all three; ``trace_overhead`` compares the traced pass
    of the named workload with the untraced pass of the same round.
    """
    from perfbench import basket

    captures = basket.prepare(apps, workdir)
    reference = basket.verify(apps, captures, args.seed, tally)
    ops = basket.Operations(captures, reference, workdir)
    recorder = spans.SpanRecorder()
    factory = basket.RecordingFactory()
    rounds: List[Dict[str, float]] = []
    overheads: List[float] = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced = timed_pass(apps, ops.op(args.workload), ops.check(args.workload), tally, {})
        recorder.clear()
        ops.factory = factory
        basket.install_layer_spans(recorder)
        try:
            walls = {}
            for workload in WORKLOADS:
                op = ops.op(workload)

                def spanned(app, op=op):
                    with recorder.span("bench"):
                        return op(app)

                walls[workload] = timed_pass(apps, spanned, ops.check(workload), tally, {})
        finally:
            recorder.uninstall()
            ops.factory = basket.detector_factory()
        overheads.append(walls[args.workload] / untraced)
        capture_bytes = sum(os.path.getsize(ops.capture_path(app)) for app in apps)
        rounds.append(layer_metrics(recorder, factory.take_counts(), capture_bytes))
        now = time.perf_counter()
        if len(rounds) >= MIN_TRACED_ROUNDS and now - started + (now - round_start) > args.seconds:
            break
    counts = [{k: v for k, v in r.items() if isinstance(v, int)} for r in rounds]
    tally.record("counts of every round", [] if all(c == counts[0] for c in counts) else [
        f"counts differ between rounds: {counts}"
    ])
    OUT.mkdir(exist_ok=True)
    recorder.save(OUT / f"spans-{args.workload}.npz")
    print(f"traced rounds: {len(rounds)}; spans of the last round: {len(recorder.layers)}")
    report_counts(reference, args)
    metrics = {name: stats.median([r[name] for r in rounds]) for name in rounds[0]}
    metrics.update(counts[0])
    metrics["trace_overhead"] = stats.median(overheads)
    return metrics


def layer_metrics(recorder, detector: Dict[str, int], capture_bytes: int) -> Dict[str, float]:
    """Per-layer self seconds and counts of one traced round."""
    own = recorder.self_times()
    calls = recorder.calls()
    gpu_s = own.get("gpu", 0.0)
    instructions = recorder.counters.get("gpu.instructions", 0)
    memory_events = recorder.counters.get("core.detector.memory_events", 0)
    return {
        "gpu.self_s": gpu_s,
        "gpu.launches": calls.get("gpu", 0),
        "gpu.instructions": instructions,
        "gpu.instr_per_s": stats.ratio(instructions, gpu_s),
        "engine.bus.self_s": own.get("engine.bus", 0.0),
        "engine.bus.publish_calls": calls.get("engine.bus", 0),
        "engine.trace.sink_s": own.get("engine.trace.sink", 0.0),
        "engine.coltrace.encode_s": own.get("engine.coltrace.encode", 0.0),
        "engine.coltrace.bytes": capture_bytes,
        "engine.coltrace.decode_s": own.get("engine.coltrace.decode", 0.0),
        "engine.replay.self_s": own.get("engine.replay", 0.0),
        "core.detector.self_s": own.get("core.detector", 0.0),
        "core.detector.memory_events": memory_events,
        "core.detector.coalesced": detector["coalesced"],
        "core.detector.coalesce_ratio": stats.ratio(detector["coalesced"], memory_events),
        "core.engine.self_s": own.get("core.engine", 0.0),
        "core.engine.checked": detector["checked"],
        "core.engine.elided": detector["elided"],
        "core.engine.elision_ratio": stats.ratio(detector["elided"], detector["checked"]),
        "core.engine.races_reported": detector["races_reported"],
        "core.report.self_s": own.get("core.report", 0.0),
        "core.report.records": calls.get("core.report", 0),
        "workloads.runner.self_s": own.get("workloads.runner", 0.0),
    }


def report_counts(reference, args) -> None:
    """Print the deterministic per-application counts and write them out."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"counts-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(reference.counts, indent=1, sort_keys=True), encoding="utf-8")
    columns = ("events", "instructions", "launches", "checked", "coalesced", "elided",
               "races_reported", "bytes")
    print("app " + " ".join(columns))
    for name, counts in reference.counts.items():
        print(name, " ".join(str(counts[c]) for c in columns))
    print(f"race sites over the basket: {sum(r.races for r in reference.results.values())}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin the program's defaults: no shard, budget or observability
    # setting may leak in from the environment.
    for key in [k for k in os.environ if k.startswith("IGUARD_")]:
        del os.environ[key]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program under test: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import basket

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    apps = basket.table4_basket(args.seed)
    tally = basket.Tally()
    workdir = tempfile.mkdtemp(prefix="work-", dir=ROOT / "perfbench")
    try:
        run = traced_run if args.trace else untraced_run
        values = run(args, apps, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = stats.check_emitted(
        {name: {"value": value, "unit": units.get(name, "?")} for name, value in values.items()},
        declared,
    )
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    print(f"fail_rate = {stats.ratio(tally.failed, tally.attempted)} "
          f"({tally.failed} of {tally.attempted} app operations)")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

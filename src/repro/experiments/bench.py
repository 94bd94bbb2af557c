"""Wall-clock performance harness: ``python -m repro.experiments.bench``.

Unlike the tables and figures, which report *simulated cycles*, this
harness measures the reproduction's own speed — wall-clock events per
second of the detection hot path — over a fixed basket of workloads with
pinned scheduler seeds.  Its output is a ``BENCH_*.json`` artifact meant
to be checked in per PR, so the events/sec trajectory of the codebase is
observable and CI can hold the line against regressions.

Metrics, per (workload, seed) cell and aggregated per suite and overall
under the ``detection`` key:

- **events/sec** — memory-access events processed by the detector
  (checked + coalesced) divided by the wall-clock time of the run;
- **p50/p95 per-event cost** — microseconds per event across cells.

The harness also measures trace-container throughput: decode and
end-to-end replay events/sec of the JSONL codec vs the columnar ``.ctr``
container (``repro.engine.coltrace``), with race-site equality enforced
across formats.

CI runs ``--smoke --check <baseline.json>``: a small basket, JSON
uploaded as an artifact.  ``--check`` also reads results written by
older harness versions (per-mode ``modes`` summaries), because CI
measures its baseline on the base revision.  Exit codes: 2 — events/sec
regressed more than 30% against the baseline; 3 — columnar replay
changed detection output.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from repro.core import IGuard
from repro.errors import DeadlockError, TimeoutError_
from repro.gpu.device import Device
from repro.obs import (
    add_observability_args,
    begin_observability,
    finalize_observability,
)
from repro.obs import metrics as obs_metrics
from repro.obs import profiler as obs_profiler
from repro.obs.log import get_logger, output
from repro.workloads import racy_workloads
from repro.workloads.base import SIM_GPU

#: Workloads (by Table 4 name) of the quick CI basket.  Chosen to cover
#: several suites while keeping the smoke job under a minute.
SMOKE_BASKET = ("matrix-mult", "reduction", "graph-color", "reduceMB")

#: Default regression tolerance for ``--check``: fail when events/sec
#: drops below (1 - 0.30) x the checked-in baseline.
REGRESSION_TOLERANCE = 0.30

@dataclass
class CellResult:
    """One (workload, seed) measurement."""

    suite: str
    workload: str
    seed: int
    events: int
    seconds: float

    @property
    def events_per_sec(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0

    @property
    def us_per_event(self) -> float:
        return self.seconds * 1e6 / self.events if self.events else 0.0


def bench_cell(workload, seed: int, repeats: int = 1) -> CellResult:
    """Time one workload/seed run under a fresh default-config detector.

    ``repeats`` > 1 re-runs the cell and keeps the fastest wall time (the
    standard way to suppress scheduler noise); events are identical
    across repeats because the seed pins the interleaving.
    """
    best: Optional[float] = None
    events = 0
    for _ in range(max(1, repeats)):
        elapsed, events = _run_cell_once(workload, seed)
        best = elapsed if best is None else min(best, elapsed)
    return CellResult(
        suite=workload.suite,
        workload=workload.name,
        seed=seed,
        events=events,
        seconds=best or 0.0,
    )


def _run_cell_once(workload, seed: int):
    """One timed run of a cell; returns (seconds, events)."""
    device = Device(SIM_GPU)
    tool = device.add_tool(IGuard())
    started = time.perf_counter()
    try:
        workload.run(device, seed)
    except (DeadlockError, TimeoutError_):
        pass  # legitimate racy outcomes; the cell's events still count
    elapsed = time.perf_counter() - started
    events = sum(
        s.accesses_checked + s.accesses_coalesced for s in tool.stats
    )
    return elapsed, events


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (fraction in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def summarize(cells: Iterable[CellResult]) -> dict:
    """Aggregate cells into per-suite and overall metrics."""
    cells = list(cells)
    suites: Dict[str, dict] = {}
    for cell in cells:
        suite = suites.setdefault(cell.suite, {"events": 0, "seconds": 0.0})
        suite["events"] += cell.events
        suite["seconds"] += cell.seconds
    for suite in suites.values():
        suite["events_per_sec"] = round(
            suite["events"] / suite["seconds"] if suite["seconds"] else 0.0, 1
        )
        suite["seconds"] = round(suite["seconds"], 4)
    events = sum(c.events for c in cells)
    seconds = sum(c.seconds for c in cells)
    costs = [c.us_per_event for c in cells if c.events]
    return {
        "cells": len(cells),
        "events": events,
        "seconds": round(seconds, 4),
        "events_per_sec": round(events / seconds if seconds else 0.0, 1),
        "p50_us_per_event": round(_percentile(costs, 0.50), 4),
        "p95_us_per_event": round(_percentile(costs, 0.95), 4),
        "suites": suites,
    }


def run_basket(
    workloads, repeats: int = 1, seeds_limit: Optional[int] = None
) -> dict:
    """Measure every (workload, seed) cell of the basket."""
    cells = []
    for workload in workloads:
        seeds = workload.seeds[:seeds_limit] if seeds_limit else workload.seeds
        for seed in seeds:
            cells.append(bench_cell(workload, seed, repeats=repeats))
    return summarize(cells)


# ---------------------------------------------------------------------------
# Trace throughput: JSONL vs the columnar container, decode and end-to-end.
# ---------------------------------------------------------------------------


def measure_trace_throughput(workloads, repeats: int = 1) -> dict:
    """Measure trace decode and replay throughput in both container formats.

    Captures a one-seed trace per workload and saves it as both JSONL and
    columnar (``.ctr``), then times:

    - **decode** — stream the file back into event objects and discard
      them (``repro.engine.trace.stream_events``), isolating the codec;
    - **replay** — file to race report: ``Trace.load`` plus the serial
      event-bus replay, once per format (``jsonl_bus``, ``columnar_bus``).

    Race sites must be identical across both formats; the headline
    ``replay_speedup`` is columnar over JSONL.
    """
    import os
    import tempfile

    from repro.engine.replay import capture_workload, replay
    from repro.engine.trace import Trace, stream_events

    formats = ("jsonl", "columnar")
    decode = {fmt: {"events": 0, "seconds": 0.0} for fmt in formats}
    replays = {fmt: {"events": 0, "seconds": 0.0} for fmt in formats}
    sites_by_format: Dict[str, Dict[str, str]] = {fmt: {} for fmt in formats}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            trace = capture_workload(workload, seeds=workload.seeds[:1])
            paths = {
                "jsonl": os.path.join(tmp, f"{workload.name}.jsonl"),
                "columnar": os.path.join(tmp, f"{workload.name}.ctr"),
            }
            for path in paths.values():
                trace.save(path)

            for fmt, path in paths.items():
                best: Optional[float] = None
                count = 0
                for _ in range(max(1, repeats)):
                    started = time.perf_counter()
                    count = sum(1 for _ in stream_events(path))
                    elapsed = time.perf_counter() - started
                    best = elapsed if best is None else min(best, elapsed)
                decode[fmt]["events"] += count
                decode[fmt]["seconds"] += best or 0.0

                best = None
                tool = None
                for _ in range(max(1, repeats)):
                    started = time.perf_counter()
                    loaded = Trace.load(path)
                    tool = IGuard()
                    replay(loaded.events, tools=[tool])
                    elapsed = time.perf_counter() - started
                    best = elapsed if best is None else min(best, elapsed)
                replays[fmt]["events"] += sum(
                    s.accesses_checked + s.accesses_coalesced
                    for s in tool.stats
                )
                replays[fmt]["seconds"] += best or 0.0
                for ip, race_type in tool.races.sites():
                    sites_by_format[fmt].setdefault(ip, str(race_type))

    def _rates(bucket):
        return {
            "events": bucket["events"],
            "seconds": round(bucket["seconds"], 4),
            "events_per_sec": round(
                bucket["events"] / bucket["seconds"]
                if bucket["seconds"]
                else 0.0,
                1,
            ),
        }

    decode_out = {fmt: _rates(bucket) for fmt, bucket in decode.items()}
    replay_out = {
        f"{fmt}_bus": _rates(bucket) for fmt, bucket in replays.items()
    }
    jsonl_decode = decode_out["jsonl"]["events_per_sec"]
    bus_eps = replay_out["jsonl_bus"]["events_per_sec"]
    return {
        "decode": decode_out,
        "decode_speedup": (
            round(decode_out["columnar"]["events_per_sec"] / jsonl_decode, 2)
            if jsonl_decode
            else None
        ),
        "replay": replay_out,
        "replay_speedup": (
            round(replay_out["columnar_bus"]["events_per_sec"] / bus_eps, 2)
            if bus_eps
            else None
        ),
        "identical_sites": sites_by_format["jsonl"]
        == sites_by_format["columnar"],
    }


# ---------------------------------------------------------------------------
# Observability overhead: what does the flight recorder itself cost?
# ---------------------------------------------------------------------------


#: Sampling interval for the telemetry on-cost measurement: aggressive
#: (20 Hz vs the 1 Hz default) so the measured number is an upper bound.
SAMPLER_BENCH_INTERVAL = 0.05


def measure_obs_overhead(workloads, repeats: int = 1, seeds_limit: int = 1) -> dict:
    """Measure the observability stack's own wall-clock cost, per layer.

    Three measurements of the basket over one seed per
    workload: metrics registry **disabled**, metrics **enabled**, and
    metrics enabled **with the telemetry sampler running** at an
    aggressive interval (:data:`SAMPLER_BENCH_INTERVAL`, an upper bound
    on the default 1 Hz cost).  Each layer's overhead is reported as a
    separate percentage, so instrumented numbers are never compared
    against uninstrumented baselines by accident.

    ``telemetry_off_overhead_pct`` is reported as the structural 0.0 it
    is: telemetry is a pure reader — no detection-path call site knows
    the sampler exists, so with the sampler not running there is nothing
    to measure (the only off-cost anywhere is the executor's single
    ``HEARTBEATS.enabled`` boolean test per cell assignment).

    Restores the registry's enabled state afterwards.
    """
    from repro.obs.telemetry import TelemetrySampler

    was_enabled = obs_metrics.metrics_enabled()
    try:
        obs_metrics.set_enabled(False)
        disabled = run_basket(
            workloads, repeats=repeats, seeds_limit=seeds_limit
        )
        obs_metrics.set_enabled(True)
        enabled = run_basket(
            workloads, repeats=repeats, seeds_limit=seeds_limit
        )
        sampler = TelemetrySampler(interval=SAMPLER_BENCH_INTERVAL)
        sampler.start()
        try:
            sampled = run_basket(
                workloads, repeats=repeats, seeds_limit=seeds_limit
            )
        finally:
            sampler.stop()
    finally:
        obs_metrics.set_enabled(was_enabled)
    off_eps = disabled["events_per_sec"]
    on_eps = enabled["events_per_sec"]
    sampler_eps = sampled["events_per_sec"]
    return {
        "disabled_events_per_sec": off_eps,
        "enabled_events_per_sec": on_eps,
        "overhead_pct": (
            round((off_eps / on_eps - 1.0) * 100.0, 1) if on_eps else None
        ),
        "telemetry_off_overhead_pct": 0.0,
        "sampler_events_per_sec": sampler_eps,
        "sampler_interval_s": SAMPLER_BENCH_INTERVAL,
        "sampler_overhead_pct": (
            round((on_eps / sampler_eps - 1.0) * 100.0, 1)
            if sampler_eps
            else None
        ),
        "sampler_ticks": len(sampler.samples()) + sampler.dropped,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def basket(smoke: bool = False):
    """The measured workloads: the Table 4 racy basket (or its smoke cut)."""
    workloads = racy_workloads()
    if smoke:
        workloads = [w for w in workloads if w.name in SMOKE_BASKET]
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.bench",
        description="Wall-clock events/sec benchmark over the table4 basket.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"small basket for CI ({', '.join(SMOKE_BASKET)})",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="timing repeats per cell, fastest kept (default 1)",
    )
    parser.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="limit each workload to its first N pinned seeds",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the results JSON here (default: stdout only)",
    )
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare against a baseline JSON; exit 2 on a >30%% "
             "events/sec regression",
    )
    parser.add_argument(
        "--embed-baseline", default=None, metavar="PATH",
        help="embed a previously measured baseline JSON under "
             "'pre_pr_baseline' and report the speedup against it",
    )
    parser.add_argument(
        "--no-trace-throughput", action="store_true",
        help="skip the JSONL-vs-columnar trace decode/replay measurement",
    )
    parser.add_argument(
        "--attribution", action="store_true",
        help="run the per-phase sampling profiler and embed its self-time "
             "table under 'attribution' in the results JSON (opt-in so "
             "profiler overhead never pollutes the timed numbers)",
    )
    parser.add_argument(
        "--flamegraph-out", default=None, metavar="PATH",
        help="with --attribution: write collapsed stacks here "
             "(flamegraph.pl / speedscope input)",
    )
    add_observability_args(parser)
    args = parser.parse_args(argv)
    if args.flamegraph_out and not args.attribution:
        parser.error("--flamegraph-out requires --attribution")
    begin_observability(args)
    logger = get_logger("bench")

    from repro.obs.log import log_run_config

    log_run_config(backend="iguard", workers=1, logger=logger)

    workloads = basket(smoke=args.smoke)
    result = {
        "schema": 4,
        "harness": "repro.experiments.bench",
        "basket": "table4-racy-smoke" if args.smoke else "table4-racy",
        "workloads": [w.name for w in workloads],
        "repeats": args.repeats,
        "python": platform.python_version(),
    }
    if args.attribution:
        obs_profiler.start_profiler()
    started = time.perf_counter()
    with obs_profiler.phase("bench:detection"):
        summary = run_basket(
            workloads, repeats=args.repeats, seeds_limit=args.seeds
        )
    summary["wall_seconds"] = round(time.perf_counter() - started, 2)
    result["detection"] = summary
    output(
        f"{summary['events']} events in {summary['seconds']}s "
        f"-> {summary['events_per_sec']:.0f} events/sec "
        f"(p50 {summary['p50_us_per_event']}us, "
        f"p95 {summary['p95_us_per_event']}us)"
    )

    if obs_metrics.metrics_enabled():
        # The flight recorder's own cost, reported as a separate number so
        # instrumented runs are never compared against uninstrumented
        # baselines by accident.
        with obs_profiler.phase("bench:obs_overhead"):
            result["obs_overhead"] = measure_obs_overhead(
                workloads, repeats=args.repeats
            )
        overhead = result["obs_overhead"]
        output(
            f"observability overhead: {overhead['overhead_pct']}% "
            f"({overhead['disabled_events_per_sec']:.0f} -> "
            f"{overhead['enabled_events_per_sec']:.0f} events/sec "
            f"with metrics on)"
        )
        output(
            f"telemetry overhead: {overhead['telemetry_off_overhead_pct']}% "
            f"with the sampler off (pure reader, no hot-path hooks); "
            f"sampler on-cost at {overhead['sampler_interval_s']}s interval: "
            f"{overhead['sampler_overhead_pct']}% "
            f"({overhead['enabled_events_per_sec']:.0f} -> "
            f"{overhead['sampler_events_per_sec']:.0f} events/sec)"
        )

    if not args.no_trace_throughput:
        with obs_profiler.phase("bench:trace_throughput"):
            result["trace_throughput"] = measure_trace_throughput(
                workloads, repeats=args.repeats
            )
        throughput = result["trace_throughput"]
        output(
            "trace decode events/sec: "
            f"jsonl {throughput['decode']['jsonl']['events_per_sec']:.0f}, "
            f"columnar {throughput['decode']['columnar']['events_per_sec']:.0f} "
            f"({throughput['decode_speedup']}x)"
        )
        output(
            "trace replay events/sec: "
            f"jsonl {throughput['replay']['jsonl_bus']['events_per_sec']:.0f}, "
            "columnar "
            f"{throughput['replay']['columnar_bus']['events_per_sec']:.0f} "
            f"({throughput['replay_speedup']}x)"
        )
        sites = "identical" if throughput["identical_sites"] else "MISMATCH"
        output(f"trace replay race sites across formats: {sites}")

    if args.embed_baseline:
        with open(args.embed_baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        result["pre_pr_baseline"] = baseline
        base_eps = _headline_events_per_sec(baseline)
        new_eps = _headline_events_per_sec(result)
        if base_eps:
            result["speedup_vs_pre_pr"] = round(new_eps / base_eps, 2)
            output(f"speedup vs pre-PR baseline: {result['speedup_vs_pre_pr']}x")

    exit_code = 0
    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        base_eps = _headline_events_per_sec(baseline)
        new_eps = _headline_events_per_sec(result)
        floor = (1.0 - REGRESSION_TOLERANCE) * base_eps
        result["check"] = {
            "baseline_events_per_sec": base_eps,
            "measured_events_per_sec": new_eps,
            "floor": round(floor, 1),
            "passed": new_eps >= floor,
        }
        if new_eps < floor:
            logger.error(
                "REGRESSION: %.0f events/sec is below the %.0f floor "
                "(%.0f baseline - 30%%)", new_eps, floor, base_eps,
            )
            exit_code = 2
        else:
            output(
                f"regression check passed: {new_eps:.0f} >= {floor:.0f} "
                f"events/sec floor"
            )
    if not result.get("trace_throughput", {}).get("identical_sites", True):
        logger.error(
            "FORMAT FAILURE: columnar replay changed detection output"
        )
        exit_code = 3

    if args.attribution:
        profiler = obs_profiler.stop_profiler()
        result["attribution"] = profiler.attribution()
        attribution = result["attribution"]
        output(
            f"attribution: {attribution['samples']} samples at "
            f"{attribution['interval_s'] * 1e3:.0f}ms over "
            f"{attribution['wall_seconds']:.1f}s wall"
        )
        for name, row in attribution["phases"].items():
            output(
                f"  {name}: {row['seconds']:.2f}s self "
                f"({row['share']:.1%}, {row['samples']} samples)"
            )
        if args.flamegraph_out:
            stacks = profiler.write_collapsed(args.flamegraph_out)
            output(
                f"wrote {stacks} collapsed stacks to {args.flamegraph_out}"
            )

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=False)
            handle.write("\n")
        output(f"wrote {args.output}")
    finalize_observability(args)
    return exit_code


def _headline_events_per_sec(result: dict) -> float:
    """The headline events/sec of a results JSON, in either format.

    Current results carry one ``detection`` summary.  Older results
    (schema 3 and below) carry per-mode summaries under ``modes``: their
    headline is the ``fast`` mode, else whichever single mode was
    measured.
    """
    if "detection" in result:
        return float(result["detection"].get("events_per_sec", 0.0))
    modes = result.get("modes", {})
    for name in ("fast", "slow"):
        if name in modes:
            return float(modes[name].get("events_per_sec", 0.0))
    return 0.0


if __name__ == "__main__":
    sys.exit(main())

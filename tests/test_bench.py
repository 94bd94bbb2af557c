"""The wall-clock harness's results format and its ``--check`` reader.

CI measures the ``--check`` baseline on the base revision, so the
headline reader must accept both the current single-summary format and
the older per-mode ``modes`` format.
"""

import json
from pathlib import Path

from benchmarks.validate_schema import validate
from repro.experiments.bench import _headline_events_per_sec, run_basket
from repro.workloads.registry import get_workload

ROOT = Path(__file__).parent.parent


def test_headline_reads_the_checked_in_pre_pr_baseline():
    baseline = json.loads(
        (ROOT / "benchmarks" / "perf" / "baseline_pre_pr.json").read_text()
    )
    assert "detection" not in baseline
    assert _headline_events_per_sec(baseline) == (
        baseline["modes"]["slow"]["events_per_sec"]
    )


def test_headline_prefers_the_fast_mode_of_a_per_mode_result():
    old = {
        "modes": {
            "fast": {"events_per_sec": 120.0},
            "slow": {"events_per_sec": 100.0},
        }
    }
    assert _headline_events_per_sec(old) == 120.0


def test_headline_reads_a_new_format_result():
    summary = run_basket([get_workload("reduction")], seeds_limit=1)
    result = {
        "schema": 4,
        "harness": "repro.experiments.bench",
        "basket": "table4-racy-smoke",
        "workloads": ["reduction"],
        "detection": summary,
    }
    schema = json.loads(
        (ROOT / "benchmarks" / "schemas" / "bench.schema.json").read_text()
    )
    assert validate(result, schema) == []
    assert summary["events"] > 0
    assert _headline_events_per_sec(result) == summary["events_per_sec"]

"""Tests of the benchmark's own helpers and of its correctness checks."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from perfbench import basket, spans, stats
from perfbench.run import WORKLOADS, layer_metrics
from repro.workloads.base import WorkloadResult

ROOT = Path(__file__).resolve().parents[2]


# -- self time over nested spans -------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,7] > b [2,5]; root > c [8,9]
    names = ["root", "a", "b", "c"]
    layers = [0, 1, 2, 3]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 8.0]
    ends = [10.0, 7.0, 5.0, 9.0]
    own = spans.self_times(names, layers, parents, starts, ends)
    assert own == {"root": 3.0, "a": 3.0, "b": 3.0, "c": 1.0}
    assert sum(own.values()) == 10.0


def test_self_time_sums_spans_of_one_layer():
    # Two bus spans under one launch, each holding a detector span.
    names = ["gpu", "bus", "detector"]
    layers = [0, 1, 2, 1, 2]
    parents = [-1, 0, 1, 0, 3]
    starts = [0.0, 1.0, 1.5, 4.0, 4.25]
    ends = [6.0, 2.0, 1.75, 5.0, 4.75]
    own = spans.self_times(names, layers, parents, starts, ends)
    assert own["gpu"] == pytest.approx(4.0)
    assert own["bus"] == pytest.approx(0.75 + 0.5)
    assert own["detector"] == pytest.approx(0.25 + 0.5)


class _Layered:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i


class _Child(_Layered):
    pass


def test_recorder_nests_wrapped_calls_and_restores_them():
    original_outer = _Layered.outer
    recorder = spans.SpanRecorder()
    recorder.wrap(_Layered, "outer", "outer")
    recorder.wrap(_Layered, "inner", "inner", on_return=lambda args, r: recorder.count("seen", r))
    recorder.wrap(_Child, "outer", "child")  # inherited: must be deleted again
    try:
        with recorder.span("root"):
            assert _Layered().outer(4) == 6
    finally:
        recorder.uninstall()
    assert _Layered.outer is original_outer
    assert "outer" not in vars(_Child)
    assert recorder.calls() == {"outer": 1, "inner": 4, "child": 0, "root": 1}
    assert recorder.counters == {"seen": 6}
    assert list(recorder.parents) == [-1, 0, 1, 1, 1, 1]
    own = recorder.self_times()
    root_duration = recorder.ends[0] - recorder.starts[0]
    assert sum(own.values()) == pytest.approx(root_duration)
    assert all(value >= 0 for value in own.values())


# -- the percentile rule ---------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_needed(90) == 100
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 50) == 50
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values[:99], 90)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values, 99)


def test_percentile_ignores_sample_order():
    values = [5.0, 1.0, 3.0, 2.0, 4.0] * 20
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 80) == 4.0


def test_ratio_and_geomean():
    assert stats.ratio(3, 0) == 0.0
    assert stats.geomean([2.0, 8.0]) == pytest.approx(4.0)


# -- metric names ----------------------------------------------------------


@pytest.mark.parametrize("name", ["gpu.self_s", "workload_ms_p90", "1dconv", "a-b.c_d"])
def test_legal_metric_names(name):
    assert stats.validate_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "x" * 65, "slash/y", None])
def test_illegal_metric_names(name):
    with pytest.raises(ValueError):
        stats.validate_metric_name(name)


def test_check_emitted_rejects_missing_extra_and_bad_values():
    declared = [{"name": "a_s", "unit": "s"}, {"name": "b", "unit": "count"}]
    good = {"a_s": {"value": 1.5, "unit": "s"}, "b": {"value": 3, "unit": "count"}}
    assert stats.check_emitted(good, declared) == good
    with pytest.raises(ValueError, match="missing"):
        stats.check_emitted({"a_s": good["a_s"]}, declared)
    with pytest.raises(ValueError, match="undeclared"):
        stats.check_emitted({**good, "c": {"value": 1, "unit": "s"}}, declared)
    with pytest.raises(ValueError, match="unit"):
        stats.check_emitted({**good, "b": {"value": 3, "unit": "s"}}, declared)
    with pytest.raises(ValueError, match="finite"):
        stats.check_emitted({**good, "a_s": {"value": math.nan, "unit": "s"}}, declared)


def test_benchmark_file_declares_legal_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        stats.validate_metric_name(metric["name"])
        stats.validate_unit(metric["unit"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- the correctness checks ------------------------------------------------


def _result(**changes):
    fields = dict(
        workload="app", detector="iGUARD", status="ok", races=2,
        race_types=frozenset({"DR"}),
        race_sites=(("k.py:3", "DR"), ("k.py:9", "DR")),
        overhead=4.25,
    )
    fields.update(changes)
    return WorkloadResult(**fields)


def test_result_check_passes_an_identical_result():
    assert basket.result_problems(_result(), _result()) == []


@pytest.mark.parametrize("change", [
    {"race_sites": (("k.py:3", "DR"),)},
    {"race_types": frozenset({"DR", "BR"})},
    {"overhead": 4.25 + 1e-12},
    {"status": "timeout"},
])
def test_result_check_fires_on_a_perturbed_result(change):
    assert basket.result_problems(_result(**change), _result())


def test_table4_check_fires_on_a_perturbed_result():
    app = next(a for a in basket.table4_basket() if a.name == "matrix-mult")
    w = app.workload
    exact = _result(races=w.expected_races, race_types=w.expected_types)
    assert basket.table4_problems(w, exact) == []
    assert basket.table4_problems(w, _result(races=w.expected_races + 1, race_types=w.expected_types))
    assert basket.table4_problems(w, _result(races=w.expected_races, race_types=frozenset({"ITS"})))


def test_file_check_fires_on_one_changed_byte(tmp_path):
    good, bad = tmp_path / "a.ctr", tmp_path / "b.ctr"
    good.write_bytes(b"columnar\x00\x01")
    bad.write_bytes(b"columnar\x00\x02")
    assert basket.file_problems(str(good), str(good)) == []
    assert basket.file_problems(str(bad), str(good))


def test_tally_counts_each_failed_operation_once(capsys):
    tally = basket.Tally()
    assert tally.record("a", [])
    assert not tally.record("b", ["one", "two"])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "FAIL b: two" in capsys.readouterr().err


def test_seed_shifts_every_pinned_seed():
    pinned, shifted = basket.table4_basket(0), basket.table4_basket(3)
    assert len(pinned) == 22
    assert sum(a.workload.expected_races for a in pinned) == 57
    for a, b in zip(pinned, shifted):
        assert a.seeds == a.workload.seeds
        assert b.seeds == tuple(s + 3 * basket.SEED_STRIDE for s in a.seeds)


# -- end to end on the basket ----------------------------------------------


def test_deterministic_counts_repeat_across_two_passes(tmp_path):
    apps = basket.table4_basket()
    passes = []
    for index in range(2):
        workdir = tmp_path / str(index)
        workdir.mkdir()
        tally = basket.Tally()
        reference = basket.verify(apps, basket.prepare(apps, str(workdir)), 0, tally)
        assert (tally.attempted, tally.failed) == (22, 0)
        passes.append(reference.counts)
    assert passes[0] == passes[1]
    assert sorted(passes[0]) == sorted(a.name for a in apps)


def test_traced_round_covers_every_layer(tmp_path):
    apps = [a for a in basket.table4_basket() if a.name in ("graph-color", "shocbfs")]
    tally = basket.Tally()
    captures = basket.prepare(apps, str(tmp_path))
    reference = basket.verify(apps, captures, 0, tally)
    recorder = spans.SpanRecorder()
    factory = basket.RecordingFactory()
    basket.install_layer_spans(recorder)
    try:
        for app in apps:
            with recorder.span("bench"):
                basket.run_live(app, factory)
            with recorder.span("bench"):
                basket.run_capture(app, str(tmp_path / f"timed-{app.name}.ctr"))
            with recorder.span("bench"):
                basket.run_replay(app, captures[app.name].path, factory)
    finally:
        recorder.uninstall()

    capture_bytes = sum((tmp_path / f"timed-{app.name}.ctr").stat().st_size for app in apps)
    metrics = layer_metrics(recorder, factory.take_counts(), capture_bytes)
    counts = [reference.counts[a.name] for a in apps]
    # Live and capture both simulate; live and replay both detect.
    assert metrics["gpu.instructions"] == 2 * sum(c["instructions"] for c in counts)
    assert metrics["gpu.launches"] == 2 * sum(c["launches"] for c in counts)
    assert metrics["core.engine.checked"] == 2 * sum(c["checked"] for c in counts)
    assert metrics["engine.coltrace.bytes"] == sum(c["bytes"] for c in counts)
    for name, value in metrics.items():
        if name.endswith("_s"):
            assert value > 0, name
    own = recorder.self_times()
    bench = [i for i, layer in enumerate(recorder.layers) if recorder.names[layer] == "bench"]
    assert sum(own.values()) == pytest.approx(
        sum(recorder.ends[i] - recorder.starts[i] for i in bench)
    )

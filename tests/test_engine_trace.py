"""Trace record/replay: captured streams re-drive detectors exactly."""

import dataclasses
import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import Barracuda, FastTrack, ScoRD
from repro.core import IGuard
from repro.engine import Trace, TraceSink, capture_workload, replay, replay_workload
from repro.engine.trace import decode_event, encode_event
from repro.gpu.arch import GPUConfig
from repro.gpu.device import Device
from repro.gpu.events import (
    AccessKind,
    AllocEvent,
    KernelEndEvent,
    LaunchEvent,
    MemoryEvent,
    SyncEvent,
    SyncKind,
)
from repro.gpu.ids import ThreadLocation
from repro.gpu.instructions import AtomicOp, Scope
from repro.instrument.tracer import Tracer
from repro.workloads import get_workload, run_workload
from repro.workloads.base import SIM_GPU


class TestReplayMatchesLive:
    """The acceptance check: replayed detection == live detection."""

    def test_graph_color_races_match(self):
        workload = get_workload("graph-color")
        live = run_workload(workload, IGuard)
        trace = capture_workload(workload)
        replayed = replay_workload(trace, IGuard, workload_name=workload.name)
        assert replayed.status == live.status
        assert replayed.race_sites == live.race_sites
        assert replayed.race_types == live.race_types
        assert replayed.races == live.races

    def test_graph_color_timing_matches_exactly(self):
        workload = get_workload("graph-color")
        live = run_workload(workload, IGuard)
        trace = capture_workload(workload)
        replayed = replay_workload(trace, IGuard, workload_name=workload.name)
        # Not approx: the replayed native account replays the recorded
        # cycles and the detector recharges the same overheads, so the
        # whole Figure 13 breakdown reproduces bit-for-bit.
        assert replayed.overhead == live.overhead
        assert replayed.breakdown == live.breakdown
        assert replayed.native_time == live.native_time
        assert replayed.total_time == live.total_time

    def test_replay_after_jsonl_round_trip(self):
        workload = get_workload("graph-color")
        live = run_workload(workload, IGuard)
        trace = Trace.from_jsonl(capture_workload(workload).to_jsonl())
        replayed = replay_workload(trace, IGuard, workload_name=workload.name)
        assert replayed.race_sites == live.race_sites
        assert replayed.overhead == live.overhead

    def test_replay_drives_barracuda_failures(self):
        # warpAA uses scoped atomics: Barracuda must report "unsupported"
        # from a trace exactly as it does live.
        workload = get_workload("warpAA")
        live = run_workload(workload, Barracuda, seeds=(1,))
        trace = capture_workload(workload, seeds=(1,))
        replayed = replay_workload(trace, Barracuda, workload_name=workload.name)
        assert live.status == replayed.status
        assert replayed.detail == live.detail

    def test_one_trace_many_detectors(self):
        workload = get_workload("hashtable")
        trace = capture_workload(workload, seeds=(1,))
        ig = replay_workload(trace, IGuard, workload_name=workload.name)
        bar = replay_workload(trace, Barracuda, workload_name=workload.name)
        live_ig = run_workload(workload, IGuard, seeds=(1,))
        live_bar = run_workload(workload, Barracuda, seeds=(1,))
        assert ig.race_sites == live_ig.race_sites
        assert bar.race_sites == live_bar.race_sites

    def test_tracer_from_trace(self):
        workload = get_workload("b_scan")
        trace = capture_workload(workload, seeds=(1,))
        offline = Tracer.from_trace(trace)
        assert len(offline) > 0
        assert "data" in offline.render() or len(offline.lines) > 0


class TestTraceContainer:
    def test_capture_has_header_and_run_markers(self):
        workload = get_workload("b_scan")
        trace = capture_workload(workload, seeds=(1, 2))
        assert trace.gpu_config == SIM_GPU
        assert [seed for seed, _ in trace.runs()] == [1, 2]
        assert all(events for _, events in trace.runs())

    def test_save_load_plain_and_gzip(self, tmp_path):
        trace = capture_workload(get_workload("b_scan"), seeds=(1,))
        plain = tmp_path / "trace.jsonl"
        packed = tmp_path / "trace.jsonl.gz"
        trace.save(plain)
        trace.save(packed)
        assert Trace.load(plain).events == trace.events
        assert Trace.load(packed).events == trace.events
        with gzip.open(packed, "rt", encoding="utf-8") as fh:
            assert fh.readline().strip().startswith('{"t":"gpu"')

    def test_trace_sink_is_zero_overhead(self):
        from repro.gpu.instructions import store

        device = Device(SIM_GPU)
        device.add_sink(TraceSink())
        a = device.alloc("a", 4)

        def kernel(ctx, arr):
            yield store(arr, ctx.tid, 1)

        run = device.launch(kernel, grid_dim=1, block_dim=4, args=(a,))
        assert run.overhead == pytest.approx(1.0)


# -- codec property tests ---------------------------------------------------

_locations = st.builds(
    ThreadLocation,
    global_tid=st.integers(0, 2**16),
    block_id=st.integers(0, 255),
    tid_in_block=st.integers(0, 1023),
    warp_id=st.integers(0, 4095),
    lane=st.integers(0, 31),
    warp_in_block=st.integers(0, 31),
)

_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.text(max_size=12),
)

_memory_events = st.builds(
    MemoryEvent,
    kind=st.sampled_from(AccessKind),
    address=st.integers(0, 2**32).map(lambda a: a * 4),
    where=_locations,
    ip=st.text(max_size=24),
    active_mask=st.frozensets(st.integers(0, 31), max_size=8),
    scope=st.sampled_from(Scope),
    atomic_op=st.one_of(st.none(), st.sampled_from(AtomicOp)),
    value_stored=_values,
    value_loaded=_values,
    compare=_values,
    batch=st.integers(0, 2**20),
)

_sync_events = st.builds(
    SyncEvent,
    kind=st.sampled_from(SyncKind),
    where=_locations,
    ip=st.text(max_size=24),
    active_mask=st.frozensets(st.integers(0, 31), max_size=8),
    scope=st.sampled_from(Scope),
    batch=st.integers(0, 2**20),
)

_alloc_events = st.builds(
    AllocEvent,
    name=st.text(min_size=1, max_size=16),
    base=st.integers(0, 2**32).map(lambda a: a * 4),
    num_words=st.integers(1, 2**20),
)

_launch_events = st.builds(
    LaunchEvent,
    kernel_name=st.text(min_size=1, max_size=24),
    grid_dim=st.integers(1, 1024),
    block_dim=st.integers(1, 1024),
    warp_size=st.sampled_from([8, 16, 32]),
    warps_per_block=st.integers(1, 32),
    num_threads=st.integers(1, 2**16),
    seed=st.integers(0, 2**31),
    static_instruction_count=st.integers(0, 2**16),
    parallelism=st.integers(1, 4608),
)

_end_events = st.builds(
    KernelEndEvent,
    kernel_name=st.text(min_size=1, max_size=24),
    timed_out=st.booleans(),
    native_parallel=st.floats(0, 1e9, allow_nan=False),
    native_serial=st.floats(0, 1e9, allow_nan=False),
    batches=st.integers(0, 2**24),
    instructions=st.integers(0, 2**24),
)

_events = st.one_of(
    _memory_events, _sync_events, _alloc_events, _launch_events, _end_events
)


class TestCodecRoundTrip:
    @given(event=_events)
    @settings(max_examples=200, deadline=None)
    def test_event_round_trips(self, event):
        assert decode_event(encode_event(event)) == event

    @given(events=st.lists(_events, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_jsonl_round_trips(self, events):
        trace = Trace(events)
        assert Trace.from_jsonl(trace.to_jsonl()).events == trace.events

    def test_gpu_config_round_trips(self):
        assert decode_event(encode_event(SIM_GPU)) == SIM_GPU
        restored = decode_event(encode_event(SIM_GPU))
        assert isinstance(restored, GPUConfig)

    def test_unknown_record_rejected(self):
        with pytest.raises(ValueError):
            decode_event({"t": "mystery"})
        with pytest.raises(TypeError):
            encode_event(object())


class TestEventsImmutableByConvention:
    """Memory and sync records are plain slotted dataclasses, not frozen
    ones: nothing may assign their fields, and they still compare and
    hash by value."""

    def test_records_are_not_frozen(self):
        assert not MemoryEvent.__dataclass_params__.frozen
        assert not SyncEvent.__dataclass_params__.frozen

    @pytest.mark.parametrize("tool", [IGuard, ScoRD, FastTrack])
    @pytest.mark.parametrize("name", ["uts", "conjugGMB", "slabhash_test"])
    def test_replay_leaves_every_event_unchanged(self, tool, name):
        # uts takes and releases CAS locks, conjugGMB synchronizes, and
        # slabhash_test runs warp-wide CAS: every record kind a detector
        # reads reaches it.
        trace = capture_workload(get_workload(name))
        before = [encode_event(event) for event in trace.events]
        replay_workload(trace, tool, workload_name=name)
        assert [encode_event(event) for event in trace.events] == before

    def test_memory_events_compare_and_hash_by_value(self):
        where = ThreadLocation(5, 0, 5, 0, 5, 0)
        fields = dict(
            kind=AccessKind.ATOMIC, address=64, where=where, ip="k.py:3",
            active_mask=frozenset({5}), scope=Scope.BLOCK,
            atomic_op=AtomicOp.CAS, value_stored=1, value_loaded=0,
            compare=0, batch=7,
        )
        a, b = MemoryEvent(**fields), MemoryEvent(**fields)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != dataclasses.replace(a, batch=8)

    def test_sync_events_compare_and_hash_by_value(self):
        where = ThreadLocation(5, 0, 5, 0, 5, 0)
        a = SyncEvent(SyncKind.FENCE, where, "k.py:4", frozenset({5}))
        b = SyncEvent(SyncKind.FENCE, where, "k.py:4", frozenset({5}))
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != dataclasses.replace(a, scope=Scope.BLOCK)

"""The columnar trace container (``repro.engine.coltrace``).

Three contracts:

- **round-trip** — any event stream the JSONL codec accepts survives
  JSONL ↔ columnar translation bit-exactly, including the optional
  value fields (``value_stored``/``value_loaded``/``compare``);
- **salvage** — a truncated ``.ctr`` recovers its longest intact chunk
  prefix under the same :class:`TraceCorruptionError` forensics contract
  as the JSONL reader;
- **replay equivalence** — replaying the columnar container produces
  canonical workload reports byte-identical to the JSONL replay, for
  IGuard and FastTrack, serial and batch-sharded.
"""

import gzip
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FastTrack
from repro.core import IGuard
from repro.core.sharding import (
    BatchShardedFastTrack,
    BatchShardedIGuard,
    replay_columnar_sharded,
    shard_of,
)
from repro.engine import Trace, capture_workload, replay_workload
from repro.engine.coltrace import (
    is_columnar_path,
    iter_chunks,
    read_events,
    save_columnar,
    write_columnar,
)
from repro.errors import TraceCorruptionError
from repro.workloads import get_workload
from repro.workloads.runner import DetectorFactory

from tests.test_engine_trace import _events

#: The replay-equivalence matrix, per the PR: 4 racy + 3 race-free.
RACY = ("matrix-mult", "reduction", "graph-color", "reduceMB")
RACE_FREE = ("warpAA", "b_reduce", "b_scan")


def _round_trip(events, chunk_rows):
    buffer = io.BytesIO()
    write_columnar(buffer, events, chunk_rows=chunk_rows)
    restored, corruption = read_events(io.BytesIO(buffer.getvalue()))
    assert corruption is None
    return restored


class TestColumnarRoundTrip:
    @given(events=st.lists(_events, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_any_stream_round_trips(self, events):
        # chunk_rows smaller than the stream forces multi-chunk traces,
        # exercising the cross-chunk string pool and memo reuse.
        assert _round_trip(events, chunk_rows=7) == events

    @given(events=st.lists(_events, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_matches_jsonl_codec(self, events):
        trace = Trace(events)
        via_jsonl = Trace.from_jsonl(trace.to_jsonl()).events
        assert _round_trip(events, chunk_rows=5) == via_jsonl

    def test_exotic_values_round_trip(self):
        from repro.gpu.events import AccessKind, MemoryEvent
        from repro.gpu.ids import ThreadLocation
        from repro.gpu.instructions import Scope

        where = ThreadLocation(global_tid=1, block_id=0, tid_in_block=1,
                               warp_id=0, lane=1, warp_in_block=0)
        events = [
            MemoryEvent(
                kind=AccessKind.STORE, address=64, where=where, ip="k:1",
                active_mask=frozenset([1]), scope=Scope.DEVICE,
                value_stored=value, batch=0,
            )
            for value in (None, True, False, 0, -1, 2**70, -(2**70),
                          3.25, float("inf"), "text", 2**62)
        ]
        restored = _round_trip(events, chunk_rows=4)
        assert restored == events
        # Bit-exact, not just equal: bools stay bools, ints stay ints.
        for original, copy in zip(events, restored):
            assert type(copy.value_stored) is type(original.value_stored)

    def test_row_memo_never_aliases_objects(self):
        # The encoder memoizes where rows and active masks by id().  Equal
        # but distinct objects must each encode to their own value, and so
        # must objects freed between chunks or calls whose ids are reused
        # by later objects with different values.
        from repro.gpu.events import AccessKind, MemoryEvent, SyncEvent, SyncKind
        from repro.gpu.ids import ThreadLocation, locate

        def stream(salt):
            for i in range(24):
                lane = (i + salt) % 4
                pooled = locate(4 * (i % 3) + lane, 8, 4)
                twin = ThreadLocation(
                    pooled.global_tid, pooled.block_id, pooled.tid_in_block,
                    pooled.warp_id, pooled.lane, pooled.warp_in_block,
                )
                fresh = ThreadLocation(100 + i + salt, i, i % 8, i + salt, i % 4, i % 2)
                mask = frozenset([lane, (lane + i) % 4])
                yield MemoryEvent(
                    kind=AccessKind.LOAD, address=4 * i, where=pooled, ip="k:1",
                    active_mask=mask, value_loaded=i, batch=i,
                )
                yield MemoryEvent(
                    kind=AccessKind.STORE, address=4 * i, where=twin, ip="k:2",
                    active_mask=frozenset(sorted(mask)), value_stored=-i, batch=i,
                )
                yield SyncEvent(
                    kind=SyncKind.FENCE, where=fresh, ip="k:3",
                    active_mask=frozenset([(i + salt) % 4]), batch=i,
                )

        for salt in range(3):
            buffer = io.BytesIO()
            # A generator: the writer holds the only references.
            write_columnar(buffer, stream(salt), chunk_rows=2)
            restored, corruption = read_events(io.BytesIO(buffer.getvalue()))
            assert corruption is None
            assert restored == list(stream(salt))

    def test_file_save_load_dispatch(self, tmp_path):
        trace = capture_workload(get_workload("b_scan"), seeds=(1,))
        plain = tmp_path / "trace.ctr"
        packed = tmp_path / "trace.ctr.gz"
        trace.save(plain)
        trace.save(packed)
        assert Trace.load(plain).events == trace.events
        assert Trace.load(packed).events == trace.events
        assert is_columnar_path(plain) and is_columnar_path(packed)
        assert not is_columnar_path(tmp_path / "trace.jsonl")

    def test_convert_both_directions(self, tmp_path):
        from repro.experiments.tracecli import main as trace_main

        trace = capture_workload(get_workload("reduction"), seeds=(1,))
        jsonl = tmp_path / "a.jsonl"
        ctr = tmp_path / "a.ctr"
        back = tmp_path / "b.jsonl"
        trace.save(jsonl)
        assert trace_main(["convert", str(jsonl), str(ctr)]) == 0
        assert trace_main(["convert", str(ctr), str(back)]) == 0
        assert back.read_bytes() == jsonl.read_bytes()

    def test_vectorized_routes_match_scalar_hash(self, tmp_path):
        trace = capture_workload(get_workload("reduction"), seeds=(1,))
        path = tmp_path / "t.ctr"
        save_columnar(trace.events, path, chunk_rows=128)
        checked = 0
        for chunk in iter_chunks(str(path)):
            granules, shards = chunk.mem_routes(4, 4)
            mem = [e for e in chunk.events() if hasattr(e, "address")]
            assert len(granules) == len(mem)
            for event, granule, shard in zip(mem, granules, shards):
                assert granule == event.address >> 2
                assert shard == shard_of(granule, 4)
                checked += 1
        assert checked > 0


def _columnar_pattern_trace(tmp_path, chunk_rows=64, suffix=""):
    trace = capture_workload(get_workload("reduction"), seeds=(1, 2))
    path = str(tmp_path / f"trace.ctr{suffix}")
    save_columnar(trace.events, path, chunk_rows=chunk_rows)
    return path, len(trace.events), chunk_rows


class TestColumnarSalvage:
    """Mirrors the JSONL TestTraceSalvage contract at chunk granularity."""

    def test_truncation_raises_with_forensics(self, tmp_path):
        path, total, chunk_rows = _columnar_pattern_trace(tmp_path)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) - 9])
        with pytest.raises(TraceCorruptionError) as info:
            Trace.load(path)
        assert 0 <= info.value.events_recovered < total
        assert info.value.events_recovered % chunk_rows == 0
        assert info.value.line >= 2  # block ordinal; file header is 1
        assert info.value.last_good_offset > 0
        assert "corrupt trace at line" in str(info.value)

    def test_salvage_returns_chunk_prefix(self, tmp_path):
        path, total, chunk_rows = _columnar_pattern_trace(tmp_path)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: (len(raw) * 3) // 4])
        trace = Trace.load(path, salvage=True)
        assert 0 < len(trace.events) < total
        assert len(trace.events) % chunk_rows == 0
        assert trace.corruption is not None
        assert trace.corruption.events_recovered == len(trace.events)

    def test_truncated_gzip_stream(self, tmp_path):
        path, total, chunk_rows = _columnar_pattern_trace(
            tmp_path, suffix=".gz"
        )
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        with pytest.raises(TraceCorruptionError):
            Trace.load(path)
        trace = Trace.load(path, salvage=True)
        assert 0 <= len(trace.events) < total
        assert trace.corruption is not None

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ctr"
        path.write_bytes(b'{"format": "something-else", "version": 1}\n')
        with pytest.raises(TraceCorruptionError):
            Trace.load(path)
        trace = Trace.load(path, salvage=True)
        assert trace.events == []

    def test_intact_trace_has_no_corruption(self, tmp_path):
        path, total, _ = _columnar_pattern_trace(tmp_path)
        trace = Trace.load(path)
        assert len(trace.events) == total
        assert trace.corruption is None


def _canonical_report(result):
    """The runner's canonical payload, serialized for byte comparison."""
    payload = {
        "workload": result.workload,
        "detector": result.detector,
        "status": result.status,
        "races": result.races,
        "race_sites": [[ip, t] for ip, t in result.race_sites],
        "overhead": result.overhead,
        "native_time": result.native_time,
        "total_time": result.total_time,
        "breakdown": dict(sorted(result.breakdown.items())),
        "detail": result.detail,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _factories(shards):
    return {
        "iguard-serial": DetectorFactory(IGuard),
        "iguard-batched": DetectorFactory(BatchShardedIGuard, shards=shards),
        "fasttrack-serial": DetectorFactory(FastTrack, shards=1),
        "fasttrack-batched": DetectorFactory(
            BatchShardedFastTrack, shards=shards
        ),
    }


class TestReplayEquivalence:
    """Columnar replay reports are byte-identical to JSONL replay."""

    @pytest.mark.parametrize("name", RACY + RACE_FREE)
    def test_formats_agree_across_detectors_and_drivers(
        self, name, tmp_path
    ):
        workload = get_workload(name)
        trace = capture_workload(workload, seeds=workload.seeds[:1])
        jsonl = tmp_path / "t.jsonl"
        ctr = tmp_path / "t.ctr"
        trace.save(jsonl)
        trace.save(ctr)
        for label, factory in _factories(shards=4).items():
            reports = {
                str(path): _canonical_report(
                    replay_workload(Trace.load(path), factory, name)
                )
                for path in (jsonl, ctr)
            }
            jsonl_report, ctr_report = reports[str(jsonl)], reports[str(ctr)]
            assert jsonl_report == ctr_report, f"{name}/{label} diverged"

    @pytest.mark.parametrize("name", RACY[:2] + RACE_FREE[:1])
    def test_streaming_drain_matches_serial_sites(self, name, tmp_path):
        # The chunk-streaming driver (vectorized routing, batched drain)
        # must find exactly the serial pipeline's races.
        workload = get_workload(name)
        trace = capture_workload(workload, seeds=workload.seeds[:1])
        path = tmp_path / "t.ctr"
        save_columnar(trace.events, path, chunk_rows=256)
        serial = replay_workload(Trace.load(path), DetectorFactory(IGuard), name)
        sharded = replay_columnar_sharded(str(path), shards=4)
        streamed = {
            ip: getattr(t, "value", t)
            for ip, t in sharded.tool.races.sites()
        }
        expected = {
            ip: getattr(t, "value", t) for ip, t in serial.race_sites
        }
        assert streamed == expected
        assert sharded.events > 0

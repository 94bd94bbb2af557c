"""Tests for race records, the report buffer, and site deduplication."""

import random

from repro.core.report import (
    RaceBuffer,
    RaceLog,
    RaceRecord,
    RaceType,
    merge_race_records,
)


def record(ip="kern:10", race_type=RaceType.INTER_BLOCK, address=0x1000):
    return RaceRecord(
        race_type=race_type, kernel="kern", ip=ip, access="load",
        address=address, location="data[0]", warp_id=1, lane=2, block_id=0,
        prev_warp_id=3, prev_lane=4,
    )


class TestRaceRecord:
    def test_describe_mentions_everything(self):
        text = record().describe()
        for fragment in ("DR", "load", "kern:10", "data[0]", "w1.t2", "w3.t4"):
            assert fragment in text

    def test_type_str(self):
        assert str(RaceType.IMPROPER_LOCKING) == "IL"
        assert str(RaceType.ATOMIC_SCOPE) == "AS"
        assert str(RaceType.ITS) == "ITS"
        assert str(RaceType.INTRA_BLOCK) == "BR"
        assert str(RaceType.INTER_BLOCK) == "DR"


class TestRaceBuffer:
    def test_push_accumulates(self):
        buf = RaceBuffer(capacity=10)
        buf.push(record())
        assert len(buf.pending) == 1
        assert buf.flushes == 0

    def test_auto_flush_when_full(self):
        # The 1 MB buffer is "sent to the CPU ... when full".
        buf = RaceBuffer(capacity=3)
        for i in range(3):
            buf.push(record(ip=f"kern:{i}"))
        assert buf.flushes == 1
        assert len(buf.pending) == 0
        assert len(buf.reported) == 3

    def test_manual_flush(self):
        buf = RaceBuffer(capacity=10)
        buf.push(record())
        buf.flush()
        assert buf.reported and not buf.pending

    def test_flush_empty_is_noop(self):
        buf = RaceBuffer(capacity=10)
        buf.flush()
        assert buf.flushes == 0

    def test_all_records(self):
        buf = RaceBuffer(capacity=10)
        buf.push(record(ip="a"))
        buf.flush()
        buf.push(record(ip="b"))
        assert len(buf.all_records()) == 2


class TestRaceLog:
    def test_new_site_reported_once(self):
        log = RaceLog(capacity=100)
        assert log.report(record(ip="kern:1"))
        assert not log.report(record(ip="kern:1", address=0x2000))
        assert log.num_sites == 1

    def test_distinct_sites_counted(self):
        log = RaceLog(capacity=100)
        log.report(record(ip="kern:1"))
        log.report(record(ip="kern:2", race_type=RaceType.ITS))
        assert log.num_sites == 2
        assert log.types() == {RaceType.INTER_BLOCK, RaceType.ITS}

    def test_sites_sorted(self):
        log = RaceLog(capacity=100)
        log.report(record(ip="kern:9"))
        log.report(record(ip="kern:1"))
        assert [ip for ip, _ in log.sites()] == ["kern:1", "kern:9"]

    def test_records_keeps_dynamics(self):
        log = RaceLog(capacity=100)
        for _ in range(5):
            log.report(record(ip="same"))
        assert log.num_sites == 1
        assert len(log.records()) == 5

    def test_capacity_matches_paper_budget(self):
        # 1 MiB buffer / 64-byte records = 16384 entries.
        from repro.core.config import DEFAULT_CONFIG
        assert DEFAULT_CONFIG.race_buffer_capacity == 16384


class TestDroppedRecords:
    def test_unbounded_by_default(self):
        buf = RaceBuffer(capacity=2)
        for i in range(10):
            assert buf.push(record(ip=f"kern:{i}"))
        assert buf.dropped == 0
        assert len(buf.all_records()) == 10

    def test_push_beyond_cap_counts_dropped(self):
        buf = RaceBuffer(capacity=2, max_records=3)
        assert buf.push(record(ip="kern:1"))
        assert buf.push(record(ip="kern:2"))  # triggers an auto-flush
        assert buf.push(record(ip="kern:3"))
        assert not buf.push(record(ip="kern:4"))
        assert not buf.push(record(ip="kern:5"))
        assert buf.dropped == 2
        assert len(buf.all_records()) == 3

    def test_dropped_metric_increments(self):
        from repro.obs import metrics as obs_metrics

        obs_metrics.set_enabled(True)
        try:
            obs_metrics.get_registry().reset()
            buf = RaceBuffer(capacity=8, max_records=1)
            buf.push(record(ip="kern:1"))
            buf.push(record(ip="kern:2"))
            hot = obs_metrics.HOT
            assert hot.races_dropped.snapshot()["value"] == 1
        finally:
            obs_metrics.set_enabled(False)
            obs_metrics.get_registry().reset()

    def test_log_surfaces_dropped(self):
        log = RaceLog(capacity=8, max_records=2)
        for i in range(5):
            log.report(record(ip=f"kern:{i}"))
        assert log.dropped == 3
        assert len(log.records()) == 2

    def test_dropped_record_still_registers_site_and_type(self):
        # Site dedup (the paper's static race count) must not depend on
        # buffer sizing: a record dropped at the cap still counts.
        log = RaceLog(capacity=8, max_records=1)
        assert log.report(record(ip="kern:1"))
        assert log.report(
            record(ip="kern:2", race_type=RaceType.IMPROPER_LOCKING)
        )
        assert log.num_sites == 2
        assert log.sites() == [
            ("kern:1", RaceType.INTER_BLOCK),
            ("kern:2", RaceType.IMPROPER_LOCKING),
        ]
        assert log.types() == {
            RaceType.INTER_BLOCK, RaceType.IMPROPER_LOCKING,
        }
        assert log.dropped == 1


def _tagged(ip, race_type, launch_index, batch, warp_id, lane, granule):
    return RaceRecord(
        race_type=race_type,
        kernel="kern",
        ip=ip,
        access="store",
        address=granule * 8,
        location=f"data[{granule}]",
        warp_id=warp_id,
        lane=lane,
        block_id=0,
        prev_warp_id=0,
        prev_lane=0,
        launch_index=launch_index,
        batch=batch,
        granule=granule,
    )


class TestDeterministicMerge:
    def _canonical_records(self):
        # Serial emission order: launches, then batches, then lanes of the
        # batch's warp, then granule/ip within one lane's coalesced run.
        return [
            _tagged("k:1", RaceType.ITS, 0, 3, 0, 0, 10),
            _tagged("k:2", RaceType.ATOMIC_SCOPE, 0, 3, 0, 1, 11),
            _tagged("k:1", RaceType.INTRA_BLOCK, 0, 5, 1, 0, 10),
            _tagged("k:3", RaceType.INTER_BLOCK, 1, 0, 0, 0, 12),
            _tagged("k:3", RaceType.IMPROPER_LOCKING, 1, 0, 0, 2, 12),
            _tagged("k:4", RaceType.INTER_BLOCK, 1, 2, 2, 0, 13),
        ]

    def test_shuffled_records_resort_to_serial_order(self):
        canonical = self._canonical_records()
        serial = merge_race_records([canonical], capacity=1 << 20)

        rng = random.Random(42)
        for _ in range(25):
            shuffled = list(canonical)
            rng.shuffle(shuffled)
            cut = rng.randint(0, len(shuffled))
            merged = merge_race_records(
                [shuffled[:cut], shuffled[cut:]], capacity=1 << 20
            )
            assert merged.records() == serial.records()
            assert merged.sites() == serial.sites()

    def test_first_record_wins_site_type(self):
        # Two records at one ip with different types: the serially-first
        # one (lower batch) defines the site's type even when the lists
        # deliver them in the opposite order.
        late = _tagged("k:9", RaceType.INTER_BLOCK, 0, 7, 0, 0, 20)
        early = _tagged("k:9", RaceType.ITS, 0, 2, 0, 0, 21)
        merged = merge_race_records([[late], [early]], capacity=1 << 20)
        assert dict(merged.sites())["k:9"] is RaceType.ITS

    def test_stable_sort_preserves_same_key_multiplicity(self):
        twin = _tagged("k:5", RaceType.INTER_BLOCK, 0, 1, 0, 0, 30)
        merged = merge_race_records([[twin, twin]], capacity=1 << 20)
        assert len(merged.records()) == 2

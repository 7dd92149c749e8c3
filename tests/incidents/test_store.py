"""IncidentStore: segments, rollover, retention, recovery, queries."""

import json
import threading

from repro.incidents import IncidentRecord, IncidentStore
from repro.segmentlog import discover_logs
from repro.telemetry import MetricsRegistry
from tests.incidents.conftest import make_record


def _fill(store, n, instance_id="db-a", start0=100, spacing=100):
    records = []
    for i in range(n):
        start = start0 + i * spacing
        records.append(
            store.append(
                make_record(
                    incident_id=f"{instance_id}-{start}-{i:08x}",
                    instance_id=instance_id,
                    start=start,
                    end=start + 50,
                )
            )
        )
    return records


class TestAppendAndGet:
    def test_append_then_get_roundtrips(self, tmp_path, record):
        store = IncidentStore(tmp_path)
        stored = store.append(record)
        assert store.record_count == 1
        assert store.get(stored.incident_id) == stored

    def test_get_unknown_id_is_none(self, tmp_path):
        assert IncidentStore(tmp_path).get("nope") is None

    def test_id_collision_rekeys_instead_of_overwriting(self, tmp_path, record):
        store = IncidentStore(tmp_path)
        first = store.append(record)
        second = store.append(record)
        third = store.append(record)
        assert first.incident_id == record.incident_id
        assert second.incident_id == f"{record.incident_id}-2"
        assert third.incident_id == f"{record.incident_id}-3"
        assert store.record_count == 3

    def test_rekeys_match_the_round_trip_path(self, tmp_path):
        """Re-keying with ``dataclasses.replace`` and a remembered suffix
        gives the ids and bytes of the old ``from_dict(to_dict())`` round
        trip that walked every suffix from 2, before and after a reopen."""

        class RoundTripStore(IncidentStore):
            def append(self, record):
                if record.incident_id in self._index:
                    suffix = 2
                    while f"{record.incident_id}-{suffix}" in self._index:
                        suffix += 1
                    record = IncidentRecord.from_dict(
                        {**record.to_dict(), "incident_id": f"{record.incident_id}-{suffix}"}
                    )
                meta = self._log.append(record)
                self._index[meta.incident_id] = meta
                for gone in self._log.retain():
                    if self._index.get(gone.incident_id) is gone:
                        del self._index[gone.incident_id]
                return record

        def run(store_cls, root, **kwargs):
            ids = []
            store = store_cls(root, **kwargs)
            # A foreign record already holds suffix 4, so the walk skips it.
            store.append(make_record(incident_id="db-a-400-x-4"))
            for i in range(6):  # the original, then collisions 1..5
                rec = make_record(incident_id="db-a-400-x", created_at=600 + i)
                stored = store.append(rec)
                assert stored.to_dict() == {**rec.to_dict(), "incident_id": stored.incident_id}
                ids.append(stored.incident_id)
            reopened = store_cls(root, **kwargs)
            for i in range(3):
                ids.append(reopened.append(make_record(incident_id="db-a-400-x")).incident_id)
                ids.append(reopened.append(make_record(incident_id="db-a-400-x-4")).incident_id)
            files = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
            return ids, files

        # Retention dropping segments mid-sequence frees ids the suffix
        # walk may then reuse.
        small = {"max_segment_bytes": 4096, "max_records": 3}
        assert run(IncidentStore, tmp_path / "new-small", **small) == run(
            RoundTripStore, tmp_path / "old-small", **small
        )

        new_ids, new_files = run(IncidentStore, tmp_path / "new")
        old_ids, old_files = run(RoundTripStore, tmp_path / "old")
        assert new_ids == old_ids
        assert new_ids[1] == "db-a-400-x-2"  # 1st collision
        assert new_ids[2] == "db-a-400-x-3"  # 2nd collision
        assert new_ids[5] == "db-a-400-x-7"  # 5th collision (4 was taken)
        assert new_ids[6:8] == ["db-a-400-x-8", "db-a-400-x-4-2"]  # after reopening
        assert new_files == old_files

    def test_appends_are_thread_safe(self, tmp_path):
        store = IncidentStore(tmp_path)

        def worker(k):
            for i in range(20):
                store.append(
                    make_record(
                        incident_id=f"w{k}-{i}", instance_id=f"db-{k}",
                        start=100 + i, end=200 + i,
                    )
                )

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.record_count == 80
        reopened = IncidentStore(tmp_path)
        assert reopened.record_count == 80


class TestRollover:
    def test_segment_rolls_over_at_size_bound(self, tmp_path):
        store = IncidentStore(tmp_path, max_segment_bytes=4096)
        _fill(store, 8)
        assert store.segment_count >= 2
        names = sorted(p.name for p in tmp_path.glob("incidents-*.jsonl"))
        assert names[0] == "incidents-000001.jsonl"
        assert len(names) == store.segment_count
        # Every record still reachable across segments.
        for meta in store.metas():
            assert store.get(meta.incident_id) is not None

    def test_retention_by_count_drops_whole_cold_segments(self, tmp_path):
        store = IncidentStore(tmp_path, max_segment_bytes=4096, max_records=4)
        _fill(store, 12)
        assert store.record_count <= 4 + max(len(s.records) for s in store._log._segments)
        # Oldest records are the dropped ones; the newest survives.
        metas = store.metas()
        assert metas[-1].anomaly_start == 100 + 11 * 100
        assert len(list(tmp_path.glob("incidents-*.jsonl"))) == store.segment_count

    def test_retention_by_age_drops_old_segments(self, tmp_path):
        store = IncidentStore(tmp_path, max_segment_bytes=4096, max_age_s=300)
        _fill(store, 12, spacing=100)  # created_at spans ~1200 s
        newest = store.metas()[-1].created_at
        active = sorted(tmp_path.glob("incidents-*.jsonl"))[-1].name
        for meta in store.metas()[:-1]:
            # Cold segments older than the cutoff are gone wholesale;
            # survivors may be older only if they share the active segment.
            if meta.segment != active:
                assert meta.created_at >= newest - 300

    def test_active_segment_is_never_dropped(self, tmp_path):
        store = IncidentStore(tmp_path, max_segment_bytes=1, max_records=1)
        _fill(store, 3)
        assert store.segment_count >= 1
        assert store.record_count >= 1

    def test_occupancy_gauges_exported(self, tmp_path):
        reg = MetricsRegistry()
        store = IncidentStore(tmp_path, registry=reg)
        _fill(store, 3)
        assert reg.get("incident_store_records").value == 3
        assert reg.get("incident_store_segments").value == store.segment_count
        assert reg.get("incident_store_bytes").value == store.total_bytes


class TestRecovery:
    def test_reopen_restores_index_and_continues_numbering(self, tmp_path):
        store = IncidentStore(tmp_path, max_segment_bytes=4096)
        originals = _fill(store, 8)
        reopened = IncidentStore(tmp_path, max_segment_bytes=4096)
        assert reopened.record_count == store.record_count
        assert [m.incident_id for m in reopened.metas()] == [
            m.incident_id for m in store.metas()
        ]
        assert reopened.get(originals[0].incident_id) == originals[0]
        # Appending after reopen lands in a well-formed segment.
        _fill(reopened, 1, instance_id="db-z", start0=99_000)
        again = IncidentStore(tmp_path, max_segment_bytes=4096)
        assert again.record_count == store.record_count + 1

    def test_truncated_final_line_is_cut_back(self, tmp_path):
        store = IncidentStore(tmp_path)
        _fill(store, 3)
        segment = sorted(tmp_path.glob("incidents-*.jsonl"))[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw + b'{"incident_id": "partial', )
        reopened = IncidentStore(tmp_path)
        assert reopened.record_count == 3
        assert segment.read_bytes() == raw  # tail physically removed
        _fill(reopened, 1, start0=77_000)
        assert IncidentStore(tmp_path).record_count == 4

    def test_final_line_missing_newline_is_repaired(self, tmp_path):
        store = IncidentStore(tmp_path)
        _fill(store, 2)
        segment = sorted(tmp_path.glob("incidents-*.jsonl"))[-1]
        segment.write_bytes(segment.read_bytes().rstrip(b"\n"))
        reopened = IncidentStore(tmp_path)
        assert reopened.record_count == 2
        _fill(reopened, 1, start0=88_000)
        again = IncidentStore(tmp_path)
        assert again.record_count == 3  # no concatenated/corrupt line

    def test_corrupt_mid_file_line_is_skipped(self, tmp_path):
        store = IncidentStore(tmp_path)
        records = _fill(store, 3)
        segment = sorted(tmp_path.glob("incidents-*.jsonl"))[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = b"NOT JSON AT ALL\n"
        segment.write_bytes(b"".join(lines))
        reopened = IncidentStore(tmp_path)
        assert reopened.record_count == 2
        assert reopened.get(records[0].incident_id) is not None
        assert reopened.get(records[2].incident_id) is not None

    def test_empty_directory_recovers_to_empty_store(self, tmp_path):
        store = IncidentStore(tmp_path)
        assert store.record_count == 0 and store.latest() is None


class TestQuery:
    def test_filters_compose(self, tmp_path):
        store = IncidentStore(tmp_path)
        _fill(store, 4, instance_id="db-a")
        _fill(store, 2, instance_id="db-b", start0=5000)
        assert len(store.query(instance="db-b")) == 2
        assert len(store.query(instance="db-a", since=150)) == 3
        assert len(store.query(until=250)) == 2
        assert store.query(limit=3) and len(store.query(limit=3)) == 3
        assert store.query(verdict="business_spike") == []
        assert len(store.query(template="R1")) == 6
        assert store.query(template="ZZ") == []

    def test_query_is_newest_first(self, tmp_path):
        store = IncidentStore(tmp_path)
        _fill(store, 3)
        starts = [m.anomaly_start for m in store.query()]
        assert starts == sorted(starts, reverse=True)

    def test_latest_and_metas_order(self, tmp_path):
        store = IncidentStore(tmp_path)
        records = _fill(store, 3)
        assert store.latest().incident_id == records[-1].incident_id
        assert [m.incident_id for m in store.metas()] == [
            r.incident_id for r in records
        ]


class TestDiscoverStores:
    def test_single_store_dir_is_itself(self, tmp_path):
        store = IncidentStore(tmp_path)
        _fill(store, 1)
        assert discover_logs(tmp_path, IncidentStore.PREFIX) == [tmp_path]

    def test_parent_of_shard_dirs_lists_children(self, tmp_path):
        for shard in ("shard-00", "shard-01"):
            _fill(IncidentStore(tmp_path / shard), 1, instance_id=shard)
        (tmp_path / "not-a-store").mkdir()
        found = discover_logs(tmp_path, IncidentStore.PREFIX)
        assert [p.name for p in found] == ["shard-00", "shard-01"]

    def test_missing_or_empty_path_yields_nothing(self, tmp_path):
        assert discover_logs(tmp_path / "absent", IncidentStore.PREFIX) == []
        assert discover_logs(tmp_path, IncidentStore.PREFIX) == []


class TestValidation:
    def test_bad_bounds_rejected(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            IncidentStore(tmp_path, max_segment_bytes=0)
        with pytest.raises(ValueError):
            IncidentStore(tmp_path, max_records=0)
        with pytest.raises(ValueError):
            IncidentStore(tmp_path, max_age_s=0)

    def test_lines_are_compact_single_line_json(self, tmp_path, record):
        store = IncidentStore(tmp_path)
        store.append(record)
        segment = sorted(tmp_path.glob("incidents-*.jsonl"))[-1]
        lines = segment.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["incident_id"] == record.incident_id

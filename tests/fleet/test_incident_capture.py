"""Incident capture wired through the fleet: engines, threads, processes.

Satellite of the flight-recorder PR: every diagnosed anomaly must leave
a durable incident record — under the thread-pooled fleet service and
under the multiprocess shard runner, where each shard writes its own
store directory and the health rollup merges them.
"""

from repro.collection.stream import Broker
from repro.fleet import (
    FleetConfig,
    FleetDiagnosisService,
    feed_from_broker,
    run_sharded,
)
from repro.incidents import IncidentRecorder, IncidentStore, load_health
from repro.telemetry import MetricsRegistry
from tests.fleet.conftest import ANOMALOUS, INSTANCE_IDS


def _replay(fleet_stream):
    """Private broker copy (capture tests must not drain the shared one)."""
    broker, populations, truths = fleet_stream
    clone = Broker()
    for instance_id in INSTANCE_IDS:
        feed = feed_from_broker(broker, instance_id)
        for key, value in feed.query_records:
            clone.publish(f"query_logs.{instance_id}", key, value)
        for key, value in feed.metric_records:
            clone.publish(f"performance_metrics.{instance_id}", key, value)
    return clone, populations, truths


class TestFleetServiceCapture:
    def test_each_diagnosis_becomes_an_incident(self, fleet_stream, tmp_path):
        broker, populations, _ = _replay(fleet_stream)
        reg = MetricsRegistry()
        store = IncidentStore(tmp_path, registry=reg)
        recorder = IncidentRecorder(store, registry=reg)
        service = FleetDiagnosisService(
            broker, FleetConfig(workers=2), registry=reg, recorder=recorder
        )
        for instance_id, population in populations.items():
            engine = service.register_instance(instance_id)
            for spec in population.specs.values():
                engine.register_statement(spec.template.replace("?", "1"))
        diagnoses = service.run_until_drained()
        service.close()

        assert diagnoses, "fixture must produce at least one diagnosis"
        assert store.record_count == len(diagnoses)
        recorded_instances = {m.instance_id for m in store.metas()}
        assert set(ANOMALOUS) <= recorded_instances
        for diagnosis in diagnoses:
            assert diagnosis.incident_id is not None
            record = store.get(diagnosis.incident_id)
            assert record is not None
            assert record.instance_id == diagnosis.instance_id
            # The chain is populated end to end.
            assert record.metric_traces
            assert any(t.name == "active_session" for t in record.metric_traces)
            assert record.hsql and record.rsql
            assert record.timings["total"] > 0
            assert record.report_text
            assert record.trace is not None
            assert record.trace.name == "service.diagnose"
            assert {c.name for c in record.trace.children} >= {"pinsql.analyze"}

    def test_triggering_samples_cover_the_evidence_window(
        self, fleet_stream, tmp_path
    ):
        broker, populations, _ = _replay(fleet_stream)
        store = IncidentStore(tmp_path)
        service = FleetDiagnosisService(
            broker, FleetConfig(workers=1), recorder=IncidentRecorder(store)
        )
        for instance_id, population in populations.items():
            engine = service.register_instance(instance_id)
            for spec in population.specs.values():
                engine.register_statement(spec.template.replace("?", "1"))
        service.run_until_drained()
        service.close()
        meta = store.latest()
        record = store.get(meta.incident_id)
        trace = next(t for t in record.metric_traces if t.name == "active_session")
        times = [t for t, _ in trace.samples]
        # Samples are raw, sorted, and stay inside [ts, te) — i.e. they
        # include the δs context before the anomaly start.
        assert times == sorted(times)
        assert times[0] < record.anomaly.start
        assert times[-1] < record.anomaly.end


class TestShardedCapture:
    def test_run_shard_writes_its_own_store(
        self, fleet_stream, record_drain_counts, tmp_path
    ):
        broker, _, _ = fleet_stream
        feeds = [feed_from_broker(broker, i) for i in INSTANCE_IDS]
        counts = run_sharded(
            feeds, processes=1, incident_dir=str(tmp_path / "solo")
        )
        assert counts == record_drain_counts
        store = IncidentStore(tmp_path / "solo" / "shard-00")
        assert store.record_count == sum(counts.values())
        assert {m.instance_id for m in store.metas()} == {
            i for i in INSTANCE_IDS if counts[i] > 0
        }

    def test_run_shard_without_dir_records_nothing(self, fleet_stream, tmp_path):
        broker, _, _ = fleet_stream
        feeds = [feed_from_broker(broker, "db-a")]
        run_sharded(feeds, processes=1)
        assert list(tmp_path.iterdir()) == []

    def test_multiprocess_shards_write_separate_stores_and_health_merges(
        self, fleet_stream, tmp_path
    ):
        broker, _, truths = fleet_stream
        feeds = [feed_from_broker(broker, i) for i in INSTANCE_IDS]
        counts = run_sharded(
            feeds, processes=2, incident_dir=str(tmp_path / "fleet")
        )
        assert set(counts) == set(INSTANCE_IDS)
        for instance_id in ANOMALOUS:
            assert counts[instance_id] >= 1

        shard_dirs = sorted(p.name for p in (tmp_path / "fleet").iterdir())
        assert len(shard_dirs) >= 2
        assert all(name.startswith("shard-") for name in shard_dirs)

        # A shard whose instances stayed healthy appends nothing, so it
        # holds no segment files and doesn't count as a store.
        populated = [
            d for d in shard_dirs
            if any((tmp_path / "fleet" / d).glob("incidents-*.jsonl"))
        ]
        health = load_health(tmp_path / "fleet")
        assert health.stores == len(populated) >= 1
        assert health.total_incidents == sum(counts.values())
        for instance_id in ANOMALOUS:
            assert health.per_instance.get(instance_id, 0) == counts[instance_id]

    def test_inline_path_uses_shard_00(self, fleet_stream, tmp_path):
        broker, _, _ = fleet_stream
        feeds = [feed_from_broker(broker, "db-a")]
        counts = run_sharded(feeds, processes=1, incident_dir=str(tmp_path / "one"))
        assert (tmp_path / "one" / "shard-00").is_dir()
        health = load_health(tmp_path / "one")
        assert health.total_incidents == counts["db-a"]

"""End-to-end tests for the fleet diagnosis service.

One shared broker carries three simulated instances (two with injected
row-lock anomalies, one healthy); the fleet must diagnose each anomaly
on the right instance with zero cross-instance bleed.
"""

import pytest

from repro.collection import Broker
from repro.fleet import FleetConfig, FleetDiagnosisService, ServiceConfig
from repro.telemetry import MetricsRegistry
from tests.fleet.conftest import ANOMALOUS, DURATION, INSTANCE_IDS


def _build_service(broker, populations, registry=None, prune=False):
    service = FleetDiagnosisService(
        broker,
        FleetConfig(
            service=ServiceConfig(delta_start_s=300, detector_window_s=DURATION),
            prune_broker=prune,
        ),
        registry=registry,
    )
    for instance_id, population in populations.items():
        engine = service.register_instance(instance_id)
        for spec in population.specs.values():
            engine.register_statement(spec.template.replace("?", "1"))
    return service


class TestFleetDiagnosis:
    def test_multi_worker_attribution(self, fleet_stream):
        broker, populations, truths = fleet_stream
        service = _build_service(broker, populations)
        diagnoses = service.run_until_drained()
        assert diagnoses
        # Every anomalous instance diagnosed, the healthy one untouched.
        by_instance = {i: service.diagnoses_for(i) for i in service.instance_ids}
        top_hits = 0
        for instance_id in ANOMALOUS:
            assert by_instance[instance_id], f"{instance_id} must be diagnosed"
            diagnosis = by_instance[instance_id][0]
            # The detected window overlaps the injected one.
            truth = truths[instance_id]
            assert diagnosis.anomaly.end > truth.anomaly_start
            assert diagnosis.anomaly.start < truth.anomaly_end
            # Every ranked candidate is a statement from this instance's
            # own workload (a bleed would surface foreign templates).
            catalog = service.engine(instance_id).catalog
            assert all(sql_id in catalog for sql_id in diagnosis.result.rsql_ids)
            top_hits += diagnosis.result.rsql_ids[0] in truth.r_sql_ids
        # Exact top-1 accuracy on this short 600 s window is the service
        # suite's concern; here it suffices that ranking works end to end
        # for at least one instance of the fleet.
        assert top_hits >= 1
        assert by_instance["db-c"] == []
        # Diagnoses carry their instance and land on the right engine.
        for instance_id, diagnoses_ in by_instance.items():
            assert all(d.instance_id == instance_id for d in diagnoses_)

    def test_no_cross_instance_state_bleed(self, fleet_stream):
        broker, populations, _ = fleet_stream
        service = _build_service(broker, populations)
        service.run_until_drained()
        engines = [service.engine(i) for i in INSTANCE_IDS]
        # One LogStore per engine, labelled with its instance.
        assert len({id(e.logstore) for e in engines}) == len(engines)
        for instance_id, engine in zip(INSTANCE_IDS, engines):
            assert engine.logstore.instance_id == instance_id
        # Detector buffers are private objects per engine.
        buffer_ids = {id(e.detector._buffers) for e in engines}
        assert len(buffer_ids) == len(engines)

    def test_prune_bounds_broker_memory(self, fleet_stream):
        broker, populations, _ = fleet_stream
        registry = MetricsRegistry()
        pruned_broker = Broker(registry=registry)
        # Replay the stream onto a private broker so pruning cannot
        # disturb the module-scoped fixture.
        for topic in broker.topics:
            for message in broker.read(topic, 0, 1 << 31):
                pruned_broker.publish(topic, message.key, message.value)
        service = _build_service(
            pruned_broker, populations, registry=registry, prune=True
        )
        service.run_until_drained()
        for topic in pruned_broker.topics:
            assert pruned_broker.retained(topic) == 0
            assert pruned_broker.size(topic) > 0

    def test_reregistering_returns_same_engine(self, fleet_stream):
        broker, populations, _ = fleet_stream
        service = FleetDiagnosisService(broker)
        first = service.register_instance("db-a")
        second = service.register_instance("db-a")
        assert first is second

    def test_instance_labelled_metrics(self, fleet_stream):
        broker, populations, _ = fleet_stream
        registry = MetricsRegistry()
        service = _build_service(broker, populations, registry=registry)
        service.run_until_drained()
        for instance_id in ANOMALOUS:
            counter = registry.get("service_diagnoses_total", instance=instance_id)
            assert counter is not None and counter.value >= 1
        clean = registry.get("service_diagnoses_total", instance="db-c")
        assert clean is not None and clean.value == 0


class TestRegisterInstance:
    def test_rejects_empty_id(self):
        with pytest.raises(ValueError, match="non-empty"):
            FleetDiagnosisService(Broker()).register_instance("")

    def test_rejects_dot(self):
        with pytest.raises(ValueError, match=r"\."):
            FleetDiagnosisService(Broker()).register_instance("a.b")


class TestFleetDrainGuard:
    def test_stalled_broker_abandons_drain(self, fleet_stream):
        broker, populations, _ = fleet_stream

        class StuckBroker(Broker):
            """Reports lag but never returns messages."""

            def read(self, topic, offset, max_messages):
                return []

            def size(self, topic):
                return 5

        registry = MetricsRegistry()
        service = FleetDiagnosisService(
            StuckBroker(registry=registry), registry=registry
        )
        service.register_instance("db-a")
        assert service.run_until_drained(max_idle_iterations=3) == []
        stalled = registry.get("fleet_drain_stalled_total")
        assert stalled is not None and stalled.value == 1

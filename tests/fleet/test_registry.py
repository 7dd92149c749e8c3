"""Tests for instance registration on the fleet service."""

from repro.collection import Broker
from repro.fleet import FleetDiagnosisService


class TestRegistry:
    def test_register_by_string(self):
        service = FleetDiagnosisService(Broker())
        engine = service.register_instance("db-01")
        assert engine is service.engine("db-01")
        assert service.instance_ids == ["db-01"]

    def test_register_updates_descriptor(self):
        service = FleetDiagnosisService(Broker())
        first = service.register_instance("db-01")
        assert service.register_instance("db-01") is first
        assert service.instance_ids == ["db-01"]

    def test_iteration_order(self):
        service = FleetDiagnosisService(Broker())
        for i in range(3):
            service.register_instance(f"db-{i}")
        assert service.instance_ids == ["db-0", "db-1", "db-2"]

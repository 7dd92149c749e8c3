"""IncidentRecord and its component dataclasses round-trip as JSON."""

import json

from repro.incidents import (
    AnomalyWindow,
    IncidentRecord,
    RepairOutcome,
    SpanNode,
)
from repro.incidents.record import UNNAMED_INSTANCE
from repro.telemetry import Tracer


class TestRoundTrip:
    def test_full_record_roundtrips_through_strict_json(self, record):
        payload = json.dumps(record.to_dict())
        clone = IncidentRecord.from_dict(json.loads(payload))
        assert clone == record

    def test_minimal_record_roundtrips(self):
        record = IncidentRecord(
            incident_id="x", instance_id="db-a", created_at=5,
            anomaly=AnomalyWindow(start=1, end=5),
        )
        clone = IncidentRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone == record
        assert clone.trace is None
        assert clone.top_r_sql is None and clone.top_h_sql is None

    def test_from_dict_tolerates_missing_optional_keys(self):
        clone = IncidentRecord.from_dict(
            {"incident_id": "x", "created_at": 5,
             "anomaly": {"start": 1, "end": 5}}
        )
        # A record archived without an instance id reads back under one label.
        assert clone.instance_id == UNNAMED_INSTANCE
        assert clone.rsql == () and clone.metric_traces == ()
        assert clone.repair.outcome == "no_action"


class TestProperties:
    def test_window_duration(self):
        assert AnomalyWindow(start=10, end=70).duration == 60

    def test_top_ids_and_rsql_ids(self, record):
        assert record.top_r_sql == "R1"
        assert record.top_h_sql == "H1"
        assert record.rsql_ids == ["R1", "R2"]

    def test_repair_outcome_states(self):
        assert RepairOutcome().outcome == "no_action"
        assert RepairOutcome(planned=({"kind": "k"},)).outcome == "planned_only"
        assert RepairOutcome(planned=({"kind": "k"},), executed=True).outcome == (
            "executed"
        )


class TestSpanNode:
    def test_from_span_freezes_a_live_tree(self):
        tracer = Tracer()
        with tracer.span("root", templates=3):
            with tracer.span("child"):
                pass
        node = SpanNode.from_span(tracer.last_root())
        assert node.name == "root"
        assert node.attrs["templates"] == 3
        # Root spans carry the distributed identity in their attrs.
        assert set(node.attrs) >= {"trace_id", "span_id", "process"}
        assert node.elapsed is not None
        assert [c.name for c in node.children] == ["child"]

    def test_from_span_stringifies_non_json_attrs(self):
        tracer = Tracer()
        with tracer.span("root", obj=object()):
            pass
        node = SpanNode.from_span(tracer.last_root())
        assert isinstance(node.attrs["obj"], str)
        json.dumps(node.to_dict())  # must be strict-JSON serialisable

    def test_walk_is_preorder_with_depths(self):
        node = SpanNode(
            name="a",
            children=(
                SpanNode(name="b", children=(SpanNode(name="c"),)),
                SpanNode(name="d"),
            ),
        )
        assert [(d, n.name) for d, n in node.walk()] == [
            (0, "a"), (1, "b"), (2, "c"), (1, "d"),
        ]

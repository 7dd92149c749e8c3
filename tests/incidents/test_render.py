"""Incident renderers: complete text chain and self-contained HTML."""

from repro.incidents import (
    IncidentRecord,
    IncidentStore,
    SpanNode,
    load_health,
    render_health_text,
    render_incident_html,
    render_incident_text,
    render_trace_html,
    render_trace_text,
)
from repro.incidents.record import UNNAMED_INSTANCE
from tests.incidents.conftest import make_record


class TestText:
    def test_renders_every_chain_section(self, record):
        text = render_incident_text(record)
        assert f"Incident {record.incident_id}" in text
        assert "anomaly window : [400, 580) (180 s)" in text
        assert "cpu_anomaly" in text
        assert "verdict        : row_lock" in text
        assert "Triggering metrics" in text
        assert "active_session" in text
        assert "H-SQL candidates" in text
        assert "alpha=+0.900 beta=-0.900" in text
        assert "[H1] impact=+0.950" in text
        assert "R-SQL attribution" in text
        assert "[R1]" in text and "(verified)" in text and "(unverified)" in text
        assert "Repair outcome: planned_only" in text
        assert "SqlThrottleAction" in text
        assert "Stage timings:" in text
        assert "service.diagnose" in text  # span tree

    def test_no_rsql_renders_escalation_hint(self):
        record = make_record(rsql_ids=())
        text = render_incident_text(record)
        assert "none pinpointed" in text

    def test_error_spans_are_flagged(self):
        record = make_record()
        record = type(record).from_dict(
            {
                **record.to_dict(),
                "trace": SpanNode(
                    name="service.diagnose",
                    elapsed=0.1,
                    attrs={"status": "error", "error": "KeyError"},
                ).to_dict(),
            }
        )
        assert "!! KeyError" in render_incident_text(record)

    def test_executed_repair_listed(self):
        text = render_incident_text(make_record(executed=True))
        assert "Repair outcome: executed" in text
        assert "executed: ['SqlThrottleAction']" in text


class TestHtml:
    def test_document_is_self_contained(self, record):
        html = render_incident_html(record)
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        assert "src=" not in html and "href=" not in html  # no external assets
        assert f"PinSQL incident {record.incident_id}" in html

    def test_sections_present(self, record):
        html = render_incident_html(record)
        for heading in (
            "Summary", "Triggering metrics", "H-SQL candidates",
            "R-SQL attribution", "Repair", "Stage timings",
            "Diagnosis trace", "DBA report",
        ):
            assert heading in html

    def test_statements_are_escaped(self):
        record = make_record()
        data = record.to_dict()
        data["rsql"][0]["statement"] = "SELECT * FROM t WHERE a < b & c <script>"
        record = type(record).from_dict(data)
        html = render_incident_html(record)
        assert "<script>" not in html
        assert "&lt;script&gt;" in html

    def test_traceless_record_omits_trace_section(self):
        record = make_record()
        data = record.to_dict()
        data["trace"] = None
        html = render_incident_html(type(record).from_dict(data))
        assert "Diagnosis trace" not in html


class TestArchivedEmptyInstanceId:
    """Records archived before every engine had an instance id carry
    ``"instance_id": ""``; they load under one label and render as any
    other record."""

    def test_loads_and_renders_under_one_label(self, tmp_path):
        data = make_record("legacy-400-deadbeef").to_dict()
        data["instance_id"] = ""
        record = IncidentRecord.from_dict(data)
        assert record.instance_id == UNNAMED_INSTANCE
        assert f"instance       : {UNNAMED_INSTANCE}" in render_incident_text(record)
        assert UNNAMED_INSTANCE in render_incident_html(record)
        assert f"instance {UNNAMED_INSTANCE};" in render_trace_text(record)
        assert UNNAMED_INSTANCE in render_trace_html(record)

        IncidentStore(tmp_path).append(make_record("legacy-400-deadbeef", instance_id=""))
        store = IncidentStore(tmp_path)  # reopened: the archive as read back
        assert [m.instance_id for m in store.metas()] == [UNNAMED_INSTANCE]
        assert store.get("legacy-400-deadbeef").instance_id == UNNAMED_INSTANCE
        assert store.query(instance=UNNAMED_INSTANCE)[0].incident_id == "legacy-400-deadbeef"
        health = load_health(tmp_path)
        assert health.per_instance == {UNNAMED_INSTANCE: 1}
        assert f"{UNNAMED_INSTANCE}" in render_health_text(health)

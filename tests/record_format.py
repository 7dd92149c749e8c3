"""The persisted JSON shape of incident records and health findings.

``golden/record_format.jsonl`` holds one line per record built by
:func:`build`, written the way the segment log writes it: compact
``json.dumps`` of ``to_dict()``.  ``test_jsonrecord.py`` checks that
each line decodes, re-encodes to the same bytes and round-trips equal,
so a change to a field's name, order or encoding fails loudly.  The
lines were pinned with the hand-written ``to_dict`` methods that
preceded :mod:`repro.jsonrecord`; re-pin with :func:`pin` (``python -c
"from tests.record_format import pin; pin()"`` from the repository root,
with ``src`` on the path) only for a deliberate format change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.health import HealthFinding
from repro.incidents import (
    AnomalyWindow,
    ClusterSummary,
    HsqlEvidence,
    IncidentRecord,
    MetricTrace,
    RepairOutcome,
    RsqlEvidence,
    SpanNode,
)
from repro.sqlanalysis import Advisory, Finding, Severity

GOLDEN = Path(__file__).parent / "golden" / "record_format.jsonl"


def dumps(data: dict) -> str:
    """One segment-log line, without its newline."""
    return json.dumps(data, separators=(",", ":"))


def build() -> list[IncidentRecord | HealthFinding]:
    """The pinned records, in line order."""
    record = IncidentRecord(
        incident_id="db-07-412-5e1f",
        instance_id="db-07",
        created_at=588,
        anomaly=AnomalyWindow(start=412, end=588, types=("cpu_anomaly", "session_spike")),
        metric_traces=(
            MetricTrace("active_session", ((410, 3.0), (411, 57.25), (412, 0.1))),
            MetricTrace("cpu_usage", ()),
        ),
        hsql=(
            HsqlEvidence("H1", trend=0.9125, scale=0.8, scale_trend=-0.07,
                         impact=0.95, statement="SELECT * FROM t WHERE k = ?"),
            HsqlEvidence("H2", trend=0.0, scale=1e-07, scale_trend=0.3, impact=0.2),
        ),
        hsql_alpha=0.8999999999999999,
        hsql_beta=-0.9,
        rsql=(
            RsqlEvidence("R1", score=0.93, verified=True, statement="UPDATE t SET c = ?"),
            RsqlEvidence("H1", score=-0.125),
        ),
        clusters=(
            ClusterSummary(size=2, impact=0.95, sql_ids=("R1", "H1")),
            ClusterSummary(size=1, impact=0.05),
        ),
        rsql_widened=True,
        verdict_category="row_lock",
        verdict_evidence=None,
        repair=RepairOutcome(
            session_lift=4.25,
            planned=({"kind": "SqlThrottleAction", "sql_id": "R1", "factor": 0.1},),
            executed_kinds=("SqlThrottleAction",),
            executed=True,
            skipped=({"sql_id": "H1", "reason": "already index-backed"},),
        ),
        analysis=(
            Finding("select-star", Severity.WARNING, "SELECT * reads every column",
                    sql_id="H1", table="t", suggestion="name the columns"),
            Finding("missing-index", Severity.CRITICAL, "full scan on t.k",
                    sql_id="H1", table="t", column="k"),
        ),
        advisories=(
            Advisory("index-advisor", Severity.HIGH, "index t(k)", table="t",
                     tables=("t",), sql_ids=("H1", "R1"), suggestion="CREATE INDEX",
                     score=1234.5, evidence={"columns": "k", "templates": 2,
                                             "unbounded": False}),
        ),
        timings={"session_estimation": 0.0123, "total": 0.02},
        trace=SpanNode(
            name="service.diagnose",
            elapsed=0.0213,
            attrs={"trace_id": "0f3a", "produced": True, "templates": 12},
            children=(
                SpanNode(
                    name="pinsql.analyze",
                    elapsed=0.015,
                    children=(SpanNode(name="pinsql.rsql", elapsed=None,
                                       attrs={"widened": True}),),
                ),
                SpanNode(name="repair.plan", elapsed=0.001),
            ),
        ),
        report_text="=== report ===\nline two",
        templates_seen=12,
        recorded_at_unix=1760000000.125,
        confidence="degraded",
        degraded_reasons=("metric_gap:active_session:0.41", "quarantined_logs:3"),
        data_freshness={"newest_event_s": 587, "stream_time": 588,
                        "staleness_s": 1, "ingest_lag_s": 0.0042},
    )
    finding = HealthFinding(
        check="lock-footprint-trend",
        severity=Severity.HIGH,
        message="lock waits on t rose +40%",
        instance_id="db-07",
        sql_id="R1",
        metric="lock_wait",
        detected_at=600,
        evidence={"slope": 0.25, "templates": ["R1", "H1"], "share": None, "hot": True},
        suggestion="throttle R1",
        sweep_id="sweep-600",
    )
    return [record, finding]


def pin() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(dumps(r.to_dict()) + "\n" for r in build()))

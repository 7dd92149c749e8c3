"""Incident flight recorder: persisted evidence chains for diagnoses.

PinSQL's pipeline computes a rich evidence chain for every diagnosis —
anomaly window, triggering metric samples, H-SQL level scores, R-SQL
propagation evidence, repair decision — and, before this package,
threw the intermediates away.  Here every diagnosis becomes a durable,
queryable, human-renderable artifact:

* :class:`IncidentRecord` — the frozen evidence chain (JSON-roundtrip);
* :class:`IncidentStore` — append-only JSONL segments with an in-memory
  index, size-bounded rollover, count/age retention and crash recovery;
* :class:`IncidentRecorder` — hooks into the diagnosis engines and
  persists each completed diagnosis without ever failing the loop;
* renderers — per-incident text and self-contained HTML reports, plus
  trace waterfalls (:func:`render_trace_text` / :func:`render_trace_html`)
  that draw the cross-process span tree against time;
* :func:`load_health` — fleet-wide rollup (incidents per instance, top
  recurring R-SQLs, repair success rates, detector false-trigger
  candidates), merging per-shard stores.

CLI: ``repro incidents list|show|report|health`` and
``repro trace show|report``.
"""

from repro.incidents.health import (
    FalseTriggerCandidate,
    FleetHealth,
    compute_health,
    load_health,
    publish_health,
    render_health_text,
)
from repro.incidents.record import (
    AnomalyWindow,
    ClusterSummary,
    HsqlEvidence,
    IncidentRecord,
    MetricTrace,
    RepairOutcome,
    RsqlEvidence,
    SpanNode,
)
from repro.incidents.recorder import IncidentRecorder
from repro.incidents.render import render_incident_html, render_incident_text
from repro.incidents.store import IncidentMeta, IncidentStore
from repro.incidents.waterfall import (
    render_trace_html,
    render_trace_text,
    trace_rows,
)

__all__ = [
    "AnomalyWindow",
    "ClusterSummary",
    "FalseTriggerCandidate",
    "FleetHealth",
    "HsqlEvidence",
    "IncidentMeta",
    "IncidentRecord",
    "IncidentRecorder",
    "IncidentStore",
    "MetricTrace",
    "RepairOutcome",
    "RsqlEvidence",
    "SpanNode",
    "compute_health",
    "load_health",
    "publish_health",
    "render_health_text",
    "render_incident_html",
    "render_incident_text",
    "render_trace_html",
    "render_trace_text",
    "trace_rows",
]

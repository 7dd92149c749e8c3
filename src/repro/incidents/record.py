"""The incident record: one diagnosis as a durable evidence chain.

PinSQL's value to a DBA is not just the R-SQL verdict but the chain of
evidence behind it — which the paper validates against DBA-labelled
ADAC cases.  An :class:`IncidentRecord` freezes that chain for one
detected anomaly: the anomaly window with the raw metric samples that
triggered it, the H-SQL candidates with their per-template level
scores, the R-SQL attribution with clustering/verification evidence,
the repair decision and its outcome, the trace-span tree of the
diagnosis run, and the per-stage wall-clock timings.

Records are plain data.  Their strict-JSON shape is defined once, by
the field declarations below read through :mod:`repro.jsonrecord`:
``to_dict`` / ``from_dict`` round-trip exactly, keys in declaration
order, because the store persists records as JSONL lines and the
renderer, health rollup and CLI all consume that serialised shape.  A
new field is one declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.jsonrecord import JsonRecord, _jsonable, decode
from repro.sqlanalysis import Advisory, Finding

__all__ = [
    "AnomalyWindow",
    "MetricTrace",
    "HsqlEvidence",
    "RsqlEvidence",
    "ClusterSummary",
    "RepairOutcome",
    "SpanNode",
    "IncidentRecord",
    "UNNAMED_INSTANCE",
]


@dataclass(frozen=True)
class AnomalyWindow(JsonRecord):
    """The detected anomaly window and its phenomenon types."""

    start: int
    end: int
    types: tuple[str, ...] = ()
    detected_at: int | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class MetricTrace(JsonRecord):
    """Raw samples of one metric over the evidence window.

    These are the *triggering* samples — what the real-time detector's
    buffers held, not the forward-filled series the pipeline consumed —
    so a DBA replaying the incident sees exactly what the detector saw.
    """

    name: str
    samples: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class HsqlEvidence(JsonRecord):
    """One H-SQL candidate with its per-template level scores (Sec. V)."""

    sql_id: str
    trend: float
    scale: float
    scale_trend: float
    impact: float
    statement: str = ""


@dataclass(frozen=True)
class RsqlEvidence(JsonRecord):
    """One ranked R-SQL with its propagation evidence (Sec. VI)."""

    sql_id: str
    #: Final score: corr(#execution, active session).
    score: float
    #: Whether history-trend verification kept this template.
    verified: bool = False
    statement: str = ""


@dataclass(frozen=True)
class ClusterSummary(JsonRecord):
    """One business cluster from the R-SQL clustering stage."""

    size: int
    impact: float
    sql_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class RepairOutcome(JsonRecord):
    """The repair decision: planned actions and what actually ran."""

    session_lift: float = 0.0
    planned: tuple[dict, ...] = ()
    executed_kinds: tuple[str, ...] = ()
    executed: bool = False
    #: Deliberate non-actions (``{"sql_id", "reason"}``) — e.g. templates
    #: the optimizer found already index-backed.
    skipped: tuple[dict, ...] = ()

    @property
    def outcome(self) -> str:
        if self.executed:
            return "executed"
        if self.planned:
            return "planned_only"
        return "no_action"


@dataclass(frozen=True)
class SpanNode(JsonRecord):
    """Serialised trace span: the diagnosis run's timing tree."""

    name: str
    elapsed: float | None = None
    attrs: dict = field(default_factory=dict)
    children: tuple["SpanNode", ...] = ()

    @classmethod
    def from_span(cls, span) -> "SpanNode":
        """Freeze a live :class:`~repro.telemetry.tracing.Span` subtree."""
        return cls(
            name=span.name,
            elapsed=span.elapsed,
            attrs={str(k): _jsonable(v) for k, v in span.attrs.items()},
            children=tuple(cls.from_span(c) for c in span.children),
        )

    def walk(self):
        """Yield ``(depth, node)`` over the subtree, pre-order."""
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            stack.extend((depth + 1, c) for c in reversed(node.children))


#: Instance id given, on read, to records archived before every
#: diagnosis engine had one (they carry an empty id).
UNNAMED_INSTANCE = "(single-instance)"


@dataclass(frozen=True)
class IncidentRecord(JsonRecord):
    """One diagnosed anomaly as a durable, queryable evidence chain."""

    incident_id: str
    instance_id: str
    #: Detector stream time when the diagnosis completed.
    created_at: int
    anomaly: AnomalyWindow
    #: Raw metric samples over the evidence window ``[ts, te)``.
    metric_traces: tuple[MetricTrace, ...] = ()
    #: H-SQL candidates, best first, with the fusion weights.
    hsql: tuple[HsqlEvidence, ...] = ()
    hsql_alpha: float = 0.0
    hsql_beta: float = 0.0
    #: R-SQL attribution, best first.
    rsql: tuple[RsqlEvidence, ...] = ()
    clusters: tuple[ClusterSummary, ...] = ()
    rsql_widened: bool = False
    #: Rule-based anomaly typing.
    verdict_category: str | None = None
    verdict_evidence: str | None = None
    repair: RepairOutcome = field(default_factory=RepairOutcome)
    #: Static-analysis findings on the top-ranked templates, most severe
    #: first (the structural "why is this SQL slow" evidence).
    analysis: tuple[Finding, ...] = ()
    #: Workload-level advisories (lock-conflict graph, index advisor,
    #: join/fan-out) computed over the case catalog, most severe first.
    advisories: tuple[Advisory, ...] = ()
    #: Per-stage wall-clock seconds (StageTimings fields + total).
    timings: dict = field(default_factory=dict)
    #: The diagnosis run's span tree, when the tracer retained it.
    trace: SpanNode | None = None
    #: The rendered DBA-facing report (core.report).
    report_text: str = ""
    templates_seen: int = 0
    #: Unix wall-clock at recording time (stream times above are simulated).
    recorded_at_unix: float = 0.0
    #: Evidence confidence of the diagnosis: ``"full"`` or ``"degraded"``
    #: (gappy metric windows, shrunken context, quarantined log batches).
    confidence: str = "full"
    #: Machine-readable reasons when degraded, e.g.
    #: ``metric_gap:active_session:0.41`` or ``quarantined_logs:3``.
    degraded_reasons: tuple[str, ...] = ()
    #: Pipeline freshness when the diagnosis completed: newest ingested
    #: event second, detector stream time, staleness and the publish →
    #: ingest wall-clock lag (see ``InstanceDiagnosisEngine.freshness_snapshot``).
    data_freshness: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def top_r_sql(self) -> str | None:
        return self.rsql[0].sql_id if self.rsql else None

    @property
    def top_h_sql(self) -> str | None:
        return self.hsql[0].sql_id if self.hsql else None

    @property
    def rsql_ids(self) -> list[str]:
        return [e.sql_id for e in self.rsql]

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> IncidentRecord:
        instance_id = data.get("instance_id") or UNNAMED_INSTANCE
        return decode(cls, {**data, "instance_id": instance_id})

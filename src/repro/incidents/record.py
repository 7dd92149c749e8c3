"""The incident record: one diagnosis as a durable evidence chain.

PinSQL's value to a DBA is not just the R-SQL verdict but the chain of
evidence behind it — which the paper validates against DBA-labelled
ADAC cases.  An :class:`IncidentRecord` freezes that chain for one
detected anomaly: the anomaly window with the raw metric samples that
triggered it, the H-SQL candidates with their per-template level
scores, the R-SQL attribution with clustering/verification evidence,
the repair decision and its outcome, the trace-span tree of the
diagnosis run, and the per-stage wall-clock timings.

Records are plain data: every field round-trips through ``to_dict`` /
``from_dict`` as strict JSON, because the store persists them as JSONL
lines and the renderer, health rollup and CLI all consume the same
serialised shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

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
class AnomalyWindow:
    """The detected anomaly window and its phenomenon types."""

    start: int
    end: int
    types: tuple[str, ...] = ()
    detected_at: int | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "types": list(self.types),
            "detected_at": self.detected_at,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AnomalyWindow":
        return cls(
            start=int(data["start"]),
            end=int(data["end"]),
            types=tuple(data.get("types", ())),
            detected_at=data.get("detected_at"),
        )


@dataclass(frozen=True)
class MetricTrace:
    """Raw samples of one metric over the evidence window.

    These are the *triggering* samples — what the real-time detector's
    buffers held, not the forward-filled series the pipeline consumed —
    so a DBA replaying the incident sees exactly what the detector saw.
    """

    name: str
    samples: tuple[tuple[int, float], ...] = ()

    def to_dict(self) -> dict:
        return {"name": self.name, "samples": [[t, v] for t, v in self.samples]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricTrace":
        return cls(
            name=data["name"],
            samples=tuple((int(t), float(v)) for t, v in data.get("samples", ())),
        )


@dataclass(frozen=True)
class HsqlEvidence:
    """One H-SQL candidate with its per-template level scores (Sec. V)."""

    sql_id: str
    trend: float
    scale: float
    scale_trend: float
    impact: float
    statement: str = ""

    def to_dict(self) -> dict:
        return {
            "sql_id": self.sql_id,
            "trend": self.trend,
            "scale": self.scale,
            "scale_trend": self.scale_trend,
            "impact": self.impact,
            "statement": self.statement,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "HsqlEvidence":
        return cls(
            sql_id=data["sql_id"],
            trend=float(data["trend"]),
            scale=float(data["scale"]),
            scale_trend=float(data["scale_trend"]),
            impact=float(data["impact"]),
            statement=data.get("statement", ""),
        )


@dataclass(frozen=True)
class RsqlEvidence:
    """One ranked R-SQL with its propagation evidence (Sec. VI)."""

    sql_id: str
    #: Final score: corr(#execution, active session).
    score: float
    #: Whether history-trend verification kept this template.
    verified: bool = False
    statement: str = ""

    def to_dict(self) -> dict:
        return {
            "sql_id": self.sql_id,
            "score": self.score,
            "verified": self.verified,
            "statement": self.statement,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RsqlEvidence":
        return cls(
            sql_id=data["sql_id"],
            score=float(data["score"]),
            verified=bool(data.get("verified", False)),
            statement=data.get("statement", ""),
        )


@dataclass(frozen=True)
class ClusterSummary:
    """One business cluster from the R-SQL clustering stage."""

    size: int
    impact: float
    sql_ids: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"size": self.size, "impact": self.impact, "sql_ids": list(self.sql_ids)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ClusterSummary":
        return cls(
            size=int(data["size"]),
            impact=float(data["impact"]),
            sql_ids=tuple(data.get("sql_ids", ())),
        )


@dataclass(frozen=True)
class RepairOutcome:
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

    def to_dict(self) -> dict:
        return {
            "session_lift": self.session_lift,
            "planned": [dict(a) for a in self.planned],
            "executed_kinds": list(self.executed_kinds),
            "executed": self.executed,
            "skipped": [dict(s) for s in self.skipped],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RepairOutcome":
        return cls(
            session_lift=float(data.get("session_lift", 0.0)),
            planned=tuple(dict(a) for a in data.get("planned", ())),
            executed_kinds=tuple(data.get("executed_kinds", ())),
            executed=bool(data.get("executed", False)),
            skipped=tuple(dict(s) for s in data.get("skipped", ())),
        )


@dataclass(frozen=True)
class SpanNode:
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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "elapsed": self.elapsed,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpanNode":
        return cls(
            name=data["name"],
            elapsed=data.get("elapsed"),
            attrs=dict(data.get("attrs", {})),
            children=tuple(cls.from_dict(c) for c in data.get("children", ())),
        )


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: Instance id given, on read, to records archived before every
#: diagnosis engine had one (they carry an empty id).
UNNAMED_INSTANCE = "(single-instance)"


@dataclass(frozen=True)
class IncidentRecord:
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

    def to_dict(self) -> dict:
        return {
            "incident_id": self.incident_id,
            "instance_id": self.instance_id,
            "created_at": self.created_at,
            "anomaly": self.anomaly.to_dict(),
            "metric_traces": [t.to_dict() for t in self.metric_traces],
            "hsql": [h.to_dict() for h in self.hsql],
            "hsql_alpha": self.hsql_alpha,
            "hsql_beta": self.hsql_beta,
            "rsql": [r.to_dict() for r in self.rsql],
            "clusters": [c.to_dict() for c in self.clusters],
            "rsql_widened": self.rsql_widened,
            "verdict_category": self.verdict_category,
            "verdict_evidence": self.verdict_evidence,
            "repair": self.repair.to_dict(),
            "analysis": [f.to_dict() for f in self.analysis],
            "advisories": [a.to_dict() for a in self.advisories],
            "timings": dict(self.timings),
            "trace": self.trace.to_dict() if self.trace is not None else None,
            "report_text": self.report_text,
            "templates_seen": self.templates_seen,
            "recorded_at_unix": self.recorded_at_unix,
            "confidence": self.confidence,
            "degraded_reasons": list(self.degraded_reasons),
            "data_freshness": dict(self.data_freshness),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "IncidentRecord":
        return cls(
            incident_id=data["incident_id"],
            instance_id=data.get("instance_id") or UNNAMED_INSTANCE,
            created_at=int(data["created_at"]),
            anomaly=AnomalyWindow.from_dict(data["anomaly"]),
            metric_traces=tuple(
                MetricTrace.from_dict(t) for t in data.get("metric_traces", ())
            ),
            hsql=tuple(HsqlEvidence.from_dict(h) for h in data.get("hsql", ())),
            hsql_alpha=float(data.get("hsql_alpha", 0.0)),
            hsql_beta=float(data.get("hsql_beta", 0.0)),
            rsql=tuple(RsqlEvidence.from_dict(r) for r in data.get("rsql", ())),
            clusters=tuple(
                ClusterSummary.from_dict(c) for c in data.get("clusters", ())
            ),
            rsql_widened=bool(data.get("rsql_widened", False)),
            verdict_category=data.get("verdict_category"),
            verdict_evidence=data.get("verdict_evidence"),
            repair=RepairOutcome.from_dict(data.get("repair", {})),
            analysis=tuple(
                Finding.from_dict(f) for f in data.get("analysis", ())
            ),
            advisories=tuple(
                Advisory.from_dict(a) for a in data.get("advisories", ())
            ),
            timings=dict(data.get("timings", {})),
            trace=(
                SpanNode.from_dict(data["trace"])
                if data.get("trace") is not None
                else None
            ),
            report_text=data.get("report_text", ""),
            templates_seen=int(data.get("templates_seen", 0)),
            recorded_at_unix=float(data.get("recorded_at_unix", 0.0)),
            confidence=data.get("confidence", "full"),
            degraded_reasons=tuple(data.get("degraded_reasons", ())),
            data_freshness=dict(data.get("data_freshness", {})),
        )

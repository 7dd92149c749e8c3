"""The incident recorder: diagnosis in, durable evidence chain out.

Hooks into the diagnosis loop (``FleetDiagnosisService`` hands its
``recorder=`` to every ``InstanceDiagnosisEngine``): each completed
:class:`~repro.fleet.engine.Diagnosis` is flattened into an
:class:`~repro.incidents.record.IncidentRecord` and appended to the
:class:`~repro.incidents.store.IncidentStore`.  One recorder may serve
a whole fleet — the store serialises appends — and recording failures
never propagate into the diagnosis loop: the flight recorder must not
take down the plane.
"""

from __future__ import annotations

import hashlib
import time

from repro.core.pipeline import PinSQLResult
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
from repro.incidents.store import IncidentStore
from repro.telemetry import MetricsRegistry, get_logger, get_registry

__all__ = ["IncidentRecorder"]

_log = get_logger("incidents")


class IncidentRecorder:
    """Assembles and persists incident records for completed diagnoses.

    Parameters
    ----------
    store:
        The destination incident store.
    registry:
        Metrics registry for the recorder's own counters
        (``incidents_recorded_total`` / ``incident_record_failures_total``).
    max_hsql / max_rsql:
        Evidence depth kept per incident (candidates beyond these ranks
        rarely matter to a DBA and would bloat the JSONL lines).
    max_samples_per_metric:
        Bound on raw samples kept per metric trace; longer windows are
        decimated evenly so the trace stays renderable.
    max_findings:
        Bound on static-analysis findings kept per incident.
    max_advisories:
        Bound on workload advisories kept per incident.
    """

    def __init__(
        self,
        store: IncidentStore,
        registry: MetricsRegistry | None = None,
        max_hsql: int = 10,
        max_rsql: int = 10,
        max_samples_per_metric: int = 240,
        max_findings: int = 40,
        max_advisories: int = 20,
    ) -> None:
        self.store = store
        self.registry = registry or get_registry()
        self.max_hsql = int(max_hsql)
        self.max_rsql = int(max_rsql)
        self.max_samples_per_metric = int(max_samples_per_metric)
        self.max_findings = int(max_findings)
        self.max_advisories = int(max_advisories)

    # ------------------------------------------------------------------
    def record(self, diagnosis, engine=None) -> IncidentRecord | None:
        """Persist one diagnosis; returns the stored record.

        ``engine`` (an :class:`InstanceDiagnosisEngine`) supplies the
        live context — the detector's raw metric samples for the
        evidence window and the tracer's span tree; without it the
        record falls back to the case's forward-filled series and
        carries no trace.  Failures are counted and logged, never
        raised: a lost record must not cost a diagnosis.
        """
        try:
            record = self.build(diagnosis, engine=engine)
            record = self.store.append(record)
        except Exception as exc:  # pragma: no cover - defensive guard
            self.registry.counter(
                "incident_record_failures_total",
                help="Incident records dropped by recorder errors.",
            ).inc()
            _log.warning(
                "incident record dropped",
                extra={"error": type(exc).__name__, "detail": str(exc)[:200]},
            )
            return None
        self.registry.counter(
            "incidents_recorded_total",
            help="Incident records persisted.",
            instance=record.instance_id,
        ).inc()
        if diagnosis is not None and hasattr(diagnosis, "incident_id"):
            diagnosis.incident_id = record.incident_id
        return record

    # ------------------------------------------------------------------
    def build(self, diagnosis, engine=None) -> IncidentRecord:
        """Flatten a diagnosis (+ engine context) into a record."""
        case = diagnosis.case
        anomaly = AnomalyWindow(
            start=int(diagnosis.anomaly.start),
            end=int(diagnosis.anomaly.end),
            types=tuple(diagnosis.anomaly.types),
            detected_at=(
                engine.detector.stream_time
                if engine is not None and engine.detector.stream_time is not None
                else None
            ),
        )
        created_at = (
            anomaly.detected_at if anomaly.detected_at is not None else anomaly.end
        )
        instance_id = diagnosis.instance_id
        trace = None
        if engine is not None:
            root = engine.tracer.last_root()
            if root is not None and root.name == "service.diagnose":
                trace = SpanNode.from_span(root)
                ctx = getattr(engine, "ingest_trace", None)
                if (
                    ctx is not None
                    and trace.attrs.get("parent_span_id") == ctx.span_id
                ):
                    # The diagnosis parented under a remote publish
                    # span; wrap the tree in a synthetic node for it so
                    # the record shows the full cross-process trace.
                    trace = SpanNode(
                        name="broker.publish_block",
                        elapsed=None,
                        attrs={
                            "trace_id": ctx.trace_id,
                            "span_id": ctx.span_id,
                            "process": ctx.process,
                            "remote": True,
                        },
                        children=(trace,),
                    )
        return IncidentRecord(
            incident_id=self._incident_id(instance_id, anomaly),
            instance_id=instance_id,
            created_at=int(created_at),
            anomaly=anomaly,
            metric_traces=self._metric_traces(case, engine),
            hsql=self._hsql_evidence(case, diagnosis.result),
            hsql_alpha=float(diagnosis.result.hsql.alpha),
            hsql_beta=float(diagnosis.result.hsql.beta),
            rsql=self._rsql_evidence(case, diagnosis.result),
            clusters=tuple(
                ClusterSummary(
                    size=len(c),
                    impact=float(c.impact),
                    sql_ids=tuple(c.sql_ids[:5]),
                )
                for c in diagnosis.result.rsql.clusters[:10]
            ),
            rsql_widened=bool(diagnosis.result.rsql.widened),
            verdict_category=(
                diagnosis.verdict.category.value
                if diagnosis.verdict is not None
                else None
            ),
            verdict_evidence=(
                diagnosis.verdict.evidence if diagnosis.verdict is not None else None
            ),
            repair=self._repair_outcome(diagnosis),
            analysis=self._analysis(diagnosis),
            advisories=self._advisories(diagnosis),
            timings=diagnosis.result.timings.as_dict(),
            trace=trace,
            report_text=diagnosis.report.text,
            templates_seen=len(case.sql_ids),
            recorded_at_unix=time.time(),
            confidence=getattr(diagnosis, "confidence", "full") or "full",
            degraded_reasons=tuple(getattr(diagnosis, "degraded_reasons", ())),
            data_freshness=dict(getattr(diagnosis, "data_freshness", {}) or {}),
        )

    # ------------------------------------------------------------------
    def _incident_id(self, instance_id: str, anomaly: AnomalyWindow) -> str:
        digest = hashlib.blake2b(
            f"{instance_id}|{anomaly.start}|{anomaly.end}|{'|'.join(anomaly.types)}".encode(),
            digest_size=4,
        ).hexdigest()
        return f"{instance_id}-{anomaly.start}-{digest}"

    def _metric_traces(self, case, engine) -> tuple[MetricTrace, ...]:
        cap = self.max_samples_per_metric
        traces = []
        if engine is not None:
            window = engine.detector.window_snapshot(case.ts, case.te)
            for name in sorted(window):
                samples = window[name]
                if len(samples) > cap:
                    stride = -(-len(samples) // cap)  # ceil division
                    samples = samples[::stride]
                traces.append(
                    MetricTrace(
                        name=name,
                        samples=tuple((int(t), float(v)) for t, v in samples),
                    )
                )
        else:
            # Fallback: the case's forward-filled series.  Decimate by
            # stride *before* materialising tuples — these series span
            # the whole stream, far past the per-metric cap.
            series_map = case.metrics.series
            for name in sorted(series_map):
                series = series_map[name]
                stamps, values = series.timestamps, series.values
                stride = -(-len(stamps) // cap) if len(stamps) > cap else 1
                traces.append(
                    MetricTrace(
                        name=name,
                        samples=tuple(
                            (int(stamps[i]), float(values[i]))
                            for i in range(0, len(stamps), stride)
                        ),
                    )
                )
        return tuple(traces)

    def _hsql_evidence(self, case, result: PinSQLResult) -> tuple[HsqlEvidence, ...]:
        return tuple(
            HsqlEvidence(
                sql_id=s.sql_id,
                trend=float(s.trend),
                scale=float(s.scale),
                scale_trend=float(s.scale_trend),
                impact=float(s.impact),
                statement=self._statement(case, s.sql_id),
            )
            for s in result.hsql.scores[: self.max_hsql]
        )

    def _rsql_evidence(self, case, result: PinSQLResult) -> tuple[RsqlEvidence, ...]:
        verified = set(result.rsql.verified)
        return tuple(
            RsqlEvidence(
                sql_id=sql_id,
                score=float(score),
                verified=sql_id in verified,
                statement=self._statement(case, sql_id),
            )
            for sql_id, score in result.rsql.ranked[: self.max_rsql]
        )

    @staticmethod
    def _statement(case, sql_id: str, width: int = 120) -> str:
        info = case.catalog.get(sql_id)
        if info is None:
            return ""
        text = info.template
        return text if len(text) <= width else text[: width - 1] + "…"

    def _analysis(self, diagnosis):
        """Flatten per-template findings, most severe first (bounded)."""
        findings_map = getattr(diagnosis, "findings", None) or {}
        flat = [f for fs in findings_map.values() for f in fs]
        flat.sort(key=lambda f: (-int(f.severity), f.sql_id, f.rule))
        return tuple(flat[: self.max_findings])

    def _advisories(self, diagnosis):
        """Workload advisories, most severe first (bounded)."""
        advisories = list(getattr(diagnosis, "advisories", ()) or ())
        advisories.sort(key=lambda a: a.sort_key())
        return tuple(advisories[: self.max_advisories])

    @staticmethod
    def _repair_outcome(diagnosis) -> RepairOutcome:
        plan = diagnosis.plan
        planned = []
        for action in plan.actions:
            entry = {"kind": action.kind, "sql_id": action.sql_id}
            for key, value in vars(action).items():
                if key != "sql_id":
                    # Strict JSON: tuples (e.g. optimization evidence)
                    # round-trip as lists.
                    entry[key] = list(value) if isinstance(value, tuple) else value
            planned.append(entry)
        skipped = tuple(
            {"sql_id": skip.sql_id, "reason": skip.reason}
            for skip in getattr(plan, "skips", ())
        )
        return RepairOutcome(
            session_lift=float(plan.session_lift),
            planned=tuple(planned),
            executed_kinds=tuple(a.kind for a in plan.executed),
            executed=bool(diagnosis.executed),
            skipped=skipped,
        )

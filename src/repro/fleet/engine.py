"""Per-instance diagnosis engine (one instance's always-on loop).

Consume one instance's query-log and metric topic partitions, run the
real-time detector, assemble anomaly cases from the retention-bounded
log store, run PinSQL, plan/execute repairs, notify.  The fleet service
(:class:`~repro.fleet.service.FleetDiagnosisService`) owns one engine
per registered instance and steps it; the engine is the only consumer
of the broker topics.

Every engine is self-contained — consumers, detector buffers, log
store, template catalog, emitted-anomaly dedup state — so
instances never share mutable state and an engine steps the same
whether the fleet loop runs it in this process or a worker process
does.  The detector's buffers are the engine's only copy of the raw
metric samples, and the log store its only copy of the raw queries;
each step bounds both against the detector's stream clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (incidents → core)
    from repro.incidents.recorder import IncidentRecorder

from repro.collection.aggregator import aggregate_logstore
from repro.collection.collector import METRIC_TOPIC, QUERY_TOPIC
from repro.collection.logstore import LogStore
from repro.collection.quarantine import quarantine
from repro.collection.stream import Broker, instance_topic
from repro.core.case import AnomalyCase
from repro.core.config import PinSQLConfig
from repro.core.pipeline import PinSQL, PinSQLResult
from repro.core.repair.engine import RepairEngine, RepairPlan
from repro.core.repair.rules import DEFAULT_REPAIR_CONFIG, RepairConfig
from repro.core.report import DiagnosisReport, render_report
from repro.dbsim.instance import DatabaseInstance
from repro.detection.case_builder import DetectedAnomaly
from repro.detection.realtime import RealtimeAnomalyDetector
from repro.detection.typing import CategoryVerdict, classify_case
from repro.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceeded,
    DegradedModePolicy,
    DiagnosisConfidence,
    StageWatchdog,
)
from repro.sqlanalysis import Advisory, Finding, SqlAnalyzer, WorkloadAnalyzer
from repro.sqltemplate import Fingerprint, TemplateCatalog, fingerprint
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    TraceContext,
    Tracer,
    get_logger,
    get_registry,
)
from repro.timeseries import TimeSeries

__all__ = ["ServiceConfig", "Diagnosis", "InstanceDiagnosisEngine"]

_log = get_logger("service")


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of the autonomy loop (the paper's Fig. 5 knobs)."""

    pinsql: PinSQLConfig = field(default_factory=PinSQLConfig)
    repair: RepairConfig = DEFAULT_REPAIR_CONFIG
    #: δs — context collected before the detected anomaly start.
    delta_start_s: int = 900
    #: Sliding window and cadence of the real-time detector.
    detector_window_s: int = 1800
    evaluation_interval_s: int = 60
    #: Ignore anomalies shorter than this (user-configurable, Sec. IV-B).
    min_anomaly_duration_s: int = 30
    #: Wall-clock budget per diagnosis (None disables the watchdog).
    #: The stage watchdog checks between pipeline stages; an exceeded
    #: budget abandons the diagnosis and counts
    #: ``diagnosis_stage_timeouts_total``.
    diagnosis_budget_s: float | None = None
    #: Degraded-mode thresholds (see DegradedModePolicy).
    max_gap_fraction: float = 0.25
    min_window_fraction: float = 0.5
    #: Repair-execution circuit breaker (consecutive failures to open,
    #: seconds until a half-open probe is allowed).
    breaker_failure_threshold: int = 3
    breaker_recovery_s: float = 120.0


@dataclass
class Diagnosis:
    """One completed diagnosis produced by the service."""

    anomaly: DetectedAnomaly
    case: AnomalyCase
    result: PinSQLResult
    report: DiagnosisReport
    plan: RepairPlan
    executed: bool
    #: The monitored instance the anomaly occurred on.
    instance_id: str
    #: Rule-based anomaly typing (category + evidence).
    verdict: CategoryVerdict | None = None
    #: Static-analysis findings per top-ranked template (R-SQLs first).
    findings: dict[str, tuple[Finding, ...]] = field(default_factory=dict)
    #: Id of the persisted incident record, when a recorder is attached.
    incident_id: str | None = None
    #: Evidence confidence: ``"full"``, or ``"degraded"`` when the
    #: diagnosis ran on imperfect evidence (gappy metric windows,
    #: shrunken context, quarantined log batches).
    confidence: str = DiagnosisConfidence.FULL.value
    #: Machine-readable reasons the diagnosis was degraded.
    degraded_reasons: tuple[str, ...] = ()
    #: Pipeline freshness when the diagnosis completed: newest ingested
    #: event second vs. the detector's stream clock, plus the publish
    #: wall-time of the newest block (persisted onto incident records).
    data_freshness: dict = field(default_factory=dict)
    #: Workload-level advisories (lock conflicts, index candidates,
    #: join fan-out) computed over the case catalog during repair
    #: planning; persisted onto incident records.
    advisories: tuple[Advisory, ...] = ()

    def outcome_key(self) -> str:
        """Stable key of the (verdict, rules, advisors, confidence) combo.

        Two diagnoses with the same key exercised the same explainable
        outcome: same typed category, same set of static-analysis rules
        fired, same advisory passes, same confidence stamp.  The
        scenario fuzzer counts distinct keys as behavioural coverage, so
        the format must stay stable within a build (it is not persisted).
        """
        verdict = self.verdict.category.value if self.verdict is not None else "untyped"
        rules = ",".join(
            sorted({f.rule for fs in self.findings.values() for f in fs})
        )
        advisors = ",".join(sorted({a.advisor for a in self.advisories}))
        return f"{verdict}|{rules}|{advisors}|{self.confidence}"


class InstanceDiagnosisEngine:
    """One instance's diagnosis loop over its broker topic partition.

    Parameters
    ----------
    broker:
        The (fleet-shared) message broker.
    instance_id:
        Id of the monitored instance (non-empty).  Decides the topic
        partition (``query_logs.<id>`` / ``performance_metrics.<id>``)
        and labels all telemetry.
    config:
        Service configuration.
    instance:
        Optional live :class:`DatabaseInstance`; when provided *and* the
        repair config enables auto-execution, planned actions are applied.
    history_provider:
        Optional callable ``(sql_id, days_ago, ts, te) → TimeSeries|None``
        supplying historical execution series for verification.
    notify:
        Optional callback invoked with each completed :class:`Diagnosis`
        (the DingTalk/SMS hook of the paper's Fig. 5).
    registry:
        Optional metrics registry; by default the process-wide one from
        :mod:`repro.telemetry`.  The engine's private tracer, bound to
        it, labels spans with the instance so per-stage histograms stay
        separable.
    logstore:
        Optional :class:`LogStore` (e.g. one with a shorter retention);
        by default the engine creates its own.  Each step expires it
        against the detector's stream clock.
    """

    def __init__(
        self,
        broker: Broker,
        instance_id: str,
        config: ServiceConfig | None = None,
        instance: DatabaseInstance | None = None,
        history_provider: Callable[[str, int, int, int], TimeSeries | None] | None = None,
        notify: Callable[[Diagnosis], None] | None = None,
        registry: MetricsRegistry | None = None,
        logstore: LogStore | None = None,
        recorder: "IncidentRecorder | None" = None,
    ) -> None:
        if not instance_id:
            raise ValueError("instance_id must be non-empty")
        self.config = config or ServiceConfig()
        self.broker = broker
        self.instance_id = instance_id
        self.instance = instance
        self.history_provider = history_provider
        self.notify = notify
        #: Optional incident flight recorder; every completed diagnosis
        #: is persisted as a durable evidence chain.
        self.recorder = recorder
        self.query_topic = instance_topic(QUERY_TOPIC, instance_id)
        self.metric_topic = instance_topic(METRIC_TOPIC, instance_id)
        self.registry = registry or get_registry()
        self.tracer = Tracer(registry=self.registry, labels={"instance": instance_id})
        self.logstore = logstore if logstore is not None else LogStore(
            registry=self.registry, instance_id=instance_id
        )
        self.catalog = TemplateCatalog()
        self._log_consumer = broker.consumer(self.query_topic)
        self.detector = RealtimeAnomalyDetector(
            broker.consumer(self.metric_topic),
            window_s=self.config.detector_window_s,
            evaluation_interval_s=self.config.evaluation_interval_s,
            registry=self.registry,
            instance_id=instance_id,
        )
        self._pinsql = PinSQL(self.config.pinsql, tracer=self.tracer)
        #: Static SQL analyzer shared by repair planning and diagnosis
        #: evidence; sees the live schema (index metadata) when a live
        #: instance is attached.
        self.analyzer = SqlAnalyzer(
            schema=instance.schema if instance is not None else None,
            registry=self.registry,
        )
        #: Workload-level advisor (lock-conflict graph, index advisor,
        #: join/fan-out) shared by repair planning and health sweeps.  It
        #: parses through ``self.analyzer``: one IR cache per engine.
        self.advisor = WorkloadAnalyzer(
            schema=instance.schema if instance is not None else None,
            registry=self.registry,
            analyzer=self.analyzer,
        )
        self._repair = RepairEngine(
            self.config.repair, registry=self.registry, instance_id=instance_id,
            analyzer=self.analyzer, advisor=self.advisor,
        )
        #: Degraded-mode policy: gap detection and evidence fallbacks.
        self.degraded_policy = DegradedModePolicy(
            max_gap_fraction=self.config.max_gap_fraction,
            min_window_fraction=self.config.min_window_fraction,
            registry=self.registry,
            instance=instance_id,
        )
        #: Stage watchdog bounding each diagnosis's wall-clock budget.
        self._watchdog = StageWatchdog(
            self.config.diagnosis_budget_s,
            registry=self.registry,
            instance=instance_id,
        )
        #: Circuit breaker around repair execution: stop hammering an
        #: instance whose repair path keeps failing.
        self.repair_breaker = CircuitBreaker(
            name=f"repair.{instance_id}",
            failure_threshold=self.config.breaker_failure_threshold,
            recovery_s=self.config.breaker_recovery_s,
            registry=self.registry,
        )
        #: Query-log records quarantined since the last diagnosis —
        #: evidence of missing log batches for the degraded policy.
        self._quarantined_since_diagnosis = 0
        self.diagnoses: list[Diagnosis] = []
        reg = self.registry
        labels = {"instance": instance_id}
        self._m_steps = reg.counter(
            "service_steps_total", help="Service loop iterations.", **labels
        )
        self._m_diagnoses = reg.counter(
            "service_diagnoses_total", help="Completed diagnoses.", **labels
        )
        self._m_log_messages = reg.counter(
            "service_querylog_messages_total",
            help="Query-log messages drained into the LogStore.",
            **labels,
        )
        self._m_block_records = reg.counter(
            "service_querylog_block_records_total",
            help="Raw query records ingested from columnar block messages.",
            **labels,
        )
        self._m_samples_evicted = reg.counter(
            "service_metric_samples_evicted_total",
            help="Buffered metric samples dropped by the retention bound.",
            **labels,
        )
        self._g_sample_count = reg.gauge(
            "service_metric_samples_resident",
            help="Buffered metric samples currently retained.",
            **labels,
        )
        self._h_ingest_lag = reg.histogram(
            "pipeline_lag_seconds",
            help="Block age per pipeline stage (publish wall-time to now).",
            buckets=DEFAULT_LATENCY_BUCKETS,
            stage="ingest",
            **labels,
        )
        self._h_diagnose_lag = reg.histogram(
            "pipeline_lag_seconds",
            help="Block age per pipeline stage (publish wall-time to now).",
            buckets=DEFAULT_LATENCY_BUCKETS,
            stage="diagnose",
            **labels,
        )
        self._g_freshness = reg.gauge(
            "data_freshness_seconds",
            help="Stream seconds between the detector clock and the "
            "newest ingested event.",
            **labels,
        )
        #: Trace context of the newest ingested block — the remote
        #: publish span that parents this engine's diagnosis spans.
        self._ingest_trace: TraceContext | None = None
        #: Publish wall-time of the newest ingested block.
        self._last_publish_unix: float = 0.0
        #: Newest event second observed in ingested query batches.
        self._last_event_s: int | None = None

    def _count_skip(self, reason: str) -> None:
        self.registry.counter(
            "service_anomalies_skipped_total",
            help="Anomaly events not diagnosed, by reason.",
            reason=reason,
            instance=self.instance_id,
        ).inc()

    # ------------------------------------------------------------------
    # Stream consumption
    # ------------------------------------------------------------------
    def _drain_query_logs(self, max_messages: int = 50_000) -> int:
        from repro.collection.blocks import QueryLogBlock, validate_query_block

        handled = 0
        while True:
            messages = self._log_consumer.poll(max_messages)
            if not messages:
                break
            for message in messages:
                record = message.value
                # ``publish_block`` already validated a block it accepted.
                if not (message.validated and isinstance(record, QueryLogBlock)):
                    reason = validate_query_block(record)
                    if reason is not None:
                        # A malformed payload is one lost *batch*: park it
                        # on the dead-letter topic and remember the loss
                        # for the degraded policy instead of crashing the
                        # drain loop.
                        quarantine(self.broker, self.query_topic, record, reason)
                        self._quarantined_since_diagnosis += 1
                        continue
                if record.instance and record.instance != self.instance_id:
                    continue
                if record.trace is not None:
                    # Adopt the publish span's context: subsequent
                    # root spans (service.diagnose) join its trace.
                    self._ingest_trace = record.trace
                    self.tracer.set_remote_parent(record.trace)
                if record.created_unix:
                    self._last_publish_unix = record.created_unix
                    self._h_ingest_lag.observe(
                        max(0.0, time.time() - record.created_unix)
                    )
                ingested = self.logstore.ingest_block(record)
                self._m_block_records.inc(ingested)
                self._note_event_second(int(record.data["arrive_ms"].max()))
                for sql_id, stmt in zip(record.sql_ids, record.statements):
                    if stmt and sql_id not in self.catalog:
                        self.catalog.register_statement(stmt)
                handled += 1
        return handled

    def _note_event_second(self, arrive_ms_max: int) -> None:
        """Track the newest event second for the freshness gauge."""
        event_s = arrive_ms_max // 1000
        if self._last_event_s is None or event_s > self._last_event_s:
            self._last_event_s = event_s

    @property
    def ingest_trace(self) -> TraceContext | None:
        """Trace context adopted from the newest ingested block (the
        publish span an incident's span tree is parented under)."""
        return self._ingest_trace

    def freshness_snapshot(self) -> dict:
        """Event-time vs. stream/wall clocks right now.

        The evidence chain's ``data_freshness``: stamped onto every
        completed :class:`Diagnosis` and persisted with its incident
        record, so an operator can tell a diagnosis built on stale
        evidence from one built on a current window.
        """
        out: dict[str, float | int] = {"diagnosed_unix": time.time()}
        if self._last_event_s is not None:
            out["event_time_s"] = self._last_event_s
        stream_time = self.detector.stream_time
        if stream_time is not None:
            out["stream_time_s"] = stream_time
            if self._last_event_s is not None:
                out["staleness_s"] = max(0, stream_time - self._last_event_s)
        if self._last_publish_unix:
            out["publish_unix"] = self._last_publish_unix
            out["ingest_lag_s"] = max(0.0, time.time() - self._last_publish_unix)
        return out

    def register_statement(self, sql: str) -> None:
        """Teach the catalog a statement (collectors may also inline them).

        The raw text is kept as the template's exemplar: static analysis
        needs the literals (IN-list sizes, quoted numbers) that the
        template erases.
        """
        self.register_fingerprint(fingerprint(sql), sql)

    def register_fingerprint(self, fp: Fingerprint, sql: str) -> None:
        """:meth:`register_statement` of ``sql`` whose fingerprint ``fp``
        the caller already holds (a replayed fixture computes it once)."""
        self.catalog.register_template(
            fp.sql_id, fp.template, fp.kind, fp.tables, exemplar=sql
        )

    def register_catalog(self, catalog: TemplateCatalog) -> None:
        """Merge an external template catalog (e.g. from the workload)."""
        for info in catalog:
            self.catalog.register_template(
                info.sql_id, info.template, info.kind, info.tables,
                exemplar=info.exemplar,
            )

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    @property
    def lag(self) -> int:
        """Messages waiting on this engine's two topic partitions."""
        return self._log_consumer.lag + self.detector.consumer.lag

    def consumer_offsets(self) -> tuple[int, int]:
        """(query-log offset, metric offset) — progress fingerprint."""
        return (self._log_consumer.offset, self.detector.consumer.offset)

    def _catch_up_query_logs(self, max_attempts: int = 8) -> int:
        """Re-drain a lagging query-log consumer before diagnosing.

        A stalled consumer returns empty batches while its broker lag
        stays positive, so empty polls are retried (bounded); a consumer
        stranded behind a pruned log head is resynced along the way.
        Each catch-up is counted by ``service_log_catchups_total``.
        """
        handled = 0
        for _ in range(max_attempts):
            if self._log_consumer.lag <= 0:
                break
            got = self._drain_query_logs()
            handled += got
            if not got:
                self._log_consumer.resync_to_base()
        if handled:
            self.registry.counter(
                "service_log_catchups_total",
                help="Query-log messages drained by pre-diagnosis catch-up.",
                instance=self.instance_id,
            ).inc(handled)
        return handled

    def resync_consumers(self) -> bool:
        """Recover consumers stranded behind a pruned log head.

        Returns ``True`` when at least one consumer was resynced (each
        resync is counted by ``broker_offset_resyncs_total``).
        """
        resynced = self._log_consumer.resync_to_base()
        return self.detector.consumer.resync_to_base() or resynced

    def step(self) -> list[Diagnosis]:
        """Consume available stream data; diagnose any fresh anomalies."""
        self._m_steps.inc()
        handled = self._drain_query_logs()
        if handled:
            self._m_log_messages.inc(handled)
        events = self.detector.poll()
        if self.detector.stream_time is not None:
            self._expire_metric_samples(self.detector.stream_time)
            self.logstore.expire(self.detector.stream_time)
            if self._last_event_s is not None:
                self._g_freshness.set(
                    max(0.0, self.detector.stream_time - self._last_event_s)
                )
        produced: list[Diagnosis] = []
        if events and self._log_consumer.lag > 0:
            # The metric stream has outrun the query-log stream (e.g.
            # the log consumer is stalled by backpressure): diagnosing
            # now would assemble an empty evidence window.  Catch the
            # log consumer up first, within a bounded retry budget.
            caught_up = self._catch_up_query_logs()
            if caught_up:
                self._m_log_messages.inc(caught_up)
        for event in events:
            if event.is_update:
                self._count_skip("update")
                continue
            if event.anomaly.duration < self.config.min_anomaly_duration_s:
                self._count_skip("too_short")
                continue
            diagnosis = self._diagnose(event.anomaly)
            if diagnosis is not None:
                self.diagnoses.append(diagnosis)
                produced.append(diagnosis)
                self._m_diagnoses.inc()
                if self.recorder is not None:
                    self.recorder.record(diagnosis, engine=self)
                _log.info(
                    "anomaly diagnosed",
                    extra={
                        "instance": self.instance_id,
                        "anomaly_start": event.anomaly.start,
                        "anomaly_end": event.anomaly.end,
                        "types": "|".join(event.anomaly.types),
                        "top_rsql": (
                            diagnosis.result.rsql_ids[0]
                            if diagnosis.result.rsql_ids
                            else ""
                        ),
                        "executed": diagnosis.executed,
                    },
                )
                if self.notify is not None:
                    self.notify(diagnosis)
        return produced

    # ------------------------------------------------------------------
    def _expire_metric_samples(self, now: int) -> None:
        """Bound the detector's buffers to the evidence a case can use.

        An anomaly can start up to ``window_s`` before ``now`` and its
        case needs ``delta_start_s`` of context before that, so samples
        older than ``now - (window_s + δs)`` can never be referenced
        again.  Evictions and residency are reported via telemetry.
        """
        evicted = self.detector.drop_before(
            now - (self.detector.window_s + self.config.delta_start_s)
        )
        if evicted:
            self._m_samples_evicted.inc(evicted)
        self._g_sample_count.set(
            sum(len(samples) for _, samples in self.detector.iter_buffer_samples())
        )

    def _diagnose(self, anomaly: DetectedAnomaly) -> Diagnosis | None:
        with self.tracer.span("service.diagnose") as span:
            try:
                diagnosis = self._diagnose_inner(anomaly)
            except DeadlineExceeded as exc:
                # The watchdog has already counted the timed-out stage;
                # abandon this diagnosis rather than blocking the loop.
                _log.warning(
                    "diagnosis abandoned: stage budget exceeded",
                    extra={
                        "instance": self.instance_id,
                        "stage": exc.stage,
                        "budget_s": exc.budget_s,
                    },
                )
                self._count_skip("deadline_exceeded")
                diagnosis = None
            # Stamp while the span is open so retained traces (and the
            # incident records built from them) carry the outcome.
            span.attrs["produced"] = diagnosis is not None
        if diagnosis is not None:
            diagnosis.data_freshness = self.freshness_snapshot()
            if self._last_publish_unix:
                self._h_diagnose_lag.observe(
                    max(0.0, time.time() - self._last_publish_unix)
                )
        return diagnosis

    def _diagnose_inner(self, anomaly: DetectedAnomaly) -> Diagnosis | None:
        from repro.dbsim.monitor import InstanceMetrics

        deadline = self._watchdog.deadline()
        ts = max(0, anomaly.start - self.config.delta_start_s)
        te = max(anomaly.end, anomaly.start + 1)
        with self._watchdog.stage(deadline, "assemble"):
            extra_reasons: list[str] = []
            quarantined = self._quarantined_since_diagnosis
            self._quarantined_since_diagnosis = 0
            if quarantined:
                extra_reasons.append(f"quarantined_logs:{quarantined}")
            samples_by_metric = dict(self.detector.iter_buffer_samples())
            assessment = self.degraded_policy.assess(
                samples_by_metric,
                ts,
                te,
                anomaly_start=anomaly.start,
                extra_reasons=tuple(extra_reasons),
            )
            ts = assessment.ts
            metrics = InstanceMetrics(
                {
                    name: self.degraded_policy.build_series(
                        samples, assessment, te, name=name
                    )
                    for name, samples in samples_by_metric.items()
                }
            )
            if "active_session" not in metrics:
                self._count_skip("no_session_metric")
                return None
            templates = aggregate_logstore(self.logstore, ts, te)
            if not templates.sql_ids:
                self._count_skip("no_templates")
                return None
            history: dict[str, dict[int, TimeSeries]] = {}
            if self.history_provider is not None:
                for sql_id in templates.sql_ids:
                    for days in self.config.pinsql.history_days:
                        series = self.history_provider(sql_id, days, ts, te)
                        if series is not None:
                            history.setdefault(sql_id, {})[days] = series
            case = AnomalyCase(
                metrics=metrics,
                templates=templates,
                logs=self.logstore,
                catalog=self.catalog,
                anomaly_start=anomaly.start,
                anomaly_end=min(anomaly.end, te),
                history=history,
            )
        with self._watchdog.stage(deadline, "analyze"):
            result = self._pinsql.analyze(case)
            verdict = classify_case(case)
            findings = self._template_findings(result)
        with self._watchdog.stage(deadline, "repair"):
            plan = self._repair.plan(case, result, anomaly_types=anomaly.types)
            executed = False
            if self.instance is not None and self.config.repair.auto_execute:
                try:
                    self.repair_breaker.call(
                        self._repair.execute, plan, self.instance, now_s=te
                    )
                except CircuitOpenError:
                    self._count_skip("repair_breaker_open")
                except Exception:
                    _log.warning(
                        "repair execution failed",
                        extra={"instance": self.instance_id},
                        exc_info=True,
                    )
                executed = bool(plan.executed)
        with self._watchdog.stage(deadline, "report"):
            report = render_report(case, result, plan=plan)
        return Diagnosis(
            anomaly=anomaly,
            case=case,
            result=result,
            report=report,
            plan=plan,
            executed=executed,
            verdict=verdict,
            findings=findings,
            instance_id=self.instance_id,
            confidence=assessment.confidence.value,
            degraded_reasons=assessment.reasons,
            advisories=tuple(plan.advisories),
        )

    def _template_findings(
        self, result: PinSQLResult, max_rsql: int = 10, max_hsql: int = 5
    ) -> dict[str, tuple[Finding, ...]]:
        """Static-analysis findings for the diagnosis's top templates.

        Only the ranked heads are analyzed (the analyzer caches, but the
        evidence chain should stay focused on what the record reports).
        """
        findings: dict[str, tuple[Finding, ...]] = {}
        for sql_id in [*result.rsql_ids[:max_rsql], *result.hsql_ids[:max_hsql]]:
            if sql_id in findings:
                continue
            info = self.catalog.get(sql_id)
            if info is None:
                continue
            template_findings = self.analyzer.analyze_template(info)
            if template_findings:
                findings[sql_id] = tuple(template_findings)
        return findings

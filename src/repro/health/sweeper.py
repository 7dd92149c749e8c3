"""Scheduled proactive sweeps over the fleet's observations.

The :class:`HealthSweeper` is the "automated DBA" loop: on a fixed
cadence it builds one :class:`~repro.health.checks.CheckContext` per
monitored instance (metric samples, per-template series, static-
analysis findings, recent incidents, consumer lag) plus one fleet-scope
context (merged incidents, pipeline self-telemetry), runs every
registered check against them, and persists the resulting findings.

Checks are run non-fatally, exactly like :class:`~repro.sqlanalysis
.SqlAnalyzer` rules: a check that raises is caught, counted via
``health_check_failures_total{check=...}``, and surfaced as a finding
*about the health layer itself* — a broken check must degrade one
observation, never kill the sweep.

Three entry points share the machinery:

- :meth:`sweep_fleet` — live sweep of a running
  :class:`~repro.fleet.FleetDiagnosisService`;
- :meth:`maybe_sweep` — the scheduled variant the fleet service calls
  each step (honours ``sweep_interval_s`` in stream time);
- :meth:`sweep_stores` — offline sweep over persisted incident stores
  (no live engines: only the incident-backed and self-health checks
  have evidence to act on).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fleet.engine import InstanceDiagnosisEngine
    from repro.fleet.service import FleetDiagnosisService

from repro.collection.aggregator import aggregate_logstore
from repro.health.checks import (
    CheckContext,
    HealthCheck,
    HealthConfig,
    default_checks,
)
from repro.health.finding import HealthFinding
from repro.health.store import FindingsStore
from repro.incidents.store import IncidentMeta, IncidentStore
from repro.resilience import BreakerState
from repro.segmentlog import discover_logs
from repro.sqlanalysis import Severity
from repro.telemetry import (
    MetricsRegistry,
    filter_snapshot,
    get_logger,
    get_registry,
)

__all__ = ["HealthSweeper", "SweepResult"]

_log = get_logger("health")

#: Telemetry counters a fleet-scope context mirrors for self-health.
_SELF_COUNTERS = ("span_errors_total", "collector_quarantined_total")


@dataclass
class SweepResult:
    """The outcome of one sweep (all scopes)."""

    sweep_id: str
    now: int
    findings: list[HealthFinding] = field(default_factory=list)
    #: (check_id, context) pairs executed, for coverage accounting.
    checks_run: int = 0
    #: Checks that raised (each also produced a health-layer finding).
    check_failures: int = 0
    instances: tuple[str, ...] = ()

    @property
    def worst(self) -> Severity | None:
        return max((f.severity for f in self.findings), default=None)


def _split_by_instance(snapshot: dict, instance_ids: Iterable[str]) -> dict[str, dict]:
    """``filter_snapshot(snapshot, instance=i)`` for every ``i``, in one
    pass over the snapshot."""
    parts = {iid: {kind: [] for kind in snapshot} for iid in instance_ids}
    for kind, entries in snapshot.items():
        for entry in entries:
            part = parts.get(entry["labels"].get("instance"))
            if part is not None:
                part[kind].append(entry)
    return parts


class HealthSweeper:
    """Runs registered health checks on a schedule and persists findings.

    Parameters
    ----------
    store:
        Optional durable :class:`FindingsStore`; sweeps also keep their
        results on :attr:`sweeps` so a store is not required.
    incident_store:
        Optional :class:`IncidentStore` feeding the incident-backed
        checks (repeat offenders, degraded-confidence rates).
    checks:
        The check suite; defaults to every registered check.
    config:
        Thresholds and cadence (:class:`HealthConfig`).
    registry:
        Metrics registry for the sweeper's own telemetry.
    """

    def __init__(
        self,
        store: FindingsStore | None = None,
        incident_store: IncidentStore | None = None,
        checks: Iterable[HealthCheck] | None = None,
        config: HealthConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.incident_store = incident_store
        self.checks = tuple(checks) if checks is not None else default_checks()
        self.config = config or HealthConfig()
        self.registry = registry or get_registry()
        self.sweeps: list[SweepResult] = []
        self._seq = 0
        self._last_sweep_at: int | None = None
        self._m_sweeps = self.registry.counter(
            "health_sweeps_total", help="Completed health sweeps."
        )
        self._g_last = self.registry.gauge(
            "health_last_sweep_findings",
            help="Findings emitted by the most recent sweep.",
        )

    # ------------------------------------------------------------------
    # Context assembly
    # ------------------------------------------------------------------
    def context_for_engine(
        self,
        engine: "InstanceDiagnosisEngine",
        now: int,
        telemetry: Mapping | None = None,
    ) -> CheckContext:
        """One instance's observations over the sweep window.

        ``telemetry`` lets :meth:`sweep_fleet` snapshot the registry
        once and hand each context its instance-filtered slice (one
        partition of the snapshot per sweep); when omitted, the slice
        is computed here.
        """
        cfg = self.config
        if telemetry is None:
            telemetry = filter_snapshot(
                self.registry.snapshot(), instance=engine.instance_id
            )
        ts = max(0, now - cfg.sweep_window_s)
        templates = None
        analysis: dict[str, tuple] = {}
        if now > ts:
            templates = aggregate_logstore(engine.logstore, ts, now)
            for sql_id in templates.sql_ids:
                # The engine's analyzer caches per template text, so a
                # repeat sweep re-parses nothing.
                info = engine.catalog.get(sql_id)
                if info is None:
                    continue
                found = engine.analyzer.analyze_template(info)
                if found:
                    analysis[sql_id] = tuple(found)
        incidents: list[IncidentMeta] = []
        if self.incident_store is not None:
            incidents = self.incident_store.query(
                instance=engine.instance_id,
                since=max(0, now - cfg.incident_window_s),
            )
        return CheckContext(
            instance_id=engine.instance_id,
            now=now,
            config=cfg,
            scope="instance",
            metrics=engine.detector.window_values(ts, now),
            templates=templates,
            analysis=analysis,
            incidents=incidents,
            consumer_lag=engine.lag,
            telemetry=telemetry,
            advisories=self._advisories_for_engine(engine, templates),
        )

    @staticmethod
    def _advisories_for_engine(
        engine: "InstanceDiagnosisEngine", templates
    ) -> tuple:
        """Workload advisories over the sweep window's templates.

        Uses the engine's own :class:`WorkloadAnalyzer` (when present)
        with traffic weights taken from the window's aggregated metric
        store.  Non-fatal by design: an advisory failure degrades one
        context field, never the sweep.
        """
        advisor = getattr(engine, "advisor", None)
        if advisor is None or templates is None:
            return ()
        try:
            from repro.sqlanalysis.workload import TrafficWeight

            weights = {}
            infos = []
            calls = templates.matrix("#execution").sum(axis=1).tolist()
            rows = templates.matrix("total_examined_rows").sum(axis=1).tolist()
            for sql_id, n_calls, n_rows in zip(templates.sql_ids, calls, rows):
                info = engine.catalog.get(sql_id)
                if info is None:
                    continue
                infos.append(info)
                weights[sql_id] = TrafficWeight(calls=n_calls, rows_examined=n_rows)
            report = advisor.analyze(infos, weights)
            return tuple(report.advisories)
        except Exception:
            _log.warning(
                "workload advisory pass failed during sweep",
                extra={"instance": engine.instance_id},
                exc_info=True,
            )
            return ()

    def fleet_context(
        self,
        now: int,
        instances: int,
        breakers_open: int = 0,
        telemetry: Mapping | None = None,
    ) -> CheckContext:
        """The fleet-scope context: merged incidents + self-telemetry."""
        cfg = self.config
        if telemetry is None:
            telemetry = self.registry.snapshot()
        incidents: list[IncidentMeta] = []
        if self.incident_store is not None:
            incidents = self.incident_store.query(
                since=max(0, now - cfg.incident_window_s)
            )
        counters = {
            name: self._counter_total(name) for name in _SELF_COUNTERS
        }
        counters["circuit_breakers_open"] = float(breakers_open)
        return CheckContext(
            instance_id="",
            now=now,
            config=cfg,
            scope="fleet",
            incidents=incidents,
            counters=counters,
            instances=instances,
            telemetry=telemetry,
        )

    def _counter_total(self, name: str) -> float:
        """Sum one counter family across every label combination."""
        total = 0.0
        for fam_name, kind, _key, inst in self.registry:
            if fam_name == name and kind == "counter":
                total += inst.value
        return total

    # ------------------------------------------------------------------
    # Sweeping
    # ------------------------------------------------------------------
    def sweep_contexts(
        self, contexts: Iterable[CheckContext], now: int
    ) -> SweepResult:
        """Run the check suite over pre-built contexts (the core loop)."""
        self._seq += 1
        result = SweepResult(sweep_id=f"sweep-{now}-{self._seq:04d}", now=now)
        seen_instances: list[str] = []
        for ctx in contexts:
            if ctx.scope == "instance" and ctx.instance_id not in seen_instances:
                seen_instances.append(ctx.instance_id)
            for check in self.checks:
                if check.scope != ctx.scope:
                    continue
                result.checks_run += 1
                try:
                    produced = list(check.check(ctx))
                except Exception as exc:
                    # The satellite fix: a raising check degrades one
                    # observation and becomes evidence, never a crash.
                    result.check_failures += 1
                    self.registry.counter(
                        "health_check_failures_total",
                        help="Health checks that raised during a sweep.",
                        check=check.check_id,
                    ).inc()
                    _log.warning(
                        "health check failed",
                        extra={
                            "check": check.check_id,
                            "instance": ctx.instance_id,
                        },
                        exc_info=True,
                    )
                    produced = [
                        HealthFinding(
                            check="health-layer",
                            severity=Severity.WARNING,
                            instance_id=ctx.instance_id,
                            message=(
                                f"health check {check.check_id!r} raised "
                                f"{type(exc).__name__} and was skipped; its "
                                "coverage is missing from this sweep"
                            ),
                            evidence={
                                "failed_check": check.check_id,
                                "error": type(exc).__name__,
                            },
                            suggestion=(
                                "fix or unregister the failing check; "
                                "see health_check_failures_total"
                            ),
                        )
                    ]
                for finding in produced:
                    result.findings.append(
                        replace(
                            finding, detected_at=now, sweep_id=result.sweep_id
                        )
                    )
        result.instances = tuple(seen_instances)
        for finding in result.findings:
            self.registry.counter(
                "health_findings_total",
                help="Health findings emitted, by check.",
                check=finding.check,
            ).inc()
        self._m_sweeps.inc()
        self._g_last.set(len(result.findings))
        if self.store is not None:
            self.store.extend(result.findings)
        self.sweeps.append(result)
        self._last_sweep_at = now
        _log.info(
            "health sweep completed",
            extra={
                "sweep_id": result.sweep_id,
                "findings": len(result.findings),
                "checks_run": result.checks_run,
                "check_failures": result.check_failures,
            },
        )
        return result

    def sweep_fleet(
        self, service: "FleetDiagnosisService", now: int | None = None
    ) -> SweepResult:
        """Sweep every registered instance plus the fleet scope."""
        engines = [service.engine(iid) for iid in service.instance_ids]
        if now is None:
            times = [
                e.detector.stream_time
                for e in engines
                if e.detector.stream_time is not None
            ]
            now = max(times) if times else 0
        snap = self.registry.snapshot()
        by_instance = _split_by_instance(snap, [e.instance_id for e in engines])
        contexts = [
            self.context_for_engine(e, now, telemetry=by_instance[e.instance_id])
            for e in engines
        ]
        breakers_open = sum(
            1 for e in engines if e.repair_breaker.state is BreakerState.OPEN
        )
        contexts.append(
            self.fleet_context(
                now,
                instances=len(engines),
                breakers_open=breakers_open,
                telemetry=snap,
            )
        )
        return self.sweep_contexts(contexts, now)

    def maybe_sweep(
        self, service: "FleetDiagnosisService", now: int | None = None
    ) -> SweepResult | None:
        """Scheduled sweep: runs only once per ``sweep_interval_s``.

        Called by the fleet service's housekeeping each step; ``now`` is
        stream time (max detector stream time across engines).  Returns
        the sweep result when one ran, else ``None``.
        """
        if now is None:
            times = [
                service.engine(iid).detector.stream_time
                for iid in service.instance_ids
                if service.engine(iid).detector.stream_time is not None
            ]
            if not times:
                return None
            now = max(times)
        if (
            self._last_sweep_at is not None
            and now - self._last_sweep_at < self.config.sweep_interval_s
        ):
            return None
        return self.sweep_fleet(service, now=now)

    def sweep_stores(
        self, path: str | Path, now: int | None = None
    ) -> SweepResult:
        """Offline sweep over persisted incident stores under ``path``.

        Without live engines only the incident-backed and self-health
        checks have evidence: the sweep builds one incident-only context
        per instance seen in the stores plus the fleet context.  ``now``
        defaults to the newest incident's creation time.
        """
        metas: list[IncidentMeta] = []
        for store_dir in discover_logs(path, IncidentStore.PREFIX):
            metas.extend(IncidentStore(store_dir).metas())
        if now is None:
            now = max((m.created_at for m in metas), default=0)
        cfg = self.config
        cutoff = max(0, now - cfg.incident_window_s)
        metas = [m for m in metas if m.anomaly_end > cutoff]
        by_instance: dict[str, list[IncidentMeta]] = {}
        for meta in metas:
            by_instance.setdefault(meta.instance_id, []).append(meta)
        contexts = [
            CheckContext(
                instance_id=instance_id,
                now=now,
                config=cfg,
                scope="instance",
                incidents=tuple(incident_metas),
            )
            for instance_id, incident_metas in sorted(by_instance.items())
        ]
        counters = {name: self._counter_total(name) for name in _SELF_COUNTERS}
        counters["circuit_breakers_open"] = 0.0
        contexts.append(
            CheckContext(
                instance_id="",
                now=now,
                config=cfg,
                scope="fleet",
                incidents=tuple(metas),
                counters=counters,
                instances=max(1, len(by_instance)),
            )
        )
        return self.sweep_contexts(contexts, now)

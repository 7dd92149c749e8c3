"""Proactive health checks: a pluggable registry over fleet observations.

Mirrors :func:`repro.sqlanalysis.register_rule`: each check inspects a
:class:`CheckContext` — one instance's (or the fleet's) observations at
sweep time — and yields :class:`HealthFinding`\\ s.  Checks register
themselves with :func:`register_check`; the sweeper runs whatever the
registry holds, so downstream code (and tests) can add site-specific
checks without touching this module.

The built-in suite covers the data the repo already observes:

====================== =============================== =================
check                  data source                     scope
====================== =============================== =================
rising-response-time   per-template ``avg_tres``       instance
rising-rows-examined   per-template rows/execution     instance
lock-footprint-trend   ``innodb_row_lock_time`` metric instance
connection-pressure    ``active_session`` metric       instance
antipattern-share      sqlanalysis findings × traffic  instance
broker-backpressure    consumer lag                    instance
repeat-offender        incident store                  fleet
degraded-confidence    incident store                  fleet
self-health            telemetry counters / breakers   fleet
====================== =============================== =================

Trend checks use EWMA smoothing and compare the head half of the sweep
window against the tail half — a deliberately boring estimator that is
robust to single spikes and cheap enough to run fleet-wide every sweep.
The two template trend checks judge every template of the window's
``templates × seconds`` matrices in one pass (:func:`template_trends`);
the metric trend checks run the same code on one series.
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Mapping, Sequence

import numpy as np

from repro.collection.aggregator import TemplateMetricStore
from repro.health.finding import HealthFinding
from repro.incidents.store import IncidentMeta
from repro.sqlanalysis import Finding, Severity

__all__ = [
    "CheckContext",
    "HealthCheck",
    "HealthConfig",
    "check_ids",
    "default_checks",
    "ewma",
    "ewma_rows",
    "half_rise",
    "half_rises",
    "register_check",
    "template_trends",
]

#: Static-analysis rules that indicate a *structural* scan problem —
#: traffic concentrating on these templates is creeping debt.
STRUCTURAL_RULES = frozenset(
    {
        "non-sargable-function",
        "leading-wildcard-like",
        "implicit-conversion",
        "missing-index",
        "unbounded-scan",
        "cartesian-join",
    }
)


@dataclass(frozen=True)
class HealthConfig:
    """Tunable thresholds of the built-in check suite."""

    #: Look-back horizon of one sweep (seconds of stream time).
    sweep_window_s: int = 600
    #: Cadence of scheduled sweeps (:meth:`HealthSweeper.maybe_sweep`).
    sweep_interval_s: int = 300
    #: Look-back into the incident store for fleet-scope checks.
    incident_window_s: int = 86_400
    #: Trend checks need this many observed samples to say anything.
    min_trend_samples: int = 40
    #: Template trend checks: executions needed over the window.
    min_template_executions: float = 30.0
    #: rising-response-time: relative rise (tail vs head half) to fire,
    #: and the response-time floor that makes the rise worth reporting.
    #: The floor sits well above ordinary OLTP point-query latency —
    #: sub-15 ms templates wobble past the rise ratio on workload noise
    #: alone, and a DBA would never act on them.
    rt_rise_ratio: float = 0.5
    min_rt_ms: float = 15.0
    #: rising-rows-examined: relative rise and rows/execution floor.
    rows_rise_ratio: float = 0.5
    min_rows_per_exec: float = 1_000.0
    #: lock-footprint-trend: relative rise and lock-ms-per-second floor.
    lock_rise_ratio: float = 1.0
    min_lock_ms_per_s: float = 20.0
    #: connection-pressure: relative rise and active-session floor.
    session_rise_ratio: float = 0.5
    min_active_session: float = 4.0
    #: antipattern-share: traffic share on structural anti-patterns.
    antipattern_share: float = 0.25
    min_total_executions: float = 100.0
    #: broker-backpressure: unconsumed messages on one engine's topics.
    max_consumer_lag: int = 1_000
    #: repeat-offender: times one template must top the R-SQL ranking.
    repeat_offender_count: int = 2
    #: degraded-confidence: share of degraded incidents, with a count
    #: floor so one unlucky incident does not page anyone.
    degraded_rate: float = 0.5
    min_degraded_incidents: int = 2
    #: self-health: quarantined messages tolerated before a finding.
    max_quarantined: int = 0
    #: latency-slo-burn-rate: histogram observations needed before a
    #: burn rate is trustworthy enough to report.
    slo_min_samples: int = 20
    #: data-freshness: stream-time staleness (newest ingested event vs.
    #: detector clock) tolerated before a finding, in seconds.
    max_data_staleness_s: float = 900.0
    #: workload-advisory: advisories reported per sweep, and the minimum
    #: advisory severity that becomes a health finding.
    max_advisories_reported: int = 5
    min_advisory_severity: int = int(Severity.WARNING)

    def __post_init__(self) -> None:
        if self.sweep_window_s <= 0 or self.sweep_interval_s <= 0:
            raise ValueError("sweep_window_s and sweep_interval_s must be positive")
        if self.min_trend_samples < 4:
            raise ValueError("min_trend_samples must be at least 4")


@dataclass
class CheckContext:
    """What one check sees: the observations of one sweep scope.

    ``scope`` is ``"instance"`` (one monitored instance's window) or
    ``"fleet"`` (merged observations across every swept instance);
    checks declare which scope they run at.  All fields degrade to
    empty: a context built offline from just an incident store runs the
    fleet checks and leaves the trend checks quiet.
    """

    instance_id: str
    now: int
    config: HealthConfig = field(default_factory=HealthConfig)
    scope: str = "instance"
    #: Sample values over the sweep window in time order, per metric
    #: name (:meth:`RealtimeAnomalyDetector.window_values`).
    metrics: Mapping[str, np.ndarray] = field(default_factory=dict)
    #: Per-template series over the sweep window (``None`` when the
    #: sweep has no query-log view, e.g. offline store-only sweeps).
    templates: TemplateMetricStore | None = None
    #: Static-analysis findings per template in the window.
    analysis: Mapping[str, Sequence[Finding]] = field(default_factory=dict)
    #: Incident index entries in scope (this instance / whole fleet).
    incidents: Sequence[IncidentMeta] = ()
    #: Relevant telemetry counter totals (summed across labels).
    counters: Mapping[str, float] = field(default_factory=dict)
    #: Unconsumed messages on this instance's topic partitions.
    consumer_lag: int = 0
    #: Instances covered by a fleet-scope context.
    instances: int = 1
    #: Registry snapshot in scope (:meth:`MetricsRegistry.snapshot`,
    #: filtered to this instance's label for instance contexts).  SLO
    #: checks read histogram buckets and freshness gauges from here.
    telemetry: Mapping = field(default_factory=dict)
    #: Latency SLO specs to evaluate (:data:`repro.health.slo.DEFAULT_SLOS`
    #: when empty).
    slos: Sequence = ()
    #: Workload-level advisories over the sweep window's templates
    #: (lock conflicts, index candidates, join fan-out).
    advisories: Sequence = ()

    def metric_values(self, name: str) -> np.ndarray:
        """The sample values of one metric, time-ordered (empty if none)."""
        return np.asarray(self.metrics.get(name, ()), dtype=np.float64)


class HealthCheck(abc.ABC):
    """Base class for proactive health checks."""

    check_id: ClassVar[str] = ""
    description: ClassVar[str] = ""
    #: ``"instance"`` or ``"fleet"``.
    scope: ClassVar[str] = "instance"

    @abc.abstractmethod
    def check(self, ctx: CheckContext) -> Iterator[HealthFinding]:
        """Yield findings for one context (``sweep_id`` filled by the sweeper)."""


_REGISTRY: dict[str, HealthCheck] = {}


def register_check(cls: type[HealthCheck]) -> type[HealthCheck]:
    """Class decorator adding a check (by ``check_id``) to the registry."""
    if not cls.check_id:
        raise ValueError(f"{cls.__name__} must define a check_id")
    if cls.scope not in ("instance", "fleet"):
        raise ValueError(f"{cls.__name__}.scope must be 'instance' or 'fleet'")
    _REGISTRY[cls.check_id] = cls()
    return cls


def default_checks() -> tuple[HealthCheck, ...]:
    """The registered checks, in registration order."""
    return tuple(_REGISTRY.values())


def check_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


# ----------------------------------------------------------------------
# Trend math
# ----------------------------------------------------------------------
def ewma_rows(packed: np.ndarray, alpha: float = 0.2) -> np.ndarray:
    """Exponentially weighted moving average of every row of a matrix.

    Each row is a series left-packed from column 0; what lies past a
    row's own length is padding, and its smoothed values there mean
    nothing.  Vectorised as a blocked scan: within a block the
    recurrence ``y[k] = α·x[k] + (1-α)·y[k-1]`` closes to
    ``y[k] = d^(k+1)·carry + α·d^k·Σ x[j]/d^j`` with ``d = 1-α``; the
    block bounds the ``d^-j`` scale factor so long series cannot
    overflow.  ``cumsum`` along axis 1 adds each row in the order a 1-D
    ``cumsum`` does, so one pass over all rows gives every row the bits
    smoothing it alone would: a sweep smooths hundreds of per-template
    series in one call.
    """
    packed = np.asarray(packed, dtype=np.float64)
    n = packed.shape[1]
    out = np.empty_like(packed)
    if n == 0:
        return out
    decay = 1.0 - alpha
    out[:, 0] = carry = packed[:, 0]
    block = 512
    i = 1
    while i < n:
        x = packed[:, i : i + block]
        width = x.shape[1]
        scale = decay ** np.arange(width, dtype=np.float64)
        y = (decay * scale) * carry[:, None] + alpha * scale * np.cumsum(x / scale, axis=1)
        out[:, i : i + width] = y
        carry = y[:, -1]
        i += width
    return out


def half_rises(packed: np.ndarray, lengths: Sequence[int]) -> list[tuple[float, float, float]]:
    """(head mean, tail mean, relative rise) of every smoothed row.

    Row ``r`` holds a series of ``lengths[r]`` values, left-packed (see
    :func:`ewma_rows`).  The relative rise compares the tail half of the
    window against the head half; a clean upward creep reads as a
    positive ratio while a single spike mostly cancels out under the
    EWMA.  A zero head reads as an infinite rise when the tail is
    positive.  The smoothing is one matrix pass; the two means stay
    per-row ``np.add.reduce`` calls, which sum each half pairwise as
    ``np.mean`` does (``np.add.reduceat`` would add sequentially).
    """
    smoothed = ewma_rows(packed)
    out = []
    for row, n in zip(smoothed, lengths):
        mid = n // 2
        head = float(np.add.reduce(row[:mid]) / mid) if mid else 0.0
        tail = float(np.add.reduce(row[mid:n]) / (n - mid)) if n > mid else 0.0
        if head <= 0.0:
            out.append((head, tail, float("inf") if tail > 0.0 else 0.0))
        else:
            out.append((head, tail, (tail - head) / head))
    return out


def ewma(values: np.ndarray, alpha: float = 0.2) -> np.ndarray:
    """:func:`ewma_rows` of one series (same length as the input)."""
    return ewma_rows(np.asarray(values, dtype=np.float64)[None, :], alpha)[0]


def half_rise(values: np.ndarray) -> tuple[float, float, float]:
    """:func:`half_rises` of one series: (head mean, tail mean, rise)."""
    values = np.asarray(values, dtype=np.float64)
    return half_rises(values[None, :], (len(values),))[0]


def _pack_rows(mask: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left-pack each row's ``values`` where ``mask`` holds.

    Returns a zero-padded ``(rows, longest)`` matrix whose row ``r``
    starts with ``values[r][mask[r]]``, and each row's length.
    """
    lengths = np.count_nonzero(mask, axis=1)
    width = int(lengths.max(initial=0))
    packed = np.zeros((len(mask), width))
    packed[np.arange(width) < lengths[:, None]] = values[mask]
    return packed, lengths


def template_trends(
    execs: np.ndarray, per_second: np.ndarray, cfg: HealthConfig
) -> Iterator[tuple[int, float, float, float]]:
    """``(row, head, tail, rise)`` of every template with a trend to judge.

    A template qualifies with at least ``min_template_executions`` over
    the window and ``min_trend_samples`` active seconds (``execs > 0``);
    its series is ``per_second`` over those seconds.  The qualifying rows
    are smoothed together (:func:`half_rises`), in row order.
    """
    active = execs > 0
    eligible = np.flatnonzero(
        (execs.sum(axis=1) >= cfg.min_template_executions)
        & (np.count_nonzero(active, axis=1) >= cfg.min_trend_samples)
    )
    packed, lengths = _pack_rows(active[eligible], per_second[eligible])
    for row, trend in zip(eligible.tolist(), half_rises(packed, lengths.tolist())):
        yield (row, *trend)


def _trend_severity(rise: float, threshold: float) -> Severity:
    """WARNING at the threshold, HIGH at double, CRITICAL at quadruple."""
    if rise >= 4.0 * threshold:
        return Severity.CRITICAL
    if rise >= 2.0 * threshold:
        return Severity.HIGH
    return Severity.WARNING


# ----------------------------------------------------------------------
# Instance-scope checks
# ----------------------------------------------------------------------
@register_check
class RisingResponseTimeCheck(HealthCheck):
    check_id = "rising-response-time"
    description = (
        "Template mean response time creeping up below the anomaly threshold."
    )
    scope = "instance"

    def check(self, ctx: CheckContext) -> Iterator[HealthFinding]:
        if ctx.templates is None:
            return
        cfg = ctx.config
        store = ctx.templates
        execs = store.matrix("#execution")
        for row, head, tail, rise in template_trends(execs, store.matrix("avg_tres"), cfg):
            sql_id = store.sql_ids[row]
            if rise >= cfg.rt_rise_ratio and tail >= cfg.min_rt_ms:
                yield HealthFinding(
                    check=self.check_id,
                    severity=_trend_severity(rise, cfg.rt_rise_ratio),
                    instance_id=ctx.instance_id,
                    sql_id=sql_id,
                    metric="avg_tres",
                    message=(
                        f"mean response time of {sql_id} rose "
                        f"{rise:+.0%} over the sweep window "
                        f"({head:.1f} → {tail:.1f} ms) without tripping "
                        "the anomaly detector"
                    ),
                    evidence={
                        "head_ms": round(head, 3),
                        "tail_ms": round(tail, 3),
                        "rise": round(rise, 4),
                        "executions": float(execs[row].sum()),
                    },
                    suggestion=(
                        "inspect the plan and recent data growth for "
                        f"{sql_id} before the trend becomes an incident"
                    ),
                )


@register_check
class RisingRowsExaminedCheck(HealthCheck):
    check_id = "rising-rows-examined"
    description = "Rows examined per execution trending up (plan regression)."
    scope = "instance"

    def check(self, ctx: CheckContext) -> Iterator[HealthFinding]:
        if ctx.templates is None:
            return
        cfg = ctx.config
        store = ctx.templates
        execs = store.matrix("#execution")
        rows = store.matrix("total_examined_rows")
        per_exec = np.divide(rows, execs, out=np.zeros_like(rows), where=execs > 0)
        for row, head, tail, rise in template_trends(execs, per_exec, cfg):
            sql_id = store.sql_ids[row]
            if rise >= cfg.rows_rise_ratio and tail >= cfg.min_rows_per_exec:
                yield HealthFinding(
                    check=self.check_id,
                    severity=_trend_severity(rise, cfg.rows_rise_ratio),
                    instance_id=ctx.instance_id,
                    sql_id=sql_id,
                    metric="total_examined_rows",
                    message=(
                        f"rows examined per execution of {sql_id} rose "
                        f"{rise:+.0%} ({head:.0f} → {tail:.0f} rows) — a "
                        "plan or selectivity regression in progress"
                    ),
                    evidence={
                        "head_rows": round(head, 1),
                        "tail_rows": round(tail, 1),
                        "rise": round(rise, 4),
                    },
                    suggestion=(
                        f"check index statistics and predicates of {sql_id}; "
                        "rows/execution growth usually precedes rt growth"
                    ),
                )


@register_check
class LockFootprintTrendCheck(HealthCheck):
    check_id = "lock-footprint-trend"
    description = "Row-lock wait time per second trending up."
    scope = "instance"

    def check(self, ctx: CheckContext) -> Iterator[HealthFinding]:
        cfg = ctx.config
        values = ctx.metric_values("innodb_row_lock_time")
        if len(values) < cfg.min_trend_samples:
            return
        head, tail, rise = half_rise(values)
        if rise >= cfg.lock_rise_ratio and tail >= cfg.min_lock_ms_per_s:
            yield HealthFinding(
                check=self.check_id,
                severity=_trend_severity(rise, cfg.lock_rise_ratio),
                instance_id=ctx.instance_id,
                metric="innodb_row_lock_time",
                message=(
                    f"row-lock wait time rose {rise:+.0%} over the sweep "
                    f"window ({head:.0f} → {tail:.0f} lock-ms/s); write "
                    "contention is building below the anomaly threshold"
                ),
                evidence={
                    "head_lock_ms": round(head, 1),
                    "tail_lock_ms": round(tail, 1),
                    "rise": round(rise, 4),
                },
                suggestion=(
                    "find the write templates holding locks longest "
                    "(repro lint lock-footprint) before a lock storm fires"
                ),
            )


@register_check
class ConnectionPressureCheck(HealthCheck):
    check_id = "connection-pressure"
    description = "Active sessions creeping toward the anomaly threshold."
    scope = "instance"

    def check(self, ctx: CheckContext) -> Iterator[HealthFinding]:
        cfg = ctx.config
        values = ctx.metric_values("active_session")
        if len(values) < cfg.min_trend_samples:
            return
        head, tail, rise = half_rise(values)
        if rise >= cfg.session_rise_ratio and tail >= cfg.min_active_session:
            yield HealthFinding(
                check=self.check_id,
                severity=_trend_severity(rise, cfg.session_rise_ratio),
                instance_id=ctx.instance_id,
                metric="active_session",
                message=(
                    f"active sessions rose {rise:+.0%} over the sweep "
                    f"window ({head:.1f} → {tail:.1f}); connection "
                    "pressure is building before any anomaly fired"
                ),
                evidence={
                    "head_sessions": round(head, 2),
                    "tail_sessions": round(tail, 2),
                    "rise": round(rise, 4),
                },
                suggestion=(
                    "identify the templates driving the session growth "
                    "now; at threshold this becomes a paged incident"
                ),
            )


@register_check
class AntipatternShareCheck(HealthCheck):
    check_id = "antipattern-share"
    description = "Traffic share concentrating on structural anti-pattern SQL."
    scope = "instance"

    def check(self, ctx: CheckContext) -> Iterator[HealthFinding]:
        if ctx.templates is None:
            return
        cfg = ctx.config
        total = 0.0
        flagged = 0.0
        flagged_ids: list[str] = []
        calls = ctx.templates.matrix("#execution").sum(axis=1).tolist()
        for sql_id, execs in zip(ctx.templates.sql_ids, calls):
            total += execs
            findings = ctx.analysis.get(sql_id, ())
            structural = any(
                f.rule in STRUCTURAL_RULES and f.severity >= Severity.HIGH
                for f in findings
            )
            if structural and execs > 0:
                flagged += execs
                flagged_ids.append(sql_id)
        if total < cfg.min_total_executions or flagged == 0.0:
            return
        share = flagged / total
        if share >= cfg.antipattern_share:
            severity = (
                Severity.HIGH
                if share >= 2.0 * cfg.antipattern_share
                else Severity.WARNING
            )
            worst = sorted(flagged_ids)[:5]
            yield HealthFinding(
                check=self.check_id,
                severity=severity,
                instance_id=ctx.instance_id,
                sql_id=worst[0],
                message=(
                    f"{share:.0%} of executed queries run templates with "
                    "structural anti-patterns (non-sargable filters, "
                    "unbounded scans); this traffic amplifies every "
                    "future anomaly"
                ),
                evidence={
                    "share": round(share, 4),
                    "flagged_executions": flagged,
                    "total_executions": total,
                    "templates": ",".join(worst),
                },
                suggestion=(
                    "schedule offline optimization for the flagged "
                    "templates (repro lint shows the mechanism per rule)"
                ),
            )


@register_check
class BrokerBackpressureCheck(HealthCheck):
    check_id = "broker-backpressure"
    description = "Unconsumed broker messages piling up behind an engine."
    scope = "instance"

    def check(self, ctx: CheckContext) -> Iterator[HealthFinding]:
        cfg = ctx.config
        if ctx.consumer_lag < cfg.max_consumer_lag:
            return
        severity = (
            Severity.HIGH
            if ctx.consumer_lag >= 10 * cfg.max_consumer_lag
            else Severity.WARNING
        )
        yield HealthFinding(
            check=self.check_id,
            severity=severity,
            instance_id=ctx.instance_id,
            message=(
                f"{ctx.consumer_lag:,} unconsumed messages on this "
                "instance's topic partitions; the diagnosis loop is "
                "falling behind its streams"
            ),
            evidence={
                "consumer_lag": ctx.consumer_lag,
                "threshold": cfg.max_consumer_lag,
            },
            suggestion=(
                "add diagnosis workers or check the engine for stalls; "
                "a lagging engine diagnoses on stale evidence windows"
            ),
        )


# ----------------------------------------------------------------------
# Fleet-scope checks
# ----------------------------------------------------------------------
@register_check
class RepeatOffenderCheck(HealthCheck):
    check_id = "repeat-offender"
    description = "Templates repeatedly pinpointed as the top root cause."
    scope = "fleet"

    def check(self, ctx: CheckContext) -> Iterator[HealthFinding]:
        cfg = ctx.config
        offenders: Counter[str] = Counter()
        instances: dict[str, set[str]] = {}
        for meta in ctx.incidents:
            top = meta.top_r_sql
            if top is None:
                continue
            offenders[top] += 1
            instances.setdefault(top, set()).add(meta.instance_id)
        for sql_id, count in offenders.most_common(5):
            if count < cfg.repeat_offender_count:
                break
            severity = (
                Severity.HIGH
                if count >= 2 * cfg.repeat_offender_count
                else Severity.WARNING
            )
            yield HealthFinding(
                check=self.check_id,
                severity=severity,
                sql_id=sql_id,
                message=(
                    f"{sql_id} was the top-ranked root cause of {count} "
                    "incidents; throttling keeps treating a template "
                    "that needs a structural fix"
                ),
                evidence={
                    "incidents": count,
                    "instances": ",".join(sorted(i or "-" for i in instances[sql_id])),
                },
                suggestion=(
                    f"prioritise permanent optimization of {sql_id} "
                    "(index / rewrite) over repeated runtime mitigation"
                ),
            )


@register_check
class DegradedConfidenceCheck(HealthCheck):
    check_id = "degraded-confidence"
    description = "Diagnoses increasingly running on degraded evidence."
    scope = "fleet"

    def check(self, ctx: CheckContext) -> Iterator[HealthFinding]:
        cfg = ctx.config
        total = len(ctx.incidents)
        degraded = [m for m in ctx.incidents if m.confidence == "degraded"]
        if len(degraded) < cfg.min_degraded_incidents or total == 0:
            return
        rate = len(degraded) / total
        if rate < cfg.degraded_rate:
            return
        by_instance: Counter[str] = Counter(
            m.instance_id or "-" for m in degraded
        )
        yield HealthFinding(
            check=self.check_id,
            severity=Severity.HIGH if rate >= 0.75 else Severity.WARNING,
            message=(
                f"{len(degraded)} of {total} recent incidents were "
                "diagnosed on degraded evidence (gappy metric windows, "
                "quarantined log batches); attribution quality is at risk"
            ),
            evidence={
                "degraded": len(degraded),
                "total": total,
                "rate": round(rate, 4),
                "instances": ",".join(sorted(by_instance)),
            },
            suggestion=(
                "investigate the collection path (collector drops, "
                "backpressure) before trusting further R-SQL verdicts"
            ),
        )


@register_check
class WorkloadAdvisoryCheck(HealthCheck):
    check_id = "workload-advisory"
    description = "Cross-statement workload advisories surfacing in a sweep."
    scope = "instance"

    def check(self, ctx: CheckContext) -> Iterator[HealthFinding]:
        cfg = ctx.config
        reported = 0
        for advisory in ctx.advisories:
            if int(advisory.severity) < cfg.min_advisory_severity:
                continue
            if reported >= cfg.max_advisories_reported:
                break
            reported += 1
            evidence: dict = {
                "advisor": advisory.advisor,
                "score": round(float(advisory.score), 4),
            }
            if advisory.tables:
                evidence["tables"] = ",".join(advisory.tables)
            if advisory.sql_ids:
                evidence["templates"] = ",".join(advisory.sql_ids[:6])
            for key, value in advisory.evidence.items():
                evidence.setdefault(str(key), value)
            yield HealthFinding(
                check=self.check_id,
                severity=Severity(int(advisory.severity)),
                instance_id=ctx.instance_id,
                sql_id=advisory.sql_ids[0] if advisory.sql_ids else "",
                message=f"{advisory.advisor}: {advisory.message}",
                evidence=evidence,
                suggestion=advisory.suggestion
                or "review the flagged templates together, not one by one",
            )


@register_check
class SelfHealthCheck(HealthCheck):
    check_id = "self-health"
    description = "The diagnosis pipeline watching itself."
    scope = "fleet"

    def check(self, ctx: CheckContext) -> Iterator[HealthFinding]:
        cfg = ctx.config
        span_errors = int(ctx.counters.get("span_errors_total", 0))
        if span_errors > 0:
            yield HealthFinding(
                check=self.check_id,
                severity=Severity.WARNING,
                metric="span_errors_total",
                message=(
                    f"{span_errors} diagnosis span(s) ended in error; "
                    "the pipeline is swallowing internal failures"
                ),
                evidence={"span_errors": span_errors},
                suggestion="inspect the structured logs for the failing stage",
            )
        quarantined = int(ctx.counters.get("collector_quarantined_total", 0))
        if quarantined > cfg.max_quarantined:
            yield HealthFinding(
                check=self.check_id,
                severity=Severity.HIGH if quarantined >= 10 else Severity.WARNING,
                metric="collector_quarantined_total",
                message=(
                    f"{quarantined} message(s) quarantined to dead-letter "
                    "topics; evidence windows are losing data"
                ),
                evidence={"quarantined": quarantined},
                suggestion=(
                    "read the dead-letter topics to find the malformed "
                    "producer before windows degrade further"
                ),
            )
        breakers_open = int(ctx.counters.get("circuit_breakers_open", 0))
        if breakers_open > 0:
            yield HealthFinding(
                check=self.check_id,
                severity=Severity.HIGH,
                metric="circuit_breaker_state",
                message=(
                    f"{breakers_open} repair circuit breaker(s) are open; "
                    "automatic repair is suspended on those instances"
                ),
                evidence={"breakers_open": breakers_open},
                suggestion=(
                    "fix the failing repair path, then let the breaker "
                    "half-open probe close it"
                ),
            )

"""Latency SLOs: declarative objectives, error-budget burn-rate checks.

The tracing layer gives every pipeline stage a latency histogram —
``span_duration_seconds`` for the diagnosis spans and
``pipeline_lag_seconds`` for the publish→ingest / publish→dispatch /
publish→diagnose watermarks.  This module turns those histograms into
*alerts a DBA would page on*: an :class:`SloSpec` states the objective
("95% of diagnoses complete within 2.5 s"), and the registered checks
compute the **error-budget burn rate** over the sweep's snapshot —

    burn = (1 - compliance) / (1 - target)

so burn ``1.0`` means the observed violation share exactly consumes the
budget, ``2.0`` means it burns twice as fast, and the standard health
ladder applies (WARNING at 1x, HIGH at 2x, CRITICAL at 4x).  A second
check watches the ``data_freshness_seconds`` gauge: an instance whose
ingested event time falls far behind the detector clock is starving,
whatever its latency histograms say.

Both checks read the :class:`CheckContext.telemetry` snapshot the
sweeper now attaches (filtered to the instance's label), so they work
identically on the live fleet registry and on merged cross-process
worker exports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.health.checks import (
    CheckContext,
    HealthCheck,
    _trend_severity,
    register_check,
)
from repro.health.finding import HealthFinding
from repro.jsonrecord import Scalar
from repro.telemetry import fraction_at_most
from repro.telemetry.metrics import labeled_name

__all__ = [
    "DEFAULT_SLOS",
    "DataFreshnessCheck",
    "LatencySloBurnRateCheck",
    "SloSpec",
    "burn_rate",
]


@dataclass(frozen=True)
class SloSpec:
    """One declarative latency objective over a histogram family.

    ``target`` is the compliance fraction (``0.95`` = "95% of
    observations"), ``objective_s`` the latency bound, and ``labels``
    the label pairs a histogram series must carry to be in scope —
    extra labels on the series (``instance``, ...) are ignored, so one
    spec covers every instance.
    """

    slo_id: str
    #: Histogram family name (``pipeline_lag_seconds``, ...).
    metric: str
    #: Latency objective in seconds (ideally on a bucket bound).
    objective_s: float
    #: Compliance target in (0, 1): fraction that must meet the objective.
    target: float = 0.95
    #: Label pairs the series must match, e.g. ``(("stage", "ingest"),)``.
    labels: tuple = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if self.objective_s <= 0:
            raise ValueError(f"objective_s must be positive, got {self.objective_s}")
        object.__setattr__(
            self, "labels", tuple((str(k), str(v)) for k, v in self.labels)
        )

    def matches(self, entry: Mapping) -> bool:
        """Whether one snapshot histogram entry is in this SLO's scope."""
        if entry.get("name") != self.metric:
            return False
        labels = entry.get("labels") or {}
        return all(labels.get(k) == v for k, v in self.labels)


#: The built-in objectives.  Bounds sit on DEFAULT_LATENCY_BUCKETS
#: edges so compliance needs no interpolation, and they are sized for
#: the near-real-time loop the paper targets (anomaly detection on 1 s
#: metric streams): a diagnosis that takes longer than seconds, or a
#: block that sits unprocessed for longer, erodes the "pinpoint while
#: the incident is live" premise.
DEFAULT_SLOS: tuple[SloSpec, ...] = (
    SloSpec(
        slo_id="diagnose-latency",
        metric="span_duration_seconds",
        objective_s=2.5,
        target=0.95,
        labels=(("span", "service.diagnose"),),
        description="95% of diagnoses complete within 2.5 s.",
    ),
    SloSpec(
        slo_id="ingest-lag",
        metric="pipeline_lag_seconds",
        objective_s=5.0,
        target=0.99,
        labels=(("stage", "ingest"),),
        description="99% of blocks ingested within 5 s of publish.",
    ),
    SloSpec(
        slo_id="dispatch-lag",
        metric="pipeline_lag_seconds",
        objective_s=5.0,
        target=0.99,
        labels=(("stage", "dispatch"),),
        description="99% of blocks reach a shard worker within 5 s of publish.",
    ),
    SloSpec(
        slo_id="diagnose-lag",
        metric="pipeline_lag_seconds",
        objective_s=10.0,
        target=0.95,
        labels=(("stage", "diagnose"),),
        description="95% of diagnoses land within 10 s of the triggering publish.",
    ),
)


def burn_rate(buckets, objective_s: float, target: float) -> float:
    """Error-budget burn rate of snapshot-format cumulative buckets.

    ``1.0`` = the violation share exactly consumes the error budget;
    overflow-bucket observations count as violations (the conservative
    reading inherited from :func:`fraction_at_most`).
    """
    compliance = fraction_at_most(buckets, objective_s)
    return (1.0 - compliance) / (1.0 - target)


@register_check
class LatencySloBurnRateCheck(HealthCheck):
    """Latency SLO error budgets burning at >= 1x over the snapshot."""

    check_id = "latency-slo-burn-rate"
    description = (
        "Evaluates declarative latency SLOs against the pipeline's own "
        "stage histograms and reports error-budget burn rates >= 1x."
    )
    scope = "instance"

    def check(self, ctx: CheckContext) -> Iterator[HealthFinding]:
        cfg = ctx.config
        specs = tuple(ctx.slos) or DEFAULT_SLOS
        for entry in ctx.telemetry.get("histograms", ()):
            for spec in specs:
                if not spec.matches(entry):
                    continue
                count = int(entry.get("count") or 0)
                if count < cfg.slo_min_samples:
                    continue
                burn = burn_rate(
                    entry.get("buckets") or (), spec.objective_s, spec.target
                )
                if burn < 1.0:
                    continue
                compliance = 1.0 - burn * (1.0 - spec.target)
                series = labeled_name(spec.metric, entry.get("labels") or {})
                p95 = (entry.get("quantiles") or {}).get("p95")
                evidence: dict[str, Scalar] = {
                    "slo_id": spec.slo_id,
                    "series": series,
                    "burn_rate": round(burn, 3),
                    "compliance": round(compliance, 4),
                    "objective_s": spec.objective_s,
                    "target": spec.target,
                    "samples": count,
                }
                if p95 is not None:
                    evidence["p95_s"] = round(float(p95), 4)
                yield HealthFinding(
                    check=self.check_id,
                    severity=_trend_severity(burn, 1.0),
                    instance_id=ctx.instance_id,
                    metric=spec.metric,
                    message=(
                        f"SLO {spec.slo_id} is burning its error budget at "
                        f"{burn:.1f}x: {compliance:.1%} of {count} observations "
                        f"met the {spec.objective_s:g} s objective "
                        f"(target {spec.target:.0%}) on {series}"
                    ),
                    evidence=evidence,
                    suggestion=(
                        "The pipeline stage is missing its latency objective — "
                        "check worker saturation (add shards), broker "
                        "backpressure, and whether a noisy instance is "
                        "monopolising the diagnosis loop."
                    ),
                )


@register_check
class DataFreshnessCheck(HealthCheck):
    """An instance's ingested data falling behind its detector clock."""

    check_id = "data-freshness"
    description = (
        "Flags instances whose newest ingested event time trails the "
        "detector's stream clock by more than the staleness budget."
    )
    scope = "instance"

    def check(self, ctx: CheckContext) -> Iterator[HealthFinding]:
        cfg = ctx.config
        for entry in ctx.telemetry.get("gauges", ()):
            if entry.get("name") != "data_freshness_seconds":
                continue
            staleness = float(entry.get("value") or 0.0)
            if staleness < cfg.max_data_staleness_s:
                continue
            ratio = staleness / cfg.max_data_staleness_s
            yield HealthFinding(
                check=self.check_id,
                severity=_trend_severity(ratio, 1.0),
                instance_id=ctx.instance_id,
                metric="data_freshness_seconds",
                message=(
                    f"newest ingested event is {staleness:.0f} s behind the "
                    f"detector clock (budget {cfg.max_data_staleness_s:g} s) — "
                    f"diagnoses for this instance run on stale data"
                ),
                evidence={
                    "staleness_s": round(staleness, 1),
                    "max_staleness_s": cfg.max_data_staleness_s,
                },
                suggestion=(
                    "The collector for this instance has stalled or its "
                    "blocks are stuck upstream — check collector health, "
                    "broker topics and shard-worker liveness."
                ),
            )

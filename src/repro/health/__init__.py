"""Proactive fleet health: the "automated DBA" sweep layer.

PinSQL is reactive by construction — it pinpoints root-cause SQLs after
an intolerable anomaly fires.  This package adds the other half of a
production DBA's job: scheduled sweeps over everything the repo already
observes (dbsim metric streams, per-template aggregates, static-
analysis findings, the incident store, the pipeline's own telemetry)
that surface problems *before* the anomaly threshold is crossed.

- :mod:`~repro.health.finding` — the strict-JSON :class:`HealthFinding`;
- :mod:`~repro.health.checks` — the pluggable check registry and the
  built-in suite (trend, traffic, incident-history and self-health
  checks);
- :mod:`~repro.health.slo` — declarative latency SLOs with error-budget
  burn-rate checks over the pipeline's own stage histograms;
- :mod:`~repro.health.sweeper` — the scheduled :class:`HealthSweeper`;
- :mod:`~repro.health.store` — the durable JSONL findings store;
- :mod:`~repro.health.report` — the daily fleet report (text + HTML).
"""

from repro.health.checks import (
    CheckContext,
    HealthCheck,
    HealthConfig,
    check_ids,
    default_checks,
    ewma,
    half_rise,
    register_check,
)
from repro.health.finding import HealthFinding
from repro.health.report import (
    HealthReport,
    build_health_report,
    render_health_report_html,
    render_health_report_text,
)
from repro.health.slo import DEFAULT_SLOS, SloSpec, burn_rate
from repro.health.store import FindingsStore
from repro.health.sweeper import HealthSweeper, SweepResult

__all__ = [
    "CheckContext",
    "DEFAULT_SLOS",
    "FindingsStore",
    "HealthCheck",
    "HealthConfig",
    "HealthFinding",
    "HealthReport",
    "HealthSweeper",
    "SloSpec",
    "SweepResult",
    "build_health_report",
    "burn_rate",
    "check_ids",
    "default_checks",
    "ewma",
    "half_rise",
    "register_check",
    "render_health_report_html",
    "render_health_report_text",
]

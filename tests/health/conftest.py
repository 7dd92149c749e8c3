"""Shared builders for health-sweep tests.

Checks consume a :class:`~repro.health.CheckContext`; these helpers
build one synthetically (no simulation) so every firing/quiet pair in
``test_checks.py`` stays fast and readable.
"""

import numpy as np

from repro.collection.aggregator import TemplateMetricStore
from repro.health import CheckContext, HealthConfig
from repro.incidents.store import IncidentMeta

#: Enough samples for every trend check (min_trend_samples default 40).
WINDOW = 120


def make_templates(
    series: dict[str, dict[str, np.ndarray]], window: int = WINDOW
) -> TemplateMetricStore:
    """A TemplateMetricStore over [0, window) from raw per-metric arrays."""
    return TemplateMetricStore.from_series(0, window, series)


def template_series(
    execs_per_s: float = 2.0,
    rt_start: float = 20.0,
    rt_end: float = 20.0,
    rows_start: float = 2_000.0,
    rows_end: float = 2_000.0,
    window: int = WINDOW,
) -> dict[str, np.ndarray]:
    """One template's series: linear rt and rows/execution trajectories."""
    execs = np.full(window, execs_per_s)
    rt = np.linspace(rt_start, rt_end, window)
    rows_per_exec = np.linspace(rows_start, rows_end, window)
    return {
        "#execution": execs,
        "avg_tres": rt,
        "total_examined_rows": rows_per_exec * execs,
    }


def metric_samples(values) -> np.ndarray:
    """One metric's window as the detector hands it to a sweep: sample
    values in time order (``RealtimeAnomalyDetector.window_values``)."""
    return np.asarray(values, dtype=np.float64)


def make_ctx(
    instance_id: str = "db-t",
    now: int = WINDOW,
    scope: str = "instance",
    config: HealthConfig | None = None,
    **kwargs,
) -> CheckContext:
    return CheckContext(
        instance_id=instance_id,
        now=now,
        scope=scope,
        config=config or HealthConfig(),
        **kwargs,
    )


def make_meta(
    incident_id: str = "db-a-400",
    instance_id: str = "db-a",
    created_at: int = 600,
    start: int = 400,
    end: int = 580,
    rsql_ids: tuple = ("R1",),
    confidence: str = "full",
    degraded_reasons: tuple = (),
) -> IncidentMeta:
    return IncidentMeta(
        incident_id=incident_id,
        instance_id=instance_id,
        created_at=created_at,
        anomaly_start=start,
        anomaly_end=end,
        types=("cpu_anomaly",),
        verdict="poor_sql",
        rsql_ids=rsql_ids,
        top_h_sql=rsql_ids[0] if rsql_ids else None,
        repair_outcome="planned",
        planned_actions=1,
        segment="incidents-000001.jsonl",
        confidence=confidence,
        degraded_reasons=degraded_reasons,
    )

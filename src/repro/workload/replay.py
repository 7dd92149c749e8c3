"""Counterfactual replay: rebuild a workload from an observed case.

Given an :class:`~repro.core.case.AnomalyCase` — which holds only what
production observes (query logs, aggregated series, the catalog) — this
module reconstructs an executable workload: per-template arrival rates
from the observed execution counts, and execution profiles inferred
from the observed per-query metrics.  Replaying the workload on a fresh
simulated instance, with or without repair actions applied, answers
"what would the instance look like if we executed this plan?" before
anything touches production.
"""

from __future__ import annotations

import numpy as np

from repro.core.case import AnomalyCase
from repro.dbsim.engine import Arrivals
from repro.dbsim.instance import DatabaseInstance, SimulationResult
from repro.dbsim.spec import TemplateSpec
from repro.sqltemplate import StatementKind

__all__ = [
    "inflation_series",
    "infer_spec",
    "ReplayWorkload",
    "estimate_cpu_cores",
    "replay_case",
]


def inflation_series(case: AnomalyCase, min_baseline_queries: int = 50) -> np.ndarray:
    """Per-second response-inflation factor during the case window.

    During a resource-driven anomaly *every* query's response is
    multiplied by (roughly) the same contention factor.  Established
    templates reveal it: their per-second average response divided by
    their own pre-anomaly median.  The cohort median over such reference
    templates, floored at 1, estimates the instance-wide inflation —
    which lets service times be inferred even for templates that only
    ever ran inside the anomaly (a rolled-out poor SQL, say).
    """
    n = case.duration
    lo, _ = case.anomaly_indices()
    ratios: list[np.ndarray] = []
    store = case.templates
    for execs, avg in zip(store.matrix("#execution"), store.matrix("avg_tres")):
        if execs[:lo].sum() < min_baseline_queries:
            continue
        baseline = avg[:lo][execs[:lo] > 0]
        if len(baseline) == 0:
            continue
        base = float(np.median(baseline))
        if base <= 0:
            continue
        ratio = np.where(execs > 0, avg / base, np.nan)
        ratios.append(ratio)
    if not ratios:
        return np.ones(n)
    with np.errstate(invalid="ignore"):
        cohort = np.nanmedian(np.vstack(ratios), axis=0)
    cohort = np.nan_to_num(cohort, nan=1.0)
    return np.maximum(cohort, 1.0)


def infer_spec(
    case: AnomalyCase, sql_id: str, inflation: np.ndarray | None = None
) -> TemplateSpec:
    """Infer a template's execution profile from its observed queries.

    The uncontended service time is a low percentile of the *deflated*
    response times (observed responses divided by the instance-wide
    inflation factor at their arrival second), and the examined-rows
    mean comes from the full window.  Lock behaviour falls back to
    kind-based defaults; a DDL's hold duration is its observed response
    time.
    """
    info = case.catalog.get(sql_id)
    kind = info.kind if info is not None else StatementKind.OTHER
    tables = info.tables if info is not None else ()
    template = info.template if info is not None else sql_id

    tq = case.logs.queries_in_window(sql_id, case.ts, case.te)
    response_ms = tq.response_ms
    if inflation is not None and len(tq):
        seconds = np.clip(
            (tq.arrive_ms // 1000).astype(np.int64) - case.ts, 0, len(inflation) - 1
        )
        response_ms = response_ms / inflation[seconds]
    baseline_mask = tq.arrive_ms < case.anomaly_start * 1000
    responses = response_ms[baseline_mask]
    if len(responses) < 10:  # new template: use whatever (deflated) exists
        responses = response_ms
    base_response = float(np.percentile(responses, 10)) if len(responses) else 2.0
    examined = float(tq.examined_rows.mean()) if len(tq) else 100.0
    # Scan cost is already part of the observed response; subtract it so
    # the replayed service time is not double-counted.
    scan_ms = examined / 1000.0 * 0.8
    base_response = max(0.5, base_response - scan_ms)
    ddl_duration = float(response_ms.max()) if kind.takes_mdl_exclusive and len(tq) else 20_000.0
    # A write statement holds its row locks for roughly its own duration;
    # the low quartile of its (deflated) responses estimates the
    # uncontended run time (higher quantiles are inflated by waits it
    # *suffered*).
    if kind.takes_row_locks and len(tq):
        lock_hold = max(20.0, float(np.percentile(response_ms, 25)))
    else:
        lock_hold = 20.0
    return TemplateSpec(
        sql_id=sql_id,
        template=template,
        kind=kind,
        tables=tables,
        base_response_ms=base_response,
        examined_rows_mean=max(examined, 0.0),
        lock_hold_ms=lock_hold,
        ddl_duration_ms=ddl_duration,
    )


class ReplayWorkload:
    """A RateProvider that re-issues a case's observed traffic.

    Each second's rate is the observed execution count of that second;
    seconds outside the case window repeat its nearest edge.
    """

    def __init__(self, case: AnomalyCase) -> None:
        self.case = case
        self.inflation = inflation_series(case)
        self._specs = {
            sid: infer_spec(case, sid, inflation=self.inflation)
            for sid in case.sql_ids
        }
        self.sql_ids = list(case.sql_ids)
        self.duration = case.duration
        self._rates = np.ascontiguousarray(case.templates.matrix("#execution").T)

    @property
    def specs(self) -> dict[str, TemplateSpec]:
        return self._specs

    def arrivals(self, t0: int, t1: int) -> Arrivals:
        seconds = np.arange(t0, t1) - self.case.ts
        return Arrivals(self.sql_ids, self._rates[np.clip(seconds, 0, self.duration - 1)])


def estimate_cpu_cores(case: AnomalyCase, workload: ReplayWorkload) -> int:
    """Estimate the instance's core count from observed CPU usage.

    Capacity ≈ inferred baseline CPU demand / observed baseline usage.
    """
    if "cpu_usage" not in case.metrics:
        return 16
    lo, _ = case.anomaly_indices()
    usage = case.metrics.cpu_usage.values[:lo]
    if len(usage) == 0 or usage.mean() <= 0.5:
        return 16
    rates = case.templates.matrix("#execution")[:, :lo].mean(axis=1)
    demand = 0.0
    for rate, spec in zip(rates, workload.specs.values()):
        demand += rate * spec.cpu_ms_per_query
    capacity_ms = demand / (usage.mean() / 100.0)
    return int(np.clip(round(capacity_ms / 1000.0), 2, 64))


def replay_case(
    case: AnomalyCase,
    actions=None,
    seed: int = 0,
    cpu_cores: int | None = None,
) -> SimulationResult:
    """Replay the case's traffic, optionally with repair actions applied.

    ``actions`` are applied at the replay's start — the counterfactual
    question is "what if the fix had been in place?".
    """
    workload = ReplayWorkload(case)
    if cpu_cores is None:
        cpu_cores = estimate_cpu_cores(case, workload)
    instance = DatabaseInstance(cpu_cores=cpu_cores, seed=seed)
    engine = instance.start(workload, start_time=case.ts)
    for action in actions or []:
        action.execute(instance, now_s=case.ts)
    engine.run(case.duration)
    return instance.finish()

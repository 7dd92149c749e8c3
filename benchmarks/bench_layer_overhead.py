"""Layer overhead: every optional layer, bare vs on, in one table.

The paper's Table IV argues the collection overhead on the observed
database is negligible.  This benchmark makes the same argument for the
repo's five optional layers (telemetry, incident recorder, resilience,
health sweeps, trace propagation): each rides on a hot path and must
cost < 5% of that path's bare wall clock.

Each row names a bare arm and a layer-on arm over the same units.  One
loop times both, alternating which goes first in each repeat and
keeping each arm's best; one gate per row asserts the budget; one
writer emits ``results/<layer>_overhead.{txt,json}``.
"""

from __future__ import annotations

import itertools
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np
import pytest

from repro.collection import Broker, MetricsCollector, QueryLogCollector
from repro.core import PinSQL, RepairEngine
from repro.core.report import render_report
from repro.dbsim import DatabaseInstance
from repro.detection.case_builder import DetectedAnomaly
from repro.detection.typing import classify_case
from repro.evaluation.leadtime import replay_chronologically
from repro.fleet import (
    BlockFeed,
    Diagnosis,
    FleetConfig,
    FleetDiagnosisService,
    ServiceConfig,
    WorkItem,
    execute_work_item,
)
from repro.health import FindingsStore, HealthConfig, HealthSweeper
from repro.incidents import IncidentRecorder, IncidentStore
from repro.resilience import CircuitBreaker, DegradedModePolicy, StageWatchdog
from repro.telemetry import MetricsRegistry, Tracer
from repro.telemetry.tracing import set_trace_propagation, trace_propagation_enabled
from repro.workload import WorkloadGenerator, build_population

from benchmarks.bench_fleet_throughput import DURATION, FEEDS_KEY, _simulate_feeds
from benchmarks.conftest import _cached, write_json, write_report

BUDGET = 0.05


@dataclass(frozen=True)
class Row:
    """One layer: its two arms, what they run over, and its checks."""

    title: str
    units: list
    bare: Callable[[Any], Any]
    layer: Callable[[Any], Any]
    #: Row-specific correctness checks on the last outputs of the two
    #: arms (last unit); returns the row's extra JSON fields.
    check: Callable[[Any, Any], dict]
    repeats: int = 9
    #: Calls per timed repeat; a millisecond-scale call is too noisy for
    #: a 5% budget on its own, and batching amortises scheduler jitter.
    inner: int = 1


def measure(row: Row) -> tuple[list[tuple[float, float]], Any, Any]:
    """Per-unit best (bare, layer) seconds and each arm's last output."""
    arms = (row.bare, row.layer)
    per_unit: list[tuple[float, float]] = []
    outs: list[Any] = [None, None]
    for unit in row.units:
        for arm in arms:  # warm both paths
            arm(unit)
        best = [float("inf"), float("inf")]
        for repeat in range(row.repeats):
            for i in ((0, 1) if repeat % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                for _ in range(row.inner):
                    outs[i] = arms[i](unit)
                best[i] = min(best[i], (time.perf_counter() - t0) / row.inner)
        per_unit.append((best[0], best[1]))
    return per_unit, outs[0], outs[1]


def write_row(layer: str, row: Row, per_unit: list, extras: dict) -> float:
    """Emit ``results/<layer>_overhead.{txt,json}``; returns the overhead."""
    bare = sum(b for b, _ in per_unit)
    on = sum(t for _, t in per_unit)
    overhead = on / bare - 1
    lines = [
        f"{layer} overhead: {row.title}",
        f"{'unit':<6} {'bare':>10} {'layer':>10} {'overhead':>9}",
    ]
    for i, (b, t) in enumerate(per_unit):
        lines.append(
            f"{i:<6} {b * 1e3:8.2f}ms {t * 1e3:8.2f}ms {(t / b - 1) * 100:+8.2f}%"
        )
    lines.append(f"overall overhead: {overhead * 100:+.2f}% (budget: +{BUDGET:.0%})")
    lines += [f"{key}: {value}" for key, value in sorted(extras.items())]
    write_report(f"{layer}_overhead", "\n".join(lines))
    write_json(
        f"{layer}_overhead",
        {
            "bare_seconds": bare,
            "layer_seconds": on,
            "overhead_fraction": overhead,
            "budget_fraction": BUDGET,
            **extras,
        },
    )
    return overhead


def _diagnose(
    pinsql, repair, case,
    stage=lambda _name: nullcontext(),
    call=lambda fn, *args: fn(*args),
) -> Diagnosis:
    """The per-anomaly hot path an engine runs once an event fires.

    The incident and resilience rows share it.  ``stage`` wraps each
    step and ``call`` runs repair planning; the resilience row passes
    the watchdog and the circuit breaker.
    """
    with stage("analyze"):
        result = pinsql.analyze(case)
        verdict = classify_case(case)
    with stage("repair"):
        plan = call(repair.plan, case, result)
    with stage("report"):
        report = render_report(case, result, plan=plan)
    return Diagnosis(
        anomaly=DetectedAnomaly(
            case.anomaly_start, case.anomaly_end, ("active_session_anomaly",)
        ),
        case=case, result=result, report=report, plan=plan,
        executed=False, verdict=verdict, instance_id="bench",
    )


def _cases(request) -> list:
    return [lc.case for lc in request.getfixturevalue("corpus")[:8]]


def telemetry_row(request, tmp_path) -> Row:
    registry = MetricsRegistry()
    enabled = PinSQL(tracer=Tracer(registry=registry))
    disabled = PinSQL(tracer=Tracer(enabled=False))
    cases = _cases(request)

    def check(_bare, _on) -> dict:
        spans = registry.get("span_duration_seconds", span="pinsql.analyze")
        assert spans.count > 0, "the instrumented arm must record spans"
        return {"cases": len(cases), "spans_recorded": int(spans.count)}

    return Row(
        "PinSQL.analyze() instrumented vs bare",
        cases, disabled.analyze, enabled.analyze, check,
    )


def incident_row(request, tmp_path) -> Row:
    diagnose = partial(_diagnose, PinSQL(), RepairEngine())
    recorder = IncidentRecorder(IncidentStore(tmp_path, max_segment_bytes=1 << 22))
    cases = _cases(request)

    def check(_bare, _on) -> dict:
        store = recorder.store
        assert store.record_count > 0, "the recording arm must persist records"
        return {
            "cases": len(cases),
            "records": store.record_count,
            "store_bytes": store.total_bytes,
            "segments": store.segment_count,
        }

    return Row(
        "diagnosis hot path with vs without the incident recorder",
        cases, diagnose, lambda case: recorder.record(diagnose(case)), check,
    )


#: A clean per-second window shaped like the real assembly input:
#: three performance metrics over delta + anomaly (~25 minutes).
WINDOW_S = 1500
CLEAN_SAMPLES = {
    name: {t: 1.0 + (t % 7) for t in range(WINDOW_S)}
    for name in ("active_session", "cpu_usage", "iops_usage")
}


def resilience_row(request, tmp_path) -> Row:
    pinsql, repair = PinSQL(), RepairEngine()
    registry = MetricsRegistry()
    watchdog = StageWatchdog(60.0, registry=registry)
    policy = DegradedModePolicy(registry=registry)
    breaker = CircuitBreaker(name="bench-repair", registry=registry)
    cases = _cases(request)

    def resilient(case) -> Diagnosis:
        stage = partial(watchdog.stage, watchdog.deadline())
        with stage("assemble"):
            assessment = policy.assess(CLEAN_SAMPLES, 0, WINDOW_S)
        assert not assessment.degraded  # the clean path stays clean
        return _diagnose(pinsql, repair, case, stage=stage, call=breaker.call)

    return Row(
        "clean diagnosis path with vs without watchdog + degraded-mode "
        f"assessment ({WINDOW_S}s x 3 metrics) + repair breaker",
        cases, partial(_diagnose, pinsql, repair), resilient,
        lambda _bare, _on: {"cases": len(cases)},
    )


CHUNK_S = 60
SWEEP_INTERVAL_S = 120


def health_row(request, tmp_path) -> Row:
    feeds = _cached(FEEDS_KEY, _simulate_feeds)[:4]
    runs = itertools.count()

    def drain(feeds, sweeper=None) -> int:
        """Replay the fleet through a fresh service; returns its diagnoses.

        Each engine learns its instance's statements first, as a worker
        does from a work item, so sweeps analyse real templates.
        """
        config = ServiceConfig(delta_start_s=300, detector_window_s=DURATION)
        service = FleetDiagnosisService(
            Broker(), FleetConfig(service=config, prune_broker=True),
            sweeper=sweeper,
        )
        for feed in feeds:
            engine = service.register_instance(feed.instance_id)
            for statement in feed.statements:
                engine.register_statement(statement)
        replay_chronologically(service, feeds, DURATION, CHUNK_S)
        return len(service.diagnoses)

    def sweeping(feeds) -> tuple[int, HealthSweeper]:
        sweeper = HealthSweeper(
            store=FindingsStore(tmp_path / f"run-{next(runs)}"),
            config=HealthConfig(sweep_window_s=300, sweep_interval_s=SWEEP_INTERVAL_S),
        )
        return drain(feeds, sweeper), sweeper

    def check(diagnoses: int, on: tuple[int, HealthSweeper]) -> dict:
        swept_diagnoses, sweeper = on
        assert diagnoses > 0, "the replayed fleet must produce diagnoses"
        assert swept_diagnoses == diagnoses, "sweeping must not change diagnosis output"
        sweeps = len(sweeper.sweeps)
        assert sweeps >= 3, "scheduled sweeps must fire during the chunked replay"
        return {
            "instances": len(feeds),
            "duration_s": DURATION,
            "sweep_interval_s": SWEEP_INTERVAL_S,
            "diagnoses": diagnoses,
            "sweeps": sweeps,
            "findings": sum(len(s.findings) for s in sweeper.sweeps),
        }

    return Row(
        f"fleet drain with vs without the sweeper ({len(feeds)} instances, "
        f"{DURATION}s stream, sweep every {SWEEP_INTERVAL_S}s)",
        [feeds], drain, sweeping, check, repeats=3,
    )


#: Long enough that the drain dominates setup, short enough to stay
#: a few seconds per repeat.
TRACE_DURATION = 240


def trace_row(request, tmp_path) -> Row:
    assert trace_propagation_enabled(), "benchmark expects the default state"
    # Blocks are stamped at build time (propagation on) so both arms
    # replay identical blocks; only the drain-side propagation differs.
    rng = np.random.default_rng(8)
    population = build_population(TRACE_DURATION, rng, n_businesses=4)
    db = DatabaseInstance(schema=population.schema, cpu_cores=8, seed=8)
    run = db.run(WorkloadGenerator(population), duration=TRACE_DURATION)
    broker = Broker()
    QueryLogCollector(broker, instance_id="db-bt").collect_blocks(run.query_log)
    MetricsCollector(broker, instance_id="db-bt").collect_blocks(run.metrics)
    feed = BlockFeed.from_broker(broker, "db-bt")

    def drain(feed) -> dict:
        return execute_work_item(WorkItem(feed=feed))

    def without_propagation(feed) -> dict:
        set_trace_propagation(False)
        try:
            return drain(feed)
        finally:
            set_trace_propagation(True)

    return Row(
        "execute_work_item drain, contexts on vs off",
        [feed], without_propagation, drain,
        lambda _bare, _on: {
            "duration_s": TRACE_DURATION,
            "query_blocks": len(feed.query_blocks),
            "metric_blocks": len(feed.metric_blocks),
        },
        repeats=7, inner=10,
    )


ROWS = {
    "telemetry": telemetry_row,
    "incident": incident_row,
    "resilience": resilience_row,
    "health": health_row,
    "trace": trace_row,
}


@pytest.mark.parametrize("layer", list(ROWS))
def test_layer_overhead(layer, request, tmp_path):
    row = ROWS[layer](request, tmp_path)
    per_unit, bare_out, layer_out = measure(row)
    overhead = write_row(layer, row, per_unit, row.check(bare_out, layer_out))
    assert overhead < BUDGET, (
        f"{layer} overhead {overhead * 100:.2f}% exceeds {BUDGET:.0%}"
    )

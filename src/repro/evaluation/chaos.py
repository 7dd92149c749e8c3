"""Accuracy-under-faults harness: the chaos loop closed on ground truth.

Fault injection without a measurement is theatre.  This module runs the
same simulated fleet through the diagnosis service once per fault class
— plus a clean baseline — and scores each run against the injected
ground truth (which SQLs *are* the root causes), producing the
:class:`~repro.chaos.ResilienceScorecard` that ``repro chaos`` prints
and CI gates on.

The expensive part (simulating the database fleet) happens once per
seed: :func:`simulate_fleet` captures every instance's collected
streams — one columnar block per stream-time second, as
:meth:`~repro.collection.QueryLogCollector.collect` ships them — in a
replayable :class:`~repro.fleet.workers.BlockFeed`, together with the
R-SQL / H-SQL labels, through the fleet simulation the fuzzer, lead
time and fleet-demo share (DESIGN §7).  Each fault run then publishes
the same blocks through a fresh broker wrapped in a
:class:`~repro.chaos.ChaosBroker`, whose faults act on the rows inside
each block, with a private :class:`~repro.telemetry.MetricsRegistry`
so quarantine / resync / restart counters can be read per run without
cross-talk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.chaos import (
    FAULT_KINDS,
    FaultClassReport,
    FaultInjector,
    FaultPlan,
    ResilienceScorecard,
    single_fault_plan,
)
from repro.collection import Broker, MetricsCollector, QueryLogCollector
from repro.evaluation.dataset import _label_h_sqls
from repro.fleet import FleetConfig, FleetDiagnosisService, ServiceConfig
from repro.fleet.workers import BlockFeed
from repro.telemetry import MetricsRegistry, get_logger

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.dbsim import SimulationResult
    from repro.workload import InjectedAnomaly, Population

__all__ = [
    "ChaosHarnessConfig",
    "FleetFixture",
    "InstanceTruth",
    "capture_fleet",
    "register_fleet",
    "run_chaos_suite",
    "run_fault_class",
    "simulate_fleet",
    "simulate_instances",
]

_log = get_logger("chaos")

#: Cores of every simulated fleet instance.
CPU_CORES = 8


@dataclass(frozen=True)
class ChaosHarnessConfig:
    """Knobs of one chaos evaluation (fixed seed = fixed everything)."""

    seed: int = 7
    n_instances: int = 3
    #: The first ``anomalous`` instances get an injected row-lock storm.
    anomalous: int = 2
    duration_s: int = 480
    #: Kept only so existing callers that pass ``workers=1`` still
    #: construct; it selects nothing (the fleet loop runs in-process).
    workers: int = 1
    #: Prune the broker between steps — required to exercise the
    #: stuck-offset resync path under late/backpressure faults.
    prune_broker: bool = True
    #: Fault classes to run (each as a single-fault plan at its default
    #: rate); the clean baseline always runs first.
    fault_kinds: tuple[str, ...] = FAULT_KINDS
    #: A diagnosis counts as a hit when any of its top ``top_k`` ranked
    #: SQLs is in the ground-truth set (rank jitter under faults should
    #: not read as total attribution failure).
    top_k: int = 3
    max_h_sqls: int = 10
    #: Optional per-diagnosis wall-clock budget (the stage watchdog).
    diagnosis_budget_s: float | None = None
    #: When set, each run persists incidents under ``<record_dir>/<fault>``
    #: so degraded diagnoses are visible in durable records.
    record_dir: str | None = None

    def __post_init__(self) -> None:
        if self.n_instances < 1:
            raise ValueError("n_instances must be at least 1")
        if not 0 <= self.anomalous <= self.n_instances:
            raise ValueError("anomalous must be within [0, n_instances]")
        if self.workers != 1:
            raise ValueError(
                "workers must be 1: chaos runs diagnose in-process; use "
                "run_sharded(processes=N) to diagnose in parallel"
            )
        unknown = set(self.fault_kinds) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")


@dataclass(frozen=True)
class InstanceTruth:
    """Ground truth for one simulated instance."""

    instance_id: str
    anomalous: bool
    r_sqls: frozenset = frozenset()
    h_sqls: frozenset = frozenset()


@dataclass
class FleetFixture:
    """One simulated fleet, replayable across fault runs."""

    feeds: list[BlockFeed]
    truths: dict[str, InstanceTruth]
    #: Exemplar statements per instance (registered into each engine's
    #: catalog so static analysis and repair see real SQL).
    exemplars: dict[str, tuple[str, ...]] = field(default_factory=dict)
    onset: int = 0
    duration_s: int = 0


@dataclass(frozen=True)
class SimulatedInstance:
    """One simulated fleet instance, before its streams are captured."""

    instance_id: str
    population: Population
    injected: InjectedAnomaly | None
    run: SimulationResult

    @property
    def statements(self) -> tuple[str, ...]:
        """One statement per template; raw exemplars keep their literals."""
        return tuple(
            spec.exemplar or spec.template.replace("?", "1")
            for spec in self.population.specs.values()
        )


def fleet_instance_ids(n_instances: int) -> list[str]:
    """The instance ids :func:`simulate_instances` assigns, in order."""
    return [f"db-{i:02d}" for i in range(n_instances)]


def simulate_instances(
    n_instances: int,
    duration_s: int,
    seed: int,
    plant: Callable[[int, Population, np.random.Generator], InjectedAnomaly | None],
    *,
    stride: int = 1009,
    **population_kwargs: Any,
) -> Iterator[SimulatedInstance]:
    """Simulate a fleet one instance at a time (one run alive at a time).

    Instance ``i`` draws its population from ``rng(seed * stride + i)``,
    then ``plant(i, population, rng)`` injects into it on the same rng,
    then it runs with engine seed ``seed + i``.  Fixture digests depend
    on this order.
    """
    from repro.dbsim import DatabaseInstance
    # Resolved per call: perfbench swaps ``repro.workload.build_population``.
    from repro.workload import WorkloadGenerator, build_population

    for i, instance_id in enumerate(fleet_instance_ids(n_instances)):
        rng = np.random.default_rng(seed * stride + i)
        population = build_population(duration_s, rng, **population_kwargs)
        injected = plant(i, population, rng)
        db = DatabaseInstance(
            schema=population.schema, cpu_cores=CPU_CORES, seed=seed + i
        )
        run = db.run(WorkloadGenerator(population), duration=duration_s)
        yield SimulatedInstance(instance_id, population, injected, run)


def storm_onset(duration_s: int) -> int:
    """Onset of the fleet-demo row-lock storm: two-thirds of the run."""
    return max(120, (duration_s * 2) // 3)


def simulate_storm(
    n_instances: int, anomalous: int, duration_s: int, seed: int
) -> Iterator[SimulatedInstance]:
    """The fleet-demo fleet: the first ``anomalous`` instances get a
    row-lock storm from :func:`storm_onset` to the end of the run."""
    from repro.workload import AnomalyCategory, inject_anomaly

    def plant(i: int, population: Population, rng: np.random.Generator):
        if i >= anomalous:
            return None
        return inject_anomaly(
            population, rng, AnomalyCategory.ROW_LOCK,
            storm_onset(duration_s), duration_s,
            target_rate=(25.0, 35.0), lock_hold_ms=(300.0, 400.0),
        )

    return simulate_instances(n_instances, duration_s, seed, plant, n_businesses=5)


def capture_fleet(
    instances: Iterable[SimulatedInstance],
    onset: int,
    end: int,
    duration_s: int,
    max_h_sqls: int = 10,
) -> FleetFixture:
    """Capture simulated instances as per-second block feeds, labelling
    anomalous ones over ``[onset, end)``."""
    fixture = FleetFixture(feeds=[], truths={}, onset=onset, duration_s=duration_s)
    for inst in instances:
        instance_id, injected, run = inst.instance_id, inst.injected, inst.run
        capture = Broker()
        QueryLogCollector(capture, instance_id=instance_id).collect(run.query_log)
        MetricsCollector(capture, instance_id=instance_id).collect(run.metrics)
        # A recording: each replay's publish stamps the blocks afresh.
        fixture.feeds.append(BlockFeed.from_broker(capture, instance_id).unstamped())
        r_sqls: set[str] = set()
        h_sqls: set[str] = set()
        if injected is not None:
            observed = set(run.query_log.sql_ids)
            r_sqls = set(injected.r_sql_ids) & observed or set(injected.r_sql_ids)
            h_sqls = _label_h_sqls(run, onset, end, 0, max_h_sqls) or set(r_sqls)
        fixture.truths[instance_id] = InstanceTruth(
            instance_id=instance_id,
            anomalous=injected is not None,
            r_sqls=frozenset(r_sqls),
            h_sqls=frozenset(h_sqls),
        )
        fixture.exemplars[instance_id] = inst.statements
    return fixture


def simulate_fleet(cfg: ChaosHarnessConfig) -> FleetFixture:
    """Simulate the fleet-demo fleet once into a fixture, so every fault
    run replays identical input."""
    return capture_fleet(
        simulate_storm(cfg.n_instances, cfg.anomalous, cfg.duration_s, cfg.seed),
        storm_onset(cfg.duration_s),
        cfg.duration_s,
        cfg.duration_s,
        cfg.max_h_sqls,
    )


def register_fleet(
    service: FleetDiagnosisService, statements: Mapping[str, Iterable[str]]
) -> None:
    """Register each instance, and its statements into its catalog."""
    for instance_id, sqls in statements.items():
        engine = service.register_instance(instance_id)
        for sql in sqls:
            engine.register_statement(sql)


def _counter_total(registry: MetricsRegistry, name: str) -> int:
    """Sum one counter family across every label combination."""
    snap = registry.snapshot()
    return int(sum(c["value"] for c in snap["counters"] if c["name"] == name))


def run_fault_class(
    fixture: FleetFixture,
    cfg: ChaosHarnessConfig,
    fault: str,
    plan: FaultPlan | None,
    *,
    registry: MetricsRegistry | None = None,
    diagnoses_out: list | None = None,
) -> FaultClassReport:
    """Replay the fixture through the service under one fault plan.

    ``plan=None`` runs the clean baseline.  The service runs on a fresh
    broker and a private registry; any exception escaping the drain
    loop is captured into the report (the harness itself never raises),
    because "zero uncaught exceptions" is exactly what is under test.

    Callers that need more than the scored report can pass their own
    ``registry`` (read span/counter coverage from its snapshot after
    the run) and a ``diagnoses_out`` list, which receives every
    :class:`~repro.fleet.engine.Diagnosis` the service produced — the
    fuzzer's novelty signal is built from both.
    """
    registry = MetricsRegistry() if registry is None else registry
    broker = Broker(registry=registry)
    injector = FaultInjector(plan, registry=registry) if plan is not None else None
    service_broker = injector.wrap_broker(broker) if injector else broker
    fault_hook = injector.fleet_hook() if injector else None
    recorder = None
    if cfg.record_dir is not None:
        from repro.incidents import IncidentRecorder, IncidentStore

        recorder = IncidentRecorder(
            IncidentStore(Path(cfg.record_dir) / fault), registry=registry
        )
    config = FleetConfig(
        service=ServiceConfig(
            delta_start_s=min(500, fixture.onset - 60),
            detector_window_s=fixture.duration_s,
            diagnosis_budget_s=cfg.diagnosis_budget_s,
        ),
        prune_broker=cfg.prune_broker,
    )
    service = FleetDiagnosisService(
        service_broker,
        config,
        registry=registry,
        recorder=recorder,
        fault_hook=fault_hook,
    )
    report = FaultClassReport(fault=fault)
    try:
        register_fleet(service, fixture.exemplars)
        for feed in fixture.feeds:
            for topic, block in feed.iter_blocks():
                service_broker.publish_block(topic, block)
        if injector is not None:
            held = service_broker.flush()
            if held:
                report.notes += (f"released {held} held/buffered messages",)
        service.run_until_drained()
        report.completed = True
    except Exception as exc:  # the whole point: this must stay empty
        report.uncaught_exceptions += 1
        report.errors += (f"{type(exc).__name__}: {exc}",)
        _log.warning(
            "chaos run raised out of the service loop",
            extra={"fault": fault, "error": type(exc).__name__},
            exc_info=True,
        )

    diagnoses = service.diagnoses
    if diagnoses_out is not None:
        diagnoses_out.extend(diagnoses)
    report.diagnoses = len(diagnoses)
    report.degraded_diagnoses = sum(
        1 for d in diagnoses if d.confidence == "degraded"
    )
    report.quarantined = _counter_total(registry, "collector_quarantined_total")
    report.offset_resyncs = _counter_total(registry, "broker_offset_resyncs_total")
    report.worker_restarts = _counter_total(registry, "fleet_worker_restarts_total")
    report.faults_injected = (
        sum(injector.injected.values()) if injector is not None else 0
    )

    registered = set(service.instance_ids)
    for instance_id, truth in fixture.truths.items():
        diags = (
            service.diagnoses_for(instance_id) if instance_id in registered else []
        )
        if not truth.anomalous:
            report.spurious_diagnoses += len(diags)
            continue
        report.r_expected += 1
        report.h_expected += 1
        if diags:
            report.detected_instances += 1
        else:
            report.missed_instances += 1
        if any(
            sql_id in truth.r_sqls
            for d in diags
            for sql_id in d.result.rsql_ids[: cfg.top_k]
        ):
            report.r_hits += 1
        if any(
            sql_id in truth.h_sqls
            for d in diags
            for sql_id in d.result.hsql_ids[: cfg.top_k]
        ):
            report.h_hits += 1
    return report


def run_chaos_suite(
    cfg: ChaosHarnessConfig | None = None,
    fixture: FleetFixture | None = None,
    plan: FaultPlan | None = None,
) -> ResilienceScorecard:
    """Clean baseline plus one run per fault class; one scorecard.

    Pass a pre-built ``fixture`` to amortise the simulation over several
    suites (tests do), or a full ``plan`` to run it as a single fault
    run (named after the plan) instead of per-kind single-fault plans.
    """
    cfg = cfg or ChaosHarnessConfig()
    if fixture is None:
        _log.info(
            "simulating fleet for chaos suite",
            extra={
                "seed": cfg.seed,
                "instances": cfg.n_instances,
                "duration_s": cfg.duration_s,
            },
        )
        fixture = simulate_fleet(cfg)
    scorecard = ResilienceScorecard(
        seed=cfg.seed, instances=cfg.n_instances, duration_s=cfg.duration_s
    )
    scorecard.clean = run_fault_class(fixture, cfg, "clean", None)
    if plan is not None:
        scorecard.faults.append(run_fault_class(fixture, cfg, plan.name, plan))
        return scorecard
    for kind in cfg.fault_kinds:
        scorecard.faults.append(
            run_fault_class(
                fixture, cfg, kind, single_fault_plan(kind, seed=cfg.seed)
            )
        )
    return scorecard

"""The benchmark's seeded workloads: ``fleet``, ``chaos`` and ``corpus``.

All three are closed batch runs in one process with one diagnosis
thread (``FleetConfig(workers=1)``, ``ChaosHarnessConfig(workers=1)``,
no process pool).  Each workload builds a fixed set of ``inputs`` from
the seed in :meth:`setup`; unit ``i`` of the timed part runs input
``i mod inputs``, so the loop cycles through the inputs and every input
runs several times, seconds apart; ``run.py`` keeps the median repeat of
each timed piece.  Times are read from :func:`refclock.now`, which
corrects for the host's drifting speed.  :meth:`unit` returns a :class:`UnitResult`;
unit ``i`` always does the same work for a given seed, so the counts of
a traced unit repeat exactly, and which inputs are scored never depends
on the machine's speed.
"""

from __future__ import annotations

import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterator

import numpy as np

import repro.workload
from refclock import now as _perf
from repro.chaos import FAULT_KINDS, single_fault_plan
from repro.collection import Broker, MetricsCollector, QueryLogCollector
from repro.core import PinSQL, PinSQLConfig
from repro.dbsim import DatabaseInstance
from repro.evaluation import chaos as chaos_harness
from repro.evaluation import dataset
from repro.evaluation import harness
from repro.evaluation.metrics import first_hit_rank
from repro.fleet import FleetConfig, FleetDiagnosisService, ServiceConfig
from repro.health import HealthSweeper
from repro.health.checks import HealthConfig
from repro.incidents import IncidentRecorder, IncidentStore
from repro.telemetry import MetricsRegistry
from repro.workload import (
    AnomalyCategory,
    WorkloadGenerator,
    build_population,
    inject_anomaly,
)

#: Wall clock, for scaling the program's own timings to reference seconds.
_wall = time.perf_counter

#: Population shape of every workload: templates per business and the
#: business base request rate (requests/second).  The program's defaults
#: (5-18 templates, 0.5-8 req/s) vary the work per instance several-fold
#: between seeds; a fixed shape keeps the input size stated.
TEMPLATES_PER_BUSINESS = (10, 10)
BASE_LEVEL_RANGE = (3.0, 3.0)
shaped_population = partial(
    build_population,
    templates_per_business=TEMPLATES_PER_BUSINESS,
    base_level_range=BASE_LEVEL_RANGE,
)


@contextmanager
def fixed_population_shape() -> Iterator[None]:
    """Pin the shape for generators that call ``build_population`` inside.

    ``simulate_fleet`` resolves ``repro.workload.build_population`` and
    ``generate_case`` resolves ``repro.evaluation.dataset.build_population``
    when called; both see :data:`shaped_population` inside the block.
    """
    saved = repro.workload.build_population, dataset.build_population
    repro.workload.build_population = dataset.build_population = shaped_population
    try:
        yield
    finally:
        repro.workload.build_population, dataset.build_population = saved


#: The eight single-component ablations of the paper's Fig. 6.
ABLATIONS = (
    "cumulative_threshold",
    "direct_cause_ranking",
    "history_verification",
    "weighted_final_score",
    "estimate_session",
    "scale_score",
    "trend_score",
    "scale_trend_score",
)


@dataclass
class UnitResult:
    """One unit of the timed part: the input it ran, its pieces, its scores.

    Units that ran the same ``input_key`` did identical work; their
    scores are equal and only their times differ.
    """

    input_key: str
    #: Instance-seconds of telemetry carried through the unit.
    inst_s: float
    #: Reference seconds per piece on the workload's end-to-end path.
    e2e: dict[str, float] = field(default_factory=dict)
    #: Reference seconds per piece inside the diagnosis service.
    service: dict[str, float] = field(default_factory=dict)
    #: Reference seconds per ``PinSQL.analyze`` call (``StageTimings.total``),
    #: keyed by the case it analysed.
    analyze: dict[str, float] = field(default_factory=dict)
    #: First-hit ranks of true R-SQLs / H-SQLs, one per scored anomaly.
    r_ranks: list[int | None] = field(default_factory=list)
    h_ranks: list[int | None] = field(default_factory=list)
    #: (hits, expected) for R-SQL Hits@3.
    hits3: tuple[int, int] = (0, 0)
    attempted: int = 0
    #: Judged operations the diagnosis got wrong (a missed anomaly, a
    #: spurious diagnosis, no true R-SQL in the top 3), with reasons.
    misses: list[str] = field(default_factory=list)
    #: Operations that broke (an uncaught exception, a diagnosis on the
    #: wrong instance, a missing incident record): each one fails the run.
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.errors)


def failure_gates(name: str, units: list[UnitResult], max_missed_ratio: float) -> list[str]:
    """Broken operations, plus the missed-operation ratio against its ceiling."""
    gates = [f"{name} gate: {e}" for u in units for e in u.errors]
    attempted = sum(u.attempted for u in units)
    missed = sum(len(u.misses) for u in units)
    if attempted and missed / attempted > max_missed_ratio:
        gates.append(
            f"{name} gate: missed ratio {missed / attempted:.3f} above "
            f"{max_missed_ratio} ({missed} of {attempted} operations)"
        )
    return gates


def _ranks(ranked_lists: list[list[str]], truth: set[str]) -> int | None:
    """Best first-hit rank of ``truth`` over several rankings."""
    ranks = [r for ids in ranked_lists if (r := first_hit_rank(ids, truth))]
    return min(ranks) if ranks else None


def _analyze_times(diagnoses, scale: float) -> dict[str, float]:
    """Reference seconds per analyze call; ``scale`` is reference seconds
    per wall second over the piece that made the calls."""
    seen: dict[str, int] = {}
    out = {}
    for d in diagnoses:
        n = seen[d.instance_id] = seen.get(d.instance_id, -1) + 1
        out[f"{d.instance_id}#{n}"] = d.result.timings.total * scale
    return out


# ----------------------------------------------------------------------
# fleet: simulated traffic -> blocks -> broker -> service -> incidents
# ----------------------------------------------------------------------
@dataclass
class _Planned:
    instance_id: str
    population: object
    truth: object | None
    db_seed: int


class FleetWorkload:
    """Rounds of a small fleet, each simulated, collected and drained.

    Half of every round's instances get an anomaly, one of each of row
    lock, poor SQL and MDL lock, so every round has the same mix.  Round
    ``r`` is built from ``(seed, r)``; unit ``i`` runs round
    ``i mod rounds``.
    """

    name = "fleet"
    #: Misses and spurious diagnoses the detector may make on a seed.
    MAX_MISSED_RATIO = 0.25
    CATEGORIES = (
        AnomalyCategory.ROW_LOCK,
        AnomalyCategory.POOR_SQL,
        AnomalyCategory.MDL_LOCK,
    )
    DURATION_S = 360
    ONSET_S = 240
    BUSINESSES = 5
    CPU_CORES = 8
    #: Full passes over the rounds before the clock may stop the loop.
    MIN_REPEATS = 2
    DRAINS = 3

    def __init__(self, workdir: Path, instances: int = 6, rounds: int = 2) -> None:
        self.workdir = workdir
        self.instances = instances
        self.inputs = rounds
        self.trace_units = tuple(range(rounds))
        self.rounds: list[list[_Planned]] = []

    def describe(self) -> str:
        return (
            f"{self.inputs} rounds of {self.instances} instances x {self.DURATION_S}s "
            f"({self.BUSINESSES} businesses each, half anomalous), cycled"
        )

    def setup(self, seed: int) -> None:
        """Build every round's traffic model (populations + anomalies)."""
        self.rounds = []
        self.rounds = [self._plan(seed, r) for r in range(self.inputs)]

    def _plan(self, seed: int, r: int) -> list[_Planned]:
        planned = []
        for i in range(self.instances):
            rng = np.random.default_rng([seed, r, i])
            population = shaped_population(
                self.DURATION_S, rng, n_businesses=self.BUSINESSES
            )
            truth = None
            if i % 2 == 0:
                category = self.CATEGORIES[(seed + r + i // 2) % len(self.CATEGORIES)]
                kwargs: dict = {}
                if category is AnomalyCategory.ROW_LOCK:
                    kwargs = {"target_rate": (25.0, 35.0), "lock_hold_ms": (300.0, 400.0)}
                elif category is AnomalyCategory.POOR_SQL:
                    kwargs = {"capacity_hint_ms": self.CPU_CORES * 1000.0}
                truth = inject_anomaly(
                    population, rng, category, self.ONSET_S, self.DURATION_S, **kwargs
                )
            planned.append(
                _Planned(f"db-{i:02d}", population, truth, int(rng.integers(2**31)))
            )
        return planned

    def _drain(self, r: int, plan: list[_Planned], runs: list) -> tuple:
        """Collect a round's runs into a fresh broker and drain it."""
        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        t0 = _perf()
        for p, run in zip(plan, runs):
            QueryLogCollector(broker, instance_id=p.instance_id).collect_blocks(run.query_log)
            MetricsCollector(broker, instance_id=p.instance_id).collect_blocks(run.metrics)
        collect_s = _perf() - t0
        store_dir = self.workdir / f"fleet-round{r}"
        shutil.rmtree(store_dir, ignore_errors=True)
        t0, w0 = _perf(), _wall()
        recorder = IncidentRecorder(IncidentStore(store_dir), registry=registry)
        sweeper = HealthSweeper(
            incident_store=recorder.store,
            config=HealthConfig(sweep_interval_s=120),
            registry=registry,
        )
        config = FleetConfig(
            service=ServiceConfig(
                delta_start_s=self.ONSET_S - 60,
                detector_window_s=self.DURATION_S,
            ),
            workers=1,
            prune_broker=True,
        )
        service = FleetDiagnosisService(
            broker, config, registry=registry, recorder=recorder, sweeper=sweeper
        )
        with service:
            for p in plan:
                engine = service.register_instance(p.instance_id)
                for spec in p.population.specs.values():
                    # Prefer the raw exemplar: literals matter to static analysis.
                    engine.register_statement(
                        spec.exemplar or spec.template.replace("?", "1")
                    )
            service.run_until_drained()
        drain_s, wall_s = _perf() - t0, _wall() - w0
        return service, recorder, registry, collect_s, drain_s, drain_s / wall_s

    def unit(self, i: int, rec=None) -> UnitResult:
        r = i % self.inputs
        plan = self.rounds[r]
        out = UnitResult(f"round{r}", float(self.instances * self.DURATION_S))
        runs = []
        for p in plan:
            if rec is not None:
                rec.key = f"round{r}/{p.instance_id}"
            t0 = _perf()
            db = DatabaseInstance(
                schema=p.population.schema, cpu_cores=self.CPU_CORES, seed=p.db_seed
            )
            runs.append(db.run(WorkloadGenerator(p.population), duration=self.DURATION_S))
            out.e2e[f"simulate:{p.instance_id}"] = _perf() - t0
        # Ground truth (outside the timed pieces): observed roots, the
        # simulator's omniscient H-SQL labels, and each instance's own
        # templates (a diagnosis naming any other SQL read foreign data).
        truths = {}
        own_sqls = {}
        for p, run in zip(plan, runs):
            own_sqls[p.instance_id] = set(run.query_log.sql_ids) | set(p.population.specs)
            if p.truth is None:
                continue
            r_sqls = set(p.truth.r_sql_ids) & set(run.query_log.sql_ids) or set(
                p.truth.r_sql_ids
            )
            h_sqls = dataset._label_h_sqls(run, self.ONSET_S, self.DURATION_S, 0, 10)
            truths[p.instance_id] = (r_sqls, h_sqls or r_sqls)
        if rec is not None:
            rec.key = f"round{r}"
        # The same telemetry is collected and drained DRAINS times: the
        # drain is short, so its median needs more samples than the
        # simulation's.
        collects, drains = [], []
        for _ in range(self.DRAINS):
            service, recorder, registry, collect_s, drain_s, scale = self._drain(r, plan, runs)
            collects.append(collect_s)
            drains.append(drain_s)
            if rec is not None:
                rec.counts["incidents.bytes"] += recorder.store.total_bytes
                for metric, counter in (
                    ("collection.quarantined", "collector_quarantined_total"),
                    ("collection.offset_resyncs", "broker_offset_resyncs_total"),
                    ("resilience.worker_restarts", "fleet_worker_restarts_total"),
                ):
                    rec.counts[metric] += chaos_harness._counter_total(registry, counter)
        del runs
        out.e2e["collect"] = statistics.median(collects)
        out.e2e["drain"] = out.service["drain"] = statistics.median(drains)

        diagnoses = service.diagnoses
        out.analyze = _analyze_times(diagnoses, scale)
        for p in plan:
            mine = service.diagnoses_for(p.instance_id)
            out.attempted += 1
            if p.instance_id not in truths:
                if mine:
                    out.misses.append(f"round{r}/{p.instance_id}: spurious diagnosis")
                continue
            r_sqls, h_sqls = truths[p.instance_id]
            r_rank = _ranks([d.result.rsql_ids for d in mine], r_sqls)
            out.r_ranks.append(r_rank)
            out.h_ranks.append(_ranks([d.result.hsql_ids for d in mine], h_sqls))
            if r_rank is None or r_rank > 3:
                out.misses.append(
                    f"round{r}/{p.instance_id}: "
                    + ("anomaly missed" if not mine else "no true R-SQL in top 3")
                )
        out.hits3 = (sum(1 for x in out.r_ranks if x is not None and x <= 3),
                     len(out.r_ranks))
        out.attempted += 2
        wrong = sum(
            1 for p in plan for d in service.diagnoses_for(p.instance_id)
            if not set(d.result.rsql_ids) | set(d.result.hsql_ids) <= own_sqls[p.instance_id]
        )
        if wrong:
            out.errors.append(f"round{r}: {wrong} diagnoses name another instance's SQL")
        records = recorder.store.record_count
        if records != len(diagnoses):
            out.errors.append(
                f"round{r}: {records} incident records for {len(diagnoses)} diagnoses"
            )
        shutil.rmtree(recorder.store.root, ignore_errors=True)
        return out

    def gates(self, units: list[UnitResult]) -> list[str]:
        return failure_gates(self.name, units, self.MAX_MISSED_RATIO)


# ----------------------------------------------------------------------
# chaos: captured feeds replayed through the service under each fault
# ----------------------------------------------------------------------
class ChaosWorkload:
    """The clean baseline plus one replay per fault class, cycled.

    Set-up simulates the fleet once (``simulate_fleet``); unit ``i``
    replays it under fault class ``i mod 10`` with the per-record wire
    format, quarantine and resync paths the fault needs.
    """

    name = "chaos"
    MAX_MISSED_RATIO = 0.25
    FAULTS = ("clean", *FAULT_KINDS)
    INSTANCES = 2
    ANOMALOUS = 1
    DURATION_S = 300
    MIN_REPEATS = 2

    def __init__(self, workdir: Path, faults: tuple[str, ...] = FAULTS) -> None:
        self.workdir = workdir
        self.faults = faults
        self.inputs = len(faults)
        self.trace_units = tuple(range(len(faults)))
        self.cfg = None
        self.fixture = None
        self.reports: dict[str, object] = {}

    def describe(self) -> str:
        return (
            f"cycles of {len(self.faults)} replays of {self.INSTANCES} instances x "
            f"{self.DURATION_S}s ({self.ANOMALOUS} anomalous)"
        )

    def setup(self, seed: int) -> None:
        self.fixture = None
        self.cfg = chaos_harness.ChaosHarnessConfig(
            seed=seed,
            n_instances=self.INSTANCES,
            anomalous=self.ANOMALOUS,
            duration_s=self.DURATION_S,
            workers=1,
        )
        with fixed_population_shape():
            self.fixture = chaos_harness.simulate_fleet(self.cfg)

    def unit(self, i: int, rec=None) -> UnitResult:
        fault = self.faults[i % len(self.faults)]
        plan = None if fault == "clean" else single_fault_plan(fault, seed=self.cfg.seed)
        if rec is not None:
            rec.key = f"fault:{fault}"
        diagnoses: list = []
        t0, w0 = _perf(), _wall()
        report = chaos_harness.run_fault_class(
            self.fixture, self.cfg, fault, plan, diagnoses_out=diagnoses
        )
        wall = _perf() - t0
        scale = wall / (_wall() - w0)
        out = UnitResult(
            f"fault:{fault}",
            float(self.INSTANCES * self.DURATION_S),
            e2e={"replay": wall},
            service={"replay": wall},
            analyze=_analyze_times(diagnoses, scale),
            hits3=(report.r_hits, report.r_expected),
        )
        self.reports.setdefault(fault, report)
        for truth in self.fixture.truths.values():
            mine = [d for d in diagnoses if d.instance_id == truth.instance_id]
            out.attempted += 1
            if truth.anomalous:
                out.r_ranks.append(_ranks([d.result.rsql_ids for d in mine], set(truth.r_sqls)))
                out.h_ranks.append(_ranks([d.result.hsql_ids for d in mine], set(truth.h_sqls)))
            where = f"{fault}/{truth.instance_id}"
            if report.uncaught_exceptions:
                out.errors.append(f"{where}: uncaught exception")
            elif truth.anomalous and not mine:
                out.misses.append(f"{where}: anomaly missed")
            elif not truth.anomalous and mine:
                out.misses.append(f"{where}: spurious diagnosis")
        if rec is not None:
            rec.counts["collection.quarantined"] += report.quarantined
            rec.counts["collection.offset_resyncs"] += report.offset_resyncs
            rec.counts["chaos.faults_injected"] += report.faults_injected
            rec.counts["resilience.worker_restarts"] += report.worker_restarts
        return out

    def gates(self, units: list[UnitResult]) -> list[str]:
        """The resilience-scorecard gates, on the first replay of each class."""
        failed = failure_gates(self.name, units, self.MAX_MISSED_RATIO)
        reports = self.reports
        for fault, report in reports.items():
            if not report.completed or report.uncaught_exceptions:
                failed.append(f"chaos gate: {fault} did not complete: {report.errors}")
        clean = reports.get("clean")
        if clean is not None and (clean.r_accuracy < 1.0 or clean.missed_instances):
            failed.append("chaos gate: clean baseline missed an injected R-SQL")
        # Per-message faults act on thousands of messages, so each must
        # fire; poll- and step-level faults may legitimately not fire on
        # a small fleet.
        for fault in ("drop", "duplicate", "reorder", "corrupt"):
            report = reports.get(fault)
            if report is not None and report.faults_injected == 0:
                failed.append(f"chaos gate: {fault} injected nothing")
        corrupt = reports.get("corrupt")
        if corrupt is not None and not (corrupt.quarantined and corrupt.degraded_diagnoses):
            failed.append("chaos gate: corruption produced no quarantine / degraded diagnosis")
        for fault in ("clean", "drop"):
            report = reports.get(fault)
            if report is not None and report.quarantined:
                failed.append(f"chaos gate: quarantine engaged under {fault}")
        return failed


# ----------------------------------------------------------------------
# corpus: the paper's Table I and Fig. 6 evaluation over labelled cases
# ----------------------------------------------------------------------
class CorpusWorkload:
    """Table-I competition plus the eight Fig.-6 ablations over a corpus.

    Set-up generates the labelled corpus (all five anomaly categories,
    with history).  Unit ``j`` is evaluation pass ``j mod 9``: pass 0 is
    ``evaluate_competition`` (baselines, Top-All, PinSQL), passes 1-8
    are PinSQL with one component removed.
    """

    name = "corpus"
    MAX_MISSED_RATIO = 0.25
    DELTA_START_S = 300
    BUSINESSES = 5
    MIN_REPEATS = 2

    def __init__(self, workdir: Path, cases: int = 8, anomaly_s: int = 180,
                 ablations: tuple[str, ...] = ABLATIONS) -> None:
        self.workdir = workdir
        self.n_cases = cases
        self.anomaly_s = anomaly_s
        self.ablations = ablations
        self.inputs = 1 + len(ablations)
        self.trace_units = tuple(range(self.inputs))
        self.cases: list = []
        self.competition: list | None = None

    def describe(self) -> str:
        return (
            f"{self.n_cases} cases x {self.DELTA_START_S + self.anomaly_s}s, "
            f"cycles of {self.inputs} evaluation passes"
        )

    def setup(self, seed: int) -> None:
        cfg = dataset.CorpusConfig(
            n_cases=self.n_cases,
            seed=seed,
            delta_start_s=self.DELTA_START_S,
            anomaly_length_s=(self.anomaly_s, self.anomaly_s + 1),
            n_businesses=(self.BUSINESSES, self.BUSINESSES),
            cpu_cores_choices=(8,),
            category_weights=tuple((c, 1.0) for c in AnomalyCategory),
        )
        self.cases = []
        with fixed_population_shape():
            self.cases = dataset.generate_corpus(cfg)

    def unit(self, j: int, rec=None) -> UnitResult:
        which = j % self.inputs
        name = "competition" if which == 0 else f"w/o {self.ablations[which - 1]}"
        if rec is not None:
            rec.key = name
        t0, w0 = _perf(), _wall()
        if which == 0:
            reports = harness.evaluate_competition(self.cases)
            pinsql = reports[-1]
        else:
            pinsql = harness.evaluate_pinsql(
                PinSQL(PinSQLConfig().without(self.ablations[which - 1])),
                self.cases, name=name,
            )
        wall = _perf() - t0
        scale = wall / (_wall() - w0)
        analyze = {f"case{c}": t * scale for c, t in enumerate(pinsql.r_times)}
        out = UnitResult(
            f"pass:{name}",
            float(sum(c.case.te - c.case.ts for c in self.cases)),
            e2e={"pass": wall},
            service=dict(analyze),
            analyze=analyze,
        )
        if which == 0:
            self.competition = reports
            out.r_ranks = list(pinsql.r_ranks)
            out.h_ranks = list(pinsql.h_ranks)
            out.hits3 = (sum(1 for r in out.r_ranks if r is not None and r <= 3),
                         len(out.r_ranks))
            for labeled, rank in zip(self.cases, out.r_ranks):
                out.attempted += 1
                if rank is None or rank > 3:
                    out.misses.append(
                        f"case {labeled.seed} ({labeled.category.value}): "
                        "no true R-SQL in top 3"
                    )
        return out

    def gates(self, units: list[UnitResult]) -> list[str]:
        if self.competition is None:
            return ["corpus gate: the competition pass did not run"]
        failed = failure_gates(self.name, units, self.MAX_MISSED_RATIO)
        pinsql = self.competition[-1].r_summary.hits_at_1
        best = max(self.competition[:-1], key=lambda r: r.r_summary.hits_at_1)
        if pinsql <= best.r_summary.hits_at_1:
            failed.append(
                f"corpus gate: PinSQL R-SQL Hits@1 {pinsql:.1f}% does not beat "
                f"{best.name} {best.r_summary.hits_at_1:.1f}%"
            )
        return failed


WORKLOADS = {"fleet": FleetWorkload, "chaos": ChaosWorkload, "corpus": CorpusWorkload}

#: Constructor arguments per scale; ``toy`` is the smoke test's size.
SCALES = {
    "full": {"fleet": {}, "chaos": {}, "corpus": {}},
    "toy": {
        "fleet": {"instances": 2, "rounds": 1},
        "chaos": {"faults": ("clean", "drop", "corrupt")},
        "corpus": {"cases": 3, "anomaly_s": 150, "ablations": ("history_verification",)},
    },
}

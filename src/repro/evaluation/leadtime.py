"""Lead-time harness: does the proactive layer beat the pager?

The health sweeps exist to surface problems *before* the anomaly
detector fires.  This harness measures exactly that, closed on ground
truth: it simulates a fleet where some instances carry a planted
slow-creep poor SQL (:func:`~repro.workload.inject_slow_creep` — a
rollout that degrades the instance for minutes before CPU saturates),
replays the collected streams **chronologically in chunks** through the
fleet service with an attached :class:`~repro.health.HealthSweeper`
(bulk replay would drain everything in one step and collapse the sweep
schedule to a single sweep), then links the sweeps' proactive findings
to the incidents that later fired on the same instances.

Scores:

- **precision** — proactive findings on instances that went on to fire
  an anomaly, over all proactive findings (a sweep crying wolf on a
  healthy instance is a false positive);
- **recall** — creeping instances that got at least one proactive
  finding before their incident;
- **median lead time** — seconds between the first proactive finding
  on an instance and the incident's anomaly start.

CI gates precision (≥ 0.8 on the planted corpus) and a positive median
lead time — the "automated DBA" must be early *and* right.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from repro.collection import (
    Broker,
    METRIC_TOPIC,
    MetricsCollector,
    QUERY_TOPIC,
    QueryLogCollector,
)
from repro.collection.stream import instance_topic
from repro.fleet import FleetConfig, FleetDiagnosisService, ServiceConfig
from repro.fleet.sharded import InstanceFeed, feed_from_broker
from repro.health import HealthConfig, HealthFinding, HealthSweeper
from repro.telemetry import MetricsRegistry, get_logger

__all__ = [
    "LeadTimeConfig",
    "LeadTimeReport",
    "PROACTIVE_CHECKS",
    "render_leadtime_text",
    "replay_chronologically",
    "run_leadtime",
]

_log = get_logger("evaluation")

#: The checks whose findings count as "proactive warning of the creep".
#: Fleet-scope and self-health checks are excluded: they describe the
#: pipeline, not a brewing workload problem.
PROACTIVE_CHECKS = frozenset(
    {
        "rising-response-time",
        "rising-rows-examined",
        "antipattern-share",
        "connection-pressure",
        "lock-footprint-trend",
    }
)


@dataclass(frozen=True)
class LeadTimeConfig:
    """Knobs of one lead-time evaluation (fixed seed = fixed everything)."""

    seed: int = 23
    n_instances: int = 4
    #: The first ``creeping`` instances get a planted slow-creep poor SQL.
    creeping: int = 2
    duration_s: int = 900
    #: The creep's traffic ramp starts here ...
    creep_start_s: int = 180
    #: ... and reaches CPU oversubscription here (the labelled onset).
    onset_s: int = 700
    #: Stream-time seconds of records replayed between service steps.
    chunk_s: int = 60
    sweep_interval_s: int = 120
    sweep_window_s: int = 300
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.creeping <= self.n_instances:
            raise ValueError("creeping must be within [0, n_instances]")
        if not 0 < self.creep_start_s < self.onset_s < self.duration_s:
            raise ValueError("need 0 < creep_start_s < onset_s < duration_s")
        if self.chunk_s <= 0:
            raise ValueError("chunk_s must be positive")


@dataclass
class LeadTimeReport:
    """Scored outcome of one lead-time evaluation."""

    config: LeadTimeConfig
    #: Proactive findings (instance scope, PROACTIVE_CHECKS) per instance.
    proactive: dict[str, list[HealthFinding]] = field(default_factory=dict)
    #: Anomaly start per instance that fired (first incident).
    incident_starts: dict[str, int] = field(default_factory=dict)
    creeping_instances: tuple[str, ...] = ()
    sweeps: int = 0
    findings_total: int = 0
    #: Proactive findings whose sql_id matches a ranked R-SQL of the
    #: instance's later diagnosis (the strongest kind of early warning).
    template_matches: int = 0

    @property
    def true_positives(self) -> int:
        """Proactive findings on instances that later fired an incident."""
        return sum(
            len(findings)
            for instance_id, findings in self.proactive.items()
            if instance_id in self.incident_starts
        )

    @property
    def false_positives(self) -> int:
        return sum(
            len(findings)
            for instance_id, findings in self.proactive.items()
            if instance_id not in self.incident_starts
        )

    @property
    def precision(self) -> float:
        total = self.true_positives + self.false_positives
        return self.true_positives / total if total else 0.0

    @property
    def recall(self) -> float:
        """Creeping instances warned about before their incident fired."""
        if not self.creeping_instances:
            return 0.0
        warned = sum(
            1
            for instance_id in self.creeping_instances
            if self.lead_time_s(instance_id) is not None
        )
        return warned / len(self.creeping_instances)

    def lead_time_s(self, instance_id: str) -> int | None:
        """First proactive warning vs incident start; None if either missing."""
        findings = self.proactive.get(instance_id)
        start = self.incident_starts.get(instance_id)
        if not findings or start is None:
            return None
        earliest = min(f.detected_at for f in findings)
        lead = start - earliest
        return lead if lead > 0 else None

    @property
    def lead_times(self) -> list[int]:
        leads = (self.lead_time_s(i) for i in sorted(self.incident_starts))
        return [lead for lead in leads if lead is not None]

    @property
    def median_lead_s(self) -> float:
        return statistics.median(self.lead_times) if self.lead_times else 0.0

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "median_lead_s": self.median_lead_s,
            "lead_times_s": list(self.lead_times),
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "template_matches": self.template_matches,
            "sweeps": self.sweeps,
            "findings_total": self.findings_total,
            "incidents": {
                k: v for k, v in sorted(self.incident_starts.items())
            },
            "creeping_instances": list(self.creeping_instances),
        }


def simulate_creep_fleet(
    cfg: LeadTimeConfig,
) -> tuple[list[InstanceFeed], dict[str, tuple[str, ...]], tuple[str, ...]]:
    """Simulate the fleet; returns (feeds, exemplars, creeping ids)."""
    from repro.dbsim import DatabaseInstance
    from repro.workload import (
        WorkloadGenerator,
        build_population,
        inject_slow_creep,
    )

    feeds: list[InstanceFeed] = []
    exemplars: dict[str, tuple[str, ...]] = {}
    creeping: list[str] = []
    cores = 8
    for i in range(cfg.n_instances):
        instance_id = f"db-{i:02d}"
        rng = np.random.default_rng(cfg.seed * 613 + i)
        population = build_population(cfg.duration_s, rng, n_businesses=5)
        if i < cfg.creeping:
            inject_slow_creep(
                population,
                rng,
                creep_start=cfg.creep_start_s,
                anomaly_start=cfg.onset_s,
                anomaly_end=cfg.duration_s,
                capacity_hint_ms=cores * 1000.0,
            )
            creeping.append(instance_id)
        db = DatabaseInstance(
            schema=population.schema, cpu_cores=cores, seed=cfg.seed + i
        )
        run = db.run(WorkloadGenerator(population), duration=cfg.duration_s)
        capture = Broker()
        QueryLogCollector(capture, instance_id=instance_id).collect(run.query_log)
        MetricsCollector(capture, instance_id=instance_id).collect(run.metrics)
        feeds.append(feed_from_broker(capture, instance_id))
        exemplars[instance_id] = tuple(
            spec.exemplar or spec.template.replace("?", "1")
            for spec in population.specs.values()
        )
    return feeds, exemplars, tuple(creeping)


def _record_time(value: dict) -> int:
    """Stream-time second of one collected record (query or metric)."""
    if "second" in value:
        return int(value["second"])
    return int(value.get("timestamp", 0))


def replay_chronologically(
    service: FleetDiagnosisService,
    feeds: list[InstanceFeed],
    duration_s: int,
    chunk_s: int,
) -> None:
    """Publish ``feeds`` one stream-time chunk at a time, then drain.

    After each ``chunk_s`` of every instance the service steps until it
    has no lag, which also runs any due scheduled sweep; a bulk publish
    would leave room for only one sweep, at the very end.  Instances
    are registered here (re-registering is a no-op).
    """
    broker = service.broker
    ordered: dict[str, tuple[list, list]] = {}
    for feed in feeds:
        service.register_instance(feed.instance_id)
        ordered[feed.instance_id] = (
            sorted(feed.query_records, key=lambda kv: _record_time(kv[1])),
            sorted(feed.metric_records, key=lambda kv: _record_time(kv[1])),
        )
    cursors = {iid: [0, 0] for iid in ordered}
    for chunk_end in range(chunk_s, duration_s + chunk_s, chunk_s):
        for instance_id, (queries, metrics) in ordered.items():
            qi, mi = cursors[instance_id]
            while qi < len(queries) and _record_time(queries[qi][1]) < chunk_end:
                key, value = queries[qi]
                broker.publish(instance_topic(QUERY_TOPIC, instance_id), key, value)
                qi += 1
            while mi < len(metrics) and _record_time(metrics[mi][1]) < chunk_end:
                key, value = metrics[mi]
                broker.publish(instance_topic(METRIC_TOPIC, instance_id), key, value)
                mi += 1
            cursors[instance_id] = [qi, mi]
        while service.lag > 0:
            service.step()
    service.run_until_drained()


def run_leadtime(cfg: LeadTimeConfig | None = None) -> LeadTimeReport:
    """Simulate, replay chronologically, sweep on schedule, and score."""
    cfg = cfg or LeadTimeConfig()
    feeds, exemplars, creeping = simulate_creep_fleet(cfg)
    registry = MetricsRegistry()
    broker = Broker(registry=registry)
    sweeper = HealthSweeper(
        config=HealthConfig(
            sweep_window_s=cfg.sweep_window_s,
            sweep_interval_s=cfg.sweep_interval_s,
        ),
        registry=registry,
    )
    service = FleetDiagnosisService(
        broker,
        FleetConfig(
            service=ServiceConfig(
                delta_start_s=min(500, cfg.creep_start_s),
                detector_window_s=cfg.duration_s,
            ),
            workers=cfg.workers,
        ),
        registry=registry,
        sweeper=sweeper,
    )
    for feed in feeds:
        engine = service.register_instance(feed.instance_id)
        for statement in exemplars.get(feed.instance_id, ()):
            engine.register_statement(statement)
    try:
        replay_chronologically(service, feeds, cfg.duration_s, cfg.chunk_s)
    finally:
        service.close()

    report = LeadTimeReport(config=cfg, creeping_instances=creeping)
    report.sweeps = len(sweeper.sweeps)
    all_findings = [f for sweep in sweeper.sweeps for f in sweep.findings]
    report.findings_total = len(all_findings)
    for instance_id in service.instance_ids:
        diagnoses = service.diagnoses_for(instance_id)
        if diagnoses:
            report.incident_starts[instance_id] = min(
                d.anomaly.start for d in diagnoses
            )
    rsql_by_instance = {
        instance_id: {
            sql_id
            for d in service.diagnoses_for(instance_id)
            for sql_id in d.result.rsql_ids
        }
        for instance_id in service.instance_ids
    }
    for finding in all_findings:
        if finding.check not in PROACTIVE_CHECKS or not finding.instance_id:
            continue
        start = report.incident_starts.get(finding.instance_id)
        if start is not None and finding.detected_at >= start:
            # Warned after the pager went off: not proactive, not scored.
            continue
        report.proactive.setdefault(finding.instance_id, []).append(finding)
        if finding.sql_id and finding.sql_id in rsql_by_instance.get(
            finding.instance_id, ()
        ):
            report.template_matches += 1
    _log.info(
        "lead-time evaluation completed",
        extra={
            "precision": round(report.precision, 3),
            "recall": round(report.recall, 3),
            "median_lead_s": report.median_lead_s,
            "sweeps": report.sweeps,
        },
    )
    return report


def render_leadtime_text(report: LeadTimeReport) -> str:
    """The report as console text (``repro health`` / benchmarks)."""
    lines = [
        "=" * 60,
        "Proactive health lead-time evaluation",
        "=" * 60,
        f"instances      : {report.config.n_instances} "
        f"({len(report.creeping_instances)} with planted slow creep)",
        f"sweeps run     : {report.sweeps} "
        f"({report.findings_total} findings total)",
        f"precision      : {report.precision:.2f} "
        f"({report.true_positives} TP / {report.false_positives} FP)",
        f"recall         : {report.recall:.2f}",
        f"median lead    : {report.median_lead_s:.0f} s",
        f"template match : {report.template_matches} finding(s) named a "
        "later R-SQL",
        "",
    ]
    for instance_id in sorted(report.incident_starts):
        lead = report.lead_time_s(instance_id)
        lines.append(
            f"  {instance_id}: incident at t={report.incident_starts[instance_id]}, "
            + (f"first warning {lead} s earlier" if lead is not None
               else "no proactive warning")
        )
    lines.append("=" * 60)
    return "\n".join(lines)

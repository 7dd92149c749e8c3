"""Fleet-wide health rollup over one or many incident stores.

The per-incident records answer "what happened here"; this module
answers "how is the fleet doing": incidents per instance, the top
recurring root-cause templates (the paper's repeat offenders that make
throttling insufficient and optimization necessary), repair success
rates, and detector false-trigger candidates — incidents that produced
no pinpointed R-SQL or barely cleared the duration floor, the cases a
DBA would audit when tuning detector thresholds.

The rollup reads :class:`IncidentMeta` only, so it scales to stores it
never loads fully, and it merges multiple store directories — the
multiprocess shard runner writes one store per shard.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.incidents.store import IncidentMeta, IncidentStore
from repro.segmentlog import discover_logs
from repro.telemetry import MetricsRegistry

__all__ = [
    "FalseTriggerCandidate",
    "FleetHealth",
    "compute_health",
    "load_health",
    "publish_health",
    "render_health_text",
]

#: Incidents at or below this anomaly duration are flagged as potential
#: detector false triggers (just past the min-duration floor).
SHORT_ANOMALY_S = 60


@dataclass(frozen=True)
class FalseTriggerCandidate:
    """One incident a DBA should audit when tuning the detector."""

    incident_id: str
    instance_id: str
    reason: str


@dataclass
class FleetHealth:
    """Aggregated view over every incident in scope."""

    total_incidents: int = 0
    stores: int = 0
    per_instance: dict[str, int] = field(default_factory=dict)
    #: Incidents diagnosed on degraded evidence, per instance.
    degraded_per_instance: dict[str, int] = field(default_factory=dict)
    #: Messages quarantined/dead-lettered before diagnoses, per instance
    #: (summed from the records' ``quarantined_logs:N`` reasons).
    quarantined_per_instance: dict[str, int] = field(default_factory=dict)
    #: (sql_id, occurrences as top-ranked R-SQL), most recurrent first.
    top_rsql_templates: list[tuple[str, int]] = field(default_factory=list)
    verdicts: dict[str, int] = field(default_factory=dict)
    repairs_planned: int = 0
    repairs_executed: int = 0
    false_triggers: list[FalseTriggerCandidate] = field(default_factory=list)

    @property
    def repair_success_rate(self) -> float:
        """Executed repairs over incidents with any planned action."""
        if self.repairs_planned == 0:
            return 0.0
        return self.repairs_executed / self.repairs_planned

    @property
    def degraded_incidents(self) -> int:
        return sum(self.degraded_per_instance.values())

    @property
    def quarantined_messages(self) -> int:
        return sum(self.quarantined_per_instance.values())

    def to_dict(self) -> dict:
        return {
            "total_incidents": self.total_incidents,
            "stores": self.stores,
            "per_instance": dict(self.per_instance),
            "degraded_per_instance": dict(self.degraded_per_instance),
            "degraded_incidents": self.degraded_incidents,
            "quarantined_per_instance": dict(self.quarantined_per_instance),
            "quarantined_messages": self.quarantined_messages,
            "top_rsql_templates": [list(t) for t in self.top_rsql_templates],
            "verdicts": dict(self.verdicts),
            "repairs_planned": self.repairs_planned,
            "repairs_executed": self.repairs_executed,
            "repair_success_rate": self.repair_success_rate,
            "false_triggers": [
                {"incident_id": f.incident_id, "instance_id": f.instance_id,
                 "reason": f.reason}
                for f in self.false_triggers
            ],
        }


def compute_health(
    metas: list[IncidentMeta],
    stores: int = 1,
    top_k: int = 10,
    short_anomaly_s: int = SHORT_ANOMALY_S,
) -> FleetHealth:
    """Roll up index entries into a :class:`FleetHealth`."""
    health = FleetHealth(total_incidents=len(metas), stores=stores)
    per_instance: Counter[str] = Counter()
    degraded: Counter[str] = Counter()
    quarantined: Counter[str] = Counter()
    templates: Counter[str] = Counter()
    verdicts: Counter[str] = Counter()
    for meta in metas:
        instance = meta.instance_id
        per_instance[instance] += 1
        if meta.confidence == "degraded":
            degraded[instance] += 1
        if meta.quarantined_messages:
            quarantined[instance] += meta.quarantined_messages
        verdicts[meta.verdict or "untyped"] += 1
        if meta.top_r_sql is not None:
            templates[meta.top_r_sql] += 1
        if meta.planned_actions > 0:
            health.repairs_planned += 1
            if meta.repair_outcome == "executed":
                health.repairs_executed += 1
        if not meta.rsql_ids:
            health.false_triggers.append(
                FalseTriggerCandidate(
                    incident_id=meta.incident_id,
                    instance_id=meta.instance_id,
                    reason="no R-SQL pinpointed",
                )
            )
        elif meta.duration <= short_anomaly_s:
            health.false_triggers.append(
                FalseTriggerCandidate(
                    incident_id=meta.incident_id,
                    instance_id=meta.instance_id,
                    reason=f"short anomaly ({meta.duration} s)",
                )
            )
    health.per_instance = dict(sorted(per_instance.items()))
    health.degraded_per_instance = dict(sorted(degraded.items()))
    health.quarantined_per_instance = dict(sorted(quarantined.items()))
    health.top_rsql_templates = templates.most_common(top_k)
    health.verdicts = dict(sorted(verdicts.items()))
    return health


def load_health(path: str | Path, top_k: int = 10) -> FleetHealth:
    """Compute health over every store under ``path`` (merged).

    ``path`` may be a single store directory or a parent holding one
    store per shard (``shard-00``, ``shard-01``, ...).
    """
    roots = discover_logs(path, IncidentStore.PREFIX)
    metas: list[IncidentMeta] = []
    for root in roots:
        metas.extend(IncidentStore(root).metas())
    return compute_health(metas, stores=len(roots), top_k=top_k)


def publish_health(health: FleetHealth, registry: MetricsRegistry) -> None:
    """Expose the rollup as gauges in the telemetry registry."""
    for instance, count in health.per_instance.items():
        registry.gauge(
            "fleet_incidents",
            help="Incidents recorded, per instance.",
            instance=instance,
        ).set(count)
    registry.gauge(
        "fleet_incidents_total", help="Incidents recorded fleet-wide."
    ).set(health.total_incidents)
    registry.gauge(
        "fleet_repair_success_ratio",
        help="Executed repairs over incidents with planned actions.",
    ).set(health.repair_success_rate)
    registry.gauge(
        "fleet_false_trigger_candidates",
        help="Incidents flagged as potential detector false triggers.",
    ).set(len(health.false_triggers))
    for instance, count in health.degraded_per_instance.items():
        registry.gauge(
            "fleet_degraded_incidents",
            help="Incidents diagnosed with degraded confidence, per instance.",
            instance=instance,
        ).set(count)
    registry.gauge(
        "fleet_degraded_incidents_total",
        help="Degraded-confidence incidents fleet-wide.",
    ).set(health.degraded_incidents)
    for instance, count in health.quarantined_per_instance.items():
        registry.gauge(
            "fleet_quarantined_messages",
            help="Quarantined/dead-lettered collector messages, per instance.",
            instance=instance,
        ).set(count)
    registry.gauge(
        "fleet_quarantined_messages_total",
        help="Quarantined/dead-lettered collector messages fleet-wide.",
    ).set(health.quarantined_messages)


def render_health_text(health: FleetHealth) -> str:
    """The rollup as console text (``repro incidents health``)."""
    lines = [
        "=" * 60,
        "Fleet incident health",
        "=" * 60,
        f"incidents : {health.total_incidents} across {health.stores} store(s)",
        "",
        "Per instance:",
    ]
    if health.per_instance:
        for instance, count in health.per_instance.items():
            extras = []
            degraded = health.degraded_per_instance.get(instance, 0)
            quarantined = health.quarantined_per_instance.get(instance, 0)
            if degraded:
                extras.append(f"{degraded} degraded")
            if quarantined:
                extras.append(f"{quarantined} quarantined msg(s)")
            suffix = f"  ({', '.join(extras)})" if extras else ""
            lines.append(f"  {instance:<20} {count:>5}{suffix}")
    else:
        lines.append("  (no incidents)")
    lines += ["", "Top recurring R-SQL templates:"]
    if health.top_rsql_templates:
        for sql_id, count in health.top_rsql_templates:
            lines.append(f"  {sql_id:<20} {count:>5}")
    else:
        lines.append("  (none)")
    lines += ["", "Verdicts:"]
    for verdict, count in health.verdicts.items():
        lines.append(f"  {verdict:<20} {count:>5}")
    lines += [
        "",
        f"Repairs: {health.repairs_executed}/{health.repairs_planned} executed "
        f"({health.repair_success_rate:.0%} of planned)",
        f"Degraded-confidence incidents: {health.degraded_incidents}",
        f"Quarantined collector messages: {health.quarantined_messages}",
        f"False-trigger candidates: {len(health.false_triggers)}",
    ]
    for candidate in health.false_triggers[:10]:
        lines.append(
            f"  {candidate.incident_id}  [{candidate.instance_id}]  "
            f"{candidate.reason}"
        )
    lines.append("=" * 60)
    return "\n".join(lines)

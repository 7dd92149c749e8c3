"""Fleet diagnosis service: many instances, one broker, one loop.

The production PinSQL deployment watches thousands of instances with a
shared collection substrate (Kafka + LogStore) and a pool of diagnosis
workers.  This module reproduces one such worker at repo scale:

- every registered instance gets its own
  :class:`~repro.fleet.engine.InstanceDiagnosisEngine` reading the
  instance-keyed topic partitions (``query_logs.<id>`` etc.);
- one :meth:`step` of the fleet advances every engine in registration
  order on the caller's thread (engines never share mutable state).
  Multicore runs shard instances over worker processes instead
  (:func:`~repro.fleet.sharded.run_sharded`), each running this loop;
- each engine keeps its instance's raw logs in its own retention-bounded
  :class:`~repro.collection.logstore.LogStore`, and the broker can be
  pruned each step once all engines have consumed
  (``FleetConfig.prune_broker``) — the memory bounds that make an
  always-on fleet viable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (incidents → core)
    from repro.health.sweeper import HealthSweeper
    from repro.incidents.recorder import IncidentRecorder

from repro.collection.stream import Broker
from repro.dbsim.instance import DatabaseInstance
from repro.fleet.engine import Diagnosis, InstanceDiagnosisEngine, ServiceConfig
from repro.sqltemplate import TemplateCatalog
from repro.telemetry import MetricsRegistry, get_logger, get_registry
from repro.timeseries import TimeSeries

__all__ = ["FleetConfig", "FleetDiagnosisService"]

_log = get_logger("fleet")


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the fleet control plane."""

    #: Default per-instance service configuration (overridable per
    #: instance at registration time).
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Kept only so existing callers that pass ``workers=1`` still
    #: construct; it selects nothing.  The fleet loop steps every
    #: instance on the caller's thread.
    workers: int = 1
    #: Prune broker topics each step once every consumer has read them.
    #: Off by default: archival replay (fresh consumers reading from
    #: offset 0) only works on unpruned topics.
    prune_broker: bool = False
    #: Supervised recovery: how many times a crashed worker step is
    #: retried (per instance, per fleet step) before the instance is
    #: skipped for that step.  Each retry counts
    #: ``fleet_worker_restarts_total``.
    max_worker_restarts: int = 3

    def __post_init__(self) -> None:
        if self.workers != 1:
            raise ValueError(
                "workers must be 1: the fleet loop runs in-process; use "
                "run_sharded(processes=N) to diagnose in parallel"
            )
        if self.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be non-negative")


class FleetDiagnosisService:
    """Diagnoses anomalies across a registered fleet of instances."""

    def __init__(
        self,
        broker: Broker,
        config: FleetConfig | None = None,
        registry: MetricsRegistry | None = None,
        notify: Callable[[Diagnosis], None] | None = None,
        recorder: "IncidentRecorder | None" = None,
        fault_hook: Callable[[str], None] | None = None,
        sweeper: "HealthSweeper | None" = None,
    ) -> None:
        self.config = config or FleetConfig()
        self.broker = broker
        self.registry = registry or get_registry()
        self.notify = notify
        #: Test seam for chaos injection: called with the instance id
        #: before every engine step; an exception it raises is treated
        #: exactly like a worker crash (supervised restart).
        self.fault_hook = fault_hook
        #: Shared incident flight recorder handed to every engine.
        self.recorder = recorder
        #: Optional proactive health sweeper; its scheduled sweeps run
        #: in step() housekeeping, after every engine has stepped.
        self.sweeper = sweeper
        self._engines: dict[str, InstanceDiagnosisEngine] = {}
        self._m_steps = self.registry.counter(
            "fleet_steps_total", help="Fleet loop iterations."
        )
        self._m_diagnoses = self.registry.counter(
            "fleet_diagnoses_total", help="Diagnoses completed fleet-wide."
        )
        self._g_instances = self.registry.gauge(
            "fleet_registered_instances", help="Instances under diagnosis."
        )

    # ------------------------------------------------------------------
    # Fleet membership
    # ------------------------------------------------------------------
    def register_instance(
        self,
        instance_id: str,
        instance: DatabaseInstance | None = None,
        config: ServiceConfig | None = None,
        history_provider: Callable[[str, int, int, int], TimeSeries | None] | None = None,
        catalog: TemplateCatalog | None = None,
    ) -> InstanceDiagnosisEngine:
        """Bring an instance under diagnosis; returns its engine.

        Re-registering an id returns the existing engine.  Ids may not be
        empty or contain ``'.'`` (the topic separator); the engine
        rejects both.
        """
        engine = self._engines.get(instance_id)
        if engine is None:
            engine = InstanceDiagnosisEngine(
                self.broker,
                instance_id=instance_id,
                config=config or self.config.service,
                instance=instance,
                history_provider=history_provider,
                notify=self.notify,
                registry=self.registry,
                recorder=self.recorder,
            )
            if catalog is not None:
                engine.register_catalog(catalog)
            self._engines[instance_id] = engine
            self._g_instances.set(len(self._engines))
        return engine

    def engine(self, instance_id: str) -> InstanceDiagnosisEngine:
        return self._engines[instance_id]

    @property
    def instance_ids(self) -> list[str]:
        return list(self._engines)

    def diagnoses_for(self, instance_id: str) -> list[Diagnosis]:
        return self._engines[instance_id].diagnoses

    @property
    def diagnoses(self) -> list[Diagnosis]:
        """Every diagnosis so far, grouped by instance registration order."""
        out: list[Diagnosis] = []
        for engine in self._engines.values():
            out.extend(engine.diagnoses)
        return out

    @property
    def lag(self) -> int:
        """Unconsumed messages across every engine's topic partitions."""
        return sum(e.lag for e in self._engines.values())

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def step(self) -> list[Diagnosis]:
        """One fleet iteration: step every instance, then housekeeping.

        Instances advance one after the other in registration order.
        Housekeeping (broker pruning, scheduled health sweeps) runs once
        every engine has stepped.
        """
        self._m_steps.inc()
        produced: list[Diagnosis] = []
        for instance_id in list(self._engines):
            produced.extend(self._step_instance(instance_id))
        if produced:
            self._m_diagnoses.inc(len(produced))
        if self.config.prune_broker:
            self.broker.prune()
        if self.sweeper is not None:
            self.sweeper.maybe_sweep(self)
        return produced

    def _step_instance(self, instance_id: str) -> list[Diagnosis]:
        """One supervised engine step.

        A crash (from the engine or the chaos fault hook) restarts the
        step up to ``max_worker_restarts`` times; if the instance still
        cannot complete, it is skipped for this fleet step (and retried
        on the next one) instead of taking the whole fleet loop down.
        """
        engine = self._engines[instance_id]
        attempts = 0
        while True:
            try:
                if self.fault_hook is not None:
                    self.fault_hook(instance_id)
                return engine.step()
            except Exception:
                if attempts >= self.config.max_worker_restarts:
                    _log.warning(
                        "worker step failed after supervised restarts; "
                        "skipping instance this step",
                        extra={"instance": instance_id, "attempts": attempts},
                        exc_info=True,
                    )
                    self.registry.counter(
                        "fleet_worker_failures_total",
                        help="Instance steps abandoned after exhausting "
                        "supervised restarts.",
                        instance=instance_id,
                    ).inc()
                    return []
                attempts += 1
                self.registry.counter(
                    "fleet_worker_restarts_total",
                    help="Supervised restarts of crashed fleet worker steps.",
                    instance=instance_id,
                ).inc()

    def run_until_drained(self, max_idle_iterations: int = 25) -> list[Diagnosis]:
        """Step until every instance's partitions are exhausted.

        Guarded against a non-advancing broker: if the fleet lag stays
        positive but no consumer advances, no stranded consumer can be
        resynced and nothing is produced for ``max_idle_iterations``
        consecutive steps, log, count ``fleet_drain_stalled_total`` and
        break rather than spinning forever.
        """
        produced: list[Diagnosis] = []
        idle = 0
        while self.lag > 0:
            offsets = tuple(
                e.consumer_offsets() for e in self._engines.values()
            )
            step_produced = self.step()
            produced.extend(step_produced)
            advanced = (
                tuple(e.consumer_offsets() for e in self._engines.values())
                != offsets
            )
            if advanced or step_produced:
                idle = 0
                continue
            resynced = False
            for engine in self._engines.values():
                resynced = engine.resync_consumers() or resynced
            if resynced:
                # Consumers stranded behind a pruned log head have been
                # resynced; let the loop re-evaluate the fleet lag.
                idle = 0
                continue
            idle += 1
            if idle >= max_idle_iterations:
                _log.warning(
                    "fleet broker not advancing; abandoning drain",
                    extra={"idle_iterations": idle, "fleet_lag": self.lag},
                )
                self.registry.counter(
                    "fleet_drain_stalled_total",
                    help="Fleet drains abandoned on a non-advancing broker.",
                ).inc()
                break
        return produced

    # ------------------------------------------------------------------
    # Kept as a no-op so ``with service:`` callers still work; the
    # service holds no resources to release.
    def __enter__(self) -> "FleetDiagnosisService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

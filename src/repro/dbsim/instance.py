"""DatabaseInstance facade: schema + resources + locks + engine.

This is the object examples and benchmarks interact with: build an
instance, run a workload against it, receive a :class:`SimulationResult`
holding the query log, the metric series and the ground-truth sampler.
Repair actions reach the running engine through the instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dbsim.engine import RateProvider, SimulationEngine, Throttle
from repro.dbsim.locks import LockManager
from repro.dbsim.monitor import ActiveSessionSampler, InstanceMetrics
from repro.dbsim.query import QueryLog
from repro.dbsim.resources import ResourceModel
from repro.dbsim.spec import TemplateSpec
from repro.dbsim.tables import Schema

__all__ = ["DatabaseInstance", "SimulationResult"]


@dataclass
class SimulationResult:
    """Everything one simulated run produced."""

    query_log: QueryLog
    metrics: InstanceMetrics
    truth: ActiveSessionSampler
    t3_ms: np.ndarray          # ground-truth SHOW STATUS instants (Table III)
    start_time: int
    duration: int

    @property
    def end_time(self) -> int:
        return self.start_time + self.duration


class DatabaseInstance:
    """A simulated cloud database instance.

    Parameters
    ----------
    schema:
        Tables hosted by the instance (defaults to an empty schema that
        workload builders populate).
    cpu_cores, iops_capacity:
        Resource sizing; the paper's ADAC instances average 15.9 cores.
    conflict_rate:
        Row-lock contention intensity of the lock manager.
    seed:
        Seed for all stochastic behaviour of this instance.
    """

    def __init__(
        self,
        schema: Schema | None = None,
        cpu_cores: int = 16,
        iops_capacity: float = 20000.0,
        conflict_rate: float = 0.08,
        seed: int = 0,
    ) -> None:
        self.schema = schema or Schema()
        self.resources = ResourceModel(cpu_cores=cpu_cores, iops_capacity=iops_capacity)
        self.locks = LockManager(conflict_rate=conflict_rate)
        self.seed = int(seed)
        self._engine: SimulationEngine | None = None

    @property
    def engine(self) -> SimulationEngine:
        if self._engine is None:
            raise RuntimeError("no run in progress; call start() or run() first")
        return self._engine

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def start(self, provider: RateProvider, start_time: int = 0) -> SimulationEngine:
        """Begin a stepped run (the repair case study drives it manually)."""
        self.resources.reset()
        self._engine = SimulationEngine(
            provider=provider,
            resources=self.resources,
            locks=self.locks,
            start_time=start_time,
            seed=self.seed,
        )
        return self._engine

    def finish(self) -> SimulationResult:
        """Finalize the current run into a :class:`SimulationResult`."""
        engine = self.engine
        metrics, truth, t3_ms = engine.monitor.finalize(engine.query_log)
        result = SimulationResult(
            query_log=engine.query_log,
            metrics=metrics,
            truth=truth,
            t3_ms=t3_ms,
            start_time=engine.start_time,
            duration=engine.now - engine.start_time,
        )
        self._engine = None
        return result

    def run(
        self, provider: RateProvider, duration: int, start_time: int = 0, on_second=None
    ) -> SimulationResult:
        """Run ``duration`` simulated seconds and return the result."""
        engine = self.start(provider, start_time)
        engine.run(duration, on_second=on_second)
        return self.finish()

    # ------------------------------------------------------------------
    # Repair-action hooks
    # ------------------------------------------------------------------
    def throttle(self, sql_id: str, factor: float, start: int, end: int) -> Throttle:
        """Rate-limit a template during [start, end) seconds."""
        throttle = Throttle(sql_id, factor, start, end)
        self.engine.add_throttle(throttle)
        return throttle

    def apply_optimization(self, spec: TemplateSpec, rows_gain: float, tres_gain: float) -> TemplateSpec:
        """Swap in an optimized spec for a template (query optimization)."""
        optimized = spec.optimized(rows_gain=rows_gain, tres_gain=tres_gain)
        self.engine.override_spec(optimized)
        return optimized

    def autoscale(self, new_cores: int) -> None:
        """Instance AutoScale: expand the number of CPU cores."""
        self.resources.scale_cores(new_cores)

    def add_read_replicas(self, offload_fraction: float) -> None:
        """Instance AutoScale: route a fraction of reads to replicas.

        Offloaded SELECTs no longer hit the primary at all — its CPU, IO
        and active session shed that share of the read load.
        """
        if not 0.0 <= offload_fraction < 1.0:
            raise ValueError("offload_fraction must lie in [0, 1)")
        self.engine.read_offload_fraction = float(offload_fraction)

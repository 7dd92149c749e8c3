"""Evaluate one :class:`ScenarioSpec` through the accuracy-under-faults
harness and distil the fuzzer's novelty/failure signals from the run.

The expensive pieces are cached per spec content: the simulated fleet
fixture (and its digest) by :meth:`ScenarioSpec.workload_key`, so
fault-plan-only mutants replay a cached fleet, and whole outcomes by
:meth:`ScenarioSpec.content_key`, so shrinking re-visits candidates for
free.

Signals, per the coverage taxonomy in DESIGN §12:

* **coverage** — diagnosis code paths actually executed, read from the
  run's private :class:`~repro.telemetry.MetricsRegistry`: every span
  name observed (``span:*``) and every counter family touched
  (``counter:*``).
* **outcomes** — distinct :meth:`Diagnosis.outcome_key` combos of
  (verdict category, rules fired, advisory passes, confidence stamp).
* **signals** — resilience events worth keeping a scenario for even
  when accuracy holds (quarantine growth, offset resyncs, restarts,
  degraded confidence, missed detection).
* **failures** — what the fuzzer shrinks and checks into the corpus:
  uncaught exceptions, spurious diagnoses on healthy instances, a
  detected instance whose top-k misses every true R-SQL, and
  fault-run accuracy collapsing beyond tolerance below the same
  scenario's clean baseline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.evaluation.chaos import (
    ChaosHarnessConfig,
    FleetFixture,
    capture_fleet,
    run_fault_class,
    simulate_instances,
)
from repro.fuzz.spec import ScenarioSpec
from repro.telemetry import MetricsRegistry, observed_span_names

__all__ = [
    "RunSignature",
    "ScenarioOutcome",
    "ScenarioRunner",
    "build_fixture",
    "fixture_digest",
]


@dataclass(frozen=True)
class RunSignature:
    """The novelty-relevant footprint of one scenario evaluation."""

    coverage: frozenset[str]
    outcomes: frozenset[str]
    signals: frozenset[str]

    def new_against(
        self,
        coverage: frozenset[str] | set[str],
        outcomes: frozenset[str] | set[str],
        signals: frozenset[str] | set[str],
    ) -> "RunSignature":
        """The parts of this signature unseen by the given global sets."""
        return RunSignature(
            coverage=frozenset(self.coverage - set(coverage)),
            outcomes=frozenset(self.outcomes - set(outcomes)),
            signals=frozenset(self.signals - set(signals)),
        )

    @property
    def novel(self) -> bool:
        return bool(self.coverage or self.outcomes or self.signals)


@dataclass
class ScenarioOutcome:
    """Everything the fuzzer needs to judge one evaluated spec."""

    spec: ScenarioSpec
    clean: Any  # FaultClassReport (untyped module)
    fault: Any | None
    signature: RunSignature
    failures: tuple[str, ...]
    fixture_digest: str

    @property
    def failure_kinds(self) -> frozenset[str]:
        """The class of each failure (the text before the colon)."""
        return frozenset(f.split(":", 1)[0] for f in self.failures)


def build_fixture(spec: ScenarioSpec) -> FleetFixture:
    """Simulate the spec's fleet once into a replayable fixture.

    Every knob comes from the spec: anomaly category/window/params,
    population shape, planted baits.  Bait planting happens *after*
    anomaly injection so toggling a bait flag never shifts the
    injector's rng draws — the anomaly stays bit-identical across that
    mutation.
    """
    from repro.workload import AnomalyCategory, inject_anomaly, plant_antipatterns
    from repro.workload.scenarios import plant_advisory_baits

    onset, end = spec.anomaly.window(spec.duration_s)

    def plant(i: int, population: Any, rng: np.random.Generator) -> Any:
        injected = None
        if i < spec.anomalous:
            injected = inject_anomaly(
                population,
                rng,
                AnomalyCategory(spec.anomaly.category),
                onset,
                end,
                **spec.anomaly.injector_kwargs(),
            )
        if spec.antipatterns:
            plant_antipatterns(population, rng)
        if spec.advisory_baits:
            plant_advisory_baits(population, rng)
        return injected

    instances = simulate_instances(
        spec.n_instances,
        spec.duration_s,
        spec.seed,
        plant,
        n_businesses=spec.n_businesses,
        templates_per_business=spec.templates_per_business,
    )
    return capture_fleet(instances, onset, end, spec.duration_s)


def fixture_digest(fixture: FleetFixture) -> str:
    """Content hash of a fixture: feeds (each block's rows, dictionary,
    statements and instance), truths, window.

    Bit-identical simulation ⇒ identical digest, so determinism tests
    compare digests instead of deep structures, and the fuzz report can
    pin which concrete fleet a mutant ran against.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{fixture.onset}|{fixture.duration_s}".encode())
    for feed in fixture.feeds:
        h.update(feed.instance_id.encode())
        for block in feed.query_blocks:
            h.update(repr((block.instance, block.sql_ids, block.statements)).encode())
            h.update(block.data.tobytes())
        for block in feed.metric_blocks:
            h.update(repr((block.instance, block.metrics)).encode())
            h.update(block.data.tobytes())
    for instance_id in sorted(fixture.truths):
        truth = fixture.truths[instance_id]
        h.update(instance_id.encode())
        h.update(str(truth.anomalous).encode())
        h.update(",".join(sorted(truth.r_sqls)).encode())
        h.update(",".join(sorted(truth.h_sqls)).encode())
    return h.hexdigest()


def _coverage_keys(registry: MetricsRegistry) -> set[str]:
    """Code-path coverage from a private registry snapshot."""
    snap = registry.snapshot()
    keys = {
        f"counter:{c['name']}" for c in snap["counters"] if c["value"] > 0
    }
    keys.update(f"span:{name}" for name in observed_span_names(registry))
    return keys


def _outcome_keys(diagnoses: Iterable[Any]) -> set[str]:
    return {d.outcome_key() for d in diagnoses}


class ScenarioRunner:
    """Evaluates specs through the chaos harness, with content caches."""

    def __init__(self, tolerance: float = 0.5) -> None:
        if not 0.0 <= tolerance <= 1.0:
            raise ValueError("tolerance must be within [0, 1]")
        self.tolerance = tolerance
        self._fixtures: dict[str, tuple[FleetFixture, str]] = {}
        self._outcomes: dict[str, ScenarioOutcome] = {}
        #: Evaluations that actually ran (cache misses) — the fuzz
        #: report exposes this so budget accounting is honest.
        self.evaluations = 0

    def fixture_for(self, spec: ScenarioSpec) -> tuple[FleetFixture, str]:
        key = spec.workload_key()
        cached = self._fixtures.get(key)
        if cached is None:
            fixture = build_fixture(spec)
            cached = (fixture, fixture_digest(fixture))
            self._fixtures[key] = cached
        return cached

    def evaluate(self, spec: ScenarioSpec) -> ScenarioOutcome:
        key = spec.content_key()
        cached = self._outcomes.get(key)
        if cached is not None:
            return cached
        outcome = self._evaluate(spec)
        self._outcomes[key] = outcome
        self.evaluations += 1
        return outcome

    def _evaluate(self, spec: ScenarioSpec) -> ScenarioOutcome:
        fixture, digest = self.fixture_for(spec)
        cfg = ChaosHarnessConfig(
            seed=spec.seed,
            n_instances=spec.n_instances,
            anomalous=spec.anomalous,
            duration_s=spec.duration_s,
            top_k=spec.top_k,
        )
        clean_registry = MetricsRegistry()
        clean_diagnoses: list[Any] = []
        clean = run_fault_class(
            fixture, cfg, "clean", None,
            registry=clean_registry, diagnoses_out=clean_diagnoses,
        )
        coverage = _coverage_keys(clean_registry)
        outcomes = _outcome_keys(clean_diagnoses)
        fault = None
        if spec.faults is not None:
            fault_registry = MetricsRegistry()
            fault_diagnoses: list[Any] = []
            fault = run_fault_class(
                fixture, cfg, spec.faults.name, spec.faults,
                registry=fault_registry, diagnoses_out=fault_diagnoses,
            )
            coverage |= _coverage_keys(fault_registry)
            outcomes |= _outcome_keys(fault_diagnoses)

        signals: set[str] = set()
        if clean.missed_instances > 0:
            signals.add("signal:detection-miss")
        if clean.degraded_diagnoses > 0:
            signals.add("signal:degraded-clean")
        if fault is not None:
            if fault.quarantined > clean.quarantined:
                signals.add("signal:quarantine-growth")
            if fault.offset_resyncs > 0:
                signals.add("signal:offset-resyncs")
            if fault.worker_restarts > 0:
                signals.add("signal:worker-restarts")
            if fault.degraded_diagnoses > 0:
                signals.add("signal:degraded-fault")
            if fault.missed_instances > clean.missed_instances:
                signals.add("signal:fault-detection-miss")

        failures: list[str] = []
        if clean.uncaught_exceptions:
            detail = clean.errors[0] if clean.errors else "?"
            failures.append(f"uncaught-clean: {detail}")
        if fault is not None and fault.uncaught_exceptions:
            detail = fault.errors[0] if fault.errors else "?"
            failures.append(f"uncaught-fault: {detail}")
        if clean.spurious_diagnoses > 0:
            failures.append(
                f"spurious-diagnosis: {clean.spurious_diagnoses} diagnoses "
                "on healthy instances in the clean run"
            )
        if clean.detected_instances > 0 and clean.r_hits < clean.detected_instances:
            failures.append(
                f"wrong-attribution: only {clean.r_hits}/"
                f"{clean.detected_instances} detected instances ranked a "
                f"true R-SQL in their top-{spec.top_k} (clean run)"
            )
        if (
            fault is not None
            and fault.r_expected > 0
            and fault.r_accuracy < clean.r_accuracy - self.tolerance
        ):
            failures.append(
                f"fault-degraded: r_accuracy {fault.r_accuracy:.2f} under "
                f"'{spec.faults.name if spec.faults else fault.fault}' vs "
                f"{clean.r_accuracy:.2f} clean (tolerance {self.tolerance})"
            )

        return ScenarioOutcome(
            spec=spec,
            clean=clean,
            fault=fault,
            signature=RunSignature(
                coverage=frozenset(coverage),
                outcomes=frozenset(outcomes),
                signals=frozenset(signals),
            ),
            failures=tuple(failures),
            fixture_digest=digest,
        )

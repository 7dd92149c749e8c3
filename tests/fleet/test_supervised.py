"""Tests for supervised recovery of crashed fleet workers and shards."""

from repro.chaos import single_fault_plan
from repro.collection import Broker
from repro.fleet.service import FleetConfig, FleetDiagnosisService
from repro.fleet import BlockFeed, run_sharded
from repro.telemetry import MetricsRegistry, get_registry


class FlakyHook:
    """A chaos fault hook that crashes the first ``failures`` calls."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.calls = 0

    def __call__(self, instance_id: str) -> None:
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"injected crash #{self.calls} on {instance_id}")


def make_service(hook, registry, max_worker_restarts=3):
    broker = Broker(registry=registry)
    service = FleetDiagnosisService(
        broker,
        config=FleetConfig(max_worker_restarts=max_worker_restarts),
        registry=registry,
        fault_hook=hook,
    )
    service.register_instance("db-00")
    return service


class TestWorkerRestarts:
    def test_crashing_step_is_restarted_and_counted(self):
        registry = MetricsRegistry()
        hook = FlakyHook(failures=2)
        service = make_service(hook, registry)
        service.step()  # two crashes, then the third attempt completes
        assert hook.calls == 3
        restarts = registry.get("fleet_worker_restarts_total", instance="db-00")
        assert restarts.value == 2

    def test_exhausted_restarts_skip_the_instance_not_the_fleet(self):
        registry = MetricsRegistry()
        hook = FlakyHook(failures=10 ** 6)
        service = make_service(hook, registry, max_worker_restarts=2)
        produced = service.step()  # must not raise
        assert produced == []
        assert hook.calls == 3  # the first try plus two restarts
        restarts = registry.get("fleet_worker_restarts_total", instance="db-00")
        failures = registry.get("fleet_worker_failures_total", instance="db-00")
        assert restarts.value == 2
        assert failures.value == 1

    def test_next_fleet_step_retries_a_skipped_instance(self):
        registry = MetricsRegistry()
        hook = FlakyHook(failures=3)
        service = make_service(hook, registry, max_worker_restarts=1)
        service.step()  # crashes twice, skipped
        service.step()  # one more crash, then completes
        failures = registry.get("fleet_worker_failures_total", instance="db-00")
        assert failures.value == 1
        assert hook.calls == 4


def _global(name, **labels):
    instrument = get_registry().get(name, **labels)
    return 0 if instrument is None else instrument.value


class TestShardSupervision:
    """The inline (``processes=1``) path of ``run_sharded``.

    Crash decisions key on each work item's scope (one instance), so
    every instance crashes and restarts on its own.  ``run_sharded``
    counts into the process registry, so the checks read deltas.
    """

    FEEDS = [BlockFeed("db-00"), BlockFeed("db-01")]
    WATCHED = (
        ("fleet_worker_restarts_total", {"instance": "shard-00"}),
        ("fleet_work_items_total", {"status": "completed"}),
        ("fleet_worker_failures_total", {"instance": "db-00"}),
        ("fleet_worker_failures_total", {"instance": "db-01"}),
    )

    def run(self, plan, max_restarts):
        before = [_global(name, **labels) for name, labels in self.WATCHED]
        counts = run_sharded(
            self.FEEDS, processes=1, fault_plan=plan, max_restarts=max_restarts
        )
        after = [_global(name, **labels) for name, labels in self.WATCHED]
        restarts, completed, *failures = (b - a for a, b in zip(before, after))
        return counts, restarts, completed, failures

    def test_crashed_shard_converges_within_restart_budget(self):
        plan = single_fault_plan("worker_crash", rate=1.0, max_crashes=1)
        result, restarts, completed, failures = self.run(plan, max_restarts=2)
        # Attempt 0 crashes (rate 1.0); attempt 1 exceeds max_crashes and
        # runs clean, so every instance still reports in.
        assert set(result) == {"db-00", "db-01"}
        assert (restarts, completed, failures) == (2, 2, [0, 0])

    def test_unrecoverable_shard_is_abandoned_with_zero_counts(self):
        plan = single_fault_plan("worker_crash", rate=1.0, max_crashes=10)
        result, restarts, completed, failures = self.run(plan, max_restarts=1)
        assert result == {"db-00": 0, "db-01": 0}
        assert (restarts, completed, failures) == (2, 0, [1, 1])

    def test_clean_plan_runs_on_first_attempt(self):
        result, restarts, completed, failures = self.run(None, max_restarts=0)
        assert result == {"db-00": 0, "db-01": 0}
        assert (restarts, completed, failures) == (0, 2, [0, 0])

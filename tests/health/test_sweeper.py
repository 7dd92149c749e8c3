"""HealthSweeper: sweep mechanics, cadence, non-fatal checks."""

from types import SimpleNamespace

import numpy as np

from repro.collection import LogStore
from repro.health import (
    FindingsStore,
    HealthConfig,
    HealthFinding,
    HealthSweeper,
)
from repro.health.checks import HealthCheck
from repro.resilience import BreakerState
from repro.sqlanalysis import Severity
from repro.telemetry import MetricsRegistry, filter_snapshot
from tests.health.conftest import make_ctx, metric_samples


class FailingCheck(HealthCheck):
    check_id = "boom"
    scope = "instance"

    def check(self, ctx):
        raise RuntimeError("deliberate test failure")


class NoisyCheck(HealthCheck):
    check_id = "noisy"
    scope = "instance"

    def check(self, ctx):
        yield HealthFinding(
            check=self.check_id, severity=Severity.INFO,
            message="hello", instance_id=ctx.instance_id,
        )


def fake_engine(instance_id: str = "db-x", stream_time: int = 600):
    """Duck-types everything the sweeper reads off a live engine."""
    return SimpleNamespace(
        instance_id=instance_id,
        detector=SimpleNamespace(
            stream_time=stream_time,
            window_values=lambda ts, now: {
                "active_session": metric_samples(np.linspace(3, 12, 120))
            },
        ),
        logstore=LogStore(registry=MetricsRegistry()),
        catalog=SimpleNamespace(get=lambda sql_id: None),
        analyzer=SimpleNamespace(analyze_template=lambda info: []),
        lag=0,
        repair_breaker=SimpleNamespace(state=BreakerState.CLOSED),
    )


def fake_service(*engines):
    by_id = {e.instance_id: e for e in engines}
    return SimpleNamespace(
        instance_ids=list(by_id),
        engine=lambda iid: by_id[iid],
    )


class TestSweepContexts:
    def test_findings_stamped_with_sweep_identity(self):
        sweeper = HealthSweeper(
            checks=(NoisyCheck(),), registry=MetricsRegistry()
        )
        result = sweeper.sweep_contexts([make_ctx()], now=120)
        assert len(result.findings) == 1
        assert result.findings[0].sweep_id == result.sweep_id
        assert result.findings[0].detected_at == 120

    def test_scope_filter_skips_mismatched_checks(self):
        sweeper = HealthSweeper(
            checks=(NoisyCheck(),), registry=MetricsRegistry()
        )
        fleet_only = make_ctx(scope="fleet", instance_id="")
        result = sweeper.sweep_contexts([fleet_only], now=120)
        assert result.checks_run == 0
        assert result.findings == []


class TestNonFatalChecks:
    def test_raising_check_degrades_to_a_finding(self):
        registry = MetricsRegistry()
        sweeper = HealthSweeper(
            checks=(FailingCheck(), NoisyCheck()), registry=registry
        )
        result = sweeper.sweep_contexts([make_ctx()], now=60)
        assert result.check_failures == 1
        assert result.checks_run == 2
        layer = [f for f in result.findings if f.check == "health-layer"]
        assert len(layer) == 1
        assert layer[0].evidence["failed_check"] == "boom"
        assert layer[0].evidence["error"] == "RuntimeError"
        # The healthy check still contributed: the sweep survived.
        assert any(f.check == "noisy" for f in result.findings)
        assert registry.counter(
            "health_check_failures_total",
            help="Health checks that raised during a sweep.",
            check="boom",
        ).value == 1.0


class TestAdvisoryContext:
    def _bait_catalog(self):
        baits = {
            "WW1": "UPDATE hot SET c0 = c0 + 1 WHERE LOWER(c8) = 'x'",
            "WW2": "UPDATE hot SET c1 = 2 WHERE UPPER(c9) = 'y'",
        }
        specs = {
            sql_id: SimpleNamespace(sql_id=sql_id, template=sql, exemplar=sql)
            for sql_id, sql in baits.items()
        }
        return SimpleNamespace(get=lambda sql_id: specs.get(sql_id))

    def _templates(self):
        from tests.health.conftest import make_templates, template_series

        return make_templates({
            "WW1": template_series(execs_per_s=2.0),
            "WW2": template_series(execs_per_s=2.0),
        })

    def test_engine_advisor_feeds_context(self):
        from repro.dbsim.tables import Schema, Table
        from repro.sqlanalysis.workload import WorkloadAnalyzer

        engine = fake_engine()
        engine.catalog = self._bait_catalog()
        engine.advisor = WorkloadAnalyzer(
            schema=Schema([Table("hot", 2_000_000, {"id"})]),
            registry=MetricsRegistry(),
        )
        advisories = HealthSweeper._advisories_for_engine(
            engine, self._templates()
        )
        assert advisories
        assert advisories[0].advisor == "lock-conflict"
        assert set(advisories[0].sql_ids) == {"WW1", "WW2"}

    def test_engine_without_advisor_yields_none(self):
        assert HealthSweeper._advisories_for_engine(
            fake_engine(), self._templates()
        ) == ()

    def test_broken_advisor_degrades_to_empty(self):
        engine = fake_engine()
        engine.catalog = self._bait_catalog()
        engine.advisor = SimpleNamespace(
            analyze=lambda infos, weights: (_ for _ in ()).throw(
                RuntimeError("boom")
            )
        )
        assert HealthSweeper._advisories_for_engine(
            engine, self._templates()
        ) == ()


class TestFleetSweeps:
    def test_single_instance_fleet(self):
        sweeper = HealthSweeper(registry=MetricsRegistry())
        service = fake_service(fake_engine("db-solo"))
        result = sweeper.sweep_fleet(service)
        assert result.instances == ("db-solo",)
        # 9 instance-scope + 3 fleet-scope built-in checks.
        assert result.checks_run == 12
        # The synthetic session ramp fires connection-pressure.
        assert any(f.check == "connection-pressure" for f in result.findings)

    def test_maybe_sweep_honours_interval(self):
        sweeper = HealthSweeper(
            config=HealthConfig(sweep_interval_s=300),
            registry=MetricsRegistry(),
        )
        engine = fake_engine("db-x", stream_time=300)
        service = fake_service(engine)
        assert sweeper.maybe_sweep(service) is not None
        engine.detector.stream_time = 450  # too soon
        assert sweeper.maybe_sweep(service) is None
        engine.detector.stream_time = 650
        assert sweeper.maybe_sweep(service) is not None
        assert len(sweeper.sweeps) == 2

    def test_each_context_gets_its_instance_slice_of_one_snapshot(self):
        registry = MetricsRegistry()
        for iid in ("db-a", "db-b", "db-other"):
            registry.counter("rows_total", instance=iid).inc(3)
            registry.gauge("lag", instance=iid, topic="q").set(2)
            registry.histogram("stage_seconds", instance=iid).observe(0.5)
        registry.counter("rows_total").inc()  # no instance label
        registry.counter("rows_total", shard="db-a").inc()  # another label
        snapshots, contexts = [], []
        snapshot = registry.snapshot

        def recording_snapshot():
            snapshots.append(snapshot())
            return snapshots[-1]

        registry.snapshot = recording_snapshot

        class Recording(HealthSweeper):
            def sweep_contexts(self, ctxs, now):
                contexts.extend(ctxs)
                return super().sweep_contexts(contexts, now)

        sweeper = Recording(checks=(NoisyCheck(),), registry=registry)
        sweeper.sweep_fleet(fake_service(fake_engine("db-a"), fake_engine("db-b"),
                                         fake_engine("db-none")))
        assert len(snapshots) == 1
        snap = snapshots[0]
        instance_ctxs = [c for c in contexts if c.scope == "instance"]
        assert [c.instance_id for c in instance_ctxs] == ["db-a", "db-b", "db-none"]
        for ctx in instance_ctxs:
            assert ctx.telemetry == filter_snapshot(snap, instance=ctx.instance_id)
        assert len(instance_ctxs[0].telemetry["counters"]) == 1
        assert instance_ctxs[2].telemetry == {kind: [] for kind in snap}
        assert contexts[-1].scope == "fleet" and contexts[-1].telemetry is snap

    def test_sweep_persists_to_store(self, tmp_path):
        store = FindingsStore(tmp_path)
        sweeper = HealthSweeper(
            store=store, checks=(NoisyCheck(),), registry=MetricsRegistry()
        )
        result = sweeper.sweep_contexts([make_ctx()], now=60)
        assert store.record_count == len(result.findings) == 1
        assert FindingsStore(tmp_path).sweep_ids() == [result.sweep_id]


class TestOfflineSweeps:
    def test_sweep_stores_runs_incident_checks(self, tmp_path):
        from repro.incidents import IncidentStore
        from tests.incidents.conftest import make_record

        store = IncidentStore(tmp_path / "incidents")
        store.append(make_record("i1", "db-a", 100, 300))
        store.append(make_record("i2", "db-b", 400, 600))
        sweeper = HealthSweeper(registry=MetricsRegistry())
        result = sweeper.sweep_stores(tmp_path / "incidents")
        # Two instance contexts + the fleet context, built-ins only.
        assert result.checks_run == 2 * 9 + 3
        # Both records pinpoint R1: the repeat-offender check fires.
        offenders = [f for f in result.findings if f.check == "repeat-offender"]
        assert len(offenders) == 1
        assert offenders[0].sql_id == "R1"

"""Tests for counterfactual replay and repair-plan validation."""

import numpy as np
import pytest

from repro.core import (
    PinSQL,
    RepairConfig,
    RepairEngine,
    RepairRule,
    SqlThrottleAction,
    validate_plan,
)
from repro.sqltemplate import StatementKind
from repro.workload import ReplayWorkload, estimate_cpu_cores, infer_spec, replay_case


class TestInferSpec:
    def test_recovers_kind_and_tables(self, row_lock_case):
        case = row_lock_case.case
        r_sql = next(iter(row_lock_case.r_sqls))
        spec = infer_spec(case, r_sql)
        assert spec.kind is StatementKind.UPDATE
        assert spec.tables
        assert spec.sql_id == r_sql

    def test_batch_update_lock_hold_recovered(self, row_lock_case):
        case = row_lock_case.case
        r_sql = next(iter(row_lock_case.r_sqls))
        spec = infer_spec(case, r_sql)
        # The injected batch job holds locks for 250-450 ms; the inferred
        # hold must land in the right ballpark.
        assert 100.0 < spec.lock_hold_ms < 900.0

    def test_select_gets_default_hold(self, row_lock_case):
        case = row_lock_case.case
        select_id = next(
            sid for sid in case.sql_ids
            if case.catalog.get(sid) and case.catalog.get(sid).kind is StatementKind.SELECT
        )
        spec = infer_spec(case, select_id)
        assert spec.lock_hold_ms == 20.0

    def test_unknown_template(self, row_lock_case):
        spec = infer_spec(row_lock_case.case, "DOES_NOT_EXIST")
        assert spec.kind is StatementKind.OTHER


class TestReplayWorkload:
    def test_rates_follow_observed_counts(self, row_lock_case):
        case = row_lock_case.case
        workload = ReplayWorkload(case)
        sid = case.sql_ids[0]
        t = case.ts + 100
        expected = float(case.templates.executions(sid).values[100])
        arrivals = workload.arrivals(t, t + 1)
        got = float(arrivals.rates[0, list(arrivals.sql_ids).index(sid)])
        assert got == pytest.approx(expected)

    def test_core_estimation_reasonable(self, row_lock_case):
        workload = ReplayWorkload(row_lock_case.case)
        cores = estimate_cpu_cores(row_lock_case.case, workload)
        assert 2 <= cores <= 64

    def test_replay_reproduces_anomaly_shape(self, row_lock_case):
        case = row_lock_case.case
        result = replay_case(case, seed=3)
        lo, hi = case.anomaly_indices()
        replayed = result.metrics.active_session.values
        assert replayed[lo:hi].mean() > 1.5 * max(replayed[:lo].mean(), 0.5)


class TestPlanValidation:
    def test_killing_root_cause_resolves(self, row_lock_case):
        case = row_lock_case.case
        result = PinSQL().analyze(case)
        config = RepairConfig(
            rules=(
                RepairRule(("*",), "sql_throttle",
                           params=(("factor", 0.0), ("duration_s", 100_000))),
            ),
        )
        plan = RepairEngine(config).plan(
            case, result, anomaly_types=("active_session_anomaly",)
        )
        validation = validate_plan(case, plan)
        assert validation.improvement > 0.3
        assert validation.resolves
        assert "improvement" in str(validation)

    def test_useless_plan_does_not_improve(self, row_lock_case):
        case = row_lock_case.case
        # Throttle an irrelevant template: the anomaly must persist.
        irrelevant = min(
            case.sql_ids,
            key=lambda sid: case.templates.executions(sid).total(),
        )
        from repro.core.repair.engine import RepairPlan

        plan = RepairPlan(actions=[SqlThrottleAction(irrelevant, factor=0.0, duration_s=100_000)])
        validation = validate_plan(case, plan)
        assert validation.improvement < 0.3


class TestInflationDeflation:
    def test_inflation_high_during_saturation(self, poor_sql_case):
        from repro.workload import inflation_series

        case = poor_sql_case.case
        inflation = inflation_series(case)
        lo, hi = case.anomaly_indices()
        assert inflation[: lo - 30].mean() < 1.5     # calm before
        assert inflation[lo + 60 : hi].mean() > 2.0  # inflated during

    def test_new_template_base_deflated(self, poor_sql_case):
        # The poor SQL only ever ran during the saturation it caused; the
        # deflated inference must land near its true service time rather
        # than the inflated observed responses.
        from repro.workload import ReplayWorkload

        case = poor_sql_case.case
        workload = ReplayWorkload(case)
        r_sql = next(iter(poor_sql_case.r_sqls))
        inferred = workload.specs[r_sql]
        observed = case.logs.queries_in_window(r_sql, case.ts, case.te)
        # Far below the raw observed responses.
        assert inferred.service_time_ms < 0.5 * float(observed.response_ms.mean())

    def test_validation_predicts_recovery_for_poor_sql(self, poor_sql_case):
        from repro.core import PinSQL, RepairConfig, RepairEngine, RepairRule, validate_plan

        case = poor_sql_case.case
        result = PinSQL().analyze(case)
        config = RepairConfig(rules=(RepairRule(("*",), "query_optimization"),))
        plan = RepairEngine(config).plan(case, result, anomaly_types=("cpu_anomaly",))
        validation = validate_plan(case, plan)
        assert validation.improvement > 0.5
        assert validation.resolves


class TestReplayProperties:
    def test_inferred_base_never_exceeds_observed_median(self, row_lock_case):
        from repro.workload import ReplayWorkload

        case = row_lock_case.case
        workload = ReplayWorkload(case)
        for sid in list(case.sql_ids)[:20]:
            tq = case.logs.queries_in_window(sid, case.ts, case.te)
            if len(tq) < 20:
                continue
            spec = workload.specs[sid]
            # Deflated p10 minus scan cost can never exceed the raw median.
            assert spec.base_response_ms <= float(np.median(tq.response_ms)) + 1e-6

    def test_replay_total_queries_close_to_observed(self, row_lock_case):
        from repro.workload import replay_case

        case = row_lock_case.case
        result = replay_case(case, seed=11)
        observed = case.logs.total_queries()
        replayed = result.query_log.total_queries
        assert 0.8 * observed < replayed < 1.2 * observed

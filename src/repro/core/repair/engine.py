"""Repair engine: turn an analysis result into (executed) actions."""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.core.case import AnomalyCase
from repro.core.pipeline import PinSQLResult
from repro.core.repair.actions import (
    AutoScaleAction,
    OptimizationSkip,
    QueryOptimizationAction,
    RepairAction,
    SqlThrottleAction,
    plan_optimization,
)
from repro.core.repair.rules import DEFAULT_REPAIR_CONFIG, RepairConfig, RepairRule
from repro.dbsim.instance import DatabaseInstance
from repro.sqlanalysis import Advisory, Finding, SqlAnalyzer, TrafficWeight, WorkloadAnalyzer
from repro.telemetry import MetricsRegistry, get_logger, get_registry

__all__ = ["RepairPlan", "RepairEngine"]

_log = get_logger("repair")


@dataclass
class RepairPlan:
    """Suggested actions for one anomaly case."""

    actions: list[RepairAction] = field(default_factory=list)
    executed: list[RepairAction] = field(default_factory=list)
    #: Deliberate non-actions (e.g. index-backed templates the optimizer
    #: refuses to touch), kept for the repair outcome record.
    skips: list[OptimizationSkip] = field(default_factory=list)
    #: Session lift factor that gated the threshold rules.
    session_lift: float = 0.0
    #: Workload-level advisories computed over the case's catalog (when
    #: the engine has a workload advisor), kept for records and renderers.
    advisories: list[Advisory] = field(default_factory=list)

    @property
    def suggested_kinds(self) -> list[str]:
        return [a.kind for a in self.actions]


class RepairEngine:
    """Plans and (optionally) executes repair actions on R-SQLs."""

    def __init__(
        self,
        config: RepairConfig = DEFAULT_REPAIR_CONFIG,
        registry: MetricsRegistry | None = None,
        instance_id: str = "",
        analyzer: SqlAnalyzer | None = None,
        advisor: WorkloadAnalyzer | None = None,
    ) -> None:
        self.config = config
        self.instance_id = instance_id
        self.analyzer = analyzer
        self.advisor = advisor
        self._registry = registry or get_registry()
        self._labels = {"instance": instance_id} if instance_id else {}

    def _count_action(self, outcome: str, kind: str, amount: float = 1.0) -> None:
        self._registry.counter(
            "repair_actions_total",
            help="Repair actions by outcome (planned/executed/refused) and kind.",
            outcome=outcome,
            kind=kind,
            **self._labels,
        ).inc(amount)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self,
        case: AnomalyCase,
        result: PinSQLResult,
        anomaly_types: tuple[str, ...] = ("active_session_anomaly",),
    ) -> RepairPlan:
        """Build the action plan for the top-ranked R-SQLs."""
        lift = self._session_lift(case)
        plan = RepairPlan(session_lift=lift)
        plan.advisories = self._advisories(case)
        targets = result.rsql_ids[: self.config.top_k]
        if not targets:
            return plan
        for rule in self.config.rules:
            if not rule.matches(anomaly_types):
                self._count_action("refused_type_mismatch", rule.action)
                continue
            if lift < rule.min_session_lift:
                self._count_action("refused_lift_below_threshold", rule.action)
                _log.debug(
                    "repair rule gated by session lift",
                    extra={"action": rule.action, "lift": round(lift, 3),
                           "min_lift": rule.min_session_lift},
                )
                continue
            for sql_id in targets:
                action = self._make_action(rule, case, sql_id, plan.advisories)
                if isinstance(action, OptimizationSkip):
                    plan.skips.append(action)
                    self._count_action("skipped_index_backed", action.kind)
                    _log.debug(
                        "optimization skipped",
                        extra={"sql_id": sql_id, "reason": action.reason,
                               "instance": self.instance_id},
                    )
                    continue
                plan.actions.append(action)
                self._count_action("planned", action.kind)
        return plan

    def _findings(self, case: AnomalyCase, sql_id: str) -> list[Finding] | None:
        """Static-analysis findings for one template, or None if unanalyzable."""
        if self.analyzer is None:
            return None
        info = case.catalog.get(sql_id)
        if info is None:
            return None
        return self.analyzer.analyze_template(info)

    def _advisories(self, case: AnomalyCase) -> list[Advisory]:
        """Workload advisories over the case catalog; never raises."""
        if self.advisor is None:
            return []
        try:
            lo, hi = case.anomaly_indices()
            store = case.templates
            calls = store.matrix("#execution")[:, lo:hi].sum(axis=1)
            rows = store.matrix("total_examined_rows")[:, lo:hi].sum(axis=1)
            weights: dict[str, TrafficWeight] = {}
            for info in case.catalog:
                row = store.index.get(info.sql_id)
                weights[info.sql_id] = TrafficWeight(
                    calls=0.0 if row is None else float(calls[row]),
                    rows_examined=0.0 if row is None else float(rows[row]),
                )
            report = self.advisor.analyze(case.catalog, weights)
            return list(report.advisories)
        except Exception as exc:
            _log.warning(
                "workload advisory planning failed",
                extra={"error": type(exc).__name__, "instance": self.instance_id},
            )
            return []

    def _make_action(
        self,
        rule: RepairRule,
        case: AnomalyCase,
        sql_id: str,
        advisories: list[Advisory] | None = None,
    ) -> RepairAction | OptimizationSkip:
        params = rule.param_dict
        if rule.action == "sql_throttle":
            return SqlThrottleAction(
                sql_id=sql_id,
                factor=float(params.get("factor", 0.1)),
                duration_s=int(params.get("duration_s", 600)),
                kill=bool(params.get("kill", False)),
            )
        if rule.action == "query_optimization":
            if "rows_gain" in params or "tres_gain" in params:
                return QueryOptimizationAction(
                    sql_id=sql_id,
                    rows_gain=float(params.get("rows_gain", 0.9)),
                    tres_gain=float(params.get("tres_gain", 0.85)),
                )
            return plan_optimization(
                case, sql_id, self._findings(case, sql_id), advisories
            )
        return AutoScaleAction(
            sql_id="",
            new_cores=int(params.get("new_cores", 32)),
            read_offload=float(params.get("read_offload", 0.0)),
        )

    def _session_lift(self, case: AnomalyCase) -> float:
        """Anomaly-window mean active session over the pre-anomaly mean."""
        session = case.active_session.values
        lo, hi = case.anomaly_indices()
        baseline = session[:lo]
        window = session[lo:hi]
        if len(window) == 0:
            return 0.0
        base = float(baseline.mean()) if len(baseline) else 0.0
        return float(window.mean()) / max(base, 1e-9) if base > 0 else float("inf")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, plan: RepairPlan, instance: DatabaseInstance, now_s: int
    ) -> list[RepairAction]:
        """Execute the plan's actions (only if auto-execution is enabled)."""
        if not self.config.auto_execute:
            for action in plan.actions:
                self._count_action("refused_auto_execute_disabled", action.kind)
            return []
        for action in plan.actions:
            action.execute(instance, now_s)
            plan.executed.append(action)
            self._count_action("executed", action.kind)
            _log.info(
                "repair action executed",
                extra={"kind": action.kind, "sql_id": action.sql_id,
                       "now_s": now_s, "instance": self.instance_id},
            )
        return plan.executed

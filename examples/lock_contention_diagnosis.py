"""Diagnosing lock contention: the paper's motivating UPDATE-blocks-SELECT case.

Builds a hand-crafted workload on a SALES table — steady SELECT traffic
plus a batch of row-lock-heavy UPDATEs arriving mid-run — simulates the
instance, detects the anomaly from the metrics, and shows how PinSQL's
propagation chain separates the H-SQLs (the blocked SELECTs that inflate
the active session) from the R-SQL (the UPDATE batch actually causing it).

Run:  python examples/lock_contention_diagnosis.py
"""

import numpy as np

from repro.collection import LogStore, aggregate_query_log
from repro.core import AnomalyCase, PinSQL
from repro.dbsim import Arrivals, DatabaseInstance, TemplateSpec
from repro.detection import BasicPerception, CaseBuilder, PhenomenonPerception
from repro.sqltemplate import TemplateCatalog, fingerprint


class SalesWorkload:
    """Steady SELECTs on `sales` and `orders`; UPDATE batch on `sales`
    during [600, 900)."""

    def __init__(self) -> None:
        select_sales = fingerprint("SELECT * FROM sales WHERE item_id = 42")
        select_orders = fingerprint("SELECT * FROM orders WHERE order_id = 7")
        update_sales = fingerprint("UPDATE sales SET qty = 3 WHERE item_id = 42")
        self._specs = {
            select_sales.sql_id: TemplateSpec(
                select_sales.sql_id, select_sales.template, select_sales.kind,
                select_sales.tables, base_response_ms=3.0, examined_rows_mean=150.0,
            ),
            select_orders.sql_id: TemplateSpec(
                select_orders.sql_id, select_orders.template, select_orders.kind,
                select_orders.tables, base_response_ms=2.0, examined_rows_mean=80.0,
            ),
            update_sales.sql_id: TemplateSpec(
                update_sales.sql_id, update_sales.template, update_sales.kind,
                update_sales.tables, base_response_ms=6.0, examined_rows_mean=400.0,
                lock_hold_ms=250.0,
            ),
        }
        self.select_sales = select_sales.sql_id
        self.select_orders = select_orders.sql_id
        self.update_sales = update_sales.sql_id

    @property
    def specs(self):
        return self._specs

    def arrivals(self, t0: int, t1: int) -> Arrivals:
        seconds = np.arange(t0, t1)
        batch = (600 <= seconds) & (seconds < 900)
        rates = np.column_stack((
            np.full(len(seconds), 80.0),
            np.full(len(seconds), 60.0),
            np.where(batch, 35.0, 0.0),
        ))
        return Arrivals([self.select_sales, self.select_orders, self.update_sales], rates)


def main() -> None:
    duration = 1000
    workload = SalesWorkload()
    instance = DatabaseInstance(seed=7)
    print("Simulating 1000 s of SALES traffic with a batch UPDATE at t=600 ...")
    result = instance.run(workload, duration=duration)

    # --- Anomaly detection (Basic + Phenomenon perception layers) -----
    features = BasicPerception().perceive(result.metrics)
    phenomena = PhenomenonPerception().recognise(features)
    anomalies = CaseBuilder(min_duration_s=30).build(phenomena)
    if not anomalies:
        raise SystemExit("no anomaly detected — unexpected for this scenario")
    anomaly = max(anomalies, key=lambda a: a.duration)
    print(f"\nDetected anomaly: [{anomaly.start}, {anomaly.end}) s, types={anomaly.types}")

    # --- Build the case and analyse ------------------------------------
    templates = aggregate_query_log(result.query_log, 0, duration)
    logs = LogStore()
    logs.ingest_query_log(result.query_log)
    catalog = TemplateCatalog()
    for sql_id, spec in workload.specs.items():
        catalog.register_template(sql_id, spec.template, spec.kind, spec.tables)
    case = AnomalyCase(
        metrics=result.metrics,
        templates=templates,
        logs=logs,
        catalog=catalog,
        anomaly_start=anomaly.start,
        anomaly_end=min(anomaly.end, duration),
    )
    analysis = PinSQL().analyze(case)

    names = {
        workload.select_sales: "SELECT on sales (blocked readers)",
        workload.select_orders: "SELECT on orders (innocent bystander)",
        workload.update_sales: "UPDATE on sales (the batch job)",
    }
    print("\nH-SQL ranking (who inflates the active session):")
    for i, s in enumerate(analysis.hsql.scores, start=1):
        print(f"  {i}. {names[s.sql_id]:<42} impact={s.impact:+.2f} "
              f"(trend={s.trend:+.2f} scale={s.scale:+.2f} scale-trend={s.scale_trend:+.2f})")

    print("\nR-SQL ranking (who is the root cause):")
    for i, (sql_id, score) in enumerate(analysis.rsql.ranked, start=1):
        print(f"  {i}. {names[sql_id]:<42} corr(#exec, session)={score:+.2f}")

    top_r = analysis.rsql_ids[0]
    verdict = "CORRECT" if top_r == workload.update_sales else "WRONG"
    print(f"\nPinpointed root cause: {names[top_r]}  [{verdict}]")
    print("Note how the blocked SELECTs top the H-SQL list while the UPDATE")
    print("batch — invisible to response-time Top-SQL pages — tops the R-SQLs.")


if __name__ == "__main__":
    main()

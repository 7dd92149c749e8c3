"""Per-seed reference summaries of the simulator for the equivalence test.

Run from the repository root, at the commit whose engine is the
reference::

    PYTHONPATH=src python tests/dbsim/engine_reference.py \
        --out tests/dbsim/engine_reference.json

The JSON header records the commit (``git rev-parse HEAD``, or
``--commit`` where the checkout has no git metadata), the seeds and the
scenario length.  ``test_engine_equivalence.py`` runs the same scenario
on the current engine and compares the two sets of per-seed summaries.

The scenario touches every path of ``SimulationEngine.step`` in one
run: a plain SELECT, co-table writers under row-lock contention, a
one-shot DDL holding an MDL over its table's readers, a poor-SQL burst
saturating the CPU, a throttle added mid-run from ``on_second``, read
offload switched on mid-run, exact arrival counts, a rows-mean profile,
a template first appearing mid-run, and a table-less statement.  Only
the public simulator API is used; the provider serves the array
interface (:class:`repro.dbsim.Arrivals`), so an engine older than that
interface needs the provider of its own commit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path

import numpy as np

from repro.dbsim import Arrivals, DatabaseInstance, TemplateSpec, Throttle
from repro.sqltemplate import StatementKind

SEEDS = tuple(range(1, 21))
DURATION_S = 90
CPU_CORES = 4

#: Per-template summaries, and per-run (instance) summaries.
TEMPLATE_STATS = ("count", "response_mean", "response_p90", "rows_mean")
INSTANCE_STATS = ("row_lock_waits", "session_mean", "session_p99")

_S = StatementKind


def _spec(sql_id, kind, table, base, rows, **kw) -> TemplateSpec:
    tables = (table,) if table else ()
    return TemplateSpec(sql_id=sql_id, template=f"{kind.value} {table or '-'} /* {sql_id} */",
                        kind=kind, tables=tables, base_response_ms=base,
                        examined_rows_mean=rows, **kw)


SPECS = (
    _spec("SEL_ORD", _S.SELECT, "orders", 2.0, 300.0),
    _spec("SEL_SAL", _S.SELECT, "sales", 3.0, 150.0),
    _spec("UPD_SAL", _S.UPDATE, "sales", 4.0, 50.0, lock_hold_ms=250.0),
    _spec("DEL_SAL", _S.DELETE, "sales", 3.0, 20.0, lock_hold_ms=120.0),
    _spec("SEL_ITM", _S.SELECT, "items", 2.5, 100.0),
    _spec("DDL_ITM", _S.DDL, "items", 5.0, 0.0, ddl_duration_ms=8_000.0),
    _spec("POOR", _S.SELECT, "logs", 40.0, 1_500_000.0),
    _spec("INS_BAT", _S.INSERT, "audit", 2.0, 1.0, lock_hold_ms=30.0),
    _spec("SEL_GRW", _S.SELECT, "reports", 5.0, 1_000.0, cpu_per_krow=0.2),
    _spec("SEL_LATE", _S.SELECT, "orders", 2.0, 80.0, response_cv=0.6),
    _spec("PING", _S.SELECT, None, 0.5, 0.0),
)
SQL_IDS = tuple(s.sql_id for s in SPECS)

RATES = {"SEL_ORD": 60.0, "SEL_SAL": 50.0, "UPD_SAL": 25.0, "DEL_SAL": 10.0,
         "SEL_ITM": 30.0, "POOR": 4.0, "SEL_GRW": 8.0, "SEL_LATE": 15.0,
         "PING": 20.0}
#: Rate windows ``[start, end)``; outside them the rate is omitted.
WINDOWS = {"POOR": (50, 65), "SEL_LATE": (45, DURATION_S)}
DDL_AT = 20
BATCH_EVERY = 10
BATCH_SIZE = 5
GROWTH = (1_000.0, 40_000.0)
THROTTLE = ("DEL_SAL", 0.25, 40, 70)
OFFLOAD_AT, OFFLOAD = 60, 0.5


class ScenarioWorkload:
    """Rate provider of the scenario, with exact counts and a rows profile."""

    def __init__(self) -> None:
        self._specs = {s.sql_id: s for s in SPECS}
        self._growth = np.linspace(*GROWTH, DURATION_S)

    @property
    def specs(self) -> dict[str, TemplateSpec]:
        return self._specs

    def arrivals(self, t0: int, t1: int) -> Arrivals:
        seconds = np.arange(t0, t1)
        rates = np.zeros((len(seconds), len(SQL_IDS)))
        for sql_id, rate in RATES.items():
            lo, hi = WINDOWS.get(sql_id, (0, DURATION_S))
            rates[:, SQL_IDS.index(sql_id)] = np.where((lo <= seconds) & (seconds < hi), rate, 0.0)
        exact = np.full(rates.shape, -1, dtype=np.int64)
        exact[seconds == DDL_AT, SQL_IDS.index("DDL_ITM")] = 1
        exact[seconds % BATCH_EVERY == 0, SQL_IDS.index("INS_BAT")] = BATCH_SIZE
        rows = np.full(rates.shape, np.nan)
        rows[:, SQL_IDS.index("SEL_GRW")] = self._growth[np.minimum(seconds, DURATION_S - 1)]
        return Arrivals(SQL_IDS, rates, exact, rows)


def _interventions(t: int, engine) -> None:
    sql_id, factor, start, end = THROTTLE
    if t == start:
        engine.add_throttle(Throttle(sql_id, factor, start, end))
    if t == OFFLOAD_AT:
        engine.read_offload_fraction = OFFLOAD


def run_scenario(seed: int):
    """One seeded run of the scenario (a :class:`SimulationResult`)."""
    instance = DatabaseInstance(cpu_cores=CPU_CORES, seed=seed)
    return instance.run(ScenarioWorkload(), duration=DURATION_S, on_second=_interventions)


def summarize(result) -> dict[str, float | None]:
    """Flat ``{"<template>.<stat>" | "instance.<stat>": value}`` of one run."""
    out: dict[str, float | None] = {}
    for sql_id in SQL_IDS:
        q = result.query_log.queries_of(sql_id)
        n = len(q)
        out[f"{sql_id}.count"] = float(n)
        out[f"{sql_id}.response_mean"] = float(q.response_ms.mean()) if n else None
        out[f"{sql_id}.response_p90"] = float(np.percentile(q.response_ms, 90)) if n else None
        out[f"{sql_id}.rows_mean"] = float(q.examined_rows.mean()) if n else None
    session = result.metrics.active_session.values
    out["instance.row_lock_waits"] = float(result.metrics["innodb_row_lock_waits"].values.sum())
    out["instance.session_mean"] = float(session.mean())
    out["instance.session_p99"] = float(np.percentile(session, 99))
    return out


def summaries(seeds=SEEDS) -> dict[str, dict[str, float | None]]:
    return {str(seed): summarize(run_scenario(seed)) for seed in seeds}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--commit", default=None,
                        help="commit of the reference engine (default: git rev-parse HEAD)")
    args = parser.parse_args()
    commit = args.commit or subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    doc = {
        "meta": {
            "commit": commit,
            "generator": "tests/dbsim/engine_reference.py",
            "seeds": list(SEEDS),
            "duration_s": DURATION_S,
        },
        "summaries": summaries(),
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

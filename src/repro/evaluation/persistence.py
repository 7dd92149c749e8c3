"""Persistence of anomaly cases and corpora.

A :class:`~repro.evaluation.dataset.LabeledCase` round-trips through a
single ``.npz`` file: numeric arrays are stored natively, metadata
(catalog, window, labels) travels as an embedded JSON document.  This is
what lets a diagnosed production case be archived, shared, and replayed
— and it backs the command-line interface.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.collection.aggregator import TEMPLATE_METRICS, TemplateMetricStore
from repro.collection.logstore import LogStore
from repro.core.case import AnomalyCase
from repro.dbsim.monitor import InstanceMetrics
from repro.dbsim.query import SecondBatch
from repro.evaluation.dataset import LabeledCase
from repro.sqltemplate import StatementKind, TemplateCatalog
from repro.timeseries import TimeSeries
from repro.workload import AnomalyCategory, InjectedAnomaly

__all__ = ["save_case", "load_case", "save_corpus", "load_corpus"]

_FORMAT_VERSION = 1


def save_case(labeled: LabeledCase, path: str | Path) -> Path:
    """Serialise a labelled case to ``path`` (``.npz``)."""
    path = Path(path)
    case = labeled.case
    arrays: dict[str, np.ndarray] = {}

    for name, series in case.metrics.series.items():
        arrays[f"metric/{name}"] = series.values

    for row, sql_id in enumerate(case.templates.sql_ids):
        for metric in TEMPLATE_METRICS:
            arrays[f"tpl/{sql_id}/{metric}"] = case.templates.matrix(metric)[row]

    window = case.logs.window(case.ts, case.te)
    names = ("arrive_ms", "response_ms", "examined_rows")
    columns = {name: getattr(window, name) for name in names}
    bounds = window.offsets.tolist()
    for sql_id, lo, hi in zip(window.sql_ids, bounds, bounds[1:]):
        for name, column in columns.items():
            arrays[f"log/{sql_id}/{name}"] = column[lo:hi]

    for sql_id, by_day in case.history.items():
        for days, series in by_day.items():
            arrays[f"hist/{sql_id}/{days}"] = series.values

    catalog = [
        {
            "sql_id": info.sql_id,
            "template": info.template,
            "kind": info.kind.value,
            "tables": list(info.tables),
            "exemplar": info.exemplar,
        }
        for info in case.catalog
    ]
    meta = {
        "version": _FORMAT_VERSION,
        "ts": case.ts,
        "te": case.te,
        "anomaly_start": case.anomaly_start,
        "anomaly_end": case.anomaly_end,
        "history_interval": next(
            (s.interval for by_day in case.history.values() for s in by_day.values()),
            60,
        ),
        "catalog": catalog,
        "labels": {
            "r_sqls": sorted(labeled.r_sqls),
            "h_sqls": sorted(labeled.h_sqls),
            "category": labeled.category.value,
            "detected": labeled.detected,
            "seed": labeled.seed,
            "instance_id": labeled.instance_id,
        },
        "injected": {
            "category": labeled.injected.category.value,
            "r_sql_ids": labeled.injected.r_sql_ids,
            "anomaly_start": labeled.injected.anomaly_start,
            "anomaly_end": labeled.injected.anomaly_end,
            "business": labeled.injected.business,
            "table": labeled.injected.table,
            "new_sql_ids": labeled.injected.new_sql_ids,
        },
    }
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def load_case(path: str | Path) -> LabeledCase:
    """Load a labelled case saved by :func:`save_case`."""
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if meta.get("version") != _FORMAT_VERSION:
            raise ValueError(f"unsupported case format version {meta.get('version')!r}")
        ts, te = int(meta["ts"]), int(meta["te"])

        metric_series = {}
        # Rows in key order: the order ``save_case`` wrote the templates.
        template_series: dict[str, dict[str, np.ndarray]] = {}
        logs = LogStore()
        history: dict[str, dict[int, TimeSeries]] = {}
        hist_interval = int(meta.get("history_interval", 60))

        for key in data.files:
            if key == "__meta__":
                continue
            kind, _, rest = key.partition("/")
            if kind == "metric":
                metric_series[rest] = TimeSeries(data[key], start=ts, name=rest)
            elif kind == "tpl":
                sql_id, _, metric = rest.partition("/")
                template_series.setdefault(sql_id, {})[metric] = data[key]
            elif kind == "log":
                sql_id, _, field = rest.partition("/")
                if field == "arrive_ms":
                    logs.ingest_batch(
                        SecondBatch(
                            sql_id=sql_id,
                            arrive_ms=data[f"log/{sql_id}/arrive_ms"],
                            response_ms=data[f"log/{sql_id}/response_ms"],
                            examined_rows=data[f"log/{sql_id}/examined_rows"],
                        )
                    )
            elif kind == "hist":
                sql_id, _, days = rest.partition("/")
                history.setdefault(sql_id, {})[int(days)] = TimeSeries(
                    data[key], start=ts, interval=hist_interval, name="#execution"
                )

        catalog = TemplateCatalog()
        for entry in meta["catalog"]:
            catalog.register_template(
                entry["sql_id"],
                entry["template"],
                StatementKind(entry["kind"]),
                tuple(entry["tables"]),
                exemplar=entry.get("exemplar", ""),
            )

        case = AnomalyCase(
            metrics=InstanceMetrics(metric_series),
            templates=TemplateMetricStore.from_series(ts, te, template_series),
            logs=logs,
            catalog=catalog,
            anomaly_start=int(meta["anomaly_start"]),
            anomaly_end=int(meta["anomaly_end"]),
            history=history,
        )
        labels = meta["labels"]
        inj = meta["injected"]
        injected = InjectedAnomaly(
            category=AnomalyCategory(inj["category"]),
            r_sql_ids=list(inj["r_sql_ids"]),
            anomaly_start=int(inj["anomaly_start"]),
            anomaly_end=int(inj["anomaly_end"]),
            business=inj["business"],
            table=inj["table"],
            new_sql_ids=list(inj["new_sql_ids"]),
        )
        return LabeledCase(
            case=case,
            r_sqls=set(labels["r_sqls"]),
            h_sqls=set(labels["h_sqls"]),
            category=AnomalyCategory(labels["category"]),
            injected=injected,
            detected=bool(labels["detected"]),
            seed=int(labels["seed"]),
            # Absent in pre-fleet archives; those load unattributed.
            instance_id=str(labels.get("instance_id", "")),
        )


def save_corpus(corpus: list[LabeledCase], directory: str | Path) -> list[Path]:
    """Save every case of a corpus under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, labeled in enumerate(corpus):
        paths.append(save_case(labeled, directory / f"case_{i:04d}.npz"))
    return paths


def load_corpus(directory: str | Path) -> list[LabeledCase]:
    """Load every ``case_*.npz`` under ``directory`` (sorted)."""
    directory = Path(directory)
    return [load_case(p) for p in sorted(directory.glob("case_*.npz"))]

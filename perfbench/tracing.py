"""Traced run: spans around the calls into each layer of the program.

The benchmark never edits the program.  In a traced run it replaces a
list of public functions and methods (:data:`PROBES`) with timing shims
— on the class, or on the module attribute the caller resolves — and
removes them again when the run ends.

Every shim call opens a frame on one stack.  A *coarse* call becomes a
stored span (name, start, end, parent span, per-instance or per-case
key).  A *hot* call (made thousands of times per run, such as
``SimulationEngine.step`` or ``LockManager.row_lock_wait``) is only
counted and timed, aggregated per parent span.  Self time is a frame's
duration minus the time of the shimmed calls made inside it, so the
per-layer times add up to the traced wall time without double counting.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

_perf = time.perf_counter


class SpanRecorder:
    """In-memory span store; written out once, when the run ends."""

    def __init__(self) -> None:
        self.t0 = _perf()
        #: ``(id, name, start_s, end_s, parent_id, key, self_s)``.
        self.spans: list[tuple] = []
        #: ``(parent_id, name) -> [calls, total_s, self_s]``.
        self.hot: dict[tuple[int | None, str], list] = {}
        self.counts: Counter[str] = Counter()
        #: Instance or case id stamped on spans opened from now on.
        self.key = ""
        self._stack: list[list] = []
        self._span_ids: list[int] = []
        self._next_id = 0

    # -- frames ----------------------------------------------------------
    def enter(self, name: str, hot: bool) -> list:
        if hot:
            frame = [name, None, 0.0, _perf()]
        else:
            span_id = self._next_id
            self._next_id += 1
            parent = self._span_ids[-1] if self._span_ids else None
            frame = [name, span_id, 0.0, _perf(), parent, self.key]
            self._span_ids.append(span_id)
        self._stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = _perf()
        self._stack.pop()
        elapsed = end - frame[3]
        self_s = elapsed - frame[2]
        if self._stack:
            self._stack[-1][2] += elapsed
        if frame[1] is None:
            parent = self._span_ids[-1] if self._span_ids else None
            agg = self.hot.get((parent, frame[0]))
            if agg is None:
                self.hot[(parent, frame[0])] = [1, elapsed, self_s]
            else:
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += self_s
        else:
            self._span_ids.pop()
            self.spans.append(
                (frame[1], frame[0], frame[3] - self.t0, end - self.t0,
                 frame[4], frame[5], self_s)
            )

    @contextmanager
    def span(self, name: str, key: str | None = None) -> Iterator[None]:
        """A structural span opened by the benchmark itself."""
        if key is not None:
            self.key = key
        frame = self.enter(name, hot=False)
        try:
            yield
        finally:
            self.leave(frame)

    # -- per-layer views ---------------------------------------------------
    def self_time(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[1]] += span[6]
        for (_, name), (_, _, self_s) in self.hot.items():
            out[name] += self_s
        return dict(out)

    def total_time(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[1]] += span[3] - span[2]
        for (_, name), (_, total_s, _) in self.hot.items():
            out[name] += total_s
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[1]] += 1
        for (_, name), (n, _, _) in self.hot.items():
            out[name] += n
        return dict(out)

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span and hot aggregate as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "key", "self_s"],
            "spans": self.spans,
            "hot_fields": ["parent", "name", "calls", "total_s", "self_s"],
            "hot": [[p, n, *v] for (p, n), v in self.hot.items()],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


# ----------------------------------------------------------------------
# Counters attached to probes: ``hook(recorder, args, kwargs, result)``.
# ----------------------------------------------------------------------
def _message_bytes(value: Any) -> int:
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(value, dict):
        return sum(v.nbytes for v in value.values() if isinstance(v, np.ndarray))
    return 0


def _count_publish(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["collection.published_msgs"] += 1
    value = kwargs["value"] if "value" in kwargs else args[3]
    rec.counts["collection.published_bytes"] += _message_bytes(value)


def _count_finish(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["dbsim.rows"] += result.query_log.total_queries


def _count_batch_rows(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    batch = kwargs["batch"] if "batch" in kwargs else args[1]
    rec.counts["collection.ingest_rows"] += len(batch)


def _count_log_rows(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["collection.ingest_rows"] += int(result)


def _count_events(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["detection.events"] += len(result)


def _count_diagnoses(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["fleet.diagnoses"] += len(result)


def _count_record(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        rec.counts["incidents.records"] += 1


def _count_sweep(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        rec.counts["health.sweeps"] += 1
        rec.counts["health.findings"] += len(result.findings)


#: ``(module, class or None for a module attribute, attribute, span, hot, hook)``.
PROBES: tuple[tuple[str, str | None, str, str, bool, Callable | None], ...] = (
    ("repro.dbsim.instance", "DatabaseInstance", "run", "dbsim.run", False, None),
    ("repro.dbsim.instance", "DatabaseInstance", "finish", "dbsim.finish", False, _count_finish),
    ("repro.dbsim.engine", "SimulationEngine", "step", "dbsim.step", True, None),
    ("repro.dbsim.locks", "LockManager", "row_lock_wait", "dbsim.lock", True, None),
    ("repro.dbsim.locks", "LockManager", "mdl_wait", "dbsim.lock", True, None),
    ("repro.workload.generator", "WorkloadGenerator", "rates_at", "workload.rates", True, None),
    ("repro.workload.generator", "WorkloadGenerator", "counts_at", "workload.rates", True, None),
    ("repro.workload.generator", "WorkloadGenerator", "rows_at", "workload.rates", True, None),
    ("repro.collection.collector", "QueryLogCollector", "collect", "collection.collect", False, None),
    ("repro.collection.collector", "QueryLogCollector", "collect_blocks", "collection.collect", False, None),
    ("repro.collection.collector", "MetricsCollector", "collect", "collection.collect", False, None),
    ("repro.collection.collector", "MetricsCollector", "collect_blocks", "collection.collect", False, None),
    ("repro.collection.stream", "Broker", "publish", "collection.publish", True, _count_publish),
    ("repro.collection.stream", "Broker", "publish_block", "collection.publish", False, None),
    ("repro.chaos.injector", "ChaosBroker", "publish", "collection.publish", True, None),
    ("repro.chaos.injector", "ChaosBroker", "publish_block", "collection.publish", False, None),
    ("repro.collection.stream", "Consumer", "poll", "collection.poll", True, None),
    ("repro.chaos.injector", "ChaosConsumer", "poll", "collection.poll", True, None),
    ("repro.collection.logstore", "LogStore", "ingest_block", "collection.ingest", False, None),
    ("repro.collection.logstore", "LogStore", "ingest_batch", "collection.ingest", True, _count_batch_rows),
    ("repro.collection.logstore", "LogStore", "ingest_query_log", "collection.ingest", False, _count_log_rows),
    ("repro.collection.logstore", "LogStore", "queries_in_window", "collection.window", True, None),
    # The service's consume-validate-convert loop around LogStore ingest
    # (private, but it is where the per-record wire format is paid for).
    ("repro.fleet.engine", "InstanceDiagnosisEngine", "_drain_query_logs", "collection.drain", False, None),
    ("repro.fleet.engine", None, "aggregate_logstore", "collection.aggregate", False, None),
    ("repro.health.sweeper", None, "aggregate_logstore", "collection.aggregate", False, None),
    ("repro.detection.realtime", "RealtimeAnomalyDetector", "poll", "detection.poll", False, _count_events),
    ("repro.fleet.engine", None, "classify_case", "detection.classify", False, None),
    ("repro.core.pipeline", "PinSQL", "analyze", "core.analyze", False, None),
    ("repro.core.session_estimation", "SessionEstimator", "estimate", "core.session_estimation", False, None),
    ("repro.core.hsql", "HsqlIdentifier", "identify", "core.hsql", False, None),
    ("repro.core.rsql", "RsqlIdentifier", "identify", "core.rsql", False, None),
    ("repro.evaluation.harness", None, "evaluate_ranker", "core.baselines", False, None),
    ("repro.fleet.engine", None, "render_report", "core.report", False, None),
    ("repro.core.repair.engine", "RepairEngine", "plan", "repair.plan", False, None),
    ("repro.sqlanalysis.analyzer", "SqlAnalyzer", "analyze_template", "sqlanalysis.template", True, None),
    ("repro.sqlanalysis.workload.analyzer", "WorkloadAnalyzer", "analyze", "sqlanalysis.workload", False, None),
    ("repro.fleet.service", "FleetDiagnosisService", "step", "fleet.step", False, None),
    ("repro.fleet.engine", "InstanceDiagnosisEngine", "step", "fleet.engine_step", False, _count_diagnoses),
    ("repro.incidents.recorder", "IncidentRecorder", "record", "incidents.record", False, _count_record),
    ("repro.health.sweeper", "HealthSweeper", "maybe_sweep", "health.sweep", False, _count_sweep),
    ("repro.evaluation.dataset", None, "generate_case", "evaluation.generate", False, None),
    ("repro.evaluation.chaos", None, "simulate_fleet", "evaluation.generate", False, None),
    ("repro.evaluation.chaos", None, "run_fault_class", "chaos.replay", False, None),
)


def _shim(rec: SpanRecorder, original: Callable, name: str, hot: bool,
          hook: Callable | None) -> Callable:
    enter, leave = rec.enter, rec.leave

    def shim(*args: Any, **kwargs: Any) -> Any:
        frame = enter(name, hot)
        if not hot:
            instance = getattr(args[0], "instance_id", "") if args else ""
            if isinstance(instance, str) and instance and not rec.key.endswith(instance):
                frame[5] = f"{rec.key}/{instance}"
        try:
            result = original(*args, **kwargs)
        finally:
            leave(frame)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return shim


@contextmanager
def instrumented(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every probe for the duration of the block."""
    installed: list[tuple[Any, str, Any]] = []
    try:
        for module_name, owner_name, attr, name, hot, hook in PROBES:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            installed.append((owner, attr, original))
            setattr(owner, attr, _shim(rec, original, name, hot, hook))
        yield rec
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Per-layer metrics: span names and counters -> the glossary's names.
# ----------------------------------------------------------------------
#: metric -> span names whose self time it sums.
SELF_TIME = {
    "dbsim.step_s": ("dbsim.step",),
    "dbsim.lock_s": ("dbsim.lock",),
    "dbsim.finish_s": ("dbsim.finish",),
    "workload.rates_s": ("workload.rates",),
    "collection.collect_s": ("collection.collect",),
    "collection.poll_s": ("collection.poll",),
    "collection.publish_s": ("collection.publish",),
    "collection.drain_s": ("collection.drain",),
    "collection.ingest_s": ("collection.ingest",),
    "collection.window_s": ("collection.window",),
    "collection.aggregate_s": ("collection.aggregate",),
    "detection.poll_s": ("detection.poll",),
    "detection.classify_s": ("detection.classify",),
    "core.analyze_s": ("core.analyze",),
    "core.session_estimation_s": ("core.session_estimation",),
    "core.hsql_s": ("core.hsql",),
    "core.rsql_s": ("core.rsql",),
    "core.baselines_s": ("core.baselines",),
    "core.report_s": ("core.report",),
    "repair.plan_s": ("repair.plan",),
    "sqlanalysis.template_s": ("sqlanalysis.template",),
    "sqlanalysis.workload_s": ("sqlanalysis.workload",),
    "fleet.step_s": ("fleet.step",),
    "fleet.engine_step_s": ("fleet.engine_step",),
    "incidents.record_s": ("incidents.record",),
    "health.sweep_s": ("health.sweep",),
    "evaluation.generate_s": ("evaluation.generate",),
}

#: metric -> span names whose inclusive time (children included) it sums.
TOTAL_TIME = {
    "core.analyze_total_s": ("core.analyze",),
}

#: metric -> span names whose call count it sums.
CALLS = {
    "dbsim.steps": ("dbsim.step",),
    "dbsim.lock_calls": ("dbsim.lock",),
    "workload.rates_calls": ("workload.rates",),
    "collection.window_calls": ("collection.window",),
    "detection.polls": ("detection.poll",),
    "core.analyses": ("core.analyze",),
    "repair.plans": ("repair.plan",),
    "fleet.engine_steps": ("fleet.engine_step",),
}

#: Counters filled by probe hooks or read from the program's own reports.
COUNTS = (
    "dbsim.rows",
    "collection.published_msgs",
    "collection.published_bytes",
    "collection.ingest_rows",
    "collection.quarantined",
    "collection.offset_resyncs",
    "detection.events",
    "fleet.diagnoses",
    "incidents.records",
    "incidents.bytes",
    "health.sweeps",
    "health.findings",
    "chaos.faults_injected",
    "resilience.worker_restarts",
)

#: Counts that must repeat exactly for a fixed seed (choosing-metrics §8).
EXACT_COUNTS = (
    "dbsim.rows",
    "dbsim.lock_calls",
    "collection.published_bytes",
    "collection.quarantined",
    "fleet.diagnoses",
    "incidents.records",
    "core.analyses",
)


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Every per-layer metric (time in seconds of self time, or a count)."""
    self_time, total_time, calls = rec.self_time(), rec.total_time(), rec.calls()
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(self_time.get(n, 0.0) for n in names)
    for metric, names in TOTAL_TIME.items():
        out[metric] = sum(total_time.get(n, 0.0) for n in names)
    for metric, names in CALLS.items():
        out[metric] = sum(calls.get(n, 0) for n in names)
    for metric in COUNTS:
        out[metric] = rec.counts.get(metric, 0)
    return out


def count_snapshot(rec: SpanRecorder) -> dict[str, int]:
    """The exact-repeat counts as they stand now."""
    layers = layer_metrics(rec)
    return {m: int(layers[m]) for m in EXACT_COUNTS}

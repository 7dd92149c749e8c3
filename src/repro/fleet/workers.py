"""Fleet work items on the columnar dataplane, run inline or in workers.

Every sharded fleet run (:func:`~repro.fleet.sharded.run_sharded`) is a
list of instance-sized work items executed by
:func:`execute_work_item`, either inline or in a pool of worker
processes:

- An :class:`InstanceFeed` is *columnarised* into a :class:`BlockFeed`
  — encoded :class:`~repro.collection.blocks.QueryLogBlock` /
  :class:`~repro.collection.blocks.MetricBlock` frames (plain
  ``bytes``, trivially picklable) plus whatever legacy records could
  not be converted (they keep flowing through the old wire format and
  its quarantine).
- A :class:`PersistentWorkerPool` with one process executes the
  :class:`WorkItem` units (one instance each) inline, one after the
  other.  With more, it spawns long-lived worker processes once and
  feeds them through per-worker task queues.  Workers *pull* their next
  item when the previous one completes; the parent keeps exactly one
  item in flight per worker.
- Supervision lives in the parent: an item that raises (inline, or in
  a worker) or whose worker process dies (chaos ``worker_crash`` or a
  real fault; the process is respawned) is resubmitted with a bumped
  attempt, bounded by ``max_restarts``; an item that keeps failing is
  abandoned (zero diagnoses, counted into
  ``fleet_worker_failures_total``) instead of failing the fleet run.
- Observability crosses the process boundary: each item runs against a
  *private* registry and ships its finished diagnosis spans plus a
  registry snapshot back over the result channel (a clean per-item
  delta — persistent workers never double-count across items).  The
  parent adopts the spans into its tracer and folds the snapshot into
  its registry, so ``repro obs`` shows one fleet-wide view; an item
  whose process dies before shipping is counted into
  ``span_export_dropped_total`` and replaced by a synthetic
  ``fleet.worker_crash`` span linked to the feed's trace context.

Worker routing uses the same
:func:`~repro.fleet.scheduler.stable_shard` hash as the thread-pool
scheduler, so each incident directory (``shard-NN``) keeps a single
writer at any moment.
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.collection.blocks import (
    BlockDecodeError,
    MetricBlock,
    QueryLogBlock,
    decode_block,
    encode_block,
    metric_block_from_records,
    query_block_from_batches,
    split_query_block,
)
from repro.collection.collector import DEFAULT_BLOCK_ROWS, METRIC_TOPIC, QUERY_TOPIC
from repro.collection.quarantine import (
    quarantine,
    validate_metric_record,
    validate_query_record,
)
from repro.collection.stream import Broker, instance_topic
from repro.dbsim.query import SecondBatch
from repro.fleet.engine import ServiceConfig
from repro.fleet.scheduler import stable_shard
from repro.fleet.service import FleetConfig, FleetDiagnosisService
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    TraceContext,
    Tracer,
    get_logger,
    get_registry,
    get_tracer,
)

if TYPE_CHECKING:  # pragma: no cover - chaos wraps fleet, import lazily
    from repro.chaos.plan import FaultPlan

_log = get_logger("fleet")

__all__ = [
    "BlockFeed",
    "PersistentWorkerPool",
    "WorkItem",
    "block_feed_from_broker",
    "columnarize_feed",
    "execute_work_item",
]

#: Exit code a worker uses for a chaos-injected hard crash.
_CRASH_EXIT_CODE = 17


@dataclass
class BlockFeed:
    """One instance's collected streams as encoded columnar frames.

    ``query_payloads`` / ``metric_payloads`` hold
    :func:`~repro.collection.blocks.encode_block` frames — plain bytes,
    so shipping a feed to a worker process pickles a handful of
    buffers instead of thousands of per-record dicts.  Records that
    could not be columnarised (malformed, foreign shapes) ride along
    in ``query_records`` / ``metric_records`` and replay through the
    legacy wire format, where validation quarantines them exactly as
    before.
    """

    instance_id: str
    query_payloads: list[bytes] = field(default_factory=list)
    metric_payloads: list[bytes] = field(default_factory=list)
    query_records: list[tuple] = field(default_factory=list)
    metric_records: list[tuple] = field(default_factory=list)
    #: Trace context of the first stamped block in the feed — the
    #: publish span the worker's diagnosis spans parent under.  Kept on
    #: the feed (not just in block headers) so the parent can link a
    #: synthetic crash span to the trace when a worker dies before
    #: shipping any spans of its own.
    trace: TraceContext | None = None
    #: Raw SQL exemplars for the instance's templates, so the worker's
    #: engine runs the same static analysis the in-process path gets
    #: from ``register_statement``.
    statements: list[str] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        """Encoded payload bytes shipped for this feed."""
        return sum(len(p) for p in self.query_payloads) + sum(
            len(p) for p in self.metric_payloads
        )

    @property
    def n_blocks(self) -> int:
        return len(self.query_payloads) + len(self.metric_payloads)


def columnarize_feed(feed: Any, block_rows: int = DEFAULT_BLOCK_ROWS) -> "BlockFeed":
    """Convert an :class:`~repro.fleet.sharded.InstanceFeed` to blocks.

    Valid legacy records are gathered into columnar blocks (row-bounded
    by ``block_rows``); records already carried as blocks are re-encoded
    as-is.  Anything unconvertible stays a legacy record so the replay
    path can quarantine it.
    """
    out = BlockFeed(instance_id=feed.instance_id)
    batches: list[SecondBatch] = []
    for key, value in feed.query_records:
        if isinstance(value, QueryLogBlock):
            out.query_payloads.append(encode_block(value))
            if out.trace is None and value.trace is not None:
                out.trace = value.trace
        elif validate_query_record(value) is None:
            batches.append(
                SecondBatch(
                    sql_id=str(value["sql_id"]),
                    arrive_ms=np.asarray(value["arrive_ms"], dtype=np.int64),
                    response_ms=np.asarray(value["response_ms"], dtype=np.float64),
                    examined_rows=np.asarray(
                        value["examined_rows"], dtype=np.float64
                    ),
                )
            )
        else:
            out.query_records.append((key, value))
    if batches:
        block = query_block_from_batches(batches, instance=feed.instance_id)
        out.query_payloads.extend(
            encode_block(piece) for piece in split_query_block(block, block_rows)
        )
    metric_dicts: list[dict] = []
    for key, value in feed.metric_records:
        if isinstance(value, MetricBlock):
            out.metric_payloads.append(encode_block(value))
            if out.trace is None and value.trace is not None:
                out.trace = value.trace
        elif validate_metric_record(value) is None:
            metric_dicts.append(dict(value))
        else:
            out.metric_records.append((key, value))
    if metric_dicts:
        out.metric_payloads.append(
            encode_block(
                metric_block_from_records(metric_dicts, instance=feed.instance_id)
            )
        )
    return out


def block_feed_from_broker(
    broker: Broker, instance_id: str, block_rows: int = DEFAULT_BLOCK_ROWS
) -> "BlockFeed":
    """Capture an instance's topic partitions as a columnar feed."""
    from repro.fleet.sharded import feed_from_broker

    return columnarize_feed(feed_from_broker(broker, instance_id), block_rows)


@dataclass
class WorkItem:
    """One pull-scheduled unit of fleet work: diagnose one instance."""

    feed: BlockFeed
    config: ServiceConfig | None = None
    #: Incident store directory of the *worker* this item routes to
    #: (``shard-NN``) — JSONL segments are single-writer, and routing
    #: by :func:`stable_shard` keeps one live writer per directory.
    incident_dir: str | None = None
    fault_plan: "FaultPlan | None" = None
    shard_key: str = "shard-00"
    attempt: int = 0

    @property
    def scope(self) -> str:
        """Stable identity the chaos crash decision keys on."""
        return f"{self.shard_key}/{self.feed.instance_id}"


def _export_envelope(
    service: FleetDiagnosisService,
    registry: MetricsRegistry,
    counts: dict[str, int] | None,
) -> dict[str, Any]:
    """The result-channel payload of one work item.

    ``spans`` are the finished diagnosis traces of every engine (plain
    dicts via :func:`~repro.telemetry.span_to_dict`); ``telemetry`` is
    the item's private-registry snapshot — a delta the parent folds in
    with :meth:`~repro.telemetry.MetricsRegistry.merge_snapshot`.
    """
    spans: list[dict[str, Any]] = []
    for instance_id in service.instance_ids:
        spans.extend(service.engine(instance_id).tracer.export_roots(clear=True))
    return {
        "counts": counts or {},
        "spans": spans,
        "telemetry": registry.snapshot(),
    }


def execute_work_item(
    item: WorkItem, registry: MetricsRegistry | None = None
) -> dict[str, Any]:
    """Diagnose one work item in-process; returns its export envelope.

    The body of every pool item, inline or in a worker: rebuild a
    broker, replay the feed's columnar frames (and legacy leftovers)
    through it — via the chaos facade when a fault plan is armed, so
    drop/corrupt/skew and friends apply to batch messages — and drain a
    single-instance fleet service over the result.

    Everything runs against a private registry (unless one is passed),
    so the returned snapshot is a clean per-item delta and the parent's
    repeated merges never double-count a persistent worker's history.
    A drain that raises still attaches the partial envelope to the
    exception (``partial_export``) so the pool can flush the spans
    completed before the failure.
    """
    registry = registry if registry is not None else MetricsRegistry()
    broker = Broker(registry=registry)
    publish_broker: Any = broker
    fault_hook = None
    chaos_broker = None
    if item.fault_plan is not None:
        from repro.chaos.injector import FaultInjector, InjectedWorkerCrash

        injector = FaultInjector(item.fault_plan)
        if injector.should_crash_shard(item.scope, item.attempt):
            raise InjectedWorkerCrash(
                f"injected crash of {item.scope} (attempt {item.attempt})"
            )
        chaos_broker = injector.wrap_broker(broker)
        publish_broker = chaos_broker
        fault_hook = injector.fleet_hook()
    recorder = None
    if item.incident_dir is not None:
        from repro.incidents import IncidentRecorder, IncidentStore

        recorder = IncidentRecorder(IncidentStore(item.incident_dir))
    service = FleetDiagnosisService(
        broker,
        config=FleetConfig(service=item.config or ServiceConfig(), workers=1),
        registry=registry,
        recorder=recorder,
        fault_hook=fault_hook,
    )
    feed = item.feed
    engine = service.register_instance(feed.instance_id)
    if feed.trace is not None:
        # Legacy-record-only feeds carry no per-block context; the
        # feed-level one still parents the worker's diagnosis spans.
        engine.tracer.set_remote_parent(feed.trace)
    for statement in feed.statements:
        engine.register_statement(statement)
    dispatch_lag = registry.histogram(
        "pipeline_lag_seconds",
        help="Block age per pipeline stage (publish wall-time to now).",
        buckets=DEFAULT_LATENCY_BUCKETS,
        stage="dispatch",
        instance=feed.instance_id,
    )
    query_topic = instance_topic(QUERY_TOPIC, feed.instance_id)
    metric_topic = instance_topic(METRIC_TOPIC, feed.instance_id)
    for topic, payloads in (
        (query_topic, feed.query_payloads),
        (metric_topic, feed.metric_payloads),
    ):
        for payload in payloads:
            try:
                block = decode_block(payload)
            except BlockDecodeError as exc:
                quarantine(broker, topic, payload, f"undecodable_block:{exc}")
                continue
            if block.created_unix:
                dispatch_lag.observe(max(0.0, time.time() - block.created_unix))
            publish_broker.publish_block(topic, block)
    for key, value in feed.query_records:
        publish_broker.publish(query_topic, key, value)
    for key, value in feed.metric_records:
        publish_broker.publish(metric_topic, key, value)
    if chaos_broker is not None:
        chaos_broker.flush()
    try:
        service.run_until_drained()
    except BaseException as exc:
        exc.partial_export = _export_envelope(service, registry, counts=None)  # type: ignore[attr-defined]
        raise
    counts = {
        instance_id: len(service.diagnoses_for(instance_id))
        for instance_id in service.instance_ids
    }
    return _export_envelope(service, registry, counts=counts)


def _worker_main(worker_idx: int, task_queue: Any, result_queue: Any) -> None:
    """Long-lived worker loop: pull an item, process, report, repeat.

    A chaos-injected crash kills the *process* (``os._exit``) so the
    parent's supervision — respawn plus resubmission of the unfinished
    item — is exercised for real, not simulated by an exception.
    """
    while True:
        item = task_queue.get()
        if item is None:
            return
        try:
            export = execute_work_item(item)
        except BaseException as exc:  # noqa: BLE001 - worker must not die silently
            from repro.chaos.injector import InjectedWorkerCrash

            if isinstance(exc, InjectedWorkerCrash):
                os._exit(_CRASH_EXIT_CODE)
            # Ship whatever the item completed before failing: the
            # parent flushes these spans during the supervised restart
            # instead of losing the whole trace.
            result_queue.put(
                (
                    "error",
                    worker_idx,
                    item.feed.instance_id,
                    {
                        "error": repr(exc),
                        "export": getattr(exc, "partial_export", None),
                    },
                )
            )
            continue
        result_queue.put(("done", worker_idx, item.feed.instance_id, export))


class PersistentWorkerPool:
    """A fixed set of long-lived worker processes pulling work items.

    With ``processes == 1`` there is no worker process: items run
    inline through :func:`execute_work_item`, under the same
    supervision and accounting.  Otherwise workers stay alive across
    items and pull the next one only when the previous completes — the
    parent keeps exactly one item in flight per worker, so a crash
    loses at most one item and restart resubmission is precise.  Items
    route to workers by ``stable_shard(instance_id, processes)``; pass
    items whose ``incident_dir``/``shard_key`` follow the same hash (as
    :func:`repro.fleet.sharded.run_sharded` does) to keep incident
    stores single-writer.
    """

    def __init__(
        self,
        processes: int,
        max_restarts: int = 2,
        registry: MetricsRegistry | None = None,
        poll_interval_s: float = 0.2,
        tracer: Tracer | None = None,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = int(processes)
        self.max_restarts = int(max_restarts)
        self.registry = registry or get_registry()
        self.poll_interval_s = float(poll_interval_s)
        #: Receives the spans workers ship back; defaults to the
        #: process tracer so ``repro obs`` shows the fleet-wide tree.
        if tracer is not None:
            self.tracer = tracer
        elif registry is None:
            self.tracer = get_tracer()
        else:
            self.tracer = Tracer(registry=self.registry)

    # -- telemetry -----------------------------------------------------
    def _count_item(self, status: str) -> None:
        self.registry.counter(
            "fleet_work_items_total",
            help="Work items through the persistent pool, by outcome.",
            status=status,
        ).inc()

    def _count_bytes(self, nbytes: int) -> None:
        self.registry.counter(
            "fleet_shard_bytes_shipped_total",
            help="Encoded block bytes shipped to shard workers.",
        ).inc(nbytes)

    def _count_restart(self, shard_key: str) -> None:
        self.registry.counter(
            "fleet_worker_restarts_total",
            help="Supervised restarts of crashed fleet worker steps.",
            instance=shard_key,
        ).inc()

    def _count_failure(self, instance_id: str) -> None:
        self.registry.counter(
            "fleet_worker_failures_total",
            help="Instance steps abandoned after exhausting "
            "supervised restarts.",
            instance=instance_id,
        ).inc()

    # -- cross-process observability ----------------------------------
    def _merge_export(self, export: Any) -> None:
        """Fold a worker's export envelope into the parent's view."""
        if not isinstance(export, dict):
            return
        spans = export.get("spans")
        if spans:
            adopted = self.tracer.adopt(spans)
            if adopted:
                self.registry.counter(
                    "fleet_spans_imported_total",
                    help="Spans adopted from shard worker processes.",
                ).inc(adopted)
        snapshot = export.get("telemetry")
        if isinstance(snapshot, dict):
            self.registry.merge_snapshot(snapshot)

    def _flush_crashed_item(self, item: WorkItem, exitcode: Any) -> None:
        """Account for spans lost with a dead worker process.

        The spans themselves are unrecoverable (the process died before
        shipping), so the loss is counted and a synthetic error span —
        linked to the feed's trace context when it has one — keeps the
        crash visible in the fleet span tree.
        """
        self.registry.counter(
            "span_export_dropped_total",
            help="Work items whose worker died before exporting spans.",
            instance=item.feed.instance_id,
        ).inc()
        attrs: dict[str, Any] = {
            "status": "error",
            "error": "worker_crash",
            "instance": item.feed.instance_id,
            "shard": item.shard_key,
            "exitcode": exitcode,
        }
        if item.feed.trace is not None:
            attrs["trace_id"] = item.feed.trace.trace_id
            attrs["parent_span_id"] = item.feed.trace.span_id
        self.tracer.adopt(
            [{"name": "fleet.worker_crash", "elapsed": None,
              "attrs": attrs, "children": []}]
        )

    # -- run loop ------------------------------------------------------
    def run(self, items: list[WorkItem]) -> dict[str, int]:
        """Process every item; returns merged diagnosis counts."""
        if not items:
            return {}
        for item in items:
            self._count_bytes(item.feed.nbytes)
        if self.processes == 1:
            return self._run_inline(items)
        import multiprocessing

        ctx = multiprocessing.get_context()
        n = self.processes
        pending: list[deque[WorkItem]] = [deque() for _ in range(n)]
        for item in items:
            pending[stable_shard(item.feed.instance_id, n)].append(item)
        result_queue = ctx.Queue()
        task_queues: dict[int, Any] = {}
        workers: dict[int, Any] = {}
        inflight: dict[int, WorkItem | None] = {}
        for idx in range(n):
            if not pending[idx]:
                continue
            task_queues[idx] = ctx.Queue()
            workers[idx] = ctx.Process(
                target=_worker_main,
                args=(idx, task_queues[idx], result_queue),
                daemon=True,
            )
            workers[idx].start()
            inflight[idx] = None
            self._submit(idx, task_queues, pending, inflight)
        merged: dict[str, int] = {}
        remaining = len(items)
        while remaining > 0:
            try:
                kind, idx, _, payload = result_queue.get(
                    timeout=self.poll_interval_s
                )
            except queue_mod.Empty:
                remaining -= self._sweep_dead_workers(
                    ctx, result_queue, task_queues, workers, pending, inflight, merged
                )
                continue
            if kind == "done":
                merged.update(payload.get("counts", {}))
                self._merge_export(payload)
                self._count_item("completed")
                inflight[idx] = None
                remaining -= 1
                self._submit(idx, task_queues, pending, inflight)
            elif kind == "error":
                item = inflight[idx]
                inflight[idx] = None
                if item is not None:
                    remaining -= self._item_failed(idx, item, payload, pending, merged)
                self._submit(idx, task_queues, pending, inflight)
        for idx, task_queue in task_queues.items():
            worker = workers.get(idx)
            if worker is not None and worker.is_alive():
                task_queue.put(None)
        for worker in workers.values():
            worker.join(timeout=5)
            if worker.is_alive():  # pragma: no cover - orderly shutdown backstop
                worker.terminate()
                worker.join(timeout=5)
        return merged

    def _run_inline(self, items: list[WorkItem]) -> dict[str, int]:
        """Execute every item in this process, supervised like the pool.

        An item that raises — a chaos ``InjectedWorkerCrash`` included —
        takes the same path as a worker's error report.
        """
        pending: list[deque[WorkItem]] = [deque(items)]
        merged: dict[str, int] = {}
        while pending[0]:
            item = pending[0].popleft()
            self._count_item("submitted")
            try:
                export = execute_work_item(item)
            except Exception as exc:
                partial = getattr(exc, "partial_export", None)
                report = {"error": repr(exc), "export": partial}
                self._item_failed(0, item, report, pending, merged)
                continue
            merged.update(export["counts"])
            self._merge_export(export)
            self._count_item("completed")
        return merged

    def _item_failed(
        self,
        idx: int,
        item: WorkItem,
        payload: Any,
        pending: list[deque[WorkItem]],
        merged: dict[str, int],
    ) -> int:
        """Log a failed item, flush its partial spans, requeue or abandon."""
        _log.warning(
            "work item failed",
            extra={
                "worker": idx,
                "instance": item.feed.instance_id,
                "error": payload.get("error") if isinstance(payload, dict) else payload,
            },
        )
        if isinstance(payload, dict):
            # Flush the spans the item completed before failing.
            self._merge_export(payload.get("export"))
        return self._requeue_or_abandon(idx, item, pending, merged)

    def _submit(
        self,
        idx: int,
        task_queues: dict[int, Any],
        pending: list[deque[WorkItem]],
        inflight: dict[int, WorkItem | None],
    ) -> None:
        if inflight.get(idx) is None and pending[idx]:
            item = pending[idx].popleft()
            inflight[idx] = item
            task_queues[idx].put(item)
            self._count_item("submitted")

    def _requeue_or_abandon(
        self,
        idx: int,
        item: WorkItem,
        pending: list[deque[WorkItem]],
        merged: dict[str, int],
    ) -> int:
        """Resubmit a failed item (attempt bumped) or abandon it.

        Returns 1 when the item is finished (abandoned) so the caller
        can decrement its remaining count, 0 when it was requeued.
        """
        if item.attempt >= self.max_restarts:
            _log.warning(
                "work item failed after supervised restarts; abandoning",
                extra={"shard": item.shard_key, "instance": item.feed.instance_id},
            )
            merged[item.feed.instance_id] = 0
            self._count_failure(item.feed.instance_id)
            self._count_item("abandoned")
            return 1
        pending[idx].appendleft(replace(item, attempt=item.attempt + 1))
        self._count_restart(item.shard_key)
        self._count_item("resubmitted")
        return 0

    def _sweep_dead_workers(
        self,
        ctx: Any,
        result_queue: Any,
        task_queues: dict[int, Any],
        workers: dict[int, Any],
        pending: list[deque[WorkItem]],
        inflight: dict[int, WorkItem | None],
        merged: dict[str, int],
    ) -> int:
        """Respawn dead workers, resubmitting their unfinished item.

        Returns how many items were finished (abandoned) during the
        sweep so the run loop can decrement its remaining count.
        """
        finished = 0
        for idx in list(workers):
            worker = workers[idx]
            if worker.is_alive():
                continue
            worker.join()
            item = inflight.get(idx)
            inflight[idx] = None
            _log.warning(
                "persistent worker died; respawning",
                extra={
                    "worker": idx,
                    "exitcode": worker.exitcode,
                    "instance": item.feed.instance_id if item else None,
                },
            )
            if item is not None:
                self._flush_crashed_item(item, worker.exitcode)
                finished += self._requeue_or_abandon(idx, item, pending, merged)
            if not pending[idx]:
                del workers[idx]
                del task_queues[idx]
                continue
            task_queues[idx] = ctx.Queue()
            workers[idx] = ctx.Process(
                target=_worker_main,
                args=(idx, task_queues[idx], result_queue),
                daemon=True,
            )
            workers[idx].start()
            self._submit(idx, task_queues, pending, inflight)
        return finished

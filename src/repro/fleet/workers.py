"""Fleet work items on the columnar dataplane, run inline or in workers.

Every sharded fleet run (:func:`~repro.fleet.sharded.run_sharded`) is a
list of instance-sized work items executed by
:func:`execute_work_item`, either inline or one process per item:

- A :class:`BlockFeed` holds one instance's collected streams as the
  :class:`~repro.collection.blocks.QueryLogBlock` /
  :class:`~repro.collection.blocks.MetricBlock` objects themselves
  (read-only rows, picklable), at whichever grain the collectors
  shipped them.
- A :class:`WorkerPool` with one process executes the
  :class:`WorkItem` units (one instance each) inline, one after the
  other.  With more, it runs one process per work item, at most
  ``processes`` at once: the child gets its item by fork inheritance
  (or pickled, under the spawn start method) and sends its outcome
  back down a one-way pipe, which the parent waits on with
  :func:`multiprocessing.connection.wait`.
- Supervision lives in the parent: an item that raises (inline, or in
  a child) or whose process dies (chaos ``worker_crash`` or a real
  fault; seen as EOF on its pipe) is resubmitted with a bumped
  attempt, bounded by ``max_restarts``; an item that keeps failing is
  abandoned (zero diagnoses, counted into
  ``fleet_worker_failures_total``) instead of failing the fleet run.
- Observability crosses the process boundary: each item runs against a
  *private* registry and ships its finished diagnosis spans plus a
  registry snapshot back over its pipe (a clean per-item delta).  The
  parent adopts the spans into its tracer and folds the snapshot into
  its registry, so ``repro obs`` shows one fleet-wide view; an item
  whose process dies before shipping is counted into
  ``span_export_dropped_total`` and replaced by a synthetic
  ``fleet.worker_crash`` span linked to the feed's trace context.

The pool routes each item to shard ``stable_shard(instance_id, n)``,
the same index :func:`~repro.fleet.sharded.run_sharded` names the
item's incident directory (``shard-NN``) by, and keeps at most one item
per shard in flight, so each directory has a single writer at any
moment.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from hashlib import blake2b
from typing import TYPE_CHECKING, Any, Iterator

from repro.collection.blocks import MetricBlock, QueryLogBlock
from repro.collection.collector import METRIC_TOPIC, QUERY_TOPIC
from repro.collection.stream import Broker, instance_topic
from repro.fleet.engine import ServiceConfig
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
    "WorkItem",
    "WorkerPool",
    "execute_work_item",
    "stable_shard",
]

#: Exit code a worker uses for a chaos-injected hard crash.
_CRASH_EXIT_CODE = 17


# blake2b, not the per-process-randomised builtin ``hash``: the parent
# and every worker process must derive the same placement.
def stable_shard(instance_id: str, n_shards: int) -> int:
    """Deterministic shard index in ``[0, n_shards)`` for an instance."""
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    digest = blake2b(instance_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


@dataclass
class BlockFeed:
    """One instance's collected streams as columnar blocks.

    ``query_blocks`` / ``metric_blocks`` hold the captured blocks in
    publish order; their row arrays are read-only, so a feed replayed
    many times (chaos fault classes, fuzz mutants) is never changed by
    a replay.  Shipping a feed to a worker process pickles the blocks.
    """

    instance_id: str
    query_blocks: list[QueryLogBlock] = field(default_factory=list)
    metric_blocks: list[MetricBlock] = field(default_factory=list)
    #: Trace context of the first stamped block in the feed — the
    #: publish span the worker's diagnosis spans parent under.  Kept on
    #: the feed (not just on its blocks) so the parent can link a
    #: synthetic crash span to the trace when a worker dies before
    #: shipping any spans of its own.
    trace: TraceContext | None = None
    #: Raw SQL exemplars for the instance's templates, so the worker's
    #: engine runs the same static analysis the in-process path gets
    #: from ``register_statement``.
    statements: list[str] = field(default_factory=list)

    @classmethod
    def from_broker(cls, broker: Broker, instance_id: str) -> "BlockFeed":
        """Capture the blocks on an instance's topic partitions."""
        feed = cls(instance_id=instance_id)
        for base, blocks in (
            (QUERY_TOPIC, feed.query_blocks),
            (METRIC_TOPIC, feed.metric_blocks),
        ):
            for message in broker.read(instance_topic(base, instance_id), 0, 1 << 31):
                # A read-only view: the broker's own block stays as it was.
                rows = message.value.data.view()
                rows.flags.writeable = False
                blocks.append(message.value.with_rows(rows))
                if feed.trace is None:
                    feed.trace = message.value.trace
        return feed

    def unstamped(self) -> "BlockFeed":
        """The feed without its blocks' tracing envelopes: a recording,
        stamped afresh by each publish that replays it."""
        return replace(
            self,
            query_blocks=[b.stamped(None, 0.0) for b in self.query_blocks],
            metric_blocks=[b.stamped(None, 0.0) for b in self.metric_blocks],
            trace=None,
        )

    def iter_blocks(self) -> Iterator[tuple[str, QueryLogBlock | MetricBlock]]:
        """The blocks in publish order (query blocks first) as
        ``(topic, block)``."""
        for base, blocks in (
            (QUERY_TOPIC, self.query_blocks),
            (METRIC_TOPIC, self.metric_blocks),
        ):
            topic = instance_topic(base, self.instance_id)
            for block in blocks:
                yield topic, block

    @property
    def nbytes(self) -> int:
        """Row bytes shipped for this feed."""
        return sum(getattr(b, "nbytes", 0) for _, b in self.iter_blocks())

    @property
    def n_blocks(self) -> int:
        return len(self.query_blocks) + len(self.metric_blocks)


@dataclass
class WorkItem:
    """One unit of fleet work: diagnose one instance."""

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
    broker, replay the feed's columnar blocks through it — via the
    chaos facade when a fault plan is armed, so the row faults apply —
    and drain a single-instance fleet service over the result.

    Everything runs against a private registry (unless one is passed),
    so the returned snapshot is a clean per-item delta and the parent's
    repeated merges never double-count.
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

        injector = FaultInjector(item.fault_plan, registry=registry)
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
        config=FleetConfig(service=item.config or ServiceConfig()),
        registry=registry,
        recorder=recorder,
        fault_hook=fault_hook,
    )
    feed = item.feed
    engine = service.register_instance(feed.instance_id)
    if feed.trace is not None:
        # Parent the worker's diagnosis spans before the first block
        # arrives with its own context.
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
    for topic, block in feed.iter_blocks():
        # Anything else is not a block: publish_block quarantines it.
        created_unix = getattr(block, "created_unix", 0.0)
        if created_unix:
            dispatch_lag.observe(max(0.0, time.time() - created_unix))
        publish_broker.publish_block(topic, block)
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


def _run_item(item: WorkItem, conn: Any) -> None:
    """Child-process body: run one item, send its outcome down ``conn``.

    Sends ``("done", envelope)`` or ``("error", {error, export})``.  A
    chaos-injected crash kills the *process* (``os._exit``) instead, so
    the parent's supervision sees a real death — EOF on the pipe and
    the child's exit code — not an exception it could catch.
    """
    try:
        message: tuple[str, Any] = ("done", execute_work_item(item))
    except Exception as exc:
        from repro.chaos.injector import InjectedWorkerCrash

        if isinstance(exc, InjectedWorkerCrash):
            os._exit(_CRASH_EXIT_CODE)
        # Ship whatever the item completed before failing: the parent
        # flushes these spans during the supervised restart instead of
        # losing the whole trace.
        message = (
            "error",
            {"error": repr(exc), "export": getattr(exc, "partial_export", None)},
        )
    conn.send(message)
    conn.close()


class WorkerPool:
    """Runs work items one process each, at most ``processes`` at once.

    With ``processes == 1`` there is no child process: items run
    inline through :func:`execute_work_item`, under the same
    supervision and accounting.  Otherwise every item gets its own
    child process and a one-way pipe back; each shard keeps at most one
    item in flight, so a crash loses at most one item and restart
    resubmission is precise.  Items route to shards by
    ``stable_shard(instance_id, processes)``; pass items whose
    ``incident_dir``/``shard_key`` follow the same hash (as
    :func:`repro.fleet.sharded.run_sharded` does) to keep incident
    stores single-writer.
    """

    def __init__(
        self,
        processes: int,
        max_restarts: int = 2,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = int(processes)
        self.max_restarts = int(max_restarts)
        self.registry = registry or get_registry()
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
            help="Work items through the fleet worker pool, by outcome.",
            status=status,
        ).inc()

    def _count_bytes(self, nbytes: int) -> None:
        self.registry.counter(
            "fleet_shard_bytes_shipped_total",
            help="Block row bytes shipped to shard workers.",
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
        from multiprocessing.connection import wait

        # np.median's first call imports numpy.ma: pay that here, not per child.
        import numpy.ma  # noqa: F401
        ctx = multiprocessing.get_context()
        n = self.processes
        pending: list[deque[WorkItem]] = [deque() for _ in range(n)]
        for item in items:
            pending[stable_shard(item.feed.instance_id, n)].append(item)
        # Read end of each live child's pipe -> (shard, item, process).
        running: dict[Any, tuple[int, WorkItem, Any]] = {}

        def start(idx: int) -> None:
            if not pending[idx]:
                return
            item = pending[idx].popleft()
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_item, args=(item, writer), daemon=True)
            proc.start()
            # Only the child holds the write end now: its death is EOF.
            writer.close()
            running[reader] = (idx, item, proc)
            self._count_item("submitted")

        for idx in range(n):
            start(idx)
        merged: dict[str, int] = {}
        while running:
            for reader in wait(list(running)):
                idx, item, proc = running.pop(reader)
                try:
                    kind, payload = reader.recv()
                except EOFError:
                    kind, payload = "crash", None
                reader.close()
                proc.join()
                if kind == "done":
                    merged.update(payload.get("counts", {}))
                    self._merge_export(payload)
                    self._count_item("completed")
                elif kind == "error":
                    self._item_failed(idx, item, payload, pending, merged)
                else:
                    _log.warning(
                        "worker process died",
                        extra={
                            "worker": idx,
                            "exitcode": proc.exitcode,
                            "instance": item.feed.instance_id,
                        },
                    )
                    self._flush_crashed_item(item, proc.exitcode)
                    self._requeue_or_abandon(idx, item, pending, merged)
                start(idx)
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
    ) -> None:
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
        self._requeue_or_abandon(idx, item, pending, merged)

    def _requeue_or_abandon(
        self,
        idx: int,
        item: WorkItem,
        pending: list[deque[WorkItem]],
        merged: dict[str, int],
    ) -> None:
        """Resubmit a failed item (attempt bumped) or abandon it."""
        if item.attempt >= self.max_restarts:
            _log.warning(
                "work item failed after supervised restarts; abandoning",
                extra={"shard": item.shard_key, "instance": item.feed.instance_id},
            )
            merged[item.feed.instance_id] = 0
            self._count_failure(item.feed.instance_id)
            self._count_item("abandoned")
        else:
            pending[idx].appendleft(replace(item, attempt=item.attempt + 1))
            self._count_restart(item.shard_key)
            self._count_item("resubmitted")

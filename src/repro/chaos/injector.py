"""The fault injector: wraps the substrate, injects per the plan.

Every decision is a pure hash of ``(seed, kind, scope, sequence)`` —
no shared RNG state — so injection is reproducible bit-for-bit
whichever order or process the fleet steps instances in.  Stream
faults decide per row: each published block gets one draw array per
fault kind, seeded from that hash.  The injector never touches the dead-letter topic:
quarantined evidence must survive the chaos that produced it.
"""

from __future__ import annotations

from fnmatch import fnmatch
from hashlib import blake2b
from typing import Any, Callable

import numpy as np

from repro.chaos.plan import FaultPlan, FaultSpec
from repro.collection.blocks import MetricBlock, QueryLogBlock
from repro.collection.stream import Broker, Consumer, Message
from repro.telemetry import MetricsRegistry, get_logger, get_registry

__all__ = [
    "ChaosBroker",
    "ChaosConsumer",
    "FaultInjector",
    "InjectedWorkerCrash",
    "InjectedWorkerHang",
]

_log = get_logger("chaos")

#: Topics the injector never touches (quarantine evidence must survive).
_EXEMPT_PREFIXES = ("dead_letter",)


class InjectedWorkerCrash(RuntimeError):
    """A chaos-injected crash of a fleet worker mid-step."""


class InjectedWorkerHang(RuntimeError):
    """A chaos-injected hang: the worker makes no progress this step."""


def _key(seed: int, *parts: object) -> int:
    key = "|".join(str(p) for p in (seed, *parts)).encode()
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "big")


def _uniform(seed: int, *parts: object) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from a hash of the parts."""
    return _key(seed, *parts) / 2.0 ** 64


def _draws(seed: int, n: int, *parts: object) -> np.ndarray:
    """``n`` deterministic uniforms in ``[0, 1)`` keyed on the parts."""
    return np.random.default_rng(_key(seed, *parts)).random(n)


def _take(block: Any, rows: np.ndarray) -> Any:
    """The block restricted to the rows selected by a boolean mask."""
    return block.with_rows(block.data[rows])


class FaultInjector:
    """Applies a :class:`FaultPlan` to brokers, consumers and workers."""

    def __init__(
        self, plan: FaultPlan, registry: MetricsRegistry | None = None
    ) -> None:
        self.plan = plan
        self.registry = registry or get_registry()
        #: Injected fault counts per kind (mirrors the telemetry counter).
        self.injected: dict[str, int] = {}
        #: :meth:`spec_for` answers per ``(kind, topic)``; the plan is frozen.
        self._specs: dict[tuple[str, str | None], FaultSpec | None] = {}

    # ------------------------------------------------------------------
    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        self.registry.counter(
            "chaos_faults_injected_total",
            help="Faults injected by the chaos plan, by kind.",
            kind=kind,
        ).inc()

    def spec_for(self, kind: str, topic: str | None = None) -> FaultSpec | None:
        """The armed spec for ``kind`` matching ``topic`` (if given)."""
        key = (kind, topic)
        if key not in self._specs:
            self._specs[key] = self._match(kind, topic)
        return self._specs[key]

    def _match(self, kind: str, topic: str | None) -> FaultSpec | None:
        if topic is not None and topic.startswith(_EXEMPT_PREFIXES):
            return None
        for spec in self.plan.specs:
            if spec.kind != kind:
                continue
            if topic is None or fnmatch(topic, spec.topic):
                return spec
        return None

    def hit(self, spec: FaultSpec, *scope: object) -> bool:
        """Deterministic injection decision for one unit of work."""
        return _uniform(self.plan.seed, spec.kind, *scope) < spec.rate

    def hits(self, spec: FaultSpec, n: int, *scope: object) -> np.ndarray:
        """Deterministic per-row injection mask for ``n`` rows of one unit."""
        return _draws(self.plan.seed, n, spec.kind, *scope) < spec.rate

    # ------------------------------------------------------------------
    # Substrate wrapping
    # ------------------------------------------------------------------
    def wrap_broker(self, broker: Broker) -> "ChaosBroker":
        return ChaosBroker(broker, self)

    # ------------------------------------------------------------------
    # Worker faults
    # ------------------------------------------------------------------
    def fleet_hook(self) -> Callable[[str], None]:
        """A per-step hook for :class:`FleetDiagnosisService`.

        Called with the instance id before each engine step; raises
        :class:`InjectedWorkerCrash` / :class:`InjectedWorkerHang` per
        the plan.  Crashes are bounded by the spec's ``max_crashes`` so
        supervised restarts can win; hangs stall the instance for
        ``hang_steps`` consecutive steps.
        """
        steps: dict[str, int] = {}
        crashes: dict[str, int] = {}
        hanging: dict[str, int] = {}

        def hook(instance_id: str) -> None:
            step = steps.get(instance_id, 0)
            steps[instance_id] = step + 1
            if hanging.get(instance_id, 0) > 0:
                hanging[instance_id] -= 1
                self._count("worker_hang")
                raise InjectedWorkerHang(instance_id)
            crash = self.spec_for("worker_crash")
            if crash is not None and crashes.get(instance_id, 0) < int(
                crash.param("max_crashes", 2)
            ):
                if self.hit(crash, instance_id, step):
                    crashes[instance_id] = crashes.get(instance_id, 0) + 1
                    self._count("worker_crash")
                    raise InjectedWorkerCrash(
                        f"injected crash on {instance_id} at step {step}"
                    )
            hang = self.spec_for("worker_hang")
            if hang is not None and self.hit(hang, "hang", instance_id, step):
                hanging[instance_id] = max(int(hang.param("hang_steps", 3)) - 1, 0)
                self._count("worker_hang")
                raise InjectedWorkerHang(instance_id)

        return hook

    def should_crash_shard(self, shard_key: str, attempt: int) -> bool:
        """Crash decision for a whole shard worker process.

        Bounded by ``max_crashes``: once a shard has been restarted that
        many times, later attempts run clean (the supervised-restart
        path must be able to converge).
        """
        spec = self.spec_for("worker_crash")
        if spec is None or attempt >= int(spec.param("max_crashes", 2)):
            return False
        if self.hit(spec, "shard", shard_key, attempt):
            self._count("worker_crash")
            return True
        return False

    # ------------------------------------------------------------------
    # Payload mutation
    # ------------------------------------------------------------------
    def corrupt(self, block: Any, draw: float) -> Any:
        """Deterministically mangle a block the way real pipelines do.

        Blocks are mangled column-wise (dictionary loss, NaN columns,
        out-of-range template indices, negative timestamps, emptied row
        arrays) — every mode is caught by the block validators and
        quarantined downstream.
        """
        if isinstance(block, QueryLogBlock):
            modes = ("drop_dictionary", "bad_template", "nan_column", "empty_rows")
        else:
            modes = ("drop_dictionary", "nan_value", "negative_timestamp", "empty_rows")
        mode = modes[int(draw * len(modes)) % len(modes)]
        if mode == "drop_dictionary":
            if isinstance(block, QueryLogBlock):
                return QueryLogBlock(
                    (), block.data, block.instance, (), block.trace, block.created_unix
                )
            return MetricBlock((), block.data, block.instance, block.trace, block.created_unix)
        if mode == "empty_rows":
            return block.with_rows(block.data[:0])
        data = block.data.copy()
        if len(data) == 0:
            return block.with_rows(data)
        victim = int(draw * 997) % len(data)
        if mode == "bad_template":
            data["template"][victim] = len(block.sql_ids) + 7
        elif mode == "nan_column":
            data["response_ms"][victim] = np.nan
        elif mode == "nan_value":
            data["value"][victim] = np.nan
        elif mode == "negative_timestamp":
            data["timestamp"][victim] = -1
        return block.with_rows(data)

    def skew(self, block: Any, skew_s: int, rows: np.ndarray | None = None) -> Any:
        """Shift the timestamps of ``rows`` (a boolean mask; every row by
        default) of a block by ``skew_s`` seconds."""
        data = block.data.copy()
        if isinstance(block, QueryLogBlock):
            column, shift = data["arrive_ms"], skew_s * 1000
        else:
            column, shift = data["timestamp"], skew_s
        if rows is None:
            column += shift
        else:
            column[rows] += shift
        return block.with_rows(data)


class ChaosBroker:
    """A :class:`Broker` facade that injects stream faults at publish.

    Row faults (drop / corrupt / clock skew / duplicate / late) act on
    the rows of each published block, so a fault hits a record, not a
    whole second of an instance's traffic; reordering shuffles a window
    of blocks.  Call :meth:`flush` once publishing is done so held
    blocks are not lost forever — an orderly shutdown, not a
    correctness crutch: flushed blocks still arrive far out of order.
    """

    def __init__(self, broker: Broker, injector: FaultInjector) -> None:
        self.inner = broker
        self.injector = injector
        self._seq: dict[str, int] = {}
        #: Per-topic held-back blocks: ``(release_seq, key, block, validated)``.
        self._held: dict[str, list[tuple[int, str, Any, bool]]] = {}
        #: Per-topic reorder buffers: ``(key, block, validated)``.
        self._buffers: dict[str, list[tuple[str, Any, bool]]] = {}

    # -- delegation ----------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    @property
    def registry(self) -> MetricsRegistry:
        return self.inner.registry

    def consumer(self, topic: str) -> "ChaosConsumer":
        return ChaosConsumer(self.inner.consumer(topic), self, topic)

    # -- fault pipeline ------------------------------------------------
    def publish(
        self, topic: str, key: str, value: Any, validated: bool = False
    ) -> Message:
        """Route one block through the fault pipeline.

        Each armed row fault draws one mask over the block's rows, keyed
        on ``(plan seed, kind, topic, seq)``: **drop** removes the hit
        rows; **corrupt** carves them into a block of their own and
        damages it (validation then quarantines exactly those rows);
        **clock_skew** shifts their timestamps by ``skew_s``;
        **duplicate** delivers them again in a second block; **late**
        holds them back for ``hold_messages`` publishes.  Payloads that
        are not blocks pass through untouched — consumers quarantine
        them as ``not_a_block``.

        ``validated`` is the verdict of :meth:`Broker.publish_block`.  A
        non-empty row subset of a valid block is valid, so the drop,
        duplicate and late remainders and the reorder pass-through keep
        it; corrupted and clock-skewed pieces lose it (a negative skew
        can push timestamps below zero), so consumers validate them.
        """
        if not isinstance(value, (QueryLogBlock, MetricBlock)):
            return self.inner.publish(topic, key, value, validated)
        inj = self.injector
        seq = self._seq.get(topic, 0)
        self._seq[topic] = seq + 1
        block, extra = value, []
        hit = self._hits("drop", topic, seq, block)
        if hit is not None:
            block = _take(block, ~hit)
        hit = self._hits("corrupt", topic, seq, block)
        if hit is not None:
            draw = _uniform(inj.plan.seed, "corrupt-mode", topic, seq)
            extra.append((inj.corrupt(_take(block, hit), draw), False))
            block = _take(block, ~hit)
        hit = self._hits("clock_skew", topic, seq, block)
        if hit is not None:
            skew_s = int(inj.spec_for("clock_skew", topic).param("skew_s", 90))
            block = inj.skew(block, skew_s, hit)
            validated = False
        hit = self._hits("duplicate", topic, seq, block)
        if hit is not None:
            extra.append((_take(block, hit), validated))
        hit = self._hits("late", topic, seq, block)
        if hit is not None:
            hold = max(int(inj.spec_for("late", topic).param("hold_messages", 8)), 1)
            self._held.setdefault(topic, []).append(
                (seq + hold, key, _take(block, hit), validated)
            )
            block = _take(block, ~hit)
        last: Message | None = None
        for piece, piece_validated in ([(block, validated)] if len(block) else []) + extra:
            last = self._emit(topic, seq, key, piece, piece_validated) or last
        last = self._release_due(topic, seq) or last
        return last if last is not None else Message(topic, -1, key, value)

    def _hits(self, kind: str, topic: str, seq: int, block: Any) -> np.ndarray | None:
        """The rows ``kind`` hits in this block (counted once per block),
        or ``None`` when it is not armed or hits nothing."""
        inj = self.injector
        spec = inj.spec_for(kind, topic)
        if spec is None or len(block) == 0:
            return None
        hit = inj.hits(spec, len(block), topic, seq)
        if not hit.any():
            return None
        inj._count(kind)
        return hit

    #: Columnar publish through the fault pipeline: the broker's own
    #: method (validate, quarantine, count, trace stamping) run on this
    #: facade, so the accepted block goes through :meth:`publish` with
    #: its verdict and the row faults and reordering apply —
    #: ``__getattr__`` delegation would silently bypass injection.
    publish_block = Broker.publish_block

    def _emit(
        self, topic: str, seq: int, key: str, value: Any, validated: bool
    ) -> Message | None:
        reorder = self.injector.spec_for("reorder", topic)
        if reorder is not None:
            buffer = self._buffers.setdefault(topic, [])
            buffer.append((key, value, validated))
            window = max(int(reorder.param("window", 6)), 2)
            if len(buffer) >= window:
                return self._flush_buffer(topic, seq)
            return None
        return self.inner.publish(topic, key, value, validated)

    def _flush_buffer(self, topic: str, seq: int) -> Message | None:
        """Emit the reorder buffer — shuffled when the fault fires."""
        inj = self.injector
        buffer = self._buffers.get(topic)
        if not buffer:
            return None
        spec = inj.spec_for("reorder", topic)
        order = list(range(len(buffer)))
        if spec is not None and inj.hit(spec, "shuffle", topic, seq):
            # Deterministic Fisher-Yates driven by hashed draws.
            for i in range(len(order) - 1, 0, -1):
                j = int(_uniform(inj.plan.seed, "swap", topic, seq, i) * (i + 1))
                order[i], order[j] = order[j], order[i]
            inj._count("reorder")
        last: Message | None = None
        for idx in order:
            last = self.inner.publish(topic, *buffer[idx])
        buffer.clear()
        return last

    def _release_due(self, topic: str, seq: int) -> Message | None:
        held = self._held.get(topic)
        if not held:
            return None
        due = [h for h in held if h[0] <= seq]
        if not due:
            return None
        self._held[topic] = [h for h in held if h[0] > seq]
        last: Message | None = None
        for _, key, value, validated in due:
            last = self.inner.publish(topic, key, value, validated)
        return last

    def flush(self) -> int:
        """Release every held/buffered message; returns how many."""
        released = 0
        for topic in sorted(self._held):
            for _, key, value, validated in self._held[topic]:
                self.inner.publish(topic, key, value, validated)
                released += 1
            self._held[topic] = []
        for topic in sorted(self._buffers):
            released += len(self._buffers[topic])
            self._flush_buffer(topic, self._seq.get(topic, 0))
        return released


class ChaosConsumer:
    """A :class:`Consumer` facade that injects per-topic backpressure."""

    def __init__(self, consumer: Consumer, broker: ChaosBroker, topic: str) -> None:
        self.inner = consumer
        self._chaos_broker = broker
        self.topic = topic
        self._polls = 0
        self._stalled = 0

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def offset(self) -> int:
        return self.inner.offset

    @property
    def lag(self) -> int:
        return self.inner.lag

    @property
    def broker(self) -> Broker:
        # Quarantine and resync go to the real broker: evidence of the
        # chaos must not itself be subject to the chaos.
        return self._chaos_broker.inner

    def seek(self, offset: int) -> None:
        self.inner.seek(offset)

    def resync_to_base(self) -> bool:
        return self.inner.resync_to_base()

    def poll(self, max_messages: int = 1000) -> list[Message]:
        inj = self._chaos_broker.injector
        poll_idx = self._polls
        self._polls += 1
        spec = inj.spec_for("backpressure", self.topic)
        if spec is not None:
            if self._stalled > 0:
                self._stalled -= 1
                inj._count("backpressure")
                return []
            if inj.hit(spec, "stall", self.topic, self.inner.name, poll_idx):
                self._stalled = max(int(spec.param("stall_polls", 3)) - 1, 0)
                inj._count("backpressure")
                return []
        return self.inner.poll(max_messages)

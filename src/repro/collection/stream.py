"""In-process message broker (Kafka stand-in).

Topics hold append-only message logs; consumers poll with independent
offsets, so multiple downstream components (aggregator, anomaly
detector, archiver) can each read the full stream — the same
subscribe-and-replay semantics the production pipeline relies on.

Fleet support: topics are *instance-keyed*.  Each monitored database
instance publishes to its own topic pair
(``query_logs.<instance_id>`` / ``performance_metrics.<instance_id>``,
see :func:`instance_topic`), so a single broker multiplexes the whole
fleet and per-instance consumers never see another instance's traffic.

Memory is bounded: every consumer created through the broker is
registered with its topic, and :meth:`Broker.prune` drops messages that
every registered consumer has already acknowledged (consumed past).
Pruned messages advance the topic's base offset — exactly Kafka's
log-head truncation — and are counted by the
``broker_pruned_messages_total`` counter.

Collectors publish columnar blocks (:mod:`repro.collection.blocks`),
one block per message, through :meth:`Broker.publish_block`: it
validates the block before appending and counts records-per-block,
blocks and payload bytes per topic, so the dataplane's shape
(records/block, blocks/s, bytes shipped) is visible next to the
per-topic message counters.

A block is validated once.  ``publish_block`` records its verdict on
the appended :class:`Message` (``validated``), and consumers validate
only messages without it: raw :meth:`Broker.publish` payloads, which
may be anything, and the pieces a chaos facade alters on the way
through (see :class:`repro.chaos.ChaosBroker`).

A streaming block holds one second of traffic, so what a publish costs
is fixed Python work, not work per row: the validation reductions, the
bound batch counters, one ``broker.publish_block`` span (its ids come
from a per-process counter, not a hash), the envelope stamp and the
append.  Nothing is imported or looked up by name per block.

The broker self-reports through :mod:`repro.telemetry`: published
message counters per topic, poll-batch-size histograms, and per-consumer
lag gauges — the first things an operator checks when the diagnosis
loop stalls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.collection.blocks import BLOCK_KEY, stamp_block, validate_block
from repro.telemetry import (
    DEFAULT_COUNT_BUCKETS,
    BoundInstruments,
    MetricsRegistry,
    Tracer,
    get_registry,
    trace_propagation_enabled,
)

__all__ = [
    "Message",
    "Broker",
    "Consumer",
    "instance_topic",
    "split_topic",
]


def instance_topic(base: str, instance_id: str = "") -> str:
    """The topic name carrying ``base`` records of one instance.

    An empty ``instance_id`` names the bare ``base`` topic, which
    standalone collectors and consumers use outside a fleet.
    """
    if not instance_id:
        return base
    if "." in instance_id:
        raise ValueError(f"instance_id must not contain '.': {instance_id!r}")
    return f"{base}.{instance_id}"


def split_topic(topic: str) -> tuple[str, str]:
    """Inverse of :func:`instance_topic`: ``(base, instance_id)``."""
    base, _, instance_id = topic.partition(".")
    return base, instance_id


@dataclass(frozen=True)
class Message:
    """One message on a topic."""

    topic: str
    offset: int
    key: str
    value: Any
    #: :meth:`Broker.publish_block` validated ``value`` on the way in, so
    #: consumers need not validate it again.
    validated: bool = False


@dataclass
class _Topic:
    """One topic's retained log segment.

    ``base_offset`` is the offset of the first *retained* message;
    messages below it have been pruned.  Absolute offsets never change,
    so consumer bookkeeping survives pruning.
    """

    messages: list[Message] = field(default_factory=list)
    base_offset: int = 0

    @property
    def next_offset(self) -> int:
        return self.base_offset + len(self.messages)


class Broker:
    """A minimal polling broker with per-consumer offsets."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._topics: dict[str, _Topic] = {}
        self._consumers: dict[str, list["Consumer"]] = {}
        self._consumer_seq: dict[str, int] = {}
        self.registry = registry or get_registry()
        #: Traces block publishes; the publish span's context is stamped
        #: onto the outgoing block so downstream diagnosis spans — even
        #: in other processes — parent under it.
        self.tracer = tracer if tracer is not None else Tracer(registry=self.registry)
        #: Per-topic instrument handles, bound on a series' first use.
        self._instruments = BoundInstruments()

    def create_topic(self, topic: str) -> None:
        """Create a topic (idempotent)."""
        self._topics.setdefault(topic, _Topic())

    @property
    def topics(self) -> list[str]:
        return list(self._topics)

    def publish(
        self, topic: str, key: str, value: Any, validated: bool = False
    ) -> Message:
        """Append a message to a topic, creating the topic on first use.

        ``validated`` is :meth:`publish_block`'s verdict that ``value`` is
        a valid block (a chaos facade forwards it for the pieces it keeps
        valid); every other caller leaves it ``False``.
        """
        log = self._topics.get(topic)
        if log is None:
            log = self._topics[topic] = _Topic()
        message = Message(topic, log.next_offset, key, value, validated)
        log.messages.append(message)
        self._instruments.get(
            self.registry, ("published", topic), self._published_counter, topic
        ).inc()
        return message

    def publish_block(self, topic: str, block: Any) -> Message | None:
        """Publish one columnar block as one message (validated).

        The block is validated up front; a malformed block is routed to
        the topic's dead-letter quarantine and ``None`` is returned.
        Valid blocks are counted into the batch-aware telemetry:
        records per block (histogram), blocks published and payload
        bytes shipped per topic.  The message carries the verdict
        (``validated``), so consumers do not validate the block again.
        """
        reason = validate_block(block)
        if reason is not None:
            from repro.collection.quarantine import quarantine

            quarantine(self, topic, block, reason)
            return None
        n = len(block)
        self.count_block(topic, n_records=n, nbytes=block.nbytes)
        if trace_propagation_enabled():
            tracer = self.tracer
            with tracer.span("broker.publish_block", topic=topic, records=n) as span:
                block = stamp_block(block, tracer.context_for(span), time.time())
                return self.publish(topic, BLOCK_KEY, block, validated=True)
        return self.publish(topic, BLOCK_KEY, block, validated=True)

    def count_block(self, topic: str, n_records: int, nbytes: int) -> None:
        """Record batch telemetry for one block on ``topic``."""
        blocks, records, payload, per_block = self._instruments.get(
            self.registry, ("block", topic), self._block_instruments, topic
        )
        blocks.inc()
        records.inc(n_records)
        payload.inc(nbytes)
        per_block.observe(n_records)

    def _published_counter(self, topic: str) -> Any:
        return self.registry.counter(
            "broker_messages_published_total",
            help="Messages appended per topic.",
            topic=topic,
        )

    def _block_instruments(self, topic: str) -> tuple[Any, ...]:
        registry = self.registry
        return (
            registry.counter(
                "broker_blocks_published_total",
                help="Columnar blocks appended per topic.",
                topic=topic,
            ),
            registry.counter(
                "broker_block_records_total",
                help="Records carried inside published blocks, per topic.",
                topic=topic,
            ),
            registry.counter(
                "broker_block_bytes_total",
                help="Payload bytes of published blocks, per topic.",
                topic=topic,
            ),
            registry.histogram(
                "broker_block_records",
                help="Records per published block.",
                buckets=DEFAULT_COUNT_BUCKETS,
                topic=topic,
            ),
        )

    def size(self, topic: str) -> int:
        """Messages ever published to a topic (including pruned ones)."""
        log = self._topics.get(topic)
        return log.next_offset if log is not None else 0

    def retained(self, topic: str) -> int:
        """Messages currently held in memory for a topic."""
        log = self._topics.get(topic)
        return len(log.messages) if log is not None else 0

    def base_offset(self, topic: str) -> int:
        """Offset of the oldest retained message of a topic."""
        log = self._topics.get(topic)
        return log.base_offset if log is not None else 0

    def read(self, topic: str, offset: int, max_messages: int) -> list[Message]:
        """Read up to ``max_messages`` messages starting at ``offset``.

        When ``offset`` has been pruned away, reading resumes at the
        topic's base offset (the oldest retained message).
        """
        if offset < 0 or max_messages < 0:
            raise ValueError("offset and max_messages must be non-negative")
        log = self._topics.get(topic)
        if log is None:
            return []
        i0 = max(offset, log.base_offset) - log.base_offset
        return log.messages[i0 : i0 + max_messages]

    def consumer(self, topic: str) -> "Consumer":
        """A new registered consumer starting at the beginning of ``topic``."""
        self.create_topic(topic)
        seq = self._consumer_seq.get(topic, 0)
        self._consumer_seq[topic] = seq + 1
        return Consumer(self, topic, name=f"{topic}/{seq}")

    def _register(self, consumer: "Consumer") -> None:
        self._consumers.setdefault(consumer.topic, []).append(consumer)

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def prune(self, topic: str | None = None) -> int:
        """Drop messages acknowledged by every registered consumer.

        Topics without registered consumers are left untouched (they
        may be archival topics read ad hoc via :meth:`read`).  Returns
        the number of messages pruned and counts them into
        ``broker_pruned_messages_total``.
        """
        topics = [topic] if topic is not None else list(self._topics)
        pruned_total = 0
        for name in topics:
            log = self._topics.get(name)
            consumers = self._consumers.get(name)
            if log is None or not consumers:
                continue
            min_offset = min(c.offset for c in consumers)
            # A consumer seeked past the log end must not drag the base
            # offset beyond messages that were actually appended.
            drop = min(min_offset - log.base_offset, len(log.messages))
            if drop <= 0:
                continue
            del log.messages[:drop]
            log.base_offset += drop
            pruned_total += drop
            self.registry.counter(
                "broker_pruned_messages_total",
                help="Messages dropped after acknowledgement by all consumers.",
                topic=name,
            ).inc(drop)
            self.registry.gauge(
                "broker_retained_messages",
                help="Messages currently held in memory per topic.",
                topic=name,
            ).set(len(log.messages))
        return pruned_total


class Consumer:
    """A polling consumer with its own offset into one topic."""

    def __init__(self, broker: Broker, topic: str, name: str | None = None) -> None:
        self._broker = broker
        self.topic = topic
        self.name = name or topic
        self.offset = 0
        broker._register(self)
        #: Poll-size and lag handles, re-bound after a registry reset.
        self._instruments = BoundInstruments()
        self._poll_sizes()
        self._set_lag()

    def _batch_histogram(self) -> Any:
        return self._broker.registry.histogram(
            "broker_poll_batch_size",
            help="Messages returned per poll.",
            buckets=DEFAULT_COUNT_BUCKETS,
            topic=self.topic,
        )

    def _lag_gauge(self) -> Any:
        return self._broker.registry.gauge(
            "broker_consumer_lag",
            help="Messages published but not yet consumed.",
            topic=self.topic,
            consumer=self.name,
        )

    def _poll_sizes(self) -> Any:
        return self._instruments.get(self._broker.registry, "batch", self._batch_histogram)

    def _set_lag(self) -> None:
        self._instruments.get(self._broker.registry, "lag", self._lag_gauge).set(self.lag)

    @property
    def broker(self) -> Broker:
        """The broker this consumer reads from (for quarantine/resync)."""
        return self._broker

    @property
    def lag(self) -> int:
        """Messages published but not yet consumed."""
        return self._broker.size(self.topic) - self.offset

    @property
    def stuck(self) -> bool:
        """Permanently behind the pruned log head.

        A consumer whose offset lies below the topic's base offset with
        *no* retained messages can never make progress: every poll reads
        an empty segment while lag stays positive.  (With retained
        messages, :meth:`Broker.read` self-heals by resuming at the base
        offset.)  Happens when a consumer is created — or seeks — behind
        a fully pruned log.
        """
        return (
            self.offset < self._broker.base_offset(self.topic)
            and self._broker.retained(self.topic) == 0
        )

    def resync_to_base(self) -> bool:
        """Recover a :attr:`stuck` consumer by seeking to the base offset.

        Returns ``True`` when a resync happened (counted by
        ``broker_offset_resyncs_total``); ``False`` when the consumer
        was not stuck.
        """
        if not self.stuck:
            return False
        self._broker.registry.counter(
            "broker_offset_resyncs_total",
            help="Consumers resynced from behind a pruned log head.",
            topic=self.topic,
            consumer=self.name,
        ).inc()
        self.seek(self._broker.base_offset(self.topic))
        return True

    def poll(self, max_messages: int = 1000) -> list[Message]:
        """Fetch the next batch of messages and advance the offset."""
        messages = self._broker.read(self.topic, self.offset, max_messages)
        if messages:
            # Absolute offsets survive pruning; jump past the last read
            # message rather than assuming a contiguous head.
            self.offset = messages[-1].offset + 1
        self._poll_sizes().observe(len(messages))
        self._set_lag()
        return messages

    def seek(self, offset: int) -> None:
        """Reposition the consumer (replay support).

        Seeking below the topic's base offset replays from the oldest
        retained message — pruned history is gone by definition.
        """
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self.offset = offset
        self._set_lag()

"""Payload validation and dead-letter quarantine.

A malformed payload must never crash the poll loop: one collector bug
or one corrupted message would take the whole diagnosis pipeline down
with it.  Payloads are checked with the block validators of
:mod:`repro.collection.blocks`, once each: ``Broker.publish_block``
validates a block and marks its message ``validated``, and the
consumers (detector, diagnosis engine) validate every message without
that mark — raw ``Broker.publish`` payloads, and blocks a
:class:`~repro.chaos.ChaosBroker` corrupted or clock-skewed on the way
through.  Either side routes rejects to a per-source dead-letter topic
(``dead_letter.<source_topic>``) with :func:`quarantine`, keeping the
evidence and counting ``collector_quarantined_total`` instead of
raising.

Dead-letter topics have no registered consumers, so the broker's
retention pruning leaves them untouched — they are archival, read ad
hoc by operators via :meth:`Broker.read`.
"""

from __future__ import annotations

from typing import Any

from repro.collection.stream import Broker
from repro.telemetry import MetricsRegistry, get_logger

__all__ = [
    "DEAD_LETTER_PREFIX",
    "dead_letter_topic",
    "quarantine",
]

_log = get_logger("collection")

#: Prefix of every dead-letter topic (the chaos injector exempts it).
DEAD_LETTER_PREFIX = "dead_letter"


def dead_letter_topic(source_topic: str) -> str:
    """The dead-letter topic that quarantines ``source_topic`` rejects."""
    return f"{DEAD_LETTER_PREFIX}.{source_topic}"


def quarantine(
    broker: Broker,
    source_topic: str,
    record: Any,
    reason: str,
    registry: MetricsRegistry | None = None,
) -> None:
    """Route a rejected record to the source topic's dead-letter topic.

    Never raises: if even the dead-letter publish fails, the reject is
    logged and dropped — quarantine must not become a new crash path.
    """
    registry = registry if registry is not None else broker.registry
    registry.counter(
        "collector_quarantined_total",
        help="Records rejected by payload validation, by source topic.",
        topic=source_topic,
        reason=reason,
    ).inc()
    try:
        broker.publish(
            dead_letter_topic(source_topic),
            key=reason,
            value={"source_topic": source_topic, "reason": reason, "record": record},
        )
    except Exception:  # pragma: no cover - defensive
        _log.warning(
            "dead-letter publish failed; record dropped",
            extra={"topic": source_topic, "reason": reason},
        )

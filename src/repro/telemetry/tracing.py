"""Span-based tracing for the diagnosis pipeline.

A :class:`Tracer` hands out context-manager spans::

    with tracer.span("hsql_ranking") as span:
        ...
    span.elapsed  # wall-clock seconds, available after exit

Spans nest: entering a span while another is open parents it, so one
``PinSQL.analyze`` call yields a tree mirroring the paper's per-stage
timing breakdown (Table I).  Finished root spans are retained in a
bounded deque for the CLI's span-tree summary, and every finished span
is observed into the registry's ``span_duration_seconds`` histogram
(labelled by span name) when the tracer carries a registry.

A disabled tracer still times — callers rely on ``elapsed`` to fill
:class:`~repro.core.pipeline.StageTimings` — but skips tree retention
and histogram observation, which is the whole measurable overhead.

Distributed tracing: every *root* span is minted a blake2b-derived
``trace_id``/``span_id`` (stamped into ``attrs`` so they survive every
existing serialization path — span trees, incident records, pickles).
A :class:`TraceContext` carries that identity across process
boundaries: stamped onto columnar blocks at publish time,
adopted by the consuming engine's tracer via :meth:`Tracer.set_remote_parent`,
so a ``service.diagnose`` span in a shard worker is parented to the
``broker.publish_block`` span in the parent process.  Finished traces
round-trip through :func:`span_to_dict`/:func:`span_from_dict` for
shipment over the worker result channel (:meth:`Tracer.export_roots` /
:meth:`Tracer.adopt`).
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any, Iterable, Mapping

from repro.telemetry.metrics import BoundInstruments, Histogram, MetricsRegistry

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "new_trace_context",
    "observed_span_names",
    "set_trace_propagation",
    "span_from_dict",
    "span_to_dict",
    "trace_propagation_enabled",
]

#: Process-wide kill switch for trace-context propagation (id minting,
#: block stamping, remote parenting).  Spans still time and observe
#: histograms when this is off — only the distributed-identity layer is
#: skipped.  The ``trace`` row of ``bench_layer_overhead.py`` toggles
#: this to measure the marginal cost of the feature.
_PROPAGATION_ENABLED = True

#: Monotone per-process sequence folded into every minted id so two ids
#: minted in the same nanosecond tick still differ.
_ID_SEQ = itertools.count()


def set_trace_propagation(enabled: bool) -> None:
    """Enable/disable trace-context propagation process-wide."""
    global _PROPAGATION_ENABLED
    _PROPAGATION_ENABLED = bool(enabled)


def trace_propagation_enabled() -> bool:
    return _PROPAGATION_ENABLED


def _mint_id(kind: str) -> str:
    """A 16-hex-char blake2b id, unique within and across processes."""
    payload = f"{kind}|{os.getpid()}|{next(_ID_SEQ)}|{time.perf_counter_ns()}"
    return blake2b(payload.encode("ascii"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class TraceContext:
    """The cross-process identity of one span: ``(trace_id, span_id)``.

    ``process`` records the minting pid so consumers can tell which
    process the parent span lived in (rendered in incident span trees
    and the ``repro trace`` waterfall).
    """

    trace_id: str
    span_id: str
    process: int = 0


def new_trace_context() -> TraceContext:
    """Mint a fresh root context (new trace_id, new span_id)."""
    return TraceContext(_mint_id("t"), _mint_id("s"), os.getpid())


@dataclass
class Span:
    """One timed section of work; forms a tree via ``children``."""

    name: str
    attrs: dict[str, object] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    #: Wall-clock seconds; None while the span is still open.
    elapsed: float | None = None

    _t0: float = field(default=0.0, repr=False)
    _tracer: "Tracer | None" = field(default=None, repr=False)

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Elapsed is recorded FIRST, unconditionally: a span that ends
        # via exception must still report its duration (and is marked so
        # downstream consumers — span trees, incident records — can tell
        # a failed stage from a fast one).
        self.elapsed = time.perf_counter() - self._t0
        if exc_type is not None:
            self.attrs["status"] = "error"
            self.attrs["error"] = exc_type.__name__
        if self._tracer is not None:
            self._tracer._finish(self)

    def walk(self):
        """Yield ``(depth, span)`` over the subtree, pre-order."""
        stack = [(0, self)]
        while stack:
            depth, span = stack.pop()
            yield depth, span
            stack.extend((depth + 1, c) for c in reversed(span.children))


class Tracer:
    """Creates nested spans and retains finished traces.

    Not thread-safe: the diagnosis loop is single-threaded by design
    and the span stack is a plain list.
    """

    #: Histogram fed with every finished span's duration.
    SPAN_METRIC = "span_duration_seconds"

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        max_roots: int = 64,
        enabled: bool = True,
        labels: dict[str, str] | None = None,
    ) -> None:
        self.registry = registry
        self.enabled = enabled
        #: Extra labels stamped on every span histogram observation —
        #: fleet engines set ``{"instance": <id>}`` so per-stage timings
        #: stay separable per instance (and per worker thread, which
        #: also keeps the histogram instruments thread-private).
        self.labels = dict(labels) if labels else {}
        self._stack: list[Span] = []
        self._roots: deque[Span] = deque(maxlen=max_roots)
        #: Span-duration histograms by span name, bound on first use.
        self._histograms = BoundInstruments()
        #: Cross-process parent adopted from an ingested block's trace
        #: context: new root spans join its trace_id and record its
        #: span_id as ``parent_span_id``.
        self._remote_parent: TraceContext | None = None

    def span(self, name: str, **attrs: object) -> Span:
        """A new span; use as a context manager."""
        if not self.enabled:
            # Times itself but never touches the tree or the registry.
            return Span(name)
        span = Span(name, attrs=dict(attrs), _tracer=self)
        if self._stack:
            self._stack[-1].children.append(span)
        elif _PROPAGATION_ENABLED:
            # Root spans carry the distributed identity in attrs so it
            # survives every serialization path unchanged.
            parent = self._remote_parent
            span.attrs["trace_id"] = parent.trace_id if parent else _mint_id("t")
            span.attrs["span_id"] = _mint_id("s")
            if parent is not None:
                span.attrs["parent_span_id"] = parent.span_id
            span.attrs["process"] = os.getpid()
        self._stack.append(span)
        return span

    # -- distributed identity ------------------------------------------
    def set_remote_parent(self, ctx: TraceContext | None) -> None:
        """Parent subsequent root spans under a remote span's context."""
        self._remote_parent = ctx

    def context_for(self, span: Span) -> TraceContext | None:
        """The :class:`TraceContext` identifying ``span``, minting ids
        lazily.

        Nested spans normally carry no ids of their own (the root owns
        the trace); asking for a nested span's context — e.g. to stamp
        an outgoing block at publish time — assigns it a ``span_id``
        under the enclosing root's ``trace_id``.
        """
        if not self.enabled or not _PROPAGATION_ENABLED:
            return None
        trace_id = span.attrs.get("trace_id")
        if not isinstance(trace_id, str):
            root = self._stack[0] if self._stack else span
            trace_id = root.attrs.get("trace_id")
            if not isinstance(trace_id, str):
                trace_id = _mint_id("t")
                root.attrs["trace_id"] = trace_id
            if span is not root:
                span.attrs["trace_id"] = trace_id
        span_id = span.attrs.get("span_id")
        if not isinstance(span_id, str):
            span_id = _mint_id("s")
            span.attrs["span_id"] = span_id
        return TraceContext(trace_id, span_id, os.getpid())

    # -- cross-process export ------------------------------------------
    def export_roots(self, clear: bool = False) -> list[dict[str, Any]]:
        """Finished root spans as plain dicts (oldest first), for
        shipment over a result queue; optionally drains the buffer so
        repeated exports never double-ship."""
        payloads = [span_to_dict(span) for span in self._roots]
        if clear:
            self._roots.clear()
        return payloads

    def adopt(self, payloads: Iterable[Mapping[str, Any]]) -> int:
        """Merge spans exported by another process into this tracer's
        finished roots (no histogram re-observation — metric deltas
        travel separately so nothing is double-counted)."""
        adopted = 0
        for payload in payloads:
            try:
                span = span_from_dict(payload)
            except (AttributeError, KeyError, TypeError, ValueError):
                continue
            self._roots.append(span)
            adopted += 1
        return adopted

    def _finish(self, span: Span) -> None:
        # Exits must mirror entries; tolerate a foreign span defensively.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        if not self._stack:
            self._roots.append(span)
        registry = self.registry
        if registry is not None:
            self._histograms.get(
                registry, span.name, self._span_histogram, registry, span.name
            ).observe(span.elapsed)
            if span.attrs.get("status") == "error":
                registry.counter(
                    "span_errors_total",
                    help="Spans that ended via an exception.",
                    span=span.name,
                    **self.labels,
                ).inc()

    def _span_histogram(self, registry: MetricsRegistry, name: str) -> Histogram:
        return registry.histogram(
            self.SPAN_METRIC,
            help="Duration of traced pipeline spans.",
            span=name,
            **self.labels,
        )

    # ------------------------------------------------------------------
    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @property
    def roots(self) -> list[Span]:
        """Finished root spans, oldest first (bounded retention)."""
        return list(self._roots)

    def last_root(self) -> Span | None:
        return self._roots[-1] if self._roots else None

    def reset(self) -> None:
        self._stack.clear()
        self._roots.clear()
        self._remote_parent = None

    # ------------------------------------------------------------------
    def format_tree(self, root: Span | None = None) -> str:
        """Indented rendering of one trace (defaults to the last root)."""
        root = root or self.last_root()
        if root is None:
            return "(no finished spans)"
        lines: list[str] = []
        for depth, span in root.walk():
            elapsed = "?" if span.elapsed is None else _fmt_seconds(span.elapsed)
            label = "  " * depth + span.name
            attrs = (
                " [" + ", ".join(f"{k}={v}" for k, v in span.attrs.items()) + "]"
                if span.attrs
                else ""
            )
            lines.append(f"{label:<44} {elapsed:>10}{attrs}")
        return "\n".join(lines)


def _fmt_seconds(seconds: float) -> str:
    if seconds < 1.0:
        return f"{seconds * 1000:.2f} ms"
    return f"{seconds:.3f} s"


# ----------------------------------------------------------------------
def span_to_dict(span: Span) -> dict[str, Any]:
    """A picklable/JSON-able rendering of a finished span subtree."""
    return {
        "name": span.name,
        "elapsed": span.elapsed,
        "attrs": dict(span.attrs),
        "children": [span_to_dict(c) for c in span.children],
    }


def span_from_dict(payload: Mapping[str, Any]) -> Span:
    """Inverse of :func:`span_to_dict`."""
    elapsed = payload.get("elapsed")
    return Span(
        name=str(payload["name"]),
        attrs=dict(payload.get("attrs") or {}),
        children=[span_from_dict(c) for c in payload.get("children") or ()],
        elapsed=float(elapsed) if elapsed is not None else None,
    )


def observed_span_names(registry: MetricsRegistry) -> frozenset[str]:
    """Names of every span whose duration was observed into ``registry``.

    Every finished span lands in the ``span_duration_seconds`` histogram
    labelled by span name, so the registry snapshot doubles as a record
    of which pipeline stages actually executed — the scenario fuzzer
    reads this as its code-path coverage signal.
    """
    snap = registry.snapshot()
    return frozenset(
        h["labels"]["span"]
        for h in snap["histograms"]
        if h["name"] == Tracer.SPAN_METRIC and "span" in h["labels"]
    )

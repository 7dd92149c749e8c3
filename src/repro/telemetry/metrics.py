"""Process-local metrics registry (counters, gauges, histograms).

PinSQL is itself an observability system; this module is the substrate
that lets it watch itself (the paper's production deployment, Sec. III
Fig. 5, runs on exactly this kind of self-telemetry).  The registry is
deliberately Prometheus-shaped — counter / gauge / fixed-bucket
histogram instruments addressed by ``(name, labels)`` — so snapshots
export both as JSON and as the Prometheus text-exposition format.

No background threads, no locks beyond the GIL: instruments are plain
objects mutated in-process, cheap enough for per-message hot paths.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Callable, Hashable, Iterator, Mapping

__all__ = [
    "BoundInstruments",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "EXPORT_QUANTILES",
    "labeled_name",
    "filter_snapshot",
    "fraction_at_most",
    "quantile_from_buckets",
    "render_summary",
]

#: Quantiles exported in JSON snapshots, the Prometheus exposition
#: (synthetic ``<name>_quantile`` series) and ``render_summary``.
EXPORT_QUANTILES: tuple[tuple[float, str], ...] = (
    (0.50, "p50"),
    (0.95, "p95"),
    (0.99, "p99"),
)

#: Latency buckets (seconds) sized for the pipeline's sub-second stages
#: up to multi-second whole-corpus analyses.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Size buckets for batch/queue observations (messages per poll etc.).
DEFAULT_COUNT_BUCKETS: tuple[float, ...] = (
    0, 1, 5, 10, 50, 100, 500, 1000, 5000, 10_000, 50_000,
)

_LabelKey = tuple[tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram (upper bounds + implicit +Inf bucket)."""

    __slots__ = ("uppers", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        uppers = tuple(float(b) for b in buckets)
        if list(uppers) != sorted(set(uppers)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.uppers = uppers
        self.counts = [0] * (len(uppers) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.uppers, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for upper, n in zip(self.uppers, self.counts):
            running += n
            out.append((upper, running))
        out.append((math.inf, running + self.counts[-1]))
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile, linearly interpolated within the
        bucket holding the target rank (Prometheus ``histogram_quantile``
        semantics: first finite bucket is assumed to start at 0, the
        overflow bucket reports the largest finite bound)."""
        return _quantile_from_pairs(self.cumulative(), q)

    def merge_cumulative(
        self, buckets: list, sum_: float, count: int
    ) -> bool:
        """Fold another histogram's snapshot-format cumulative buckets
        into this one (cross-process registry merge).  Returns False —
        without mutating — when the bucket layouts differ."""
        pairs = _bucket_pairs(buckets)
        uppers = tuple(u for u, _ in pairs if not math.isinf(u))
        if uppers != self.uppers or len(pairs) != len(self.counts):
            return False
        deltas, prev = [], 0
        for _, cum in pairs:
            if cum < prev:
                return False
            deltas.append(cum - prev)
            prev = cum
        for i, delta in enumerate(deltas):
            self.counts[i] += delta
        self.sum += float(sum_)
        self.count += int(count)
        return True


def _bucket_pairs(buckets) -> list[tuple[float, int]]:
    """Normalise snapshot-format buckets (``"+Inf"`` markers) into
    ``(upper: float, cumulative: int)`` pairs."""
    pairs: list[tuple[float, int]] = []
    for upper, cum in buckets:
        bound = math.inf if isinstance(upper, str) else float(upper)
        pairs.append((bound, int(cum)))
    return pairs


def _quantile_from_pairs(pairs: list[tuple[float, int]], q: float) -> float:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not pairs:
        return 0.0
    total = pairs[-1][1]
    if total <= 0:
        return 0.0
    rank = q * total
    lower: float | None = None
    prev_cum = 0
    for upper, cum in pairs:
        if cum >= rank:
            if math.isinf(upper):
                # Overflow bucket: no finite upper bound to interpolate
                # toward — report the largest finite bound.
                return lower if lower is not None else 0.0
            lo = lower if lower is not None else min(0.0, upper)
            width = cum - prev_cum
            frac = (rank - prev_cum) / width if width > 0 else 1.0
            return lo + (upper - lo) * frac
        if not math.isinf(upper):
            lower = upper
        prev_cum = cum
    return lower if lower is not None else 0.0


def quantile_from_buckets(buckets, q: float) -> float:
    """Quantile estimate from snapshot-format cumulative buckets."""
    return _quantile_from_pairs(_bucket_pairs(buckets), q)


def fraction_at_most(buckets, bound: float) -> float:
    """Estimated fraction of observations ``<= bound`` from snapshot-
    format cumulative buckets (linear interpolation inside the bucket
    containing ``bound``).  Observations in the +Inf overflow bucket are
    assumed to exceed any finite ``bound`` — the conservative reading
    for SLO evaluation."""
    pairs = _bucket_pairs(buckets)
    if not pairs:
        return 1.0
    total = pairs[-1][1]
    if total <= 0:
        return 1.0
    lower: float | None = None
    prev_cum = 0
    for upper, cum in pairs:
        if math.isinf(upper):
            break
        if bound <= upper:
            lo = lower if lower is not None else min(0.0, upper)
            width = upper - lo
            frac_in = (bound - lo) / width if width > 0 else 1.0
            frac_in = min(max(frac_in, 0.0), 1.0)
            return (prev_cum + (cum - prev_cum) * frac_in) / total
        lower = upper
        prev_cum = cum
    return prev_cum / total


class _Family:
    """All series (label combinations) of one metric name."""

    __slots__ = ("name", "kind", "help", "buckets", "series")

    def __init__(self, name: str, kind: str, help: str,
                 buckets: tuple[float, ...] | None = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.series: dict[_LabelKey, Counter | Gauge | Histogram] = {}


def _label_key(labels: Mapping[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def labeled_name(name: str, labels: Mapping[str, str] | _LabelKey = ()) -> str:
    """Canonical ``name{k=v,...}`` string for a series (no quoting)."""
    items = labels if isinstance(labels, tuple) else _label_key(labels)
    if not items:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in items) + "}"


class MetricsRegistry:
    """Named, labeled instruments with JSON and Prometheus export.

    ``counter`` / ``gauge`` / ``histogram`` create-or-return the series
    for ``(name, labels)``, so call sites just ask for the instrument
    each time — creation is cached, lookups are a dict hit.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        #: Bumped by :meth:`reset`; :class:`BoundInstruments` re-binds
        #: its handles when this changes.
        self.generation = 0
        # Instrument *creation* is locked so concurrent threads
        # can't race the check-then-insert and orphan an instrument; the
        # per-call fast path (existing series) stays lock-free under the
        # GIL's atomic dict reads.
        self._create_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instrument accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._series(name, "counter", help, None, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._series(name, "gauge", help, None, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._series(name, "histogram", help, tuple(buckets), labels)

    def _series(self, name, kind, help, buckets, labels):
        family = self._families.get(name)
        if family is not None and family.kind == kind:
            instrument = family.series.get(_label_key(labels))
            if instrument is not None:
                return instrument
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        with self._create_lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"requested as {kind}"
                )
            key = _label_key(labels)
            instrument = family.series.get(key)
            if instrument is None:
                if kind == "counter":
                    instrument = Counter()
                elif kind == "gauge":
                    instrument = Gauge()
                else:
                    instrument = Histogram(family.buckets)
                family.series[key] = instrument
            return instrument

    def get(self, name: str, **labels: str):
        """The existing instrument for ``(name, labels)``, or None."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.series.get(_label_key(labels))

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def names(self) -> list[str]:
        return sorted(self._families)

    def reset(self) -> None:
        """Drop every family (tests / fresh CLI invocations).

        Handles obtained before the reset are detached from the registry
        from then on; :attr:`generation` tells their holders to re-bind
        (see :class:`BoundInstruments`).
        """
        self._families.clear()
        self.generation += 1

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able snapshot of every series.

        Histogram bucket bounds are serialised as floats except +Inf,
        which becomes the string ``"+Inf"`` so the snapshot survives a
        strict JSON round-trip.
        """
        counters, gauges, histograms = [], [], []
        for name in sorted(self._families):
            family = self._families[name]
            for key in sorted(family.series):
                inst = family.series[key]
                entry = {"name": name, "labels": dict(key)}
                if family.kind == "counter":
                    counters.append({**entry, "value": inst.value})
                elif family.kind == "gauge":
                    gauges.append({**entry, "value": inst.value})
                else:
                    entry["buckets"] = [
                        ["+Inf" if math.isinf(u) else u, c]
                        for u, c in inst.cumulative()
                    ]
                    entry["sum"] = inst.sum
                    entry["count"] = inst.count
                    entry["quantiles"] = {
                        label: inst.quantile(q) for q, label in EXPORT_QUANTILES
                    }
                    histograms.append(entry)
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge_snapshot(self, snapshot: Mapping) -> int:
        """Fold another registry's snapshot into this one.

        The cross-process aggregation path: shard workers ship their
        (per-work-item, hence delta) registry snapshots back over the
        result channel and the parent merges them here so ``repro obs``
        shows one fleet-wide registry.  Counters add, gauges take the
        incoming value (last-writer-wins freshness semantics), and
        histograms add per-bucket — skipped when bucket layouts differ.
        Returns the number of series merged.
        """
        merged = 0
        for entry in snapshot.get("counters", ()):
            value = float(entry.get("value", 0.0))
            if value > 0:
                self.counter(entry["name"], **entry.get("labels", {})).inc(value)
                merged += 1
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], **entry.get("labels", {})).set(
                float(entry.get("value", 0.0))
            )
            merged += 1
        for entry in snapshot.get("histograms", ()):
            pairs = _bucket_pairs(entry.get("buckets", ()))
            uppers = tuple(u for u, _ in pairs if not math.isinf(u))
            if not uppers:
                continue
            inst = self.histogram(entry["name"], buckets=uppers,
                                  **entry.get("labels", {}))
            if inst.merge_cumulative(
                entry.get("buckets", ()), entry.get("sum", 0.0),
                entry.get("count", 0),
            ):
                merged += 1
        return merged

    def render_prometheus(self) -> str:
        """Prometheus text-exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            quantile_lines: list[str] = []
            for key in sorted(family.series):
                inst = family.series[key]
                if family.kind in ("counter", "gauge"):
                    lines.append(f"{name}{_fmt_labels(key)} {_fmt_value(inst.value)}")
                    continue
                for upper, cum in inst.cumulative():
                    le = "+Inf" if math.isinf(upper) else _fmt_value(upper)
                    lines.append(
                        f"{name}_bucket{_fmt_labels(key + (('le', le),))} {cum}"
                    )
                lines.append(f"{name}_sum{_fmt_labels(key)} {_fmt_value(inst.sum)}")
                lines.append(f"{name}_count{_fmt_labels(key)} {inst.count}")
                for q, _label in EXPORT_QUANTILES:
                    quantile_lines.append(
                        f"{name}_quantile"
                        f"{_fmt_labels(key + (('quantile', _fmt_value(q)),))} "
                        f"{_fmt_value(inst.quantile(q))}"
                    )
            if quantile_lines:
                # Synthetic estimated-quantile series derived from the
                # fixed buckets; typed as gauges (they can go down).
                lines.append(f"# TYPE {name}_quantile gauge")
                lines.extend(quantile_lines)
        return "\n".join(lines) + "\n" if lines else ""

    def __iter__(self) -> Iterator[tuple[str, str, _LabelKey, object]]:
        """Yield ``(name, kind, label_key, instrument)`` for every series."""
        for name, family in self._families.items():
            for key, inst in family.series.items():
                yield name, family.kind, key, inst


class BoundInstruments:
    """Instrument handles a hot call site keeps, bound on first use.

    ``get(registry, key, make, *args)`` returns the handle kept under
    ``key``, calling ``make(*args)`` to bind it the first time, so the
    registry's label-key lookup runs once per series instead of once per
    call.  A reset of the registry (its :attr:`MetricsRegistry.generation`
    moves) or a different registry drops every handle, so a kept handle
    never counts into an instrument the registry no longer exports.
    """

    __slots__ = ("_handles", "_registry", "_generation")

    def __init__(self) -> None:
        self._handles: dict[Hashable, Any] = {}
        self._registry: MetricsRegistry | None = None
        self._generation = 0

    def get(
        self, registry: MetricsRegistry, key: Hashable,
        make: Callable[..., Any], *args: Any,
    ) -> Any:
        if registry is not self._registry or registry.generation != self._generation:
            self._handles.clear()
            self._registry, self._generation = registry, registry.generation
        handle = self._handles.get(key)
        if handle is None:
            handle = self._handles[key] = make(*args)
        return handle


def _fmt_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    parts = (f'{k}="{_escape_label(v)}"' for k, v in key)
    return "{" + ",".join(parts) + "}"


def _escape_label(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def filter_snapshot(snapshot: dict, **labels: str) -> dict:
    """Restrict a :meth:`MetricsRegistry.snapshot` to matching series.

    Keeps only series whose labels carry every given ``key=value`` —
    e.g. ``filter_snapshot(snap, instance="db-03")`` isolates one fleet
    member's telemetry.
    """
    def keep(entry: dict) -> bool:
        return all(entry["labels"].get(k) == v for k, v in labels.items())

    return {kind: [e for e in entries if keep(e)]
            for kind, entries in snapshot.items()}


def render_summary(
    registry: MetricsRegistry | dict, max_buckets: int = 4
) -> str:
    """Human-readable one-line-per-series dump for CLI output.

    Accepts a registry or an already-built (possibly filtered)
    :meth:`MetricsRegistry.snapshot` dict.
    """
    snap = registry.snapshot() if isinstance(registry, MetricsRegistry) else registry
    lines: list[str] = []
    if snap["counters"]:
        lines.append("counters:")
        for entry in snap["counters"]:
            lines.append(
                f"  {labeled_name(entry['name'], entry['labels']):<58} "
                f"{_fmt_value(entry['value'])}"
            )
    if snap["gauges"]:
        lines.append("gauges:")
        for entry in snap["gauges"]:
            lines.append(
                f"  {labeled_name(entry['name'], entry['labels']):<58} "
                f"{_fmt_value(entry['value'])}"
            )
    if snap["histograms"]:
        lines.append("histograms:")
        for entry in snap["histograms"]:
            count = entry["count"]
            mean = entry["sum"] / count if count else 0.0
            # Quantiles come from the entry when present, else are
            # derived from the buckets (older snapshots round-trip).
            quantiles = entry.get("quantiles") or {
                label: quantile_from_buckets(entry["buckets"], q)
                for q, label in EXPORT_QUANTILES
            }
            qtext = " ".join(
                f"{label}={quantiles[label]:.6g}"
                for _, label in EXPORT_QUANTILES if label in quantiles
            )
            occupied = [
                f"le={u}:{c}" for u, c in entry["buckets"] if c > 0
            ][:max_buckets]
            lines.append(
                f"  {labeled_name(entry['name'], entry['labels']):<58} "
                f"count={count} mean={mean:.6g} {qtext} {' '.join(occupied)}"
            )
    return "\n".join(lines)

"""The workload analyzer facade: template sets in, advisories out.

``WorkloadAnalyzer`` is the cross-statement counterpart of
``SqlAnalyzer``: it parses every template through a ``SqlAnalyzer``'s
IR cache (the engine passes its own analyzer, so a template analysed
for findings is not parsed again for advisories), computes hot tables
from traffic weights, runs the registered advisory passes and
**never raises** — a broken pass degrades to zero advisories plus a
telemetry counter, because the analyzer rides inside repair planning and
health sweeps where an exception would cost an incident.

Determinism contract (relied on by the property tests): templates are
deduplicated and iterated sorted by ``sql_id``, every pass iterates that
sorted tuple, and the final advisory list is sorted by a total key — so
the output is identical under any permutation of the input templates.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.dbsim.tables import Schema
from repro.sqlanalysis.analyzer import SqlAnalyzer
from repro.sqlanalysis.workload.advisory import Advisory, AdvisoryReport
from repro.sqlanalysis.workload.passes import (
    AdvisoryPass,
    TemplateFootprint,
    TrafficWeight,
    WorkloadConfig,
    WorkloadContext,
    default_passes,
)
from repro.telemetry import MetricsRegistry, get_logger, get_registry

__all__ = ["WorkloadAnalyzer"]

_log = get_logger("sqlanalysis.workload")


class WorkloadAnalyzer:
    """Runs the advisory passes over a whole template set.

    Parameters
    ----------
    schema:
        Index/row-count metadata for the index advisor and footprint
        checks; ``None`` degrades those passes gracefully.
    passes:
        Override the pass set (defaults to the full registry).
    analyzer:
        The statement analyzer whose IR cache parses the templates; an
        engine passes the one its repair planner and sweeps use.  By
        default a private one is made.
    """

    def __init__(
        self,
        schema: Schema | None = None,
        config: WorkloadConfig | None = None,
        passes: Iterable[AdvisoryPass] | None = None,
        registry: MetricsRegistry | None = None,
        analyzer: SqlAnalyzer | None = None,
    ) -> None:
        self.schema = schema
        self.config = config or WorkloadConfig()
        self.passes: tuple[AdvisoryPass, ...] = (
            tuple(passes) if passes is not None else default_passes()
        )
        self.registry = registry or get_registry()
        self.analyzer = analyzer or SqlAnalyzer(registry=self.registry)

    # ------------------------------------------------------------------
    def analyze(
        self,
        templates: Iterable[object],
        weights: Mapping[str, TrafficWeight] | None = None,
    ) -> AdvisoryReport:
        """Advisories over a template set, most severe first; never raises.

        ``templates`` is duck-typed: anything with a ``sql_id`` and a
        ``template`` (optionally ``exemplar``) attribute works — catalog
        ``TemplateInfo`` entries and workload ``TemplateSpec`` s both do.
        """
        weight_map = dict(weights or {})
        footprints = self._footprints(templates, weight_map)
        ctx = WorkloadContext(
            schema=self.schema,
            templates=footprints,
            hot_tables=self._hot_tables(footprints),
            config=self.config,
        )
        advisories: list[Advisory] = []
        for pass_ in self.passes:
            try:
                advisories.extend(pass_.run(ctx))
            except Exception as exc:
                self._count_failure(pass_.pass_id, exc)
        advisories.sort(key=lambda a: a.sort_key())
        del advisories[self.config.max_advisories :]
        for advisory in advisories:
            self.registry.counter(
                "workload_advisories_total",
                help="Workload advisories emitted, by pass.",
                advisor=advisory.advisor,
            ).inc()
        return AdvisoryReport(advisories=advisories, analyzed=len(footprints))

    # ------------------------------------------------------------------
    def _footprints(
        self,
        templates: Iterable[object],
        weights: Mapping[str, TrafficWeight],
    ) -> tuple[TemplateFootprint, ...]:
        seen: dict[str, TemplateFootprint] = {}
        for template in templates:
            try:
                sql_id = str(getattr(template, "sql_id", "") or "")
                if not sql_id or sql_id in seen:
                    continue
                text = str(
                    getattr(template, "exemplar", "")
                    or getattr(template, "template", "")
                    or ""
                )
                if not text:
                    continue
                seen[sql_id] = TemplateFootprint(
                    sql_id=sql_id,
                    ir=self.analyzer.parse(text),
                    weight=weights.get(sql_id) or TrafficWeight(),
                )
            except Exception as exc:
                self._count_failure("footprint", exc)
        return tuple(seen[sql_id] for sql_id in sorted(seen))

    def _hot_tables(
        self, footprints: tuple[TemplateFootprint, ...]
    ) -> frozenset[str]:
        traffic: dict[str, float] = {}
        for fp in footprints:
            for table in set(fp.ir.table_names):
                traffic[table] = traffic.get(table, 0.0) + fp.weight.calls
        ranked = sorted(traffic, key=lambda t: (-traffic[t], t))
        return frozenset(ranked[: self.config.hot_table_count])

    def _count_failure(self, where: str, exc: Exception) -> None:
        self.registry.counter(
            "workload_pass_failures_total",
            help="Workload analyzer internal failures swallowed.",
            where=where,
        ).inc()
        _log.warning(
            "workload advisory failure swallowed",
            extra={"where": where, "error": type(exc).__name__},
        )

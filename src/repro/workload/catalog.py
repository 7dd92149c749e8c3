"""Template population builder.

``build_population`` creates a synthetic-but-structured workload: a set
of microservice businesses, each with its own tables, APIs and SQL
templates, plus the instance schema.  Statement texts are generated and
run through the real fingerprinting pipeline, so SQL ids, statement
kinds and table attributions are produced exactly the way the
collection layer would produce them from raw query logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dbsim.spec import TemplateSpec
from repro.dbsim.tables import Schema
from repro.sqltemplate import StatementKind, fingerprint
from repro.workload.microservice import Api, BusinessService
from repro.workload.trends import business_latent_trend

__all__ = [
    "DEFAULT_INDEXED_COLUMNS",
    "Population",
    "build_population",
    "make_statement",
]


def make_statement(kind: StatementKind, table: str, variant: int) -> str:
    """Generate a plausible SQL statement of the given kind on ``table``.

    ``variant`` differentiates templates of the same kind on the same
    table (different column sets → different digests).
    """
    cols = ", ".join(f"c{(variant + i) % 7}" for i in range(1 + variant % 3))
    if kind is StatementKind.SELECT:
        return f"SELECT {cols} FROM {table} WHERE k{variant % 5} = {variant} AND s = 'x'"
    if kind is StatementKind.UPDATE:
        return f"UPDATE {table} SET c{variant % 7} = {variant} WHERE k{variant % 5} = {variant + 1}"
    if kind is StatementKind.INSERT:
        return f"INSERT INTO {table} (k{variant % 5}, c{variant % 7}) VALUES ({variant}, 'v')"
    if kind is StatementKind.DELETE:
        return f"DELETE FROM {table} WHERE k{variant % 5} = {variant}"
    if kind is StatementKind.DDL:
        return f"ALTER TABLE {table} ADD COLUMN extra_{variant} INT"
    return f"SET SESSION sort_buffer_size = {262144 + variant}"


@dataclass
class Population:
    """A complete workload population for one simulated instance."""

    specs: dict[str, TemplateSpec]
    businesses: list[BusinessService]
    schema: Schema
    duration: int
    #: Exact arrival schedules (sql_id → {second: count}) for one-shot
    #: statements such as injected DDLs.
    exact_counts: dict[str, dict[int, int]] = field(default_factory=dict)
    #: Per-template explicit rate series overriding the business-derived
    #: rate (sql_id → per-second rates); used by anomaly injections whose
    #: traffic follows a bespoke profile (ramped rollouts, batch jobs).
    rate_overrides: dict[str, np.ndarray] = field(default_factory=dict)
    #: Per-template time-varying ``examined_rows_mean`` series (sql_id →
    #: per-second means).  Models data growth / creeping plan
    #: regressions: the template's per-query cost changes over the run
    #: while its spec stays fixed (see ``WorkloadGenerator.rows_at``).
    rows_profiles: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def sql_ids(self) -> list[str]:
        return list(self.specs)

    def expected_rate(self, sql_id: str) -> np.ndarray:
        """Expected per-second arrival rate of a template over all businesses."""
        override = self.rate_overrides.get(sql_id)
        if override is not None:
            return np.asarray(override, dtype=np.float64)
        rate = np.zeros(self.duration, dtype=np.float64)
        for business in self.businesses:
            multiplier = business.template_multiplier(sql_id)
            if multiplier > 0:
                rate += business.latent * multiplier
        return rate

    def add_template(
        self,
        business: BusinessService,
        api: Api,
        spec: TemplateSpec,
        queries_per_call: float = 1.0,
    ) -> None:
        """Attach a (possibly injected) template to a business API."""
        self.specs[spec.sql_id] = spec
        api.add_template(spec.sql_id, queries_per_call)
        if api not in business.apis:
            business.apis.append(api)


#: Columns every business table is indexed on.  ``make_statement`` filters
#: on ``k0..k4`` and the migration copy query ranges on ``id``, so with
#: these indexes the ordinary templates are genuinely index-backed — which
#: is what makes a missing-index finding on ``c*`` columns meaningful.
DEFAULT_INDEXED_COLUMNS = frozenset({"id", "k0", "k1", "k2", "k3", "k4"})

#: Statement-kind mix of ordinary business templates.
_KIND_MIX = (
    (StatementKind.SELECT, 0.65),
    (StatementKind.UPDATE, 0.15),
    (StatementKind.INSERT, 0.12),
    (StatementKind.DELETE, 0.05),
    (StatementKind.OTHER, 0.03),
)


def _draw_kind(rng: np.random.Generator) -> StatementKind:
    r = rng.random()
    acc = 0.0
    for kind, p in _KIND_MIX:
        acc += p
        if r < acc:
            return kind
    return StatementKind.SELECT


def build_population(
    duration: int,
    rng: np.random.Generator,
    n_businesses: int = 10,
    templates_per_business: tuple[int, int] = (5, 18),
    table_share_prob: float = 0.15,
    base_level_range: tuple[float, float] = (0.5, 8.0),
) -> Population:
    """Build a random population of businesses and templates.

    Parameters
    ----------
    duration:
        Length of the simulated window in seconds (trends span it).
    rng:
        Source of all randomness (determinism per case seed).
    n_businesses:
        Number of microservice businesses.
    templates_per_business:
        Inclusive range for the per-business template count.
    table_share_prob:
        Probability that a business reuses a table of an earlier business
        (creates realistic cross-business lock interference).
    base_level_range:
        Log-uniform range of business request rates (requests/second).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if n_businesses <= 0:
        raise ValueError("n_businesses must be positive")
    schema = Schema()
    specs: dict[str, TemplateSpec] = {}
    businesses: list[BusinessService] = []
    variant = 0

    for b in range(n_businesses):
        level = float(np.exp(rng.uniform(*np.log(base_level_range))))
        latent = business_latent_trend(duration, rng, base_level=level)
        business = BusinessService(name=f"biz{b:02d}", latent=latent, base_level=level)

        # Tables: mostly dedicated, occasionally shared with earlier ones.
        n_tables = int(rng.integers(1, 4))
        tables: list[str] = []
        for i in range(n_tables):
            if businesses and rng.random() < table_share_prob:
                donor = businesses[int(rng.integers(0, len(businesses)))]
                donor_tables = [
                    t for api in donor.apis for sid in api.template_calls
                    if (spec := specs.get(sid)) is not None
                    for t in spec.tables
                ]
                if donor_tables:
                    tables.append(donor_tables[int(rng.integers(0, len(donor_tables)))])
                    continue
            name = f"t_{b:02d}_{i}"
            table_obj = schema.ensure_table(
                name, row_count=int(rng.integers(100_000, 10_000_000))
            )
            table_obj.indexes.update(DEFAULT_INDEXED_COLUMNS)
            tables.append(name)

        # APIs: small DAG summarised by per-API call multipliers.
        n_apis = int(rng.integers(2, 6))
        apis = [
            Api(name=f"biz{b:02d}_api{a}", calls_per_request=float(rng.uniform(0.5, 3.0)))
            for a in range(n_apis)
        ]
        business.apis = apis

        n_templates = int(rng.integers(templates_per_business[0], templates_per_business[1] + 1))
        for _ in range(n_templates):
            kind = _draw_kind(rng)
            table = tables[int(rng.integers(0, len(tables)))]
            statement = make_statement(kind, table, variant)
            variant += 1
            fp = fingerprint(statement)
            draw = rng.random()
            queries_per_call = float(rng.uniform(0.3, 2.0))
            cpu_per_krow = 0.8
            if kind is StatementKind.SELECT and draw < 0.04:
                # Healthy ETL/range scans: huge examined-rows counts but a
                # far cheaper per-row cost (tight sequential access).
                # These top the Top-ER page without being a CPU problem —
                # the baseline's documented blind spot.
                base_response = float(np.exp(rng.uniform(np.log(200.0), np.log(900.0))))
                examined = float(np.exp(rng.uniform(np.log(1e6), np.log(6e6))))
                cpu_per_krow = float(rng.uniform(0.04, 0.12))
                queries_per_call = float(rng.uniform(0.004, 0.04))
            elif kind is StatementKind.SELECT and draw < 0.10:
                # Heavy stable reporting queries: they dominate the Top-RT
                # and Top-ER pages even when perfectly healthy — the very
                # reason Top-SQL pages mislead DBAs (paper Challenge III).
                base_response = float(np.exp(rng.uniform(np.log(80.0), np.log(400.0))))
                examined = float(np.exp(rng.uniform(np.log(100_000.0), np.log(900_000.0))))
                cpu_per_krow = float(rng.uniform(0.1, 0.3))
                # Reports run at dashboard cadence, not per user request.
                queries_per_call = float(rng.uniform(0.01, 0.08))
            elif kind is StatementKind.SELECT and draw < 0.20:
                # Moderately slow queries.
                base_response = float(np.exp(rng.uniform(np.log(30.0), np.log(250.0))))
                examined = float(np.exp(rng.uniform(np.log(5_000.0), np.log(80_000.0))))
            else:
                base_response = float(np.exp(rng.uniform(np.log(0.8), np.log(12.0))))
                examined = float(np.exp(rng.uniform(np.log(20.0), np.log(3_000.0))))
            spec = TemplateSpec(
                sql_id=fp.sql_id,
                template=fp.template,
                kind=fp.kind,
                tables=fp.tables if fp.tables else (table,),
                base_response_ms=base_response,
                examined_rows_mean=examined,
                response_cv=float(rng.uniform(0.15, 0.5)),
                lock_hold_ms=float(rng.uniform(5.0, 60.0)),
                cpu_per_krow=cpu_per_krow,
                exemplar=statement,
            )
            specs[spec.sql_id] = spec
            api = apis[int(rng.integers(0, n_apis))]
            api.add_template(spec.sql_id, queries_per_call=queries_per_call)
        businesses.append(business)

    return Population(specs=specs, businesses=businesses, schema=schema, duration=duration)

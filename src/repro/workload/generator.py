"""WorkloadGenerator: the RateProvider fed to the simulation engine.

Precomputes every template's expected per-second arrival rate from the
population (business latent trends × API multipliers, plus explicit
overrides) as one (seconds × templates) matrix, and serves a block of
seconds at a time through :meth:`WorkloadGenerator.arrivals`: the
block's rows of that matrix, the population's exact one-shot schedules
(injected DDLs) and its examined-rows profiles over the same seconds.
``rates_at``, ``counts_at`` and ``rows_at`` are one-second views of it.
"""

from __future__ import annotations

import numpy as np

from repro.dbsim.engine import Arrivals
from repro.dbsim.spec import TemplateSpec
from repro.workload.catalog import Population

__all__ = ["WorkloadGenerator"]


class WorkloadGenerator:
    """Turns a :class:`Population` into an engine rate provider.

    Its columns (``sql_ids``) are the templates with a non-zero rate, in
    population order, then the templates arriving only on an exact
    schedule; both are fixed when the generator is built.
    """

    def __init__(self, population: Population) -> None:
        self.population = population
        self.duration = population.duration
        rated = {
            sql_id: rate for sql_id in population.specs
            if (rate := population.expected_rate(sql_id)).max() > 0
        }
        self.sql_ids = [*rated, *(s for s in population.exact_counts if s not in rated)]
        self._column = {sql_id: k for k, sql_id in enumerate(self.sql_ids)}
        self._rates = np.zeros((self.duration, len(self.sql_ids)), dtype=np.float64)
        for k, rate in enumerate(rated.values()):
            self._rates[:, k] = rate[: self.duration]

    @property
    def specs(self) -> dict[str, TemplateSpec]:
        return self.population.specs

    def arrivals(self, t0: int, t1: int) -> Arrivals:
        """Rates, exact counts and rows-mean overrides of seconds ``[t0, t1)``.

        Seconds beyond the population duration repeat the final second
        (and each rows profile its final value), so open-ended runs (the
        repair case study) stay well-defined.
        """
        seconds = np.arange(t0, t1)
        rates = self._rates[np.clip(seconds, 0, self.duration - 1)]
        exact: np.ndarray | None = None
        for sql_id, schedule in self.population.exact_counts.items():
            for t, n in schedule.items():
                if t0 <= t < t1 and n:
                    if exact is None:
                        exact = np.full(rates.shape, -1, dtype=np.int64)
                    exact[t - t0, self._column[sql_id]] = n
        rows: np.ndarray | None = None
        for sql_id, profile in self.population.rows_profiles.items():
            k = self._column.get(sql_id)
            if k is not None:
                if rows is None:
                    rows = np.full(rates.shape, np.nan)
                rows[:, k] = profile[np.clip(seconds, 0, len(profile) - 1)]
        return Arrivals(self.sql_ids, rates, exact, rows)

    def rates_at(self, t: int) -> dict[str, float]:
        """Per-template arrival rates at second ``t`` (zero rates omitted)."""
        rates = self.arrivals(t, t + 1).rates[0]
        return {s: float(r) for s, r in zip(self.sql_ids, rates) if r > 0.0}

    def counts_at(self, t: int) -> dict[str, int]:
        """Exact one-shot arrival counts scheduled for second ``t``."""
        exact = self.arrivals(t, t + 1).exact_counts
        if exact is None:
            return {}
        return {s: int(n) for s, n in zip(self.sql_ids, exact[0]) if n >= 0}

    def rows_at(self, t: int) -> dict[str, float]:
        """Per-template ``examined_rows_mean`` overrides at second ``t``.

        Serves the population's ``rows_profiles`` — templates whose scan
        cost drifts over the run (data growth, creeping plan
        regressions).  Templates without a profile keep their spec mean.
        """
        rows = self.arrivals(t, t + 1).rows_mean
        if rows is None:
            return {}
        return {s: float(m) for s, m in zip(self.sql_ids, rows[0]) if not np.isnan(m)}

    def expected_rate(self, sql_id: str) -> np.ndarray:
        """Expected rate series of one template (zeros if unknown)."""
        k = self._column.get(sql_id)
        if k is None:
            return np.zeros(self.duration, dtype=np.float64)
        return self._rates[:, k]

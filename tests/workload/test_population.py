"""Tests for the microservice model and population builder."""

import numpy as np
import pytest

from repro.sqltemplate import StatementKind
from repro.workload import (
    Api,
    BusinessService,
    WorkloadGenerator,
    build_population,
)
from repro.timeseries import pearson


class TestApi:
    def test_add_template_accumulates(self):
        api = Api("a")
        api.add_template("Q1", 1.0)
        api.add_template("Q1", 0.5)
        assert api.template_calls["Q1"] == pytest.approx(1.5)

    def test_invalid_queries_per_call(self):
        with pytest.raises(ValueError):
            Api("a").add_template("Q1", 0.0)

    def test_negative_calls_rejected(self):
        with pytest.raises(ValueError):
            Api("a", calls_per_request=-1.0)


class TestBusinessService:
    def _business(self):
        latent = np.full(100, 2.0)
        api1 = Api("a1", calls_per_request=2.0, template_calls={"Q1": 1.0})
        api2 = Api("a2", calls_per_request=1.0, template_calls={"Q1": 0.5, "Q2": 1.0})
        return BusinessService("b", latent, [api1, api2])

    def test_template_multiplier_sums_over_apis(self):
        b = self._business()
        assert b.template_multiplier("Q1") == pytest.approx(2.5)
        assert b.template_multiplier("Q2") == pytest.approx(1.0)
        assert b.template_multiplier("QX") == 0.0

    def test_template_rate(self):
        b = self._business()
        rate = b.template_rate("Q1")
        assert rate.shape == (100,)
        assert rate[0] == pytest.approx(5.0)

    def test_sql_ids_deduplicated(self):
        b = self._business()
        assert b.sql_ids == ["Q1", "Q2"]

    def test_scale_latent(self):
        b = self._business()
        b.scale_latent(np.full(100, 3.0))
        assert b.latent[0] == pytest.approx(6.0)

    def test_scale_latent_length_mismatch(self):
        b = self._business()
        with pytest.raises(ValueError):
            b.scale_latent(np.ones(50))

    def test_negative_latent_rejected(self):
        with pytest.raises(ValueError):
            BusinessService("b", np.array([-1.0]))


class TestBuildPopulation:
    def test_structure(self):
        rng = np.random.default_rng(0)
        pop = build_population(1200, rng, n_businesses=8)
        assert len(pop.businesses) == 8
        assert len(pop.specs) >= 8 * 5
        assert len(pop.schema) >= 8
        # Every business template has a registered spec.
        for business in pop.businesses:
            for sql_id in business.sql_ids:
                assert sql_id in pop.specs

    def test_deterministic(self):
        a = build_population(600, np.random.default_rng(5), n_businesses=4)
        b = build_population(600, np.random.default_rng(5), n_businesses=4)
        assert a.sql_ids == b.sql_ids

    def test_kind_mix_reasonable(self):
        rng = np.random.default_rng(1)
        pop = build_population(600, rng, n_businesses=12)
        kinds = [s.kind for s in pop.specs.values()]
        select_share = kinds.count(StatementKind.SELECT) / len(kinds)
        assert 0.4 < select_share < 0.95

    def test_intra_business_rates_correlate(self):
        # The Fig. 4 property: templates of one business share a trend.
        rng = np.random.default_rng(3)
        pop = build_population(3600, rng, n_businesses=6)
        business = pop.businesses[0]
        ids = business.sql_ids[:2]
        r = pearson(business.template_rate(ids[0]), business.template_rate(ids[1]))
        assert r > 0.95  # identical latent, different scales

    def test_inter_business_rates_mostly_uncorrelated(self):
        rng = np.random.default_rng(4)
        pop = build_population(3600, rng, n_businesses=6)
        b0, b1 = pop.businesses[0], pop.businesses[1]
        r = pearson(
            b0.template_rate(b0.sql_ids[0]), b1.template_rate(b1.sql_ids[0])
        )
        assert abs(r) < 0.9

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_population(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_population(100, np.random.default_rng(0), n_businesses=0)


class TestWorkloadGenerator:
    def test_rates_at_matches_expected(self):
        rng = np.random.default_rng(6)
        pop = build_population(600, rng, n_businesses=4)
        gen = WorkloadGenerator(pop)
        rates = gen.rates_at(100)
        some_id = next(iter(rates))
        assert rates[some_id] == pytest.approx(pop.expected_rate(some_id)[100])

    def test_rates_clamped_to_duration(self):
        rng = np.random.default_rng(7)
        pop = build_population(60, rng, n_businesses=2)
        gen = WorkloadGenerator(pop)
        assert gen.rates_at(10_000) == gen.rates_at(59)

    def test_counts_at_exposes_schedule(self):
        rng = np.random.default_rng(8)
        pop = build_population(60, rng, n_businesses=2)
        pop.exact_counts["DDL1"] = {30: 2}
        gen = WorkloadGenerator(pop)
        assert gen.counts_at(30) == {"DDL1": 2}
        assert gen.counts_at(31) == {}

    def test_expected_rate_unknown_template(self):
        rng = np.random.default_rng(9)
        pop = build_population(60, rng, n_businesses=2)
        gen = WorkloadGenerator(pop)
        assert gen.expected_rate("NOPE").sum() == 0.0

    def test_rate_override_respected(self):
        rng = np.random.default_rng(10)
        pop = build_population(60, rng, n_businesses=2)
        sql_id = pop.sql_ids[0]
        pop.rate_overrides[sql_id] = np.full(60, 123.0)
        gen = WorkloadGenerator(pop)
        assert gen.rates_at(5)[sql_id] == pytest.approx(123.0)

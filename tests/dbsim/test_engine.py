"""Integration tests: engine + instance causal behaviour.

These verify the couplings PinSQL's diagnosis depends on:
CPU saturation slows queries, DDL piles up sessions, row locks
delay co-table readers, throttling reduces traffic.
"""

import numpy as np
import pytest

from repro.dbsim import Arrivals, DatabaseInstance, TemplateSpec, Throttle
from repro.dbsim.engine import BLOCK_S
from repro.sqltemplate import StatementKind
from tests.dbsim import engine_reference
from tests.dbsim.per_second_reference import reference_step


class ConstantWorkload:
    """Minimal RateProvider with constant rates, optional time windows
    and optional exact one-shot counts (``counts``: sql_id → {t: n})."""

    def __init__(self, specs, rates, windows=None, counts=None):
        self._specs = {s.sql_id: s for s in specs}
        self._rates = dict(rates)
        self._windows = windows or {}
        self._counts = counts or {}
        self.sql_ids = [*self._rates, *(s for s in self._counts if s not in self._rates)]

    @property
    def specs(self):
        return self._specs

    def arrivals(self, t0, t1):
        seconds = np.arange(t0, t1)
        rates = np.zeros((t1 - t0, len(self.sql_ids)))
        for k, (sql_id, rate) in enumerate(self._rates.items()):
            lo, hi = self._windows.get(sql_id, (t0, t1))
            rates[:, k] = np.where((lo <= seconds) & (seconds < hi), rate, 0.0)
        exact = np.full(rates.shape, -1, dtype=np.int64)
        for sql_id, schedule in self._counts.items():
            for t, n in schedule.items():
                if t0 <= t < t1:
                    exact[t - t0, self.sql_ids.index(sql_id)] = n
        return Arrivals(self.sql_ids, rates, exact)


def select_spec(sql_id="SEL00001", table="t", rows=100.0, base=2.0):
    return TemplateSpec(
        sql_id=sql_id,
        template=f"SELECT * FROM {table} WHERE id = ?",
        kind=StatementKind.SELECT,
        tables=(table,),
        base_response_ms=base,
        examined_rows_mean=rows,
    )


def update_spec(sql_id="UPD00001", table="t", hold=200.0, rate_rows=50.0):
    return TemplateSpec(
        sql_id=sql_id,
        template=f"UPDATE {table} SET x = ? WHERE id = ?",
        kind=StatementKind.UPDATE,
        tables=(table,),
        base_response_ms=3.0,
        examined_rows_mean=rate_rows,
        lock_hold_ms=hold,
    )


def ddl_spec(sql_id="DDL00001", table="t", duration=20_000.0):
    return TemplateSpec(
        sql_id=sql_id,
        template=f"ALTER TABLE {table} ADD COLUMN c INT",
        kind=StatementKind.DDL,
        tables=(table,),
        base_response_ms=5.0,
        examined_rows_mean=0.0,
        ddl_duration_ms=duration,
    )


class TestBasicRun:
    def test_logs_and_metrics_produced(self):
        wl = ConstantWorkload([select_spec()], {"SEL00001": 50.0})
        inst = DatabaseInstance(seed=1)
        result = inst.run(wl, duration=30)
        assert result.query_log.total_queries > 1000
        assert len(result.metrics.active_session) == 30
        assert result.metrics["qps"].mean() == pytest.approx(50.0, rel=0.2)
        assert result.duration == 30

    def test_deterministic_given_seed(self):
        wl = ConstantWorkload([select_spec()], {"SEL00001": 20.0})
        r1 = DatabaseInstance(seed=7).run(wl, duration=10)
        r2 = DatabaseInstance(seed=7).run(wl, duration=10)
        assert np.array_equal(
            r1.metrics.active_session.values, r2.metrics.active_session.values
        )
        assert r1.query_log.total_queries == r2.query_log.total_queries

    def test_different_seeds_differ(self):
        wl = ConstantWorkload([select_spec(base=200.0)], {"SEL00001": 20.0})
        r1 = DatabaseInstance(seed=1).run(wl, duration=10)
        r2 = DatabaseInstance(seed=2).run(wl, duration=10)
        assert not np.array_equal(
            r1.metrics.active_session.values, r2.metrics.active_session.values
        )

    def test_start_time_offsets_series(self):
        wl = ConstantWorkload([select_spec()], {"SEL00001": 10.0})
        result = DatabaseInstance(seed=1).run(wl, duration=5, start_time=1000)
        assert result.metrics.active_session.start == 1000
        assert result.end_time == 1005

    def test_active_session_reflects_load(self):
        # Roughly rate × response: 50 qps × ~2.1 ms → session ≈ 0.1, while
        # 50 qps of 500 ms queries → session ≈ 25.
        light = ConstantWorkload([select_spec()], {"SEL00001": 50.0})
        heavy = ConstantWorkload(
            [select_spec(base=500.0)], {"SEL00001": 50.0}
        )
        light_session = DatabaseInstance(seed=3).run(light, 30).metrics.active_session.mean()
        heavy_session = DatabaseInstance(seed=3).run(heavy, 30).metrics.active_session.mean()
        assert heavy_session > light_session + 10


class TestCpuSaturation:
    def test_poor_sql_raises_cpu_and_sessions(self):
        normal = select_spec("SEL00001", rows=100.0)
        poor = select_spec("POOR0001", rows=3_000_000.0, base=50.0)
        wl_quiet = ConstantWorkload([normal], {"SEL00001": 100.0})
        wl_poor = ConstantWorkload(
            [normal, poor],
            {"SEL00001": 100.0, "POOR0001": 10.0},
        )
        inst_q = DatabaseInstance(cpu_cores=4, seed=5)
        quiet = inst_q.run(wl_quiet, duration=60)
        inst_p = DatabaseInstance(cpu_cores=4, seed=5)
        loaded = inst_p.run(wl_poor, duration=60)
        assert loaded.metrics.cpu_usage.mean() > quiet.metrics.cpu_usage.mean() + 30
        assert loaded.metrics.active_session.mean() > quiet.metrics.active_session.mean()

    def test_autoscale_relieves_cpu(self):
        poor = select_spec("POOR0001", rows=2_000_000.0, base=50.0)
        wl = ConstantWorkload([poor], {"POOR0001": 10.0})
        small = DatabaseInstance(cpu_cores=2, seed=5).run(wl, 40)
        big = DatabaseInstance(cpu_cores=32, seed=5).run(wl, 40)
        assert big.metrics.cpu_usage.mean() < small.metrics.cpu_usage.mean()


class TestLockEffects:
    def test_ddl_blocks_co_table_queries(self):
        sel = select_spec("SEL00001", table="sales")
        ddl = ddl_spec("DDL00001", table="sales", duration=20_000.0)
        wl = ConstantWorkload(
            [sel, ddl],
            {"SEL00001": 50.0},
            counts={"DDL00001": {30: 1}},  # exactly one DDL at t=30
        )
        result = DatabaseInstance(seed=9).run(wl, duration=90)
        session = result.metrics.active_session.values
        before = session[:28].mean()
        during = session[35:48].mean()
        assert during > before + 100  # massive pile-up

    def test_ddl_does_not_block_other_tables(self):
        sel = select_spec("SEL00001", table="orders")
        ddl = ddl_spec("DDL00001", table="sales")
        wl = ConstantWorkload(
            [sel, ddl],
            {"SEL00001": 50.0},
            counts={"DDL00001": {30: 1}},
        )
        result = DatabaseInstance(seed=9).run(wl, duration=90)
        session = result.metrics.active_session.values
        # The lone DDL session itself is active, hence the +2 allowance.
        assert session[35:48].mean() < session[:28].mean() + 2

    def test_row_locks_slow_readers_and_bump_counters(self):
        sel = select_spec("SEL00001", table="sales")
        upd = update_spec("UPD00001", table="sales", hold=300.0)
        quiet = ConstantWorkload([sel], {"SEL00001": 80.0})
        hot = ConstantWorkload(
            [sel, upd], {"SEL00001": 80.0, "UPD00001": 40.0}
        )
        rq = DatabaseInstance(seed=11).run(quiet, 40)
        rh = DatabaseInstance(seed=11).run(hot, 40)
        assert rh.metrics["innodb_row_lock_waits"].total() > 100
        assert rq.metrics["innodb_row_lock_waits"].total() == 0
        assert rh.metrics.active_session.mean() > rq.metrics.active_session.mean()


class TestRepairHooks:
    def test_throttle_cuts_traffic(self):
        sel = select_spec()
        wl = ConstantWorkload([sel], {"SEL00001": 100.0})
        inst = DatabaseInstance(seed=13)
        engine = inst.start(wl)
        inst.throttle("SEL00001", factor=0.0, start=10, end=20)
        engine.run(30)
        result = inst.finish()
        qps = result.metrics["qps"].values
        assert qps[:10].mean() > 80
        assert qps[10:20].mean() == 0.0
        assert qps[20:].mean() > 80

    def test_invalid_throttle_factor(self):
        with pytest.raises(ValueError):
            Throttle("X", factor=1.5, start=0, end=10)

    def test_optimization_override_takes_effect(self):
        poor = select_spec("POOR0001", rows=2_000_000.0, base=50.0)
        wl = ConstantWorkload([poor], {"POOR0001": 10.0})
        inst = DatabaseInstance(cpu_cores=4, seed=15)
        engine = inst.start(wl)
        engine.run(20)
        inst.apply_optimization(poor, rows_gain=0.99, tres_gain=0.9)
        # The accumulated CPU backlog takes a while to drain before the
        # optimization's effect becomes visible in the usage metric.
        engine.run(120)
        result = inst.finish()
        cpu = result.metrics.cpu_usage.values
        assert cpu[-20:].mean() < cpu[5:20].mean() * 0.5

    def test_engine_access_requires_run(self):
        inst = DatabaseInstance()
        with pytest.raises(RuntimeError):
            _ = inst.engine

    def test_on_second_callback(self):
        wl = ConstantWorkload([select_spec()], {"SEL00001": 10.0})
        seen = []
        DatabaseInstance(seed=1).run(
            wl, duration=5, on_second=lambda t, eng: seen.append(t)
        )
        assert seen == [0, 1, 2, 3, 4]


class TestTruthSampler:
    def test_sampled_session_matches_truth_at_t3(self):
        wl = ConstantWorkload([select_spec(base=100.0)], {"SEL00001": 50.0})
        result = DatabaseInstance(seed=17).run(wl, duration=20)
        truth_at_t3 = result.truth.active_at(result.t3_ms)
        assert np.array_equal(
            truth_at_t3, result.metrics.active_session.values.astype(int)
        )

    def test_t3_within_each_second(self):
        wl = ConstantWorkload([select_spec()], {"SEL00001": 5.0})
        result = DatabaseInstance(seed=17).run(wl, duration=10, start_time=100)
        seconds = result.t3_ms // 1000
        assert np.array_equal(seconds, np.arange(100, 110))


class TestReadReplicaOffload:
    def test_offload_sheds_read_traffic(self):
        sel = select_spec()
        upd = update_spec("UPD00001", table="t")
        wl = ConstantWorkload([sel, upd], {"SEL00001": 100.0, "UPD00001": 20.0})
        inst = DatabaseInstance(seed=21)
        engine = inst.start(wl)
        engine.run(20)
        inst.add_read_replicas(0.8)
        engine.run(20)
        result = inst.finish()
        log = result.query_log
        sel_q = log.queries_of("SEL00001")
        sel_before = ((sel_q.arrive_ms // 1000) < 20).sum()
        sel_after = ((sel_q.arrive_ms // 1000) >= 20).sum()
        # Roughly 80 % of SELECTs vanish from the primary's logs.
        assert sel_after < 0.45 * sel_before
        # Writes keep flowing to the primary.
        upd_q = log.queries_of("UPD00001")
        upd_after = ((upd_q.arrive_ms // 1000) >= 20).sum()
        assert upd_after > 0.5 * ((upd_q.arrive_ms // 1000) < 20).sum()

    def test_invalid_offload_rejected(self):
        inst = DatabaseInstance(seed=1)
        inst.start(ConstantWorkload([select_spec()], {"SEL00001": 1.0}))
        import pytest as _pytest

        with _pytest.raises(ValueError):
            inst.add_read_replicas(1.0)
        inst.finish()


class GrowingRowsWorkload(ConstantWorkload):
    """ConstantWorkload plus a rows-mean override: one template's
    examined-rows mean grows linearly over the run (data growth)."""

    def __init__(self, specs, rates, growing_id, rows_start, rows_end, duration):
        super().__init__(specs, rates)
        self._growing_id = growing_id
        self._profile = np.linspace(rows_start, rows_end, duration)

    def arrivals(self, t0, t1):
        arrivals = super().arrivals(t0, t1)
        rows = np.full(arrivals.rates.shape, np.nan)
        idx = np.clip(np.arange(t0, t1), 0, len(self._profile) - 1)
        rows[:, self.sql_ids.index(self._growing_id)] = self._profile[idx]
        return arrivals._replace(rows_mean=rows)


class TestTimeVaryingRows:
    def test_examined_rows_track_the_profile(self):
        sel = select_spec(rows=1_000.0)
        wl = GrowingRowsWorkload(
            [sel], {"SEL00001": 50.0}, "SEL00001",
            rows_start=1_000.0, rows_end=50_000.0, duration=40,
        )
        result = DatabaseInstance(seed=5).run(wl, duration=40)
        q = result.query_log.queries_of("SEL00001")
        seconds = q.arrive_ms // 1000
        early = q.examined_rows[seconds < 1].mean()
        late = q.examined_rows[seconds >= 39].mean()
        assert early == pytest.approx(1_000.0, rel=0.5)
        assert late == pytest.approx(50_000.0, rel=0.5)
        assert late > 10 * early

    def test_growing_rows_raise_response_time(self):
        sel = select_spec(rows=1_000.0)
        wl = GrowingRowsWorkload(
            [sel], {"SEL00001": 50.0}, "SEL00001",
            rows_start=1_000.0, rows_end=200_000.0, duration=40,
        )
        result = DatabaseInstance(seed=6).run(wl, duration=40)
        q = result.query_log.queries_of("SEL00001")
        seconds = q.arrive_ms // 1000
        early_rt = q.response_ms[seconds < 5].mean()
        late_rt = q.response_ms[seconds >= 35].mean()
        # Scan cost dominates: response time creeps with the data.
        assert late_rt > 3 * early_rt

    def test_other_templates_unaffected(self):
        sel = select_spec(rows=1_000.0)
        other = select_spec("SEL00002", rows=500.0)
        wl = GrowingRowsWorkload(
            [sel, other], {"SEL00001": 20.0, "SEL00002": 20.0},
            "SEL00001", rows_start=1_000.0, rows_end=50_000.0, duration=30,
        )
        result = DatabaseInstance(seed=7).run(wl, duration=30)
        q = result.query_log.queries_of("SEL00002")
        seconds = q.arrive_ms // 1000
        early = q.examined_rows[seconds < 5].mean()
        late = q.examined_rows[seconds >= 25].mean()
        assert late == pytest.approx(early, rel=0.4)


def per_second(q, t):
    """Mask of a template's queries that arrived in second ``t``."""
    return (q.arrive_ms // 1000) == t


class TestHooksTakeEffectNextSecond:
    """Every control-plane hook changes the very next simulated second."""

    def test_override_spec_refreshes_a_seen_template(self):
        poor = select_spec("POOR0001", rows=200_000.0, base=50.0)
        inst = DatabaseInstance(seed=31)
        engine = inst.start(ConstantWorkload([poor], {"POOR0001": 50.0}))
        engine.run(10)
        inst.apply_optimization(poor, rows_gain=0.99, tres_gain=0.9)
        engine.run(1)
        q = inst.finish().query_log.queries_of("POOR0001")
        assert q.examined_rows[per_second(q, 9)].mean() > 100_000
        assert q.examined_rows[per_second(q, 10)].mean() < 5_000

    def test_override_before_first_appearance_is_used(self):
        late = select_spec("LATE0001", base=2.0)
        wl = ConstantWorkload([select_spec(), late], {"SEL00001": 10.0, "LATE0001": 50.0},
                              windows={"LATE0001": (5, 10)})
        inst = DatabaseInstance(seed=32)
        engine = inst.start(wl)
        engine.run(2)
        engine.override_spec(TemplateSpec(
            sql_id="LATE0001", template=late.template, kind=late.kind,
            tables=late.tables, base_response_ms=400.0, examined_rows_mean=100.0,
        ))
        engine.run(8)
        q = inst.finish().query_log.queries_of("LATE0001")
        assert q.response_ms.min() > 100.0

    def test_throttle_added_from_on_second(self):
        def hook(t, engine):
            if t == 5:
                engine.add_throttle(Throttle("SEL00001", 0.0, 5, 8))

        wl = ConstantWorkload([select_spec()], {"SEL00001": 100.0})
        qps = DatabaseInstance(seed=33).run(wl, 10, on_second=hook).metrics["qps"].values
        assert qps[4] > 50 and qps[8] > 50
        assert list(qps[5:8]) == [0.0, 0.0, 0.0]

    def test_exact_counts_are_thinned_by_throttles(self):
        ddl = ddl_spec("DDL00001", table="other", duration=10.0)
        wl = ConstantWorkload([ddl], {}, counts={"DDL00001": {t: 50 for t in range(10)}})
        inst = DatabaseInstance(seed=34)
        engine = inst.start(wl)
        inst.throttle("DDL00001", factor=0.0, start=5, end=10)
        engine.run(10)
        qps = inst.finish().metrics["qps"].values
        assert list(qps[:5]) == [50.0] * 5 and list(qps[5:]) == [0.0] * 5

    def test_read_replicas_from_on_second(self):
        def hook(t, engine):
            if t == 5:
                inst.add_read_replicas(0.95)

        sel = select_spec()
        upd = update_spec("UPD00001", table="t", hold=1.0)
        wl = ConstantWorkload([sel, upd], {"SEL00001": 200.0, "UPD00001": 50.0})
        inst = DatabaseInstance(seed=35)
        log = inst.run(wl, 7, on_second=hook).query_log
        sel_q, upd_q = log.queries_of("SEL00001"), log.queries_of("UPD00001")
        assert per_second(sel_q, 4).sum() > 120
        assert per_second(sel_q, 5).sum() < 40
        assert per_second(upd_q, 5).sum() > 25  # writes stay on the primary

    def test_template_first_appearing_mid_run(self):
        # Replay workloads omit zero rates: LATE0001 is unknown until t=7.
        late = select_spec("LATE0001", table="u", base=300.0)
        wl = ConstantWorkload([select_spec(), late], {"SEL00001": 20.0, "LATE0001": 30.0},
                              windows={"LATE0001": (7, 20)})
        result = DatabaseInstance(seed=36).run(wl, 10)
        log = result.query_log
        assert log.sql_ids == ["SEL00001", "LATE0001"]
        q = log.queries_of("LATE0001")
        assert int(q.arrive_ms.min()) // 1000 == 7 and per_second(q, 7).sum() > 10
        assert q.response_ms.mean() > 200.0
        assert result.metrics.active_session.values[7:].mean() > 3.0


class BlockScenario(engine_reference.ScenarioWorkload):
    """The reference scenario with its DDL moved so that its MDL window
    crosses the first block edge."""

    DDL_AT = BLOCK_S - 3

    def arrivals(self, t0, t1):
        arrivals = super().arrivals(t0, t1)
        exact = arrivals.exact_counts.copy()
        ddl = engine_reference.SQL_IDS.index("DDL_ITM")
        exact[:, ddl] = np.where(np.arange(t0, t1) == self.DDL_AT, 1, -1)
        return arrivals._replace(exact_counts=exact)


class TestBlockStepping:
    """A block is bit-identical to stepping its seconds one at a time,
    and to the per-second loop the block pass replaced.

    The scenario puts every engine path inside multi-second blocks: a
    throttle added before the run with a window off the block edges,
    exact counts thinned by a throttle, read offload switched on between
    two runs, the rows profile, an MDL window crossing a block edge and
    a template first appearing mid-block.
    """

    HALF = 45  # off the block edges: the second run starts mid-block

    def _simulate(self, seed, advance):
        instance = DatabaseInstance(cpu_cores=engine_reference.CPU_CORES, seed=seed)
        engine = instance.start(BlockScenario())
        instance.throttle("DEL_SAL", 0.25, 37, 73)
        instance.throttle("INS_BAT", 0.5, 15, 65)
        advance(engine, self.HALF)
        instance.add_read_replicas(0.5)
        advance(engine, self.HALF)
        return instance.finish()

    @staticmethod
    def _one_second_at_a_time(engine, seconds):
        for _ in range(seconds):
            engine.step()

    @staticmethod
    def _per_second_reference(engine, seconds):
        for _ in range(seconds):
            reference_step(engine)

    @staticmethod
    def _assert_bit_identical(blocks, seconds):
        assert blocks.query_log.sql_ids == seconds.query_log.sql_ids
        for sql_id in seconds.query_log.sql_ids:
            b, s = blocks.query_log.queries_of(sql_id), seconds.query_log.queries_of(sql_id)
            for field in ("arrive_ms", "response_ms", "examined_rows"):
                assert getattr(b, field).tobytes() == getattr(s, field).tobytes(), (sql_id, field)
        assert blocks.metrics.names == seconds.metrics.names
        for name in seconds.metrics.names:
            b, s = blocks.metrics[name].values, seconds.metrics[name].values
            assert b.tobytes() == s.tobytes(), name
        assert blocks.t3_ms.tobytes() == seconds.t3_ms.tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_run_equals_one_second_steps(self, seed):
        blocks = self._simulate(seed, lambda engine, n: engine.run(n))
        seconds = self._simulate(seed, self._one_second_at_a_time)
        self._assert_bit_identical(blocks, seconds)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_run_equals_the_per_second_reference(self, seed):
        blocks = self._simulate(seed, lambda engine, n: engine.run(n))
        reference = self._simulate(seed, self._per_second_reference)
        self._assert_bit_identical(blocks, reference)

    def test_uneven_blocks_equal_one_second_steps(self):
        def uneven(engine, n):
            lengths = (7, 13, 1, 24)
            assert sum(lengths) == n
            for length in lengths:
                engine.step(length)

        self._assert_bit_identical(
            self._simulate(1, uneven), self._simulate(1, self._one_second_at_a_time)
        )

    def test_scenario_reaches_every_path_inside_blocks(self):
        result = self._simulate(1, lambda engine, n: engine.run(n))
        log = result.query_log
        # The MDL window from second BLOCK_S - 3 blocks readers in the next block.
        items = log.queries_of("SEL_ITM")
        after_edge = (items.arrive_ms // 1000 >= BLOCK_S) & (items.arrive_ms // 1000 < BLOCK_S + 3)
        assert (items.response_ms[after_edge] > 1_000.0).any()
        # The throttle halves the exact batches; the offload thins reads.
        batches = log.queries_of("INS_BAT")
        per_batch = np.bincount(batches.arrive_ms // 1000 // 10, minlength=9)
        assert per_batch[2:6].max() < engine_reference.BATCH_SIZE
        assert list(per_batch[[0, 7, 8]]) == [engine_reference.BATCH_SIZE] * 3
        orders = log.queries_of("SEL_ORD").arrive_ms // 1000
        assert (orders >= self.HALF).sum() < 0.7 * (orders < self.HALF).sum()
        assert log.sql_ids.index("SEL_LATE") > log.sql_ids.index("PING")
        assert result.metrics["innodb_row_lock_waits"].values.sum() > 0

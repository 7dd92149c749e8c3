"""Tests for the lock manager (MDL + row locks)."""

import numpy as np
import pytest

from repro.dbsim import LockManager


class TestMdl:
    def test_blocking_window(self):
        lm = LockManager()
        lm.acquire_mdl("sales", start_ms=1000.0, duration_ms=5000.0)
        arrive = np.array([500.0, 1500.0, 5999.0, 6000.0])
        wait = lm.mdl_wait("sales", arrive)
        assert wait[0] == 0.0            # before the lock
        assert wait[1] == pytest.approx(4500.0)
        assert wait[2] == pytest.approx(1.0)
        assert wait[3] == 0.0            # after release

    def test_other_table_unaffected(self):
        lm = LockManager()
        lm.acquire_mdl("sales", 0.0, 10_000.0)
        wait = lm.mdl_wait("orders", np.array([100.0]))
        assert wait[0] == 0.0

    def test_overlapping_locks_take_max(self):
        lm = LockManager()
        lm.acquire_mdl("t", 0.0, 2000.0)
        lm.acquire_mdl("t", 500.0, 5000.0)  # ends at 5500
        wait = lm.mdl_wait("t", np.array([600.0]))
        assert wait[0] == pytest.approx(4900.0)

    def test_prune_drops_expired(self):
        lm = LockManager()
        lm.acquire_mdl("t", 0.0, 1000.0)
        lm.acquire_mdl("t", 2000.0, 8000.0)  # ends at 10000
        arrive = np.array([500.0, 6000.0])
        assert list(lm.mdl_wait("t", arrive)) == pytest.approx([500.0, 4000.0])
        lm.prune_mdl(5000.0)
        # The expired window no longer blocks even an arrival it covered.
        assert list(lm.mdl_wait("t", arrive)) == pytest.approx([0.0, 4000.0])

    def test_blocked_until(self):
        lm = LockManager()
        lm.acquire_mdl("t", 1000.0, 2000.0)
        wait = lm.mdl_wait("t", np.array([1500.0, 4000.0]))
        assert 1500.0 + wait[0] == pytest.approx(3000.0)
        assert wait[1] == 0.0

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            LockManager().acquire_mdl("t", 0.0, 0.0)


class TestRowLocks:
    def test_no_pressure_no_waits(self):
        lm = LockManager()
        lm.begin_block()
        rng = np.random.default_rng(0)
        waits, stats = lm.row_lock_wait("t", 100, rng)
        assert waits.sum() == 0.0
        assert stats.waits.tolist() == [0]

    def test_pressure_induces_waits(self):
        lm = LockManager(conflict_rate=0.5)
        lm.begin_block()
        lm.add_write_load("t", writes_per_second=200.0, hold_ms=50.0)  # pressure 10
        rng = np.random.default_rng(1)
        waits, stats = lm.row_lock_wait("t", 1000, rng)
        assert stats.waits[0] > 500  # p_wait = 1 - e^-5 ≈ 0.993
        assert stats.wait_time_ms[0] == pytest.approx(waits.sum())
        assert waits.max() <= lm.max_wait_ms

    def test_self_pressure_excluded(self):
        lm = LockManager(conflict_rate=0.5)
        lm.begin_block()
        lm.add_write_load("t", 200.0, 50.0)
        rng = np.random.default_rng(2)
        waits, stats = lm.row_lock_wait("t", 1000, rng, exclude_self_pressure=10.0)
        assert stats.waits.tolist() == [0]

    def test_pressure_resets_each_second(self):
        lm = LockManager()
        lm.begin_block(2)
        lm.add_write_load("t", 100.0, 100.0, second=0)
        assert lm.pressure("t", second=0) == pytest.approx(10.0)
        assert lm.pressure("t", second=1) == 0.0
        lm.begin_block()
        assert lm.pressure("t") == 0.0

    def test_pressure_accumulates_within_second(self):
        lm = LockManager()
        lm.begin_block(3)
        lm.add_write_load("t", 100.0, 100.0, second=1)
        lm.add_write_load("t", 50.0, 100.0, second=1)
        t = lm.table_index("t")
        lm.add_write_load(np.array([t, t]), np.array([20.0, 30.0]), 100.0, second=np.array([2, 2]))
        assert lm.pressure("t", second=1) == pytest.approx(15.0)
        assert lm.pressure("t", second=2) == pytest.approx(5.0)
        assert lm.pressure("t", second=0) == 0.0

    def test_other_table_isolated(self):
        lm = LockManager(conflict_rate=0.5)
        lm.begin_block()
        lm.add_write_load("a", 200.0, 50.0)
        rng = np.random.default_rng(3)
        _, stats = lm.row_lock_wait("b", 500, rng)
        assert stats.waits.tolist() == [0]

    def test_zero_queries(self):
        lm = LockManager()
        lm.begin_block()
        waits, stats = lm.row_lock_wait("t", 0, np.random.default_rng(0))
        assert len(waits) == 0 and stats.waits.tolist() == [0]

    def test_negative_load_rejected(self):
        lm = LockManager()
        lm.begin_block()
        with pytest.raises(ValueError):
            lm.add_write_load("t", -1.0, 10.0)

    def test_invalid_conflict_rate(self):
        with pytest.raises(ValueError):
            LockManager(conflict_rate=-0.1)

"""The matrix trend pass against the per-row trend code it replaced.

``template_trends`` smooths every qualifying template of a window in one
``ewma_rows`` pass; before it, each check called ``half_rise`` once per
template row.  The per-row code is kept below as the reference, and the
findings of the two template trend checks (and the trend maths itself)
must come out bit for bit the same: ids, severities, messages and every
evidence float.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.health import HealthConfig, HealthFinding
from repro.health.checks import (
    ConnectionPressureCheck,
    LockFootprintTrendCheck,
    RisingResponseTimeCheck,
    RisingRowsExaminedCheck,
    _trend_severity,
    ewma,
    ewma_rows,
    half_rise,
    half_rises,
    template_trends,
)
from tests.health.conftest import make_ctx, make_templates


# ----------------------------------------------------------------------
# Reference: the per-row trend code the matrix pass replaced
# ----------------------------------------------------------------------
def ref_ewma(values, alpha=0.2):
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n == 0:
        return values
    decay = 1.0 - alpha
    out = np.empty(n, dtype=np.float64)
    out[0] = carry = values[0]
    block = 512
    i = 1
    while i < n:
        x = values[i : i + block]
        scale = decay ** np.arange(len(x), dtype=np.float64)
        y = (decay * scale) * carry + alpha * scale * np.cumsum(x / scale)
        out[i : i + len(x)] = y
        carry = y[-1]
        i += len(x)
    return out


def ref_half_rise(values):
    smoothed = ref_ewma(np.asarray(values, dtype=np.float64))
    mid = len(smoothed) // 2
    head = float(np.mean(smoothed[:mid])) if mid else 0.0
    tail = float(np.mean(smoothed[mid:])) if len(smoothed) > mid else 0.0
    if head <= 0.0:
        return head, tail, float("inf") if tail > 0.0 else 0.0
    return head, tail, (tail - head) / head


def ref_rising_response_time(ctx):
    cfg = ctx.config
    store = ctx.templates
    for sql_id, execs, avg in zip(
        store.sql_ids, store.matrix("#execution"), store.matrix("avg_tres")
    ):
        active = execs > 0
        if float(execs.sum()) < cfg.min_template_executions:
            continue
        rt = avg[active]
        if len(rt) < cfg.min_trend_samples:
            continue
        head, tail, rise = ref_half_rise(rt)
        if rise >= cfg.rt_rise_ratio and tail >= cfg.min_rt_ms:
            yield HealthFinding(
                check="rising-response-time",
                severity=_trend_severity(rise, cfg.rt_rise_ratio),
                instance_id=ctx.instance_id,
                sql_id=sql_id,
                metric="avg_tres",
                message=(
                    f"mean response time of {sql_id} rose "
                    f"{rise:+.0%} over the sweep window "
                    f"({head:.1f} → {tail:.1f} ms) without tripping "
                    "the anomaly detector"
                ),
                evidence={
                    "head_ms": round(head, 3),
                    "tail_ms": round(tail, 3),
                    "rise": round(rise, 4),
                    "executions": float(execs.sum()),
                },
                suggestion=(
                    "inspect the plan and recent data growth for "
                    f"{sql_id} before the trend becomes an incident"
                ),
            )


def ref_rising_rows_examined(ctx):
    cfg = ctx.config
    store = ctx.templates
    for sql_id, execs, rows in zip(
        store.sql_ids, store.matrix("#execution"), store.matrix("total_examined_rows")
    ):
        active = execs > 0
        if float(execs.sum()) < cfg.min_template_executions:
            continue
        per_exec = rows[active] / execs[active]
        if len(per_exec) < cfg.min_trend_samples:
            continue
        head, tail, rise = ref_half_rise(per_exec)
        if rise >= cfg.rows_rise_ratio and tail >= cfg.min_rows_per_exec:
            yield HealthFinding(
                check="rising-rows-examined",
                severity=_trend_severity(rise, cfg.rows_rise_ratio),
                instance_id=ctx.instance_id,
                sql_id=sql_id,
                metric="total_examined_rows",
                message=(
                    f"rows examined per execution of {sql_id} rose "
                    f"{rise:+.0%} ({head:.0f} → {tail:.0f} rows) — a "
                    "plan or selectivity regression in progress"
                ),
                evidence={
                    "head_rows": round(head, 1),
                    "tail_rows": round(tail, 1),
                    "rise": round(rise, 4),
                },
                suggestion=(
                    f"check index statistics and predicates of {sql_id}; "
                    "rows/execution growth usually precedes rt growth"
                ),
            )


def ref_trends(execs, per_second, cfg):
    out = []
    for row, (e, v) in enumerate(zip(execs, per_second)):
        active = e > 0
        if float(e.sum()) < cfg.min_template_executions:
            continue
        if np.count_nonzero(active) < cfg.min_trend_samples:
            continue
        out.append((row, *ref_half_rise(v[active])))
    return out


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Thresholds low enough that random windows fire both checks often.
LOOSE = HealthConfig(
    min_trend_samples=4,
    min_template_executions=5.0,
    rt_rise_ratio=0.05,
    min_rt_ms=0.0,
    rows_rise_ratio=0.05,
    min_rows_per_exec=0.0,
)


def random_store(seed: int, templates: int, seconds: int, density: float,
                 zero_heads: bool, spread: bool = True):
    """Sparse random per-template series, each row active on a share of
    seconds drawn up to ``density`` (exactly ``density`` without
    ``spread``); ``zero_heads`` zeroes the response time and rows of
    every other row's first half of active seconds."""
    rng = np.random.default_rng(seed)
    series = {}
    for t in range(templates):
        share = rng.uniform(0.0, density) if spread else density
        active = rng.random(seconds) < share
        execs = rng.integers(1, 6, seconds) * active.astype(np.float64)
        avg = rng.gamma(2.0, 10.0, seconds) * np.linspace(1.0, rng.uniform(0.5, 3.0), seconds)
        per_exec = rng.gamma(2.0, 500.0, seconds) * np.linspace(1.0, rng.uniform(0.5, 3.0), seconds)
        if zero_heads and t % 2 == 0:
            idx = np.flatnonzero(active)
            avg[idx[: len(idx) // 2]] = 0.0
            per_exec[idx[: len(idx) // 2]] = 0.0
        series[f"T{t:02d}"] = {
            "#execution": execs,
            "avg_tres": avg * active,
            "total_examined_rows": per_exec * execs,
        }
    return make_templates(series, window=seconds)


def findings_key(findings):
    return [
        (f.check, f.severity, f.instance_id, f.sql_id, f.metric, f.message,
         f.evidence, f.suggestion)
        for f in findings
    ]


def assert_checks_match(ctx):
    new_rt = findings_key(RisingResponseTimeCheck().check(ctx))
    new_rows = findings_key(RisingRowsExaminedCheck().check(ctx))
    assert new_rt == findings_key(ref_rising_response_time(ctx))
    assert new_rows == findings_key(ref_rising_rows_examined(ctx))
    return len(new_rt) + len(new_rows)


def assert_trends_match(store, cfg):
    execs = store.matrix("#execution")
    got = list(template_trends(execs, store.matrix("avg_tres"), cfg))
    assert got == ref_trends(execs, store.matrix("avg_tres"), cfg)
    return got


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
class TestMatrixTrendPass:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        templates=st.integers(0, 9),
        seconds=st.integers(1, 1_200),
        density=st.floats(0.0, 1.0),
        zero_heads=st.booleans(),
        loose=st.booleans(),
    )
    def test_sparse_random_matrices(self, seed, templates, seconds, density,
                                    zero_heads, loose):
        store = random_store(seed, templates, seconds, density, zero_heads)
        cfg = LOOSE if loose else HealthConfig()
        assert_trends_match(store, cfg)
        assert_checks_match(make_ctx(templates=store, config=cfg))

    def test_rows_crossing_the_ewma_block(self):
        # Dense rows of 600-1200 active seconds cross the 512-value block
        # (and the second one at 1025).
        store = random_store(7, 6, 1_200, 0.9, zero_heads=False, spread=False)
        active = np.count_nonzero(store.matrix("#execution") > 0, axis=1)
        assert (active > 513).all() and (active > 1025).any()
        got = assert_trends_match(store, LOOSE)
        assert len(got) == 6
        assert assert_checks_match(make_ctx(templates=store, config=LOOSE)) > 0

    def test_zero_heads_read_as_infinite_rise(self):
        store = random_store(11, 6, 300, 0.9, zero_heads=True, spread=False)
        got = assert_trends_match(store, LOOSE)
        assert any(rise == float("inf") for *_, rise in got)
        ctx = make_ctx(templates=store, config=LOOSE)
        assert assert_checks_match(ctx) > 0
        rises = [f.evidence["rise"] for f in RisingResponseTimeCheck().check(ctx)]
        assert float("inf") in rises

    @pytest.mark.parametrize("samples", [39, 40])
    @pytest.mark.parametrize("executions", [29.0, 30.0])
    def test_thresholds_exactly_and_one_below(self, samples, executions):
        cfg = HealthConfig()  # min_trend_samples=40, min_template_executions=30
        window = 120
        execs = np.zeros(window)
        execs[:samples] = 0.5
        execs[0] += executions - 0.5 * samples  # the row sums to ``executions``
        rt = np.linspace(20.0, 2_000.0, window)
        store = make_templates(
            {"EDGE": {"#execution": execs, "avg_tres": rt * (execs > 0),
                      "total_examined_rows": np.linspace(1e3, 1e5, window) * execs}},
            window=window,
        )
        got = assert_trends_match(store, cfg)
        qualifies = samples >= 40 and executions >= 30.0
        assert len(got) == (1 if qualifies else 0)
        assert assert_checks_match(make_ctx(templates=store, config=cfg)) == (
            2 if qualifies else 0
        )

    def test_empty_store(self):
        store = make_templates({})
        assert assert_trends_match(store, LOOSE) == []
        assert assert_checks_match(make_ctx(templates=store, config=LOOSE)) == 0


class TestOneRowIsTheMatrixPass:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 1_600))
    def test_ewma_and_half_rise_match_the_reference(self, seed, n):
        values = np.random.default_rng(seed).gamma(2.0, 10.0, n)
        assert np.array_equal(ewma(values), ref_ewma(values))
        assert half_rise(values) == ref_half_rise(values)

    def test_rows_of_a_matrix_match_rows_alone(self):
        rng = np.random.default_rng(3)
        lengths = [0, 1, 2, 511, 512, 513, 514, 1025, 1300]
        packed = np.zeros((len(lengths), max(lengths)))
        for r, n in enumerate(lengths):
            packed[r, :n] = rng.gamma(2.0, 10.0, n)
        smoothed = ewma_rows(packed)
        for r, n in enumerate(lengths):
            assert np.array_equal(smoothed[r, :n], ref_ewma(packed[r, :n]))
        assert half_rises(packed, lengths) == [ref_half_rise(packed[r, :n])
                                                for r, n in enumerate(lengths)]

    @pytest.mark.parametrize("check, metric", [
        (LockFootprintTrendCheck, "innodb_row_lock_time"),
        (ConnectionPressureCheck, "active_session"),
    ])
    def test_metric_checks_use_the_same_trend(self, check, metric):
        values = np.linspace(3.0, 400.0, 700) + np.random.default_rng(5).normal(0, 2, 700)
        findings = list(check().check(make_ctx(metrics={metric: values})))
        assert len(findings) == 1
        head, tail, rise = ref_half_rise(values)
        assert findings[0].evidence["rise"] == round(rise, 4)

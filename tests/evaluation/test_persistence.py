"""Tests for case persistence (save/load round trips)."""

import numpy as np
import pytest

from repro.collection import TEMPLATE_METRICS
from repro.core import PinSQL
from repro.evaluation.persistence import (
    load_case,
    load_corpus,
    save_case,
    save_corpus,
)


class TestRoundTrip:
    def test_labels_preserved(self, poor_sql_case, tmp_path):
        path = save_case(poor_sql_case, tmp_path / "case.npz")
        loaded = load_case(path)
        assert loaded.r_sqls == poor_sql_case.r_sqls
        assert loaded.h_sqls == poor_sql_case.h_sqls
        assert loaded.category is poor_sql_case.category
        assert loaded.detected == poor_sql_case.detected
        assert loaded.seed == poor_sql_case.seed

    def test_window_and_metrics_preserved(self, poor_sql_case, tmp_path):
        loaded = load_case(save_case(poor_sql_case, tmp_path / "case.npz"))
        orig = poor_sql_case.case
        assert loaded.case.anomaly_start == orig.anomaly_start
        assert loaded.case.anomaly_end == orig.anomaly_end
        assert loaded.case.ts == orig.ts and loaded.case.te == orig.te
        assert np.array_equal(
            loaded.case.active_session.values, orig.active_session.values
        )
        for name in orig.metrics.names:
            assert np.array_equal(
                loaded.case.metrics[name].values, orig.metrics[name].values
            )

    def test_template_series_preserved(self, poor_sql_case, tmp_path):
        loaded = load_case(save_case(poor_sql_case, tmp_path / "case.npz"))
        orig = poor_sql_case.case
        # Rows come back in the saved order, every metric bit for bit.
        assert loaded.case.sql_ids == orig.sql_ids
        store = loaded.case.templates
        assert (store.start, store.end, store.interval) == (
            orig.templates.start, orig.templates.end, orig.templates.interval
        )
        for metric in TEMPLATE_METRICS:
            assert store.matrix(metric).tobytes() == orig.templates.matrix(metric).tobytes()

    def test_logs_preserved(self, poor_sql_case, tmp_path):
        loaded = load_case(save_case(poor_sql_case, tmp_path / "case.npz"))
        orig = poor_sql_case.case
        assert loaded.case.logs.total_queries() == orig.logs.total_queries()
        sid = orig.logs.sql_ids[0]
        a = orig.logs.queries_in_window(sid, orig.ts, orig.te)
        b = loaded.case.logs.queries_in_window(sid, orig.ts, orig.te)
        assert np.array_equal(a.arrive_ms, b.arrive_ms)
        assert np.array_equal(a.response_ms, b.response_ms)

    def test_history_and_catalog_preserved(self, poor_sql_case, tmp_path):
        loaded = load_case(save_case(poor_sql_case, tmp_path / "case.npz"))
        orig = poor_sql_case.case
        assert set(loaded.case.history) == set(orig.history)
        sid = next(iter(orig.history))
        assert np.array_equal(
            loaded.case.history_of(sid, 1).values, orig.history_of(sid, 1).values
        )
        assert loaded.case.history_of(sid, 1).interval == 60
        for info in orig.catalog:
            got = loaded.case.catalog.get(info.sql_id)
            assert got is not None
            assert got.template == info.template
            assert got.kind is info.kind
            assert got.tables == info.tables

    def test_diagnosis_identical_after_roundtrip(self, poor_sql_case, tmp_path):
        loaded = load_case(save_case(poor_sql_case, tmp_path / "case.npz"))
        a = PinSQL().analyze(poor_sql_case.case)
        b = PinSQL().analyze(loaded.case)
        assert a.rsql_ids == b.rsql_ids
        assert a.hsql_ids == b.hsql_ids


class TestCorpusIO:
    def test_save_and_load_corpus(self, poor_sql_case, row_lock_case, tmp_path):
        paths = save_corpus([poor_sql_case, row_lock_case], tmp_path / "corpus")
        assert len(paths) == 2
        corpus = load_corpus(tmp_path / "corpus")
        assert len(corpus) == 2
        assert corpus[0].category is poor_sql_case.category
        assert corpus[1].category is row_lock_case.category

    def test_load_empty_directory(self, tmp_path):
        assert load_corpus(tmp_path) == []

    def test_version_check(self, poor_sql_case, tmp_path):
        import json

        path = save_case(poor_sql_case, tmp_path / "case.npz")
        data = dict(np.load(path))
        meta = json.loads(bytes(data["__meta__"]).decode())
        meta["version"] = 999
        data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_case(path)


class TestMultiInstance:
    def test_instance_id_survives_roundtrip(self, poor_sql_case, tmp_path):
        import dataclasses

        labelled = dataclasses.replace(poor_sql_case, instance_id="inst-03")
        loaded = load_case(save_case(labelled, tmp_path / "case.npz"))
        assert loaded.instance_id == "inst-03"
        assert loaded.r_sqls == labelled.r_sqls
        assert loaded.category is labelled.category

    def test_corpus_preserves_per_case_instances(
        self, poor_sql_case, row_lock_case, tmp_path
    ):
        import dataclasses

        cases = [
            dataclasses.replace(poor_sql_case, instance_id="inst-00"),
            dataclasses.replace(row_lock_case, instance_id="inst-01"),
        ]
        save_corpus(cases, tmp_path / "corpus")
        corpus = load_corpus(tmp_path / "corpus")
        assert [c.instance_id for c in corpus] == ["inst-00", "inst-01"]

    def test_pre_fleet_archive_loads_unattributed(self, poor_sql_case, tmp_path):
        import json

        # Archives written before instance_id existed have no such label;
        # they must load with the unattributed sentinel, not fail.
        path = save_case(poor_sql_case, tmp_path / "case.npz")
        data = dict(np.load(path))
        meta = json.loads(bytes(data["__meta__"]).decode())
        meta["labels"].pop("instance_id")
        data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **data)
        assert load_case(path).instance_id == ""

"""Tests for the diagnosis report renderer and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core import PinSQL, RepairEngine
from repro.core.report import render_report
from repro.evaluation.persistence import save_case


class TestReport:
    def test_report_contains_key_sections(self, row_lock_case):
        result = PinSQL().analyze(row_lock_case.case)
        report = render_report(row_lock_case.case, result)
        assert "Root cause SQLs" in report.text
        assert "High-impact SQLs" in report.text
        assert "Propagation-chain evidence" in report.text
        assert report.top_r_sql == result.rsql_ids[0]
        assert report.top_h_sql == result.hsql_ids[0]
        assert str(report) == report.text

    def test_report_shows_statements(self, row_lock_case):
        result = PinSQL().analyze(row_lock_case.case)
        report = render_report(row_lock_case.case, result)
        info = row_lock_case.case.catalog.get(result.rsql_ids[0])
        assert info.template[:30] in report.text

    def test_report_with_plan(self, row_lock_case):
        result = PinSQL().analyze(row_lock_case.case)
        plan = RepairEngine().plan(row_lock_case.case, result)
        report = render_report(row_lock_case.case, result, plan=plan)
        assert "Suggested repair actions" in report.text

    def test_lock_narrative_on_shared_table(self, row_lock_case):
        result = PinSQL().analyze(row_lock_case.case)
        report = render_report(row_lock_case.case, result)
        if report.top_r_sql != report.top_h_sql:
            r_info = row_lock_case.case.catalog.get(report.top_r_sql)
            h_info = row_lock_case.case.catalog.get(report.top_h_sql)
            if set(r_info.tables) & set(h_info.tables):
                assert "lock-based blocking" in report.text


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--seed", "3", "--category", "mdl_lock", "--out", "x.npz"]
        )
        assert args.seed == 3
        assert args.category == "mdl_lock"

    def test_evaluate_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate"])

    def test_telemetry_flags(self):
        args = build_parser().parse_args(["demo", "--telemetry"])
        assert args.telemetry
        args = build_parser().parse_args(["obs", "--format", "prometheus"])
        assert args.format == "prometheus"
        assert args.log_format == "kv"


class TestCliCommands:
    def test_generate_then_diagnose(self, tmp_path, capsys):
        out = tmp_path / "case.npz"
        code = main(
            [
                "generate", "--seed", "5", "--category", "poor_sql",
                "--delta-start", "360", "--anomaly-length", "180",
                "--businesses", "4", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        code = main(["diagnose", str(out), "--suggest-repairs"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "PinSQL diagnosis report" in captured
        assert "ground truth check" in captured

    def test_diagnose_saved_fixture(self, poor_sql_case, tmp_path, capsys):
        path = save_case(poor_sql_case, tmp_path / "case.npz")
        assert main(["diagnose", str(path), "--no-buckets"]) == 0
        assert "Root cause SQLs" in capsys.readouterr().out

    def test_evaluate_saved_corpus(self, poor_sql_case, row_lock_case, tmp_path, capsys):
        from repro.evaluation.persistence import save_corpus

        save_corpus([poor_sql_case, row_lock_case], tmp_path)
        assert main(["evaluate", "--cases", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PinSQL" in out and "Top-RT" in out

    def test_evaluate_empty_directory_fails(self, tmp_path, capsys):
        assert main(["evaluate", "--cases", str(tmp_path)]) == 1

    def test_evaluate_telemetry_dumps_snapshot(
        self, poor_sql_case, row_lock_case, tmp_path, capsys
    ):
        from repro.evaluation.persistence import save_corpus

        save_corpus([poor_sql_case, row_lock_case], tmp_path)
        assert main(["evaluate", "--cases", str(tmp_path), "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "telemetry: metrics snapshot" in out
        assert "telemetry: span tree" in out
        assert "span_duration_seconds" in out


class TestCliObs:
    @pytest.fixture(autouse=True)
    def _fast_case(self, monkeypatch):
        """Shrink the obs demo case so these tests stay quick."""
        import repro.evaluation as evaluation
        from repro.evaluation import CorpusConfig

        original = evaluation.generate_case

        def fast(seed, cfg, category=None):
            small = CorpusConfig(
                delta_start_s=360, anomaly_length_s=(150, 200),
                n_businesses=(4, 4),
            )
            return original(seed, small, category=category)

        monkeypatch.setattr(evaluation, "generate_case", fast)

    def test_obs_prometheus_is_valid_exposition(self, capsys):
        import re

        assert main(["obs", "--format", "prometheus", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        sample_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9.+eE\-]+$'
        )
        lines = out.strip().splitlines()
        assert lines
        for line in lines:
            assert line.startswith("#") or sample_re.match(line), line
        assert "# TYPE span_duration_seconds histogram" in out
        assert 'span="pinsql.analyze"' in out
        assert "# TYPE logstore_queries_ingested_total counter" in out

    def test_obs_json_snapshot(self, capsys):
        import json

        assert main(["obs", "--format", "json", "--seed", "3"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert set(snap) == {"counters", "gauges", "histograms"}
        names = {h["name"] for h in snap["histograms"]}
        assert "span_duration_seconds" in names

    def test_obs_summary_shows_span_tree(self, capsys):
        assert main(["obs", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot" in out
        assert "span tree" in out
        assert "pinsql.analyze" in out
        assert "session_estimation" in out


class TestCliDemo:
    def test_demo_runs(self, capsys, monkeypatch):
        # Shrink the demo corpus so the test stays quick.
        import repro.cli as cli
        from repro.evaluation import CorpusConfig

        def fast_demo(args):
            from repro.core import PinSQL
            from repro.core.report import render_report
            from repro.evaluation import generate_case
            from repro.workload import AnomalyCategory

            cfg = CorpusConfig(
                delta_start_s=360, anomaly_length_s=(150, 200),
                n_businesses=(4, 4),
            )
            labeled = generate_case(args.seed, cfg, category=AnomalyCategory(args.category))
            result = PinSQL().analyze(labeled.case)
            print(render_report(labeled.case, result).text)
            return 0

        monkeypatch.setattr(cli, "cmd_demo", fast_demo)
        monkeypatch.setitem(cli._COMMANDS, "demo", fast_demo)
        assert cli.main(["demo", "--seed", "3", "--category", "row_lock"]) == 0
        assert "PinSQL diagnosis report" in capsys.readouterr().out


class TestReportEdges:
    def test_empty_rsql_ranking_escalates(self, row_lock_case):
        result = PinSQL().analyze(row_lock_case.case)
        result.rsql.ranked = []
        report = render_report(row_lock_case.case, result)
        assert "escalate to a DBA" in report.text
        assert report.top_r_sql is None

    def test_widened_note_shown(self, row_lock_case):
        result = PinSQL().analyze(row_lock_case.case)
        result.rsql.widened = True
        report = render_report(row_lock_case.case, result)
        assert "widened" in report.text
        assert (
            "history verification rejected every selected candidate, so every"
            " clustered template was re-verified" in report.text
        )

    def test_self_caused_narrative(self, row_lock_case):
        result = PinSQL().analyze(row_lock_case.case)
        # Force top H == top R to exercise the self-caused narrative.
        top_r = result.rsql_ids[0]
        from repro.core.hsql import HsqlScores

        result.hsql.scores.insert(
            0, HsqlScores(top_r, trend=1.0, scale=1.0, scale_trend=1.0, impact=99.0)
        )
        report = render_report(row_lock_case.case, result)
        assert "both root cause and top H-SQL" in report.text

"""Accuracy-under-faults gates: the chaos harness run end to end.

One fixed-seed suite (clean baseline + every fault class) runs once per
test session; every gate below reads the resulting scorecard.  These
are the acceptance criteria of the resilience layer:

* every fault class completes with zero uncaught exceptions;
* attribution accuracy under ≤10% message loss stays within tolerance
  of the clean baseline;
* corrupted evidence produces *degraded-stamped* diagnoses that are
  visible in the persisted incident records, not silently full-
  confidence verdicts.
"""

import pytest

from repro.chaos import FAULT_KINDS
from repro.incidents import IncidentStore
from tests.chaos import diagnoses_golden, scorecard_golden

#: Accuracy may drop under faults, but not collapse: a run that loses
#: more than this much R-SQL accuracy vs the clean baseline fails.
ACCURACY_TOLERANCE = 0.5


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    """The seed-7 suite (``run_chaos_suite``), each run on its own registry."""
    record_dir = tmp_path_factory.mktemp("chaos-incidents")
    return scorecard_golden.run_suite(record_dir=str(record_dir))


@pytest.fixture(scope="module")
def chaos_setup(chaos_run):
    cfg, scorecard, *_ = chaos_run
    return cfg, scorecard


@pytest.fixture(scope="module")
def scorecard(chaos_setup):
    return chaos_setup[1]


class TestCompletionGates:
    def test_every_fault_class_ran(self, scorecard):
        assert scorecard.clean is not None
        assert tuple(r.fault for r in scorecard.faults) == FAULT_KINDS

    def test_all_runs_completed_without_uncaught_exceptions(self, scorecard):
        for report in [scorecard.clean, *scorecard.faults]:
            assert report.completed, f"{report.fault} did not complete"
            assert report.uncaught_exceptions == 0, (
                f"{report.fault} raised: {report.errors}"
            )
        assert scorecard.all_completed

    def test_stream_faults_actually_fired(self, scorecard):
        # Worker faults may legitimately never fire at low rates over few
        # steps; the stream fault classes must inject something, or the
        # gates are vacuous.
        for fault in ("drop", "duplicate", "reorder", "corrupt", "backpressure"):
            report = scorecard.report_for(fault)
            assert report.faults_injected > 0, f"{fault} injected nothing"


class TestAccuracyGates:
    def test_clean_baseline_attributes_every_injected_rsql(self, scorecard):
        clean = scorecard.clean
        assert clean.r_expected == 2
        assert clean.r_accuracy == 1.0
        assert clean.missed_instances == 0

    def test_rsql_accuracy_survives_message_loss(self, scorecard):
        # The drop plan loses ~10% of every stream — the headline gate.
        drop = scorecard.report_for("drop")
        clean = scorecard.clean
        assert drop.r_accuracy >= clean.r_accuracy - ACCURACY_TOLERANCE
        assert drop.r_accuracy >= 0.5

    @pytest.mark.parametrize(
        "fault", [k for k in FAULT_KINDS if k not in ("worker_crash", "worker_hang")]
    )
    def test_every_stream_fault_keeps_accuracy_within_tolerance(
        self, scorecard, fault
    ):
        report = scorecard.report_for(fault)
        clean = scorecard.clean
        assert report.r_accuracy >= clean.r_accuracy - ACCURACY_TOLERANCE
        assert report.h_accuracy >= clean.h_accuracy - ACCURACY_TOLERANCE

    def test_anomalies_still_detected_under_faults(self, scorecard):
        for report in [scorecard.clean, *scorecard.faults]:
            assert report.detected_instances >= 1, (
                f"{report.fault}: no anomalous instance got any diagnosis"
            )


class TestDegradedEvidenceGates:
    def test_corruption_yields_degraded_diagnoses(self, scorecard):
        corrupt = scorecard.report_for("corrupt")
        assert corrupt.quarantined > 0
        assert corrupt.degraded_diagnoses > 0

    def test_degraded_confidence_is_persisted_in_incident_records(
        self, chaos_setup
    ):
        cfg, scorecard = chaos_setup
        store = IncidentStore(f"{cfg.record_dir}/corrupt")
        metas = store.metas()
        assert metas, "corrupt run persisted no incidents"
        degraded = [m for m in metas if m.confidence == "degraded"]
        assert len(degraded) == scorecard.report_for("corrupt").degraded_diagnoses

    def test_clean_run_keeps_full_confidence(self, chaos_setup):
        cfg, _ = chaos_setup
        metas = IncidentStore(f"{cfg.record_dir}/clean").metas()
        assert metas
        assert all(m.confidence == "full" for m in metas)


class TestRecoveryGates:
    def test_supervised_restarts_recover_crashed_workers(self, scorecard):
        crash = scorecard.report_for("worker_crash")
        assert crash.worker_restarts >= 1
        assert crash.completed and crash.uncaught_exceptions == 0

    def test_quarantine_only_engages_under_corruption(self, scorecard):
        assert scorecard.clean.quarantined == 0
        assert scorecard.report_for("drop").quarantined == 0


class TestGoldenCounts:
    def test_fault_counts_match_the_pinned_golden(self, chaos_run):
        # Quarantines (and their reasons), injected faults, resyncs and
        # degraded diagnoses per fault class are pinned exactly: see
        # tests/chaos/scorecard_golden.py for how to re-pin on purpose.
        _, scorecard, registries, _ = chaos_run
        actual = scorecard_golden.counts(
            scorecard_golden.reports_of(scorecard.to_dict()), registries
        )
        assert scorecard_golden.mismatches(actual, scorecard_golden.load()) == []


class TestGoldenDiagnoses:
    def test_diagnoses_match_the_pinned_golden(self, chaos_run):
        # Every run's ranked R-SQL ids and float64 scores, H-SQL ids and
        # degraded reasons are pinned bit for bit: see
        # tests/chaos/diagnoses_golden.py for how to re-pin on purpose.
        *_, diagnoses = chaos_run
        actual = diagnoses_golden.digests(diagnoses)
        assert diagnoses_golden.mismatches(actual, diagnoses_golden.load()) == []

    def test_incident_records_carry_the_same_diagnoses(self, chaos_run):
        # The CI chaos-smoke job checks the persisted records, so they
        # must digest exactly like the in-process diagnoses.
        cfg, _, _, diagnoses = chaos_run
        assert diagnoses_golden.record_digests(
            cfg.record_dir, diagnoses
        ) == diagnoses_golden.digests(diagnoses)

"""Bit-level pin of the health sweeps (see ``sweep_golden.py``)."""

import pytest

from tests.health import sweep_golden


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    record_dir = tmp_path_factory.mktemp("sweep-golden")
    return sweep_golden.digests(
        *sweep_golden.run_sweeps(str(record_dir)),
        context=sweep_golden.context_findings(),
        context_advisories=sweep_golden.context_advisories(),
    )


def test_fleet_sweeps_match_the_pinned_golden(actual):
    # Findings, advisories and each sweep context's template store of the
    # CI health-smoke fleet run, the synthetic context's findings and the
    # synthetic engine's advisories.
    assert sweep_golden.mismatches(actual, sweep_golden.load()) == []


def test_golden_covers_every_template_check(actual):
    golden = sweep_golden.load()
    assert golden["checks"]["rising-response-time"] > 0
    assert len(golden["context"]) == 2  # rising-rows-examined, antipattern-share
    assert len(golden["stores"]) > 0
    assert len(golden["context_advisories"]) == 2  # index-advisor, lock-conflict
    assert actual.keys() == golden.keys()

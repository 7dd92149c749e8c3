"""Statistical equivalence of the simulator against its reference engine.

``engine_reference.json`` holds per-seed summaries of the scenario in
``engine_reference.py`` as produced by the engine at the commit named in
its header.  Here the current engine runs the same scenario for the same
seeds, and each summary (per template: count, mean and p90 response,
mean rows; per run: row-lock waits, active-session mean and p99) is
compared with a two-sample Mann-Whitney U test.

The seed is the unit of replication: queries of one second share a
slowdown, so per-query tests would be anti-conservative.  The family of
tests is held at α = 0.01 by a Bonferroni correction.  A summary that is
the same constant in every reference run (one scheduled DDL, a fixed
batch size) must stay that constant.
"""

import json
import math
from pathlib import Path

import pytest
from scipy.stats import mannwhitneyu

from tests.dbsim.engine_reference import SEEDS, summaries

REFERENCE = json.loads((Path(__file__).parent / "engine_reference.json").read_text())
FAMILY_ALPHA = 0.01


@pytest.fixture(scope="module")
def current():
    return summaries(SEEDS)


def _samples(runs, key):
    values = [run[key] for run in runs.values()]
    assert all(v is not None for v in values), key
    return values


def test_reference_covers_the_same_seeds():
    assert REFERENCE["meta"]["seeds"] == list(SEEDS)
    assert len(SEEDS) >= 10


def test_summaries_are_statistically_equivalent(current):
    reference = REFERENCE["summaries"]
    keys = sorted(next(iter(reference.values())))
    assert sorted(next(iter(current.values()))) == keys
    varying, constant = [], []
    for key in keys:
        ref = _samples(reference, key)
        (constant if len(set(ref)) == 1 else varying).append(key)
    for key in constant:
        assert set(_samples(current, key)) == set(_samples(reference, key)), key
    alpha = FAMILY_ALPHA / len(varying)
    rejected = {}
    for key in varying:
        p = mannwhitneyu(_samples(reference, key), _samples(current, key)).pvalue
        if not p >= alpha:
            rejected[key] = p
    assert not rejected, f"differs from the reference at alpha={alpha:.2g}: {rejected}"


def test_every_path_is_exercised(current):
    run = current[str(SEEDS[0])]
    assert run["instance.row_lock_waits"] > 0
    assert run["DDL_ITM.count"] == 1.0 and run["SEL_ITM.response_p90"] > 0
    assert run["POOR.response_mean"] > 10 * 40.0  # CPU saturation slows the scan
    assert run["PING.rows_mean"] == 0.0 and not math.isnan(run["PING.response_mean"])

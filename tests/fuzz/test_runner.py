"""Real-simulation determinism: fixtures, digests, caches, artifacts.

Satellite 3 of the fuzzer issue: the same spec + seed must reproduce
bit-identical corpora — both the fuzzer's in-memory fleet fixtures
(compared by content digest) and the dataset pipeline's ``.npz``
artifacts (compared byte-for-byte on disk).
"""

import pickle
from dataclasses import replace

import pytest

from repro.evaluation.dataset import CorpusConfig, generate_case
from repro.evaluation.persistence import save_case
from repro.fuzz import (
    ScenarioRunner,
    ScenarioSpec,
    build_fixture,
    fixture_digest,
)
from repro.workload import AnomalyCategory


@pytest.fixture(scope="module")
def small_spec():
    return ScenarioSpec(name="digest-probe", seed=19, duration_s=240)


def test_fixture_digest_stable_across_builds(small_spec):
    first = fixture_digest(build_fixture(small_spec))
    second = fixture_digest(build_fixture(small_spec))
    assert first == second


def test_fixture_digest_survives_json_round_trip(small_spec):
    round_tripped = ScenarioSpec.from_json(small_spec.to_json())
    assert fixture_digest(build_fixture(round_tripped)) == fixture_digest(
        build_fixture(small_spec)
    )


def test_fixture_digest_distinguishes_seeds(small_spec):
    other = ScenarioSpec(name="digest-probe", seed=20, duration_s=240)
    assert fixture_digest(build_fixture(other)) != fixture_digest(
        build_fixture(small_spec)
    )


@pytest.fixture(scope="module")
def small_fixture(small_spec):
    return build_fixture(small_spec)


def _with_first_query_block(fixture, change):
    """A copy of ``fixture`` whose first feed's first query block is
    ``change(block)``; every other block is shared."""
    feed = fixture.feeds[0]
    blocks = [change(feed.query_blocks[0]), *feed.query_blocks[1:]]
    feeds = [replace(feed, query_blocks=blocks), *fixture.feeds[1:]]
    return replace(fixture, feeds=feeds)


def _bump_first_response(block):
    rows = block.data.copy()
    rows["response_ms"][0] += 1.0
    return block.with_rows(rows)


@pytest.mark.parametrize(
    "change",
    [
        _bump_first_response,
        lambda b: replace(b, sql_ids=(*b.sql_ids[:-1], b.sql_ids[-1] + "x")),
        lambda b: replace(b, statements=("SELECT 0",) * b.n_templates),
        lambda b: replace(b, instance=b.instance + "x"),
    ],
    ids=["rows", "dictionary", "statements", "instance"],
)
def test_fixture_digest_sees_each_block_field(small_fixture, change):
    changed = _with_first_query_block(small_fixture, change)
    assert fixture_digest(changed) != fixture_digest(small_fixture)


def test_fixture_digest_ignores_envelope_and_transport(small_fixture):
    """The digest hashes content: a pickled copy (as shipped to a
    worker) and a re-stamped block hash the same."""
    digest = fixture_digest(small_fixture)
    assert fixture_digest(pickle.loads(pickle.dumps(small_fixture))) == digest
    restamped = _with_first_query_block(small_fixture, lambda b: b.stamped(None, 99.0))
    assert fixture_digest(restamped) == digest


def test_runner_caches_by_content_not_name(small_spec):
    runner = ScenarioRunner()
    outcome = runner.evaluate(small_spec)
    assert runner.evaluate(small_spec) is outcome
    renamed = runner.evaluate(small_spec.with_name("alias"))
    assert renamed is outcome
    assert runner.evaluations == 1


def test_runner_shares_fixture_across_harness_knobs(small_spec):
    """top_k is not part of the workload: mutating it must not rebuild
    (or change) the simulated fleet."""
    runner = ScenarioRunner()
    _, digest = runner.fixture_for(small_spec)
    from dataclasses import replace

    retuned = replace(small_spec, top_k=5)
    _, digest2 = runner.fixture_for(retuned)
    assert digest == digest2
    assert len(runner._fixtures) == 1


def test_npz_artifacts_bit_identical(tmp_path):
    cfg = CorpusConfig(delta_start_s=600, anomaly_length_s=(180, 240))
    paths = []
    for name in ("one.npz", "two.npz"):
        case = generate_case(
            23, cfg, category=AnomalyCategory.ROW_LOCK, instance_id="db-00"
        )
        paths.append(save_case(case, tmp_path / name))
    assert paths[0].read_bytes() == paths[1].read_bytes()

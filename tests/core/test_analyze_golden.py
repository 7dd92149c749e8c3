"""PinSQL and its Fig. 6 ablations reproduce the pinned analyze digests."""

import numpy as np
import pytest

from repro.core import PinSQL
from tests.core import analyze_golden


@pytest.fixture(scope="module")
def cases():
    return analyze_golden.corpus()


@pytest.fixture(scope="module")
def digests(cases):
    return analyze_golden.digests(cases)


def test_every_digest_matches_the_pin(digests):
    assert analyze_golden.mismatches(digests, analyze_golden.load()) == []


def test_golden_pins_pinsql_and_eight_ablations():
    golden = analyze_golden.load()
    assert list(golden) == ["pinsql", *(f"w/o {a}" for a in analyze_golden.ABLATIONS)]
    assert {len(pinned) for pinned in golden.values()} == {analyze_golden.CORPUS["n_cases"]}


def test_digest_sees_a_one_ulp_change(cases, digests):
    result = PinSQL(analyze_golden.configs()["pinsql"]).analyze(cases[0].case)
    assert analyze_golden.digest(result) == digests["pinsql"][0]
    row = result.sessions.values[0]
    row[-1] = np.nextafter(row[-1], np.inf)
    assert analyze_golden.digest(result) != digests["pinsql"][0]

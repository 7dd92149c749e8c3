"""Shared benchmark fixtures.

The evaluation corpus is expensive to simulate, so it is generated once
and cached on disk (``benchmarks/.cache``); delete the directory to
force regeneration.  Every benchmark also appends its report to
``results/`` so the regenerated tables survive pytest's output capture.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro.evaluation import CorpusConfig, generate_corpus

CACHE_DIR = Path(__file__).parent / ".cache"
RESULTS_DIR = Path(__file__).parent.parent / "results"

#: The benchmark corpus: paper-like δs and anomaly lengths, scaled so a
#: full regeneration stays within minutes.
BENCH_CORPUS = CorpusConfig(
    n_cases=32,
    seed=2022,
    delta_start_s=900,
    anomaly_length_s=(300, 600),
    n_businesses=(6, 12),
)


def _cached(name: str, factory):
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"{name}.pkl"
    if path.exists():
        with open(path, "rb") as f:
            return pickle.load(f)
    value = factory()
    with open(path, "wb") as f:
        pickle.dump(value, f)
    return value


@pytest.fixture(scope="session")
def corpus():
    """The shared labelled anomaly-case corpus (disk-cached)."""
    return _cached("corpus_v1", lambda: generate_corpus(BENCH_CORPUS))


def write_report(name: str, text: str) -> Path:
    """Persist a regenerated table under results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text)
    print(text)
    return path


def write_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable result under ``results/<name>.json``.

    The human table from :func:`write_report` is for eyeballs; this is
    the shape CI jobs upload and regression tooling diffs.  Keys should
    be stable across runs — put environment facts (cores, corpus size)
    in the payload rather than the name.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[{name}] JSON written to {path}")
    return path

"""Shared benchmark fixtures.

The evaluation corpus is expensive to simulate, so it is generated once
and cached on disk (``benchmarks/.cache``); delete the directory to
force regeneration.  Every benchmark also appends its report to
``results/`` so the regenerated tables survive pytest's output capture.
"""

from __future__ import annotations

import hashlib
import importlib
import io
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


class _ModulePickler(pickle.Pickler):
    """Records the ``repro`` modules whose classes the pickle holds."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.modules: set[str] = set()

    def persistent_id(self, obj):
        owner = obj if isinstance(obj, type) else type(obj)
        module = getattr(owner, "__module__", None) or ""
        if module.split(".")[0] == "repro":
            self.modules.add(module)
        return None


def _source_digest(modules) -> str:
    """sha256 over the source of ``modules`` (a removed module digests as
    empty, which no live source matches)."""
    h = hashlib.sha256()
    for name in sorted(modules):
        h.update(name.encode() + b"\0")
        try:
            module = importlib.import_module(name)
            h.update(Path(module.__file__).read_bytes())
        except (ImportError, OSError, TypeError):
            h.update(b"\0missing")
    return h.hexdigest()


def _cached(name: str, factory):
    """``factory()``, pickled under ``benchmarks/.cache/<name>.pkl``.

    The file starts with the ``repro`` modules whose classes the value
    holds and a digest of their source.  A pickle whose modules' source
    has changed since, or that has no such header, is rebuilt, so a
    change to a cached class never loads a stale object.
    """
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"{name}.pkl"
    if path.exists():
        try:
            with open(path, "rb") as f:
                header = pickle.load(f)
                if (
                    isinstance(header, dict)
                    and header.get("digest") == _source_digest(header.get("modules", ()))
                ):
                    return pickle.load(f)
        except Exception:  # an unreadable or older-layout pickle: rebuild
            pass
    value = factory()
    buffer = io.BytesIO()
    pickler = _ModulePickler(buffer)
    pickler.dump(value)
    modules = sorted(pickler.modules)
    with open(path, "wb") as f:
        pickle.dump({"modules": modules, "digest": _source_digest(modules)}, f)
        f.write(buffer.getvalue())
    return value


@pytest.fixture(scope="session")
def corpus():
    """The shared labelled anomaly-case corpus (disk-cached)."""
    return _cached("corpus_v3", lambda: generate_corpus(BENCH_CORPUS))


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

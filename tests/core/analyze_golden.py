"""Bit-level digests of ``PinSQL.analyze`` on a small labelled corpus.

``golden/analyze_seed2.json`` records one sha256 per (configuration,
case): full PinSQL and its eight Fig. 6 ablations, each over the cases
of :data:`CORPUS`.  A digest covers everything ``analyze`` decides:

* the R-SQL ranking (ids and scores), the verified set and whether the
  candidate set was widened;
* every H-SQL score (trend, scale, scale-trend, impact) with α and β;
* the selected session buckets and the bytes of every per-template
  estimated session series and their total.

Scores are hashed as their float64 bytes, so a change that only
reorders a floating-point sum moves a digest.  Performance work on the
analysis stages must leave every digest where it is; the tier-1 gate is
``test_analyze_golden.py``.  To check the current source by hand::

    PYTHONPATH=src python tests/core/analyze_golden.py

A change that moves the outputs on purpose re-pins them in the same
change with :func:`pin` (``python -c "from tests.core.analyze_golden
import pin; pin()"`` from the repository root, with ``src`` on the path)
and says why.  The corpus comes from the simulator, so a change to case
generation moves the digests too.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).parent / "golden" / "analyze_seed2.json"

#: The eight single-component ablations of the paper's Fig. 6.
ABLATIONS = (
    "cumulative_threshold",
    "direct_cause_ranking",
    "history_verification",
    "weighted_final_score",
    "estimate_session",
    "scale_score",
    "trend_score",
    "scale_trend_score",
)

#: ``dataset.CorpusConfig`` arguments of the pinned corpus: one case per
#: anomaly category, short enough to generate in a few seconds.
CORPUS = {
    "n_cases": 5,
    "seed": 2,
    "delta_start_s": 235,
    "anomaly_length_s": [150, 200],
    "n_businesses": [4, 5],
    "cpu_cores_choices": [8],
}


def corpus():
    """The pinned labelled cases."""
    from repro.evaluation import CorpusConfig, generate_corpus
    from repro.workload import AnomalyCategory

    cfg = {k: tuple(v) if isinstance(v, list) else v for k, v in CORPUS.items()}
    weights = tuple((category, 1.0) for category in AnomalyCategory)
    return generate_corpus(CorpusConfig(**cfg, category_weights=weights))


def configs() -> dict:
    """``name -> PinSQLConfig``: full PinSQL, then each ablation."""
    from repro.core import PinSQLConfig

    full = PinSQLConfig()
    return {"pinsql": full, **{f"w/o {a}": full.without(a) for a in ABLATIONS}}


def digest(result) -> str:
    """sha256 of one :class:`PinSQLResult`'s decisions and numbers."""
    h = hashlib.sha256()

    def text(value: str) -> None:
        h.update(value.encode() + b"\0")

    def number(*values: float) -> None:
        h.update(np.asarray(values, dtype=np.float64).tobytes())

    rsql = result.rsql
    for sql_id, score in rsql.ranked:
        text(sql_id)
        number(score)
    text("verified")
    for sql_id in rsql.verified:
        text(sql_id)
    text(f"widened={rsql.widened}")
    hsql = result.hsql
    number(hsql.alpha, hsql.beta)
    for s in hsql.scores:
        text(s.sql_id)
        number(s.trend, s.scale, s.scale_trend, s.impact)
    sessions = result.sessions
    h.update(np.asarray(sessions.selected_buckets, dtype=np.int64).tobytes())
    for sql_id, row in zip(sessions.sql_ids, sessions.values):
        text(sql_id)
        h.update(np.asarray(row, dtype=np.float64).tobytes())
    h.update(np.asarray(sessions.total.values, dtype=np.float64).tobytes())
    return h.hexdigest()


def digests(cases=None) -> dict[str, list[str]]:
    """``config name -> [digest per case]`` for the current source."""
    from repro.core import PinSQL
    from repro.telemetry import Tracer

    cases = corpus() if cases is None else cases
    return {
        name: [digest(PinSQL(cfg, tracer=Tracer()).analyze(c.case)) for c in cases]
        for name, cfg in configs().items()
    }


def mismatches(actual: dict, golden: dict) -> list[str]:
    """Every (config, case) whose digest differs from the pinned one."""
    problems = []
    if list(actual) != list(golden):
        problems.append(f"configs {list(actual)} != pinned {list(golden)}")
    for name in [n for n in golden if n in actual]:
        if len(actual[name]) != len(golden[name]):
            problems.append(f"{name}: {len(actual[name])} cases != pinned {len(golden[name])}")
        for i, (got, pinned) in enumerate(zip(actual[name], golden[name])):
            if got != pinned:
                problems.append(f"{name} case {i}: {got[:12]} != pinned {pinned[:12]}")
    return problems


def load() -> dict[str, list[str]]:
    return json.loads(GOLDEN.read_text())["digests"]


def pin() -> None:
    """Re-record the golden file from the current source."""
    data = {"corpus": CORPUS, "digests": digests()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=2) + "\n")


def main() -> int:
    problems = mismatches(digests(), load())
    for problem in problems:
        print(problem)
    print(f"{len(problems)} digest(s) moved" if problems else "analyze digests match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

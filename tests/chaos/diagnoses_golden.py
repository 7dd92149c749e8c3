"""Pinned diagnoses of the seed-7 resilience suite.

``golden/diagnoses_seed7.json`` records one sha256 per fault class (and
the clean baseline) over what each diagnosis of that run concluded:

* the instance it was made for;
* the top :data:`TOP` ranked R-SQL ids with their scores;
* the top :data:`TOP` H-SQL ids;
* the degraded-confidence reasons.

Scores are hashed as their float64 bytes, so a change that only moves a
score in its last bit moves a digest.  :data:`TOP` is the incident
recorder's default depth, so the same digest can be read from the
in-process diagnoses or from the incident records a run persists.
Diagnoses are hashed in sorted order, which makes the digest independent
of the order the service finished them in (``scorecard_golden`` pins how
many there are).

The tier-1 gate is ``test_resilience_gates.py::TestGoldenDiagnoses``.
To check the incident records written by ``repro chaos --seed 7
--instances 3 --anomalous 2 --duration 480 --record DIR``::

    PYTHONPATH=src python tests/chaos/diagnoses_golden.py DIR

A change that moves the diagnoses on purpose re-pins them in the same
change with :func:`pin` (``python -c "from tests.chaos.diagnoses_golden
import pin; pin()"`` from the repository root, with ``src`` on the
path) and says why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

GOLDEN = Path(__file__).parent / "golden" / "diagnoses_seed7.json"

#: Ranked R-SQLs and H-SQLs hashed per diagnosis (the recorder's default).
TOP = 10


def entry(
    instance_id: str,
    rsql: Iterable[tuple[str, float]],
    hsql_ids: Iterable[str],
    degraded_reasons: Iterable[str],
) -> bytes:
    """The hashed bytes of one diagnosis."""
    parts = [instance_id.encode(), b"rsql"]
    for sql_id, score in rsql:
        parts.append(sql_id.encode() + np.float64(score).tobytes())
    parts.append(b"hsql")
    parts.extend(sql_id.encode() for sql_id in hsql_ids)
    parts.append(b"degraded")
    parts.extend(reason.encode() for reason in degraded_reasons)
    return b"\0".join(parts)


def digest(entries: Iterable[bytes]) -> str:
    h = hashlib.sha256()
    for item in sorted(entries):
        h.update(len(item).to_bytes(8, "big") + item)
    return h.hexdigest()


def from_diagnosis(diagnosis) -> bytes:
    """:func:`entry` of an in-process :class:`~repro.fleet.engine.Diagnosis`."""
    result = diagnosis.result
    return entry(
        diagnosis.instance_id,
        result.rsql.ranked[:TOP],
        [s.sql_id for s in result.hsql.scores[:TOP]],
        diagnosis.degraded_reasons,
    )


def from_record(record) -> bytes:
    """:func:`entry` of a persisted :class:`~repro.incidents.IncidentRecord`."""
    return entry(
        record.instance_id,
        [(r.sql_id, r.score) for r in record.rsql[:TOP]],
        [h.sql_id for h in record.hsql[:TOP]],
        record.degraded_reasons,
    )


def digests(diagnoses: Mapping[str, Iterable]) -> dict[str, str]:
    """``fault -> digest`` of each run's in-process diagnoses."""
    return {
        fault: digest(from_diagnosis(d) for d in diags)
        for fault, diags in diagnoses.items()
    }


def record_digests(record_dir: str | Path, faults: Iterable[str]) -> dict[str, str]:
    """``fault -> digest`` of the incident records under
    ``<record_dir>/<fault>``."""
    from repro.incidents import IncidentStore

    out = {}
    for fault in faults:
        store = IncidentStore(Path(record_dir) / fault)
        out[fault] = digest(
            from_record(store.get(meta.incident_id)) for meta in store.metas()
        )
    return out


def mismatches(actual: Mapping[str, str], golden: Mapping[str, str]) -> list[str]:
    problems = []
    if set(actual) != set(golden):
        problems.append(f"fault classes {sorted(actual)} != pinned {sorted(golden)}")
    for fault in sorted(set(actual) & set(golden)):
        if actual[fault] != golden[fault]:
            problems.append(
                f"{fault}: {actual[fault][:12]} != pinned {golden[fault][:12]}"
            )
    return problems


def load() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())["digests"]


def pin() -> None:
    """Re-record the golden file from the current source."""
    from tests.chaos import scorecard_golden

    *_, diagnoses = scorecard_golden.run_suite()
    data = {"config": scorecard_golden.CONFIG, "top": TOP, "digests": digests(diagnoses)}
    GOLDEN.write_text(json.dumps(data, indent=2) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: diagnoses_golden.py RECORD_DIR", file=sys.stderr)
        return 2
    golden = load()
    problems = mismatches(record_digests(argv[0], golden), golden)
    for problem in problems:
        print(problem)
    print(f"{len(problems)} diagnosis digest(s) moved" if problems
          else "pinned diagnoses match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

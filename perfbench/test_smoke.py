"""Smoke test of the benchmark harness at toy size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks the result-line contract against ``BENCHMARK.json`` for every
workload, that the traced run's counts repeat exactly across runs, and
that the command fails cleanly where the program source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("dbsim.rows", "dbsim.lock_calls", "collection.published_bytes",
         "collection.quarantined", "fleet.diagnoses", "incidents.records",
         "core.analyses")


def run(workload: str, trace: int = 0, seed: int = 3, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_end_to_end_metrics_match_the_benchmark_file(workload):
    metrics = result_of(run(workload))["metrics"]
    assert list(metrics) == [m["name"] for m in BENCH["end_to_end"]]
    for spec in BENCH["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0, spec["name"]


def test_traced_counts_repeat_exactly():
    first = result_of(run("fleet", trace=1))["metrics"]
    again = result_of(run("fleet", trace=1))["metrics"]
    assert sorted(first) == sorted(m["name"] for m in BENCH["per_layer"])
    for name in EXACT:
        assert first[name]["value"] == again[name]["value"], name
    assert first["dbsim.rows"]["value"] > 0 and first["core.analyses"]["value"] > 0
    assert first["trace.overhead_ratio"]["value"] > 0


def test_fails_without_the_program_source():
    bare = ROOT / "perfbench" / "out" / "smoke-no-source"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("fleet", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

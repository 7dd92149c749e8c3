"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fleet --seeds 1-10 --seconds 15
    python3 perfbench/spread.py --workload chaos --seeds 1-10 --seconds 15 \\
        --record perfbench/baseline.json --label seeds-1-10

For every metric it prints the median over the seeds and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median, next to the metric's bound in ``BENCHMARK.json``
(``!`` marks a spread above a third of the bound).  ``--record`` stores
the medians, spreads and every run under ``<label>`` and the workload
in a baseline file; ``--trace 1`` records the per-layer run instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fleet", "chaos", "corpus"))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None)
    parser.add_argument("--label", default="baseline")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, **result})
        values = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)
    summary = {}
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        median, share = spread(values)
        bound = bounds.get(metric)
        flag = "!" if bound is not None and share > bound / 3 else " "
        summary[metric] = {"unit": runs[0]["metrics"][metric]["unit"],
                           "median": median, "iqr_share": share}
        print(f"{flag} {metric:<28} median {median:>12.6g}  spread {share:7.4f}"
              + (f"  bound {bound}" if bound is not None else ""))
    if args.record is not None:
        doc = json.loads(args.record.read_text()) if args.record.exists() else {}
        doc.setdefault(args.label, {})[f"{args.workload}/trace{args.trace}"] = {
            "seconds": seconds, "summary": summary, "runs": runs,
        }
        args.record.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

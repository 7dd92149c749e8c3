"""The repository's benchmark: one command, three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

``--workload`` is ``fleet``, ``chaos`` or ``corpus`` (see ``GLOSSARY.md``).
With ``--trace 0`` the run sets up the workload several times (reporting
the median set-up time), then runs the timed part for ``--seconds``
seconds and prints every end-to-end metric; its times are reference
seconds (``refclock.py``), wall time corrected for the host's speed.  With ``--trace 1`` it runs
every input once untraced and once traced, and prints every per-layer
metric plus the tracing overhead; the spans are written to
``perfbench/out/``.  Either way the outputs are checked against ground
truth, the last line of standard output is one JSON object, and the exit
code is 1 when a correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: End-to-end metrics: (name, unit).  Every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("e2e_inst_s_per_s", "inst_s/s"),
    ("service_inst_s_per_s", "inst_s/s"),
    ("success_ratio", "ratio"),
    ("rsql_hits_at_1", "ratio"),
    ("rsql_hits_at_3", "ratio"),
    ("rsql_mrr", "ratio"),
    ("hsql_hits_at_1", "ratio"),
)
#: Printed with the end-to-end metrics but left out of the result line:
#: ``failed_ratio`` (broken operations) is 0 on a clean run (it travels as
#: ``failed`` / ``attempted``); the analyze percentiles rest on 6-10 distinct calls on
#: ``fleet`` and ``chaos`` and spread beyond any bound across seeds, while
#: ``service_inst_s_per_s`` on ``corpus`` already gates analyze time.
PRINTED_ONLY = (
    ("failed_ratio", "ratio"),
    ("analyze_ms_p50", "ms"),
    ("analyze_ms_p80", "ms"),
)

#: How many times each workload is set up per run (median reported).
SETUP_REPEATS = {"fleet": 7, "chaos": 3, "corpus": 2}

_perf = time.perf_counter


def _import_program():
    """Put the checkout's ``src`` on the path and import the harness."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import refclock
    import tracing
    import workloads

    return workloads, tracing, refclock


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _share(ranks: list, k: int) -> float:
    return sum(1 for r in ranks if r is not None and r <= k) / len(ranks) if ranks else 0.0


def by_input(units: list) -> dict[str, list]:
    """Units grouped by the input they ran, in first-run order."""
    groups: dict[str, list] = {}
    for unit in units:
        groups.setdefault(unit.input_key, []).append(unit)
    return groups


def _median_time(repeats: list, attr: str) -> dict[str, float]:
    """Per piece, the median over the repeats that all timed it."""
    pieces = getattr(repeats[0], attr)
    return {
        p: statistics.median(getattr(u, attr)[p] for u in repeats)
        for p in pieces
        if all(p in getattr(u, attr) for u in repeats)
    }


def end_to_end(units: list, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics from the timed units, plus sample counts.

    Times are reference seconds (``refclock``).  Each input ran more than
    once; every timed piece keeps its median repeat, then work and times
    are summed across inputs.  Scores come from the first run of each
    input.
    """
    groups = by_input(units)
    firsts = [repeats[0] for repeats in groups.values()]
    e2e_s = sum(sum(_median_time(r, "e2e").values()) for r in groups.values())
    service_s = sum(sum(_median_time(r, "service").values()) for r in groups.values())
    analyze = [1000.0 * t for r in groups.values()
               for t in _median_time(r, "analyze").values()]
    r_ranks = [r for u in firsts for r in u.r_ranks]
    h_ranks = [r for u in firsts for r in u.h_ranks]
    hits3, expected3 = (sum(u.hits3[i] for u in firsts) for i in (0, 1))
    attempted = sum(u.attempted for u in firsts)
    missed = sum(len(u.misses) for u in firsts)
    failed = sum(u.failed for u in firsts)
    inst_s = sum(u.inst_s for u in firsts)
    runs = f"{len(groups)} inputs, {len(units) / len(groups):.1f} runs each"
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        "e2e_inst_s_per_s": inst_s / e2e_s,
        "service_inst_s_per_s": inst_s / service_s,
        "analyze_ms_p50": _percentile(analyze, 50),
        "analyze_ms_p80": _percentile(analyze, 80),
        "success_ratio": 1.0 - missed / attempted if attempted else 0.0,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "rsql_hits_at_1": _share(r_ranks, 1),
        "rsql_hits_at_3": hits3 / expected3 if expected3 else 0.0,
        "rsql_mrr": (sum(1.0 / r for r in r_ranks if r) / len(r_ranks)) if r_ranks else 0.0,
        "hsql_hits_at_1": _share(h_ranks, 1),
    }
    samples = {
        "setup_s": f"median of {len(setups)} set-ups",
        "e2e_inst_s_per_s": f"{inst_s:.0f} instance-seconds; {runs}",
        "service_inst_s_per_s": f"{inst_s:.0f} instance-seconds; {runs}",
        "analyze_ms_p50": f"n={len(analyze)} distinct analyze calls",
        "analyze_ms_p80": f"n={len(analyze)} distinct analyze calls",
        "success_ratio": f"{missed} of {attempted} judged operations missed",
        "failed_ratio": f"{failed} of {attempted} operations broke",
        "rsql_hits_at_1": f"n={len(r_ranks)} anomalies",
        "rsql_hits_at_3": f"{hits3} of {expected3}",
        "rsql_mrr": f"n={len(r_ranks)} anomalies",
        "hsql_hits_at_1": f"n={len(h_ranks)} anomalies",
    }
    return values, samples


def _timed(fn, *args, clock=_perf) -> tuple[object, float]:
    t0 = clock()
    result = fn(*args)
    return result, clock() - t0


def run_untraced(workload, seed: int, seconds: float, refclock) -> tuple[list, dict, dict]:
    """Set up several times, then cycle through the inputs: at least
    ``MIN_REPEATS`` full passes, and on until ``seconds`` wall seconds
    have passed.  Everything runs on the reference clock."""
    with refclock.running():
        setups = [_timed(workload.setup, seed, clock=refclock.now)[1]
                  for _ in range(SETUP_REPEATS[workload.name])]
        units: list = []
        floor = workload.MIN_REPEATS * workload.inputs
        t0 = _perf()
        while len(units) < floor or _perf() - t0 < seconds:
            units.append(workload.unit(len(units)))
    values, samples = end_to_end(units, setups)
    kernel = statistics.median(refclock.samples)
    samples["setup_s"] += (
        f"; reference clock: kernel median {1e6 * kernel:.0f} us over "
        f"{len(refclock.samples)} samples, {1e6 * refclock.REF_KERNEL_S:.0f} us = "
        f"1 s per s (wall times x {refclock.REF_KERNEL_S / kernel:.3f})"
    )
    return units, values, samples


def run_traced(workload, seed: int, tracing) -> tuple[list, dict, list[str]]:
    """Fixed work: one traced set-up, then one run of each input untraced
    and traced, then the first input once more to check its counts."""
    rec = tracing.SpanRecorder()
    with tracing.instrumented(rec), rec.span("setup", key=f"seed{seed}"):
        workload.setup(seed)
    units: list = []
    untraced = traced = 0.0
    first_counts: dict[str, int] = {}
    first = workload.trace_units[0]
    for i in workload.trace_units:
        untraced += _timed(workload.unit, i)[1]
        before = tracing.count_snapshot(rec)
        with tracing.instrumented(rec):
            t0 = _perf()
            with rec.span("unit"):
                units.append(workload.unit(i, rec))
            traced += _perf() - t0
        if i == first:
            after = tracing.count_snapshot(rec)
            first_counts = {m: after[m] - before[m] for m in after}
    # Exact-repeat check: the first input once more, on a fresh recorder.
    again = tracing.SpanRecorder()
    with tracing.instrumented(again), again.span("unit"):
        workload.unit(first, again)
    repeat = tracing.count_snapshot(again)
    failures = [
        f"count {m} did not repeat: {first_counts[m]} then {repeat[m]}"
        for m in tracing.EXACT_COUNTS
        if first_counts[m] != repeat[m]
    ]
    layers = tracing.layer_metrics(rec)
    layers["trace.overhead_ratio"] = traced / untraced
    layers["trace.spans"] = len(rec.spans)
    layers["trace.wall_s"] = sum(s[3] - s[2] for s in rec.spans if s[4] is None)
    rec.dump(
        OUT / f"trace-{workload.name}-seed{seed}.json",
        {"workload": workload.name, "seed": seed, "units": list(workload.trace_units),
         "traced_s": traced, "untraced_s": untraced, "unit0_counts": first_counts},
    )
    return units, layers, failures


def _unit_of(metric: str, tracing) -> str:
    if metric in tracing.SELF_TIME or metric in tracing.TOTAL_TIME or metric == "trace.wall_s":
        return "s"
    if metric == "trace.overhead_ratio":
        return "ratio"
    return "bytes" if metric.endswith("bytes") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fleet", "chaos", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="input size; 'toy' is the smoke test's")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workloads, tracing, refclock = _import_program()

    workdir = OUT / f"tmp-{args.workload}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](
            workdir, **workloads.SCALES[args.scale][args.workload]
        )
        print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
              f"trace={args.trace}: {workload.describe()}", flush=True)
        if args.trace:
            units, layers, failures = run_traced(workload, args.seed, tracing)
            wall = layers["trace.wall_s"]
            for metric, value in sorted(layers.items(), key=lambda kv: kv[0]):
                unit = _unit_of(metric, tracing)
                share = f"  {100 * value / wall:5.1f}% of traced wall" if unit == "s" else ""
                print(f"  {metric:<28} {value:>14.6g} {unit}{share}")
            metrics = {m: {"value": layers[m], "unit": _unit_of(m, tracing)}
                       for m in sorted(layers)}
        else:
            units, values, samples = run_untraced(workload, args.seed, args.seconds, refclock)
            failures = []
            for metric, unit in END_TO_END + PRINTED_ONLY:
                note = samples.get(metric, "")
                print(f"  {metric:<22} {values[metric]:>12.6g} {unit:<9} {note}")
            metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        firsts = [repeats[0] for repeats in by_input(units).values()]
        failures += workload.gates(firsts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for unit in firsts:
        for reason in unit.misses:
            print(f"missed: {reason}")
        for reason in unit.errors:
            print(f"broken operation: {reason}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("gates: " + ("FAIL" if failures else "PASS"))
    result = {
        "correct": not failures,
        "attempted": sum(u.attempted for u in firsts) or len(firsts),
        "failed": sum(u.failed for u in firsts),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

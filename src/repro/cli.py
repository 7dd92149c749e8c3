"""Command-line interface.

Seven subcommands cover the adoption path:

* ``repro generate``   — synthesise a labelled anomaly case to a file;
* ``repro diagnose``   — run PinSQL on a saved case and print the report;
* ``repro evaluate``   — run the Table-I comparison over a corpus;
* ``repro demo``       — generate-and-diagnose in one go;
* ``repro fleet-demo`` — simulate a fleet of instances on one broker and
  diagnose them in one in-process fleet loop;
  ``--record DIR`` persists every diagnosis to an incident store;
  ``--processes N`` drains over the columnar dataplane in N worker
  processes, with spans and telemetry merged back into the parent;
* ``repro obs``        — exercise the pipeline and dump its self-telemetry
  (metrics snapshot as summary / JSON / Prometheus text exposition);
  ``--fleet N`` exercises a fleet instead and ``--instance ID`` restricts
  the dump to one instance's labelled series;
* ``repro incidents``  — query a recorded incident store:
  ``list`` the index, ``show`` one evidence chain as text, ``report``
  one as self-contained HTML, ``health`` for the fleet-wide rollup;
* ``repro trace``      — render one incident's cross-process span tree
  as a time waterfall: ``show`` (ASCII) or ``report`` (HTML);
* ``repro lint``       — static anti-pattern analysis over SQL templates:
  the default scenario catalog (with planted-label precision/recall), a
  saved case corpus (``--cases DIR``) or one statement (``--sql``);
  exits non-zero when findings reach ``--fail-on`` (the CI contract);
* ``repro advise``     — workload-level cross-statement analysis: the
  lock-conflict graph, traffic-weighted index advisor and join/fan-out
  passes over the default scenario catalog (with planted-label
  precision/recall); shares the ``repro lint`` exit contract;
* ``repro health``     — proactive fleet health sweeps (the automated
  DBA): ``sweep`` runs the check suite (offline over incident stores,
  or live over a simulated fleet with ``--fleet N``) and persists the
  findings, ``findings`` queries the persisted store, ``report``
  renders the daily fleet report as text or HTML; ``sweep`` shares the
  ``repro lint`` exit contract (0 clean, 1 findings at ``--fail-on``,
  2 usage/data error).

``demo`` and ``evaluate`` additionally accept ``--telemetry`` to print
the metrics snapshot and the span tree of the run.

Invoke as ``python -m repro <subcommand>``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PinSQL reproduction: pinpoint root-cause SQLs in cloud databases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a labelled anomaly case")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--category",
        choices=["business_spike", "poor_sql", "mdl_lock", "row_lock", "random"],
        default="random",
    )
    gen.add_argument("--delta-start", type=int, default=900,
                     help="seconds of pre-anomaly context (δs)")
    gen.add_argument("--anomaly-length", type=int, default=450)
    gen.add_argument("--businesses", type=int, default=8)
    gen.add_argument("--out", type=Path, required=True, help="output .npz path")

    diag = sub.add_parser("diagnose", help="diagnose a saved anomaly case")
    diag.add_argument("case", type=Path, help=".npz case file")
    diag.add_argument("--top-k", type=int, default=5)
    diag.add_argument("--no-buckets", action="store_true",
                      help="disable bucketized session estimation")
    diag.add_argument("--suggest-repairs", action="store_true")

    ev = sub.add_parser("evaluate", help="run the Table-I comparison")
    group = ev.add_mutually_exclusive_group(required=True)
    group.add_argument("--cases", type=Path, help="directory of saved cases")
    group.add_argument("--generate", type=int, metavar="N",
                       help="generate N cases on the fly")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--telemetry", action="store_true",
                    help="print the metrics snapshot and span tree afterwards")

    demo = sub.add_parser("demo", help="generate and diagnose one case")
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument(
        "--category",
        choices=["business_spike", "poor_sql", "mdl_lock", "row_lock"],
        default="row_lock",
    )
    demo.add_argument("--telemetry", action="store_true",
                      help="print the metrics snapshot and span tree afterwards")

    fleet = sub.add_parser(
        "fleet-demo",
        help="simulate and diagnose a fleet of instances",
    )
    fleet.add_argument("--instances", type=int, default=8,
                       help="monitored database instances to simulate")
    fleet.add_argument("--anomalous", type=int, default=None,
                       help="instances given an injected anomaly "
                            "(default: half, at least one)")
    fleet.add_argument("--duration", type=int, default=900,
                       help="simulated seconds per instance")
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument("--no-prune", action="store_true",
                       help="keep consumed broker messages instead of "
                            "pruning acknowledged ones")
    fleet.add_argument("--telemetry", action="store_true",
                       help="print the metrics snapshot afterwards")
    fleet.add_argument("--record", type=Path, default=None, metavar="DIR",
                       help="persist every diagnosis to an incident store "
                            "under DIR (query with `repro incidents`)")
    fleet.add_argument("--health", action="store_true",
                       help="attach a proactive health sweeper (scheduled "
                            "sweeps during the run plus a final one); with "
                            "--record, findings persist under DIR/health")
    fleet.add_argument("--processes", type=int, default=0, metavar="N",
                       help="diagnose in N worker processes over the "
                            "columnar dataplane instead of the in-process "
                            "loop; worker spans and telemetry merge back "
                            "into the parent (recorded incidents carry "
                            "cross-process traces)")

    obs = sub.add_parser(
        "obs", help="exercise the pipeline and dump its self-telemetry"
    )
    obs.add_argument("--seed", type=int, default=42)
    obs.add_argument(
        "--category",
        choices=["business_spike", "poor_sql", "mdl_lock", "row_lock"],
        default="row_lock",
    )
    obs.add_argument(
        "--format",
        choices=["summary", "json", "prometheus"],
        default="summary",
        help="metrics output format",
    )
    obs.add_argument("--log-format", choices=["kv", "json"], default="kv",
                     help="structured-log line format on stderr")
    obs.add_argument("--fleet", type=int, default=0, metavar="N",
                     help="exercise an N-instance fleet instead of a "
                          "single pipeline run")
    obs.add_argument("--instance", default="",
                     help="restrict the dump to series labelled with this "
                          "instance id (fleet mode)")

    inc = sub.add_parser(
        "incidents", help="query and render a recorded incident store"
    )
    inc_sub = inc.add_subparsers(dest="incidents_command", required=True)

    def _add_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dir", type=Path, default=Path("incidents"),
                       help="incident store directory (default: ./incidents)")

    inc_list = inc_sub.add_parser("list", help="list recorded incidents")
    _add_dir(inc_list)
    inc_list.add_argument("--instance", default=None,
                          help="only incidents on this instance id")
    inc_list.add_argument("--verdict", default=None,
                          help="only incidents typed with this verdict")
    inc_list.add_argument("--template", default=None,
                          help="only incidents ranking this R-SQL id")
    inc_list.add_argument("--since", type=int, default=None,
                          help="only anomalies ending after this stream time")
    inc_list.add_argument("--until", type=int, default=None,
                          help="only anomalies starting before this stream time")
    inc_list.add_argument("--limit", type=int, default=20)

    inc_show = inc_sub.add_parser(
        "show", help="render one incident's full evidence chain as text"
    )
    _add_dir(inc_show)
    inc_show.add_argument("id", nargs="?", default=None,
                          help="incident id (omit with --latest)")
    inc_show.add_argument("--latest", action="store_true",
                          help="show the most recent incident")

    inc_report = inc_sub.add_parser(
        "report", help="render one incident as a self-contained HTML page"
    )
    _add_dir(inc_report)
    inc_report.add_argument("id", nargs="?", default=None,
                            help="incident id (omit with --latest)")
    inc_report.add_argument("--latest", action="store_true",
                            help="report the most recent incident")
    inc_report.add_argument("--out", type=Path, default=None,
                            help="write HTML here (default: stdout)")

    inc_health = inc_sub.add_parser(
        "health", help="fleet-wide rollup across one or many stores"
    )
    _add_dir(inc_health)
    inc_health.add_argument("--top", type=int, default=10,
                            help="recurring R-SQL templates to list")
    inc_health.add_argument("--json", action="store_true",
                            help="emit the rollup as JSON")

    trace = sub.add_parser(
        "trace",
        help="render an incident's cross-process trace as a waterfall",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    tr_show = trace_sub.add_parser(
        "show", help="ASCII waterfall of one incident's span tree"
    )
    _add_dir(tr_show)
    tr_show.add_argument("id", nargs="?", default=None,
                         help="incident id (omit with --latest)")
    tr_show.add_argument("--latest", action="store_true",
                         help="show the most recent incident's trace")

    tr_report = trace_sub.add_parser(
        "report", help="self-contained HTML waterfall of one incident's trace"
    )
    _add_dir(tr_report)
    tr_report.add_argument("id", nargs="?", default=None,
                           help="incident id (omit with --latest)")
    tr_report.add_argument("--latest", action="store_true",
                           help="report the most recent incident's trace")
    tr_report.add_argument("--out", type=Path, default=None,
                           help="write HTML here (default: stdout)")

    lint = sub.add_parser(
        "lint", help="static anti-pattern analysis over SQL templates"
    )
    lint_src = lint.add_mutually_exclusive_group()
    lint_src.add_argument("--cases", type=Path, metavar="DIR",
                          help="lint the template catalogs of saved cases")
    lint_src.add_argument("--sql", metavar="STATEMENT",
                          help="lint one raw SQL statement")
    lint.add_argument("--seed", type=int, default=0,
                      help="seed of the default scenario catalog")
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument("--out", type=Path, default=None,
                      help="write the report here instead of stdout")
    lint.add_argument(
        "--fail-on",
        choices=["info", "warning", "high", "critical", "never"],
        default="warning",
        help="exit 1 when any finding reaches this severity "
             "(default: warning; 'never' always exits 0)",
    )

    advise = sub.add_parser(
        "advise",
        help="workload-level cross-statement analysis (locks, indexes, joins)",
    )
    advise.add_argument("--seed", type=int, default=0,
                        help="seed of the default scenario catalog")
    advise.add_argument("--format", choices=["text", "json"], default="text")
    advise.add_argument("--out", type=Path, default=None,
                        help="write the report here instead of stdout")
    advise.add_argument(
        "--fail-on",
        choices=["info", "warning", "high", "critical", "never"],
        default="warning",
        help="exit 1 when any advisory reaches this severity "
             "(default: warning; 'never' always exits 0)",
    )

    health = sub.add_parser(
        "health",
        help="proactive fleet health sweeps: surface problems before "
             "the anomaly fires",
    )
    health_sub = health.add_subparsers(dest="health_command", required=True)

    def _health_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dir", type=Path, default=Path("health"),
                       help="findings store directory (default: ./health)")

    h_sweep = health_sub.add_parser(
        "sweep", help="run the check suite once and persist its findings"
    )
    _health_dir(h_sweep)
    h_sweep.add_argument("--incidents", type=Path, default=Path("incidents"),
                         metavar="DIR",
                         help="incident store(s) feeding the incident-backed "
                              "checks (default: ./incidents)")
    h_sweep.add_argument("--fleet", type=int, default=0, metavar="N",
                         help="simulate an N-instance fleet and sweep it "
                              "live on schedule (default: offline sweep "
                              "over --incidents)")
    h_sweep.add_argument("--duration", type=int, default=600,
                         help="simulated seconds per instance (--fleet mode)")
    h_sweep.add_argument("--seed", type=int, default=7)
    h_sweep.add_argument("--json", action="store_true",
                         help="emit the sweep result as JSON")
    h_sweep.add_argument(
        "--fail-on",
        choices=["info", "warning", "high", "critical", "never"],
        default="warning",
        help="exit 1 when any finding reaches this severity "
             "(default: warning; 'never' always exits 0)",
    )

    h_findings = health_sub.add_parser(
        "findings", help="query the persisted findings store"
    )
    _health_dir(h_findings)
    h_findings.add_argument("--instance", default=None,
                            help="only findings on this instance id "
                                 "(use '' for fleet-scope findings)")
    h_findings.add_argument("--check", default=None,
                            help="only findings from this check id")
    h_findings.add_argument(
        "--min-severity",
        choices=["info", "warning", "high", "critical"],
        default="info",
    )
    h_findings.add_argument("--since", type=int, default=None,
                            help="only findings detected at/after this "
                                 "stream time")
    h_findings.add_argument("--until", type=int, default=None,
                            help="only findings detected before this "
                                 "stream time")
    h_findings.add_argument("--limit", type=int, default=20)
    h_findings.add_argument("--json", action="store_true",
                            help="emit matching findings as JSON")

    h_report = health_sub.add_parser(
        "report", help="render the daily fleet health report"
    )
    _health_dir(h_report)
    h_report.add_argument("--incidents", type=Path, default=None,
                          metavar="DIR",
                          help="also roll up this incident store as "
                               "reactive context")
    h_report.add_argument("--format", choices=["text", "html"],
                          default="text")
    h_report.add_argument("--out", type=Path, default=None,
                          help="write the report here (default: stdout)")
    h_report.add_argument("--incident-report", default=None, metavar="HREF",
                          help="link the HTML report to this reactive "
                               "incident report")

    chaos = sub.add_parser(
        "chaos",
        help="run the fleet under fault injection; print the resilience "
             "scorecard",
    )
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault plan and workload seed (same seed = "
                            "identical run)")
    chaos.add_argument("--instances", type=int, default=3)
    chaos.add_argument("--anomalous", type=int, default=None,
                       help="instances with an injected anomaly "
                            "(default: ceil(instances * 2/3))")
    chaos.add_argument("--duration", type=int, default=480,
                       help="simulated seconds per instance")
    chaos_src = chaos.add_mutually_exclusive_group()
    chaos_src.add_argument(
        "--faults", default=None, metavar="KIND[,KIND...]",
        help="comma-separated fault classes to run "
             "(default: all; see `repro chaos --list-faults`)")
    chaos_src.add_argument("--plan", type=Path, default=None, metavar="FILE",
                           help="run one composite FaultPlan from a JSON file "
                                "instead of per-class single-fault plans")
    chaos.add_argument("--list-faults", action="store_true",
                       help="print the known fault classes and exit")
    chaos.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                       help="per-diagnosis stage-watchdog budget")
    chaos.add_argument("--record", type=Path, default=None, metavar="DIR",
                       help="persist each run's incidents under DIR/<fault> "
                            "(degraded diagnoses become durable records)")
    chaos.add_argument("--json", action="store_true",
                       help="print the scorecard as JSON instead of text")
    chaos.add_argument("--out", type=Path, default=None,
                       help="also write the JSON scorecard here (CI artifact)")

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided scenario fuzzing: discover workloads and "
             "fault plans that break attribution",
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    fz_run = fuzz_sub.add_parser(
        "run", help="run the mutation fuzzer from the default seed specs"
    )
    fz_run.add_argument("--seed", type=int, default=7,
                        help="fuzzer seed (same seed + budget = identical "
                             "mutants, survivors and corpus)")
    fz_run.add_argument("--budget", type=int, default=8,
                        help="number of mutants to generate and evaluate")
    fz_run.add_argument("--max-mutations", type=int, default=3,
                        help="max mutator applications per mutant")
    fz_run.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed clean-vs-fault Hits@k drop before a "
                             "mutant counts as a failure")
    fz_run.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging of failing mutants")
    fz_run.add_argument("--corpus", type=Path, default=None, metavar="DIR",
                        help="write minimized failing entries here as "
                             "<entry-id>.json")
    fz_run.add_argument("--out", type=Path, default=None,
                        help="write the JSON fuzz report here (CI artifact)")
    fz_run.add_argument("--fail-on", choices=["failure", "never"],
                        default="failure",
                        help="exit 1 when failures were found (default) or "
                             "never (CI smoke)")

    fz_replay = fuzz_sub.add_parser(
        "replay", help="re-run every corpus entry against the current build"
    )
    fz_replay.add_argument("--corpus", type=Path,
                           default=Path("tests/fuzz/corpus"), metavar="DIR",
                           help="corpus directory "
                                "(default: tests/fuzz/corpus)")
    fz_replay.add_argument("--tolerance", type=float, default=0.5)
    fz_replay.add_argument("--json", action="store_true",
                           help="print results as JSON")
    fz_replay.add_argument("--out", type=Path, default=None,
                           help="also write the JSON results here")

    fz_min = fuzz_sub.add_parser(
        "minimize", help="re-minimize one corpus entry file in place"
    )
    fz_min.add_argument("entry", type=Path, help="corpus entry JSON file")
    fz_min.add_argument("--tolerance", type=float, default=0.5)
    fz_min.add_argument("--out", type=Path, default=None,
                        help="write the minimized entry here instead of "
                             "in place")
    return parser


def _corpus_config(args) -> "CorpusConfig":
    from repro.evaluation import CorpusConfig

    return CorpusConfig(
        delta_start_s=getattr(args, "delta_start", 900),
        anomaly_length_s=(
            getattr(args, "anomaly_length", 450),
            getattr(args, "anomaly_length", 450) + 1,
        ),
        n_businesses=(getattr(args, "businesses", 8),) * 2,
    )


def _category(name: str):
    from repro.workload import AnomalyCategory

    return None if name == "random" else AnomalyCategory(name)


def cmd_generate(args) -> int:
    from repro.evaluation import generate_case
    from repro.evaluation.persistence import save_case

    labeled = generate_case(args.seed, _corpus_config(args), category=_category(args.category))
    path = save_case(labeled, args.out)
    case = labeled.case
    print(f"wrote {path}")
    print(
        f"  category={labeled.category.value} templates={len(case.sql_ids)} "
        f"window=[{case.anomaly_start}, {case.anomaly_end}) "
        f"queries={case.logs.total_queries():,}"
    )
    print(f"  ground-truth R-SQLs: {sorted(labeled.r_sqls)}")
    return 0


def cmd_diagnose(args) -> int:
    from repro.core import PinSQL, PinSQLConfig, RepairEngine
    from repro.core.report import render_report
    from repro.evaluation.persistence import load_case

    labeled = load_case(args.case)
    config = PinSQLConfig()
    if args.no_buckets:
        config = config.without("buckets")
    result = PinSQL(config).analyze(labeled.case)
    plan = None
    if args.suggest_repairs:
        from repro.sqlanalysis import SqlAnalyzer

        plan = RepairEngine(analyzer=SqlAnalyzer()).plan(labeled.case, result)
    report = render_report(labeled.case, result, plan=plan, top_k=args.top_k)
    print(report.text)
    if labeled.r_sqls:
        hit = report.top_r_sql in labeled.r_sqls
        print(f"ground truth check: top-1 R-SQL is {'CORRECT' if hit else 'WRONG'}")
    return 0


def _write_out(path: Path, text: str) -> None:
    """Write a command's output file (parents created) and say so."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _print_telemetry() -> None:
    """Dump the global registry and last span tree (the --telemetry flag)."""
    from repro.telemetry import get_registry, get_tracer, render_summary

    print("\n=== telemetry: metrics snapshot ===")
    print(render_summary(get_registry()))
    print("\n=== telemetry: span tree (last trace) ===")
    print(get_tracer().format_tree())


def cmd_evaluate(args) -> int:
    from repro.evaluation import CorpusConfig, evaluate_competition, generate_corpus
    from repro.evaluation.persistence import load_corpus

    if getattr(args, "telemetry", False):
        from repro.telemetry import configure_telemetry

        configure_telemetry()
    if args.cases is not None:
        corpus = load_corpus(args.cases)
        if not corpus:
            print(f"no case_*.npz files under {args.cases}", file=sys.stderr)
            return 1
    else:
        corpus = generate_corpus(CorpusConfig(n_cases=args.generate, seed=args.seed))
    reports = evaluate_competition(corpus)
    print(
        f"{'Method':<10} {'R-H@1':>6} {'R-H@5':>6} {'R-MRR':>6} {'R-Time':>9}   "
        f"{'H-H@1':>6} {'H-H@5':>6} {'H-MRR':>6} {'H-Time':>9}"
    )
    for report in reports:
        print(report.table_row())
    if getattr(args, "telemetry", False):
        _print_telemetry()
    return 0


def cmd_demo(args) -> int:
    from repro.core import PinSQL
    from repro.core.report import render_report
    from repro.evaluation import CorpusConfig, generate_case
    from repro.workload import AnomalyCategory

    if getattr(args, "telemetry", False):
        from repro.telemetry import configure_telemetry

        configure_telemetry()
    cfg = CorpusConfig(delta_start_s=600, anomaly_length_s=(240, 360))
    print(f"generating a {args.category} anomaly case (seed {args.seed}) ...")
    labeled = generate_case(args.seed, cfg, category=AnomalyCategory(args.category))
    result = PinSQL().analyze(labeled.case)
    print(render_report(labeled.case, result).text)
    hit = result.rsql_ids and result.rsql_ids[0] in labeled.r_sqls
    print(f"ground truth check: top-1 R-SQL is {'CORRECT' if hit else 'WRONG'}")
    if getattr(args, "telemetry", False):
        _print_telemetry()
    return 0


def _simulate_fleet(n_instances: int, anomalous: int, duration: int, seed: int):
    """Simulate the fleet-demo fleet onto one broker as columnar blocks;
    returns (broker, truths, statements, onset).

    Shared by the in-process drain (:func:`_run_fleet`) and the
    multiprocess columnar-dataplane path of ``fleet-demo --processes N``.
    """
    from repro.collection import Broker, MetricsCollector, QueryLogCollector
    from repro.evaluation.chaos import simulate_storm, storm_onset

    broker = Broker()
    truths, statements = {}, {}
    for inst in simulate_storm(n_instances, anomalous, duration, seed):
        run = inst.run
        QueryLogCollector(broker, instance_id=inst.instance_id).collect_blocks(
            run.query_log
        )
        MetricsCollector(broker, instance_id=inst.instance_id).collect_blocks(
            run.metrics
        )
        truths[inst.instance_id] = inst.injected
        statements[inst.instance_id] = inst.statements
    return broker, truths, statements, storm_onset(duration)


def _run_fleet(
    n_instances: int,
    anomalous: int,
    duration: int,
    seed: int,
    prune: bool,
    record_dir: "Path | None" = None,
    sweeper=None,
):
    """Simulate a fleet onto one broker and drain it; returns (service, truths).

    The first ``anomalous`` instances get an injected row-lock anomaly
    at two-thirds of the run; the rest stay healthy (the cross-instance
    isolation check of the demo).  ``sweeper`` optionally attaches a
    :class:`~repro.health.HealthSweeper` whose scheduled sweeps run
    during the drain; when incidents are recorded the sweeper's
    incident-backed checks read the same store.
    """
    from repro.evaluation.chaos import fingerprinted, register_fleet
    from repro.fleet import FleetConfig, FleetDiagnosisService, ServiceConfig

    broker, truths, statements, onset = _simulate_fleet(
        n_instances, anomalous, duration, seed
    )
    config = FleetConfig(
        service=ServiceConfig(
            delta_start_s=min(500, onset - 60), detector_window_s=duration
        ),
        prune_broker=prune,
    )
    recorder = None
    if record_dir is not None:
        from repro.incidents import IncidentRecorder, IncidentStore

        recorder = IncidentRecorder(IncidentStore(record_dir))
    if sweeper is not None and recorder is not None and sweeper.incident_store is None:
        sweeper.incident_store = recorder.store
    service = FleetDiagnosisService(broker, config, recorder=recorder, sweeper=sweeper)
    register_fleet(
        service, {iid: fingerprinted(sqls) for iid, sqls in statements.items()}
    )
    service.run_until_drained()
    return service, truths


def _print_fleet_table(rows) -> tuple[list[str], list[str]]:
    """Print the fleet-demo verdict table; returns (missed, spurious).

    ``rows`` are ``(instance_id, injected anomaly or None, diagnoses,
    top R-SQL)``; a top R-SQL of None (not known to this process) reads
    ``diagnosed`` instead of hit/wrong-sql.
    """
    print(f"{'instance':<10} {'injected':>8} {'diagnoses':>9}  top R-SQL  verdict")
    missed, spurious = [], []
    for instance_id, truth, n, top in rows:
        if truth is None:
            verdict = "clean" if not n else "SPURIOUS"
            if n:
                spurious.append(instance_id)
        elif not n:
            verdict = "MISSED"
            missed.append(instance_id)
        elif top is None:
            verdict = "diagnosed"
        else:
            verdict = "hit" if top in truth.r_sql_ids else "wrong-sql"
        print(
            f"{instance_id:<10} {'yes' if truth else 'no':>8} "
            f"{n:>9}  {top or '-':<9}  {verdict}"
        )
    return missed, spurious


def _fleet_demo_exit(args, missed, spurious, misattributed: int = 0) -> int:
    """Print telemetry if asked, then the FAIL lines or the attribution
    check; returns the exit code."""
    if getattr(args, "telemetry", False):
        _print_telemetry()
    if misattributed or missed or spurious:
        if misattributed:
            print(f"FAIL: {misattributed} diagnoses mis-attributed", file=sys.stderr)
        if missed:
            print(f"FAIL: anomalies missed on {missed}", file=sys.stderr)
        if spurious:
            print(f"FAIL: spurious diagnoses on {spurious}", file=sys.stderr)
        return 1
    print("attribution check: every diagnosis on the right instance, no bleed")
    return 0


def _fleet_demo_multiprocess(args, anomalous: int, record_dir) -> int:
    """``fleet-demo --processes N``: drain over the columnar dataplane.

    Feeds are captured from the broker as columnar blocks and
    diagnosed by long-lived worker processes
    (:class:`~repro.fleet.workers.PersistentWorkerPool`); each worker
    ships its spans and telemetry back, so the parent's registry and
    tracer show the whole fleet and recorded incidents carry
    cross-process traces (``repro trace show --latest``).
    """
    from repro.fleet import BlockFeed, ServiceConfig, run_sharded
    from repro.telemetry import get_registry

    broker, truths, statements, onset = _simulate_fleet(
        args.instances, anomalous, args.duration, args.seed
    )
    feeds = []
    for instance_id, sqls in statements.items():
        feed = BlockFeed.from_broker(broker, instance_id)
        feed.statements = list(sqls)
        feeds.append(feed)
    shipped = sum(f.nbytes for f in feeds)
    print(
        f"columnar dataplane: {sum(f.n_blocks for f in feeds)} block(s), "
        f"{shipped:,} row bytes shipped to {args.processes} worker process(es)"
    )
    config = ServiceConfig(
        delta_start_s=min(500, onset - 60), detector_window_s=args.duration
    )
    counts = run_sharded(
        feeds,
        processes=args.processes,
        config=config,
        incident_dir=str(record_dir) if record_dir is not None else None,
    )
    top_rsql = {}
    if record_dir is not None:
        from repro.incidents import IncidentStore
        from repro.segmentlog import discover_logs

        for root in discover_logs(record_dir, IncidentStore.PREFIX):
            for meta in IncidentStore(root).metas():
                top_rsql[meta.instance_id] = meta.top_r_sql or None
    missed, spurious = _print_fleet_table(
        (i, truths[i], counts.get(i, 0), top_rsql.get(i)) for i in sorted(truths)
    )
    imported = 0.0
    for name, kind, _key, inst in get_registry():
        if name == "fleet_spans_imported_total" and kind == "counter":
            imported += inst.value
    print(f"spans imported from workers: {int(imported)}")
    if record_dir is not None:
        print(
            f"incidents recorded under {record_dir} (waterfall: "
            f"`repro trace show --latest --dir {record_dir}`)"
        )
    return _fleet_demo_exit(args, missed, spurious)


def cmd_fleet_demo(args) -> int:
    anomalous = args.anomalous
    if anomalous is None:
        anomalous = max(1, args.instances // 2)
    anomalous = min(anomalous, args.instances)
    record_dir = getattr(args, "record", None)
    processes = getattr(args, "processes", 0)
    how = f"in {processes} processes" if processes > 1 else "in-process"
    print(
        f"simulating {args.instances} instances ({anomalous} anomalous) "
        f"for {args.duration}s, diagnosing {how} ..."
    )
    if processes > 1:
        if getattr(args, "health", False):
            print(
                "note: --health is ignored with --processes "
                "(sweeps run in-process)",
                file=sys.stderr,
            )
        return _fleet_demo_multiprocess(args, anomalous, record_dir)
    sweeper = None
    if getattr(args, "health", False):
        from repro.health import FindingsStore, HealthSweeper

        findings_store = None
        if record_dir is not None:
            findings_store = FindingsStore(Path(record_dir) / "health")
        sweeper = HealthSweeper(store=findings_store)
    service, truths = _run_fleet(
        args.instances, anomalous, args.duration, args.seed,
        prune=not args.no_prune, record_dir=record_dir, sweeper=sweeper,
    )
    rows, misattributed = [], 0
    for instance_id in service.instance_ids:
        diagnoses = service.diagnoses_for(instance_id)
        misattributed += sum(1 for d in diagnoses if d.instance_id != instance_id)
        top = diagnoses[0].result.rsql_ids[0] if diagnoses and diagnoses[0].result.rsql_ids else "-"
        rows.append((instance_id, truths[instance_id], len(diagnoses), top))
    missed, spurious = _print_fleet_table(rows)
    broker = service.broker
    retained = sum(broker.retained(t) for t in broker.topics)
    published = sum(broker.size(t) for t in broker.topics)
    print(
        f"\nbroker: {published:,} messages published, {retained:,} retained "
        f"({'pruning on' if not args.no_prune else 'pruning off'})"
    )
    if record_dir is not None and service.recorder is not None:
        store = service.recorder.store
        print(
            f"incident store: {store.record_count} record(s) in "
            f"{store.segment_count} segment(s) under {record_dir} "
            f"(inspect with `repro incidents list --dir {record_dir}`)"
        )
    if sweeper is not None:
        # A final sweep gives the end-of-run snapshot on top of whatever
        # the schedule fired during the drain.
        final = sweeper.sweep_fleet(service)
        total = sum(len(s.findings) for s in sweeper.sweeps)
        worst = final.worst
        print(
            f"health: {len(sweeper.sweeps)} sweep(s), {total} finding(s); "
            f"final sweep worst severity: "
            f"{worst.label if worst is not None else 'none'}"
        )
        for finding in sorted(
            final.findings, key=lambda f: -int(f.severity)
        )[:8]:
            scope = finding.instance_id or "(fleet)"
            print(
                f"  [{finding.severity.label.upper():<8}] {scope:<10} "
                f"{finding.check:<24} {finding.message}"
            )
        if sweeper.store is not None:
            print(
                f"health findings persisted under {sweeper.store.root} "
                f"(inspect with `repro health findings --dir "
                f"{sweeper.store.root}`)"
            )
    return _fleet_demo_exit(args, missed, spurious, misattributed)


def _filter_prometheus(text: str, instance: str) -> str:
    """Keep only families/samples labelled ``instance="<id>"``."""
    needle = f'instance="{instance}"'
    out: list[str] = []
    pending: list[str] = []
    for line in text.splitlines():
        if line.startswith("# HELP"):
            pending = [line]
        elif line.startswith("#"):
            pending.append(line)
        elif needle in line:
            out.extend(pending)
            pending = []
            out.append(line)
    return "\n".join(out) + "\n" if out else ""


def cmd_obs(args) -> int:
    """Exercise the pipeline (or a fleet), then dump the self-telemetry."""
    import json

    from repro.telemetry import (
        configure_telemetry,
        filter_snapshot,
        get_registry,
        get_tracer,
        render_summary,
        reset_telemetry,
    )

    if args.instance and args.fleet <= 0:
        print(
            "error: --instance requires --fleet N (single-pipeline runs "
            "carry no instance labels)",
            file=sys.stderr,
        )
        return 2
    if args.instance and args.fleet > 0:
        # Validate BEFORE the expensive fleet simulation: the ids
        # _run_fleet registers are deterministic.
        from repro.evaluation.chaos import fleet_instance_ids

        known = fleet_instance_ids(args.fleet)
        if args.instance not in known:
            print(
                f"error: unknown instance id {args.instance!r}; "
                f"--fleet {args.fleet} registers: {', '.join(known)}",
                file=sys.stderr,
            )
            return 2
    configure_telemetry(fmt=args.log_format)
    reset_telemetry()  # metrics below describe this run only
    if args.fleet > 0:
        _run_fleet(
            args.fleet,
            anomalous=max(1, args.fleet // 2),
            duration=600,
            seed=args.seed,
            prune=True,
        )
    else:
        from repro.core import PinSQL
        from repro.evaluation import CorpusConfig, generate_case
        from repro.workload import AnomalyCategory

        cfg = CorpusConfig(delta_start_s=600, anomaly_length_s=(240, 360))
        labeled = generate_case(args.seed, cfg, category=AnomalyCategory(args.category))
        PinSQL().analyze(labeled.case)
    registry = get_registry()
    if args.format == "prometheus":
        text = registry.render_prometheus()
        if args.instance:
            text = _filter_prometheus(text, args.instance)
        sys.stdout.write(text)
    elif args.format == "json":
        snap = registry.snapshot()
        if args.instance:
            snap = filter_snapshot(snap, instance=args.instance)
        print(json.dumps(snap, indent=2))
    else:
        snap = registry.snapshot()
        if args.instance:
            snap = filter_snapshot(snap, instance=args.instance)
            print(f"=== metrics snapshot (instance={args.instance}) ===")
        else:
            print("=== metrics snapshot ===")
        print(render_summary(snap))
        if args.fleet:
            _print_freshness(snap)
        else:
            print("\n=== span tree (last trace) ===")
            print(get_tracer().format_tree())
    return 0


def _print_freshness(snap: dict) -> None:
    """Fleet watermarks: per-instance staleness and per-stage lag p95."""
    freshness = [
        e for e in snap["gauges"] if e["name"] == "data_freshness_seconds"
    ]
    lags = [
        e for e in snap["histograms"] if e["name"] == "pipeline_lag_seconds"
    ]
    if not freshness and not lags:
        return
    print("\n=== pipeline freshness & lag ===")
    for entry in sorted(
        freshness, key=lambda e: e["labels"].get("instance", "")
    ):
        print(
            f"  {entry['labels'].get('instance') or '(local)':<10} "
            f"staleness {entry['value']:.0f} s (stream time vs newest event)"
        )
    for entry in sorted(
        lags,
        key=lambda e: (e["labels"].get("stage", ""),
                       e["labels"].get("instance", "")),
    ):
        q = entry.get("quantiles") or {}
        print(
            f"  {entry['labels'].get('stage', '-'):<9} "
            f"{entry['labels'].get('instance') or '(local)':<10} "
            f"count={entry['count']:<5} p95={q.get('p95', 0.0):.4g} s"
        )


def _open_stores(args):
    """Every incident store under ``args.dir`` (a store directory, or a
    parent holding one per shard); [] with a message when none exist."""
    from repro.incidents import IncidentStore
    from repro.segmentlog import discover_logs

    roots = discover_logs(args.dir, IncidentStore.PREFIX)
    if not roots:
        print(
            f"error: no incident store under {args.dir} "
            "(record one with `repro fleet-demo --record DIR`)",
            file=sys.stderr,
        )
    return [IncidentStore(root) for root in roots]


def _resolve_incident(stores, args):
    """The full record for ``args.id`` / ``--latest``; None + message."""
    if args.latest:
        metas = [m for s in stores for m in [s.latest()] if m is not None]
        if not metas:
            print("error: store is empty", file=sys.stderr)
            return None
        newest = max(metas, key=lambda m: (m.created_at, m.incident_id))
        for store in stores:
            record = store.get(newest.incident_id)
            if record is not None:
                return record
        return None
    if not args.id:
        print("error: give an incident id or --latest", file=sys.stderr)
        return None
    for store in stores:
        record = store.get(args.id)
        if record is not None:
            return record
    recent = sorted(
        (m for s in stores for m in s.metas()),
        key=lambda m: (m.created_at, m.incident_id),
    )[-5:]
    known = ", ".join(m.incident_id for m in recent)
    print(
        f"error: unknown incident id {args.id!r} (most recent: {known})",
        file=sys.stderr,
    )
    return None


def cmd_incidents(args) -> int:
    """Dispatch the ``repro incidents`` subcommands."""
    if args.incidents_command == "health":
        import json

        from repro.incidents import IncidentStore, load_health, render_health_text
        from repro.segmentlog import discover_logs

        if not discover_logs(args.dir, IncidentStore.PREFIX):
            print(
                f"error: no incident store under {args.dir} "
                "(record one with `repro fleet-demo --record DIR`)",
                file=sys.stderr,
            )
            return 1
        health = load_health(args.dir, top_k=args.top)
        if args.json:
            print(json.dumps(health.to_dict(), indent=2))
        else:
            print(render_health_text(health))
        return 0

    stores = _open_stores(args)
    if not stores:
        return 1
    if args.incidents_command == "list":
        metas = sorted(
            (
                m
                for s in stores
                for m in s.query(
                    instance=args.instance,
                    since=args.since,
                    until=args.until,
                    verdict=args.verdict,
                    template=args.template,
                )
            ),
            key=lambda m: (m.created_at, m.incident_id),
            reverse=True,
        )[: args.limit]
        if not metas:
            print("no incidents match")
            return 0
        print(
            f"{'incident':<28} {'instance':<10} {'window':<16} "
            f"{'verdict':<16} {'top R-SQL':<10} repair"
        )
        for meta in metas:
            window = f"[{meta.anomaly_start}, {meta.anomaly_end})"
            print(
                f"{meta.incident_id:<28} {meta.instance_id or '-':<10} "
                f"{window:<16} {meta.verdict or '-':<16} "
                f"{meta.top_r_sql or '-':<10} {meta.repair_outcome}"
            )
        total = sum(s.record_count for s in stores)
        print(f"{len(metas)} incident(s); store holds {total}")
        return 0

    record = _resolve_incident(stores, args)
    if record is None:
        return 1
    if args.incidents_command == "show":
        from repro.incidents import render_incident_text

        print(render_incident_text(record))
        return 0
    # report
    from repro.incidents import render_incident_html

    html_text = render_incident_html(record)
    if args.out is not None:
        _write_out(args.out, html_text)
    else:
        sys.stdout.write(html_text)
    return 0


def cmd_trace(args) -> int:
    """Dispatch the ``repro trace`` subcommands."""
    stores = _open_stores(args)
    if not stores:
        return 1
    record = _resolve_incident(stores, args)
    if record is None:
        return 1
    if args.trace_command == "show":
        from repro.incidents import render_trace_text

        print(render_trace_text(record))
        return 0
    # report
    from repro.incidents import render_trace_html

    html_text = render_trace_html(record)
    if args.out is not None:
        _write_out(args.out, html_text)
    else:
        sys.stdout.write(html_text)
    return 0


def _lint_default_catalog(seed: int):
    """Lint the default scenario catalog with planted anti-patterns."""
    import numpy as np

    from repro.evaluation.analysis import analyzer_for_population, evaluate_analyzer
    from repro.sqlanalysis import LintEntry, LintReport
    from repro.workload import build_population, plant_antipatterns

    rng = np.random.default_rng(seed)
    population = build_population(600, rng, n_businesses=6)
    planted = plant_antipatterns(population, rng)
    analyzer = analyzer_for_population(population)
    report = LintReport()
    for spec in population.specs.values():
        report.analyzed += 1
        findings = analyzer.analyze_spec(spec)
        if findings:
            report.entries.append(
                LintEntry(
                    sql_id=spec.sql_id,
                    statement=spec.exemplar or spec.template,
                    findings=findings,
                )
            )
    evaluation = evaluate_analyzer(analyzer, population, planted)
    report.evaluation = evaluation.to_dict()
    return report


def _lint_cases(cases_dir: Path):
    """Lint the template catalogs of a saved-case corpus."""
    from repro.evaluation.persistence import load_corpus
    from repro.sqlanalysis import LintEntry, LintReport, SqlAnalyzer

    corpus = load_corpus(cases_dir)
    if not corpus:
        return None
    analyzer = SqlAnalyzer()
    report = LintReport()
    seen: set[str] = set()
    for labeled in corpus:
        for info in labeled.case.catalog:
            if info.sql_id in seen:
                continue
            seen.add(info.sql_id)
            report.analyzed += 1
            findings = analyzer.analyze_template(info)
            if findings:
                report.entries.append(
                    LintEntry(
                        sql_id=info.sql_id,
                        statement=info.exemplar or info.template,
                        findings=findings,
                    )
                )
    return report


def cmd_lint(args) -> int:
    """Static anti-pattern lint; exit code per the --fail-on contract."""
    import json

    from repro.sqlanalysis import LintEntry, LintReport, SqlAnalyzer, lint_failed

    if args.sql is not None:
        from repro.sqltemplate import fingerprint

        fp = fingerprint(args.sql)
        findings = SqlAnalyzer().analyze_statement(args.sql, sql_id=fp.sql_id)
        report = LintReport(analyzed=1)
        if findings:
            report.entries.append(
                LintEntry(sql_id=fp.sql_id, statement=args.sql, findings=findings)
            )
    elif args.cases is not None:
        report = _lint_cases(args.cases)
        if report is None:
            print(f"error: no case_*.npz files under {args.cases}", file=sys.stderr)
            return 2
    else:
        report = _lint_default_catalog(args.seed)

    text = (
        json.dumps(report.to_dict(), indent=2)
        if args.format == "json"
        else report.render_text()
    )
    if args.out is not None:
        _write_out(args.out, text + "\n")
    else:
        print(text)
    return 1 if lint_failed(report, args.fail_on) else 0


def _advise_default_catalog(seed: int):
    """Advise over the default scenario catalog with planted baits."""
    import numpy as np

    from repro.evaluation.advisories import (
        advisor_for_population,
        evaluate_advisor,
        population_weights,
    )
    from repro.workload import build_population, plant_advisory_baits

    rng = np.random.default_rng(seed)
    population = build_population(600, rng, n_businesses=6)
    planted = plant_advisory_baits(population, rng)
    analyzer = advisor_for_population(population)
    report = analyzer.analyze(
        population.specs.values(), population_weights(population)
    )
    evaluation = evaluate_advisor(analyzer, population, planted, report=report)
    report.evaluation = evaluation.to_dict()
    return report


def cmd_advise(args) -> int:
    """Workload-level advisory analysis; exit per the --fail-on contract."""
    import json

    from repro.sqlanalysis.workload import advise_failed

    report = _advise_default_catalog(args.seed)
    text = (
        json.dumps(report.to_dict(), indent=2)
        if args.format == "json"
        else report.render_text()
    )
    if args.out is not None:
        _write_out(args.out, text + "\n")
    else:
        print(text)
    return 1 if advise_failed(report, args.fail_on) else 0


def _finding_lines(findings) -> list[str]:
    """Console lines for a batch of health findings."""
    lines = []
    for f in findings:
        scope = f.instance_id or "(fleet)"
        subject = f.sql_id or f.metric or "-"
        lines.append(
            f"t={f.detected_at:<7} [{f.severity.label.upper():<8}] "
            f"{f.check:<24} {scope:<12} {subject:<14} {f.message}"
        )
    return lines


def _health_failed(findings, fail_on: str) -> bool:
    """The ``--fail-on`` exit contract shared with ``repro lint``."""
    from repro.sqlanalysis import Severity

    if fail_on == "never":
        return False
    threshold = Severity.from_label(fail_on)
    return any(f.severity >= threshold for f in findings)


def _health_sweep(args) -> int:
    import json

    from repro.health import FindingsStore, HealthSweeper

    store = FindingsStore(args.dir)
    if args.fleet > 0:
        anomalous = max(1, args.fleet // 2)
        sweeper = HealthSweeper(store=store)
        print(
            f"simulating {args.fleet} instances ({anomalous} anomalous) "
            f"for {args.duration}s, sweeping on schedule ...",
            flush=True,
        )
        service, _ = _run_fleet(
            args.fleet, anomalous, args.duration, args.seed,
            prune=True, sweeper=sweeper,
        )
        # Scheduled sweeps already ran during the replay; one more final
        # sweep reflects the fleet's state at shutdown, and only its
        # findings drive the display and the exit code.
        result = sweeper.sweep_fleet(service)
        findings = result.findings
    else:
        from repro.incidents import IncidentStore
        from repro.segmentlog import discover_logs

        if not discover_logs(args.incidents, IncidentStore.PREFIX):
            print(
                f"error: no incident store under {args.incidents} "
                "(record one with `repro fleet-demo --record DIR`, or "
                "sweep a simulated fleet with `--fleet N`)",
                file=sys.stderr,
            )
            return 2
        sweeper = HealthSweeper(store=store)
        result = sweeper.sweep_stores(args.incidents)
        findings = result.findings
    if args.json:
        print(json.dumps(
            {
                "sweep_id": result.sweep_id,
                "checks_run": result.checks_run,
                "check_failures": result.check_failures,
                "findings": [f.to_dict() for f in findings],
            },
            indent=2,
        ))
    else:
        print(
            f"sweep {result.sweep_id}: {len(findings)} finding(s), "
            f"{result.checks_run} check run(s), "
            f"{result.check_failures} check failure(s)"
        )
        for line in _finding_lines(findings):
            print(line)
        print(
            f"{store.record_count} finding(s) persisted under {store.root}"
        )
    return 1 if _health_failed(findings, args.fail_on) else 0


def _open_findings_stores(path: Path):
    """Findings stores under ``path``; [] for empty, None + message for
    a directory that is not a store at all."""
    from repro.health import FindingsStore
    from repro.segmentlog import discover_logs

    roots = discover_logs(path, FindingsStore.PREFIX)
    if roots:
        return [FindingsStore(root) for root in roots]
    if Path(path).is_dir():
        return []  # an empty store: a clean sweep wrote no segment yet
    print(
        f"error: no findings store under {path} "
        "(run `repro health sweep` first)",
        file=sys.stderr,
    )
    return None


def cmd_health(args) -> int:
    """Dispatch the ``repro health`` subcommands."""
    if args.health_command == "sweep":
        return _health_sweep(args)

    stores = _open_findings_stores(args.dir)
    if stores is None:
        return 2

    if args.health_command == "findings":
        import json

        from repro.sqlanalysis import Severity

        matches = []
        for store in stores:
            matches.extend(store.query(
                instance=args.instance,
                check=args.check,
                min_severity=Severity.from_label(args.min_severity),
                since=args.since,
                until=args.until,
                limit=args.limit,
            ))
        matches.sort(key=lambda f: -f.detected_at)
        matches = matches[: args.limit]
        if args.json:
            print(json.dumps([f.to_dict() for f in matches], indent=2))
            return 0
        if not matches:
            print("no findings match")
            return 0
        for line in _finding_lines(matches):
            print(line)
        total = sum(s.record_count for s in stores)
        print(f"{len(matches)} finding(s); store holds {total}")
        return 0

    # report
    from repro.health import (
        build_health_report,
        render_health_report_html,
        render_health_report_text,
    )

    fleet = None
    if args.incidents is not None:
        from repro.incidents import IncidentStore, load_health
        from repro.segmentlog import discover_logs

        if discover_logs(args.incidents, IncidentStore.PREFIX):
            fleet = load_health(args.incidents)
    findings = [f for store in stores for f in store.findings()]
    report = build_health_report(findings, fleet=fleet)
    if args.format == "html":
        text = render_health_report_html(
            report, incident_report_href=args.incident_report
        )
    else:
        text = render_health_report_text(report)
    if args.out is not None:
        _write_out(args.out, text + "\n")
    else:
        print(text)
    return 0


def cmd_chaos(args) -> int:
    from repro.chaos import FAULT_KINDS, FaultPlan
    from repro.evaluation.chaos import ChaosHarnessConfig, run_chaos_suite

    if args.list_faults:
        for kind in FAULT_KINDS:
            print(kind)
        return 0
    kinds = FAULT_KINDS
    if args.faults is not None:
        kinds = tuple(k.strip() for k in args.faults.split(",") if k.strip())
    plan = FaultPlan.load(args.plan) if args.plan is not None else None
    anomalous = args.anomalous
    if anomalous is None:
        anomalous = max(1, -(-args.instances * 2 // 3))  # ceil(2/3)
    anomalous = min(anomalous, args.instances)
    try:
        cfg = ChaosHarnessConfig(
            seed=args.seed,
            n_instances=args.instances,
            anomalous=anomalous,
            duration_s=args.duration,
            fault_kinds=kinds,
            diagnosis_budget_s=args.budget,
            record_dir=str(args.record) if args.record is not None else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runs = 1 + (1 if plan is not None else len(kinds))
    print(
        f"chaos: simulating {cfg.n_instances} instances "
        f"({cfg.anomalous} anomalous) for {cfg.duration_s}s, "
        f"then {runs} diagnosis runs (clean + "
        + (f"plan {plan.name!r}" if plan is not None else f"{len(kinds)} fault classes")
        + ") ...",
        flush=True,
    )
    scorecard = run_chaos_suite(cfg, plan=plan)
    if args.out is not None:
        _write_out(args.out, scorecard.to_json() + "\n")
    print(scorecard.to_json() if args.json else scorecard.render_text())
    if cfg.record_dir is not None:
        print(
            f"incident records per run under {cfg.record_dir}/<fault> "
            f"(inspect with `repro incidents list --dir {cfg.record_dir}/drop`)"
        )
    return 0 if scorecard.all_completed else 1


def _fuzz_run(args) -> int:
    from repro.fuzz import CoverageFuzzer, FuzzConfig

    try:
        cfg = FuzzConfig(
            seed=args.seed,
            budget=args.budget,
            max_mutations=args.max_mutations,
            tolerance=args.tolerance,
            shrink=not args.no_shrink,
            corpus_dir=str(args.corpus) if args.corpus is not None else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"fuzz: seed={cfg.seed} budget={cfg.budget} "
        f"(evaluating seeds + mutants through the chaos harness) ...",
        flush=True,
    )
    report = CoverageFuzzer(cfg).run()
    if args.out is not None:
        _write_out(args.out, report.to_json() + "\n")
    for failure in report.seed_failures:
        print(f"seed failure: {failure}")
    for mutant in report.mutants:
        marks = []
        if mutant.survived:
            marks.append("survived")
        if mutant.novel:
            marks.append(
                f"novel(+{len(mutant.new_coverage)} cov, "
                f"+{len(mutant.new_outcomes)} outcomes, "
                f"+{len(mutant.new_signals)} signals)"
            )
        if mutant.failures:
            marks.append(f"FAILED: {mutant.failures[0]}")
        chain = ">".join(s.mutator for s in mutant.steps) or "no-op"
        print(f"  {mutant.name} <- {mutant.parent} [{chain}] "
              + ("; ".join(marks) or "no novelty"))
    print(
        f"fuzz: {len(report.mutants)} mutants, {report.survivors} survivors, "
        f"{report.novelty_mutants} novelty-increasing, "
        f"{report.failures_found} failing; coverage {report.coverage_size} "
        f"keys, {report.outcome_size} outcome combos"
    )
    for path in report.written:
        print(f"wrote {path}")
    found = report.failures_found + len(report.seed_failures)
    if found and args.fail_on == "failure":
        return 1
    return 0


def _fuzz_replay(args) -> int:
    import json as _json

    from repro.fuzz import ScenarioRunner, load_corpus, replay_entry

    try:
        entries = load_corpus(args.corpus)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"no corpus entries under {args.corpus}")
        return 0
    runner = ScenarioRunner(tolerance=args.tolerance)
    results = [replay_entry(entry, runner) for entry in entries]
    payload = [
        {
            "entry_id": r.entry.entry_id,
            "ok": r.ok,
            "note": r.note,
            "xfail": r.entry.xfail,
            "failures": list(r.failures),
        }
        for r in results
    ]
    if args.out is not None:
        _write_out(args.out, _json.dumps(payload, indent=2) + "\n")
    if args.json:
        print(_json.dumps(payload, indent=2))
    else:
        for r in results:
            status = "ok " if r.ok else "FAIL"
            print(f"  {status} {r.entry.entry_id}: {r.note}")
    bad = sum(1 for r in results if not r.ok)
    print(f"fuzz replay: {len(results) - bad}/{len(results)} entries ok")
    return 1 if bad else 0


def _fuzz_minimize(args) -> int:
    from repro.fuzz import (
        CorpusEntry,
        ScenarioRunner,
        default_seeds,
        entry_id_for,
        minimize_steps,
    )

    try:
        entry = CorpusEntry.from_json(
            args.entry.read_text(encoding="utf-8"), source=str(args.entry)
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not entry.steps:
        print(f"{entry.entry_id}: no mutation chain recorded; already minimal")
        return 0
    base = next((s for s in default_seeds() if s.name == entry.base), None)
    if base is None:
        print(
            f"error: base seed spec {entry.base!r} is not a default seed; "
            "cannot re-derive the mutation chain",
            file=sys.stderr,
        )
        return 2
    runner = ScenarioRunner(tolerance=args.tolerance)
    kinds = frozenset(r.split(":", 1)[0] for r in entry.reason)

    def still_failing(candidate) -> bool:
        return bool(runner.evaluate(candidate).failure_kinds & kinds)

    outcome = runner.evaluate(entry.spec)
    if not outcome.failure_kinds & kinds:
        print(
            f"{entry.entry_id}: recorded failure no longer reproduces; "
            "nothing to minimize (consider promoting the entry to green)"
        )
        return 0
    from repro.fuzz import apply_steps

    steps = minimize_steps(base, entry.steps, still_failing)
    spec = apply_steps(base, steps)
    if spec is None:
        print(f"{entry.entry_id}: chain already minimal")
        return 0
    final = runner.evaluate(spec)
    new_id = entry_id_for(spec, final.failure_kinds)
    minimized = CorpusEntry(
        entry_id=new_id,
        spec=spec.with_name(f"{entry.base}-{new_id}"),
        reason=final.failures,
        base=entry.base,
        steps=steps,
        fuzz_seed=entry.fuzz_seed,
        xfail=entry.xfail,
    )
    out = args.out if args.out is not None else args.entry
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(minimized.to_json() + "\n", encoding="utf-8")
    print(
        f"minimized {entry.entry_id}: {len(entry.steps)} -> "
        f"{len(steps)} steps; wrote {out}"
    )
    return 0


def cmd_fuzz(args) -> int:
    if args.fuzz_command == "run":
        return _fuzz_run(args)
    if args.fuzz_command == "replay":
        return _fuzz_replay(args)
    return _fuzz_minimize(args)


_COMMANDS = {
    "generate": cmd_generate,
    "diagnose": cmd_diagnose,
    "evaluate": cmd_evaluate,
    "demo": cmd_demo,
    "fleet-demo": cmd_fleet_demo,
    "obs": cmd_obs,
    "incidents": cmd_incidents,
    "trace": cmd_trace,
    "lint": cmd_lint,
    "advise": cmd_advise,
    "health": cmd_health,
    "chaos": cmd_chaos,
    "fuzz": cmd_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())

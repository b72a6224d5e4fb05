"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      -- run a bundled workload under one or all detectors
* ``exec``     -- compile and run a MiniSMP source file
* ``analyze``  -- run trace-based detectors over a saved trace
* ``replay``   -- replay a schedule recording with detectors
* ``compile``  -- compile a MiniSMP source file and show the listing
* ``table1``   -- regenerate the paper's Table 1
* ``table2``   -- regenerate the paper's Table 2
* ``overhead`` -- measure the §7.3 detection overheads
* ``campaign`` -- parallel (workload, seed, detector-config) sweep
* ``shard``    -- plan/run/merge a campaign split across independent
               shard processes (see ``docs/scaling.md``)
* ``serve``    -- long-lived supervised fleet of detector executions
* ``fuzz``     -- differential fuzzing of the SVD detector family
* ``bench``    -- gate benchmark artefacts against pinned perf floors
               (and, with ``--gate``, against their recorded trend)
* ``db``       -- query the persistent results database

``run``, ``campaign``, ``serve`` and ``fuzz`` accept ``--obs`` (plus
``--trace-out``/``--metrics-out``) to activate :mod:`repro.obs` for the
command: a metrics summary and span timings at the end of the run, a
canonical-JSON metrics snapshot, and a Chrome trace-event file that
opens directly in Perfetto.  See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time as _time
from typing import List, Optional, Sequence

import repro.obs as obs
from repro.core import OnlineSVD
from repro.harness import bench_gate
from repro.engine import DetectorEngine, available, parse_detector_list
from repro.harness import measure_overhead, render_table, run_workload
from repro.harness.table1 import render_table1, table1_rows
from repro.harness.table2 import render_table2, table2_rows
from repro.lang import LangError, compile_source
from repro.machine import Machine, RandomScheduler
from repro.trace import TraceRecorder
from repro.workloads import (WORKLOADS, apache_log, mysql_prepared,
                             queue_region, stringbuffer)

#: workload factories that accept ``fixed=``
_FIXABLE = {"apache": apache_log, "mysql-prepared": mysql_prepared,
            "stringbuffer": stringbuffer, "queue-region": queue_region}

# Exit codes, used consistently by run/campaign/fuzz/analyze:
#   0 -- ran to completion, nothing reported
#   1 -- ran to completion, detectors reported violations (or the fuzz
#        oracle found a genuine bug)
#   2 -- usage error: bad flags, unreadable or malformed input
#   3 -- produced a result, but degraded: analyses quarantined, trace
#        records salvaged/lost, or campaign runs failed/timed out.
#        Degraded beats violations -- a partial report is suspect first.
EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_DEGRADED = 3


def _exit_code(violations: bool, degraded: bool) -> int:
    if degraded:
        return EXIT_DEGRADED
    return EXIT_VIOLATIONS if violations else EXIT_OK


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument("--obs", action="store_true",
                       help="collect metrics + spans and print a summary")
    group.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write spans (implies --obs); .jsonl gets "
                       "one span per line, anything else gets Chrome "
                       "trace-event JSON (opens in Perfetto)")
    group.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the metrics snapshot as canonical "
                       "JSON (implies --obs)")


def _add_consistency_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("memory model")
    group.add_argument("--consistency", default="strict",
                       choices=["strict", "tso"],
                       help="memory model the live machines execute "
                       "under (default: strict; see docs/consistency.md)")
    group.add_argument("--model-seed", type=int, default=None,
                       metavar="N",
                       help="TSO store-buffer seed (default: the "
                       "schedule seed, so one number reproduces a run)")


def _add_db_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", default=None, metavar="PATH",
                        help="append this run to the persistent results "
                        "database at PATH (SQLite; created if missing -- "
                        "see docs/observability.md)")


def _add_matrix_flags(parser: argparse.ArgumentParser) -> None:
    """The campaign matrix + execution-policy flags, shared by
    ``repro campaign`` and ``repro shard plan`` so both expand the
    exact same task matrix for the same flags."""
    parser.add_argument("--workloads", default="all",
                        help="comma-separated workload names, or 'all'")
    parser.add_argument("--configs", default="default",
                        help="comma-separated detector configs "
                        "(default, block4, all-blocks, no-addr-deps, "
                        "no-ctrl-deps, cut-at-wait)")
    parser.add_argument("--seeds", type=int, default=8,
                        help="seeded segments per (workload, config) cell")
    parser.add_argument("--master-seed", type=int, default=0)
    parser.add_argument("--switch-prob", type=float, default=0.3)
    parser.add_argument("--max-steps", type=int, default=400_000)
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-run wall-clock limit in seconds "
                        "(parallel mode); a hung run becomes one "
                        "timeout result")
    parser.add_argument("--retries", type=int, default=0,
                        help="re-dispatch a crashed/timed-out run up to N "
                        "times before recording the failure")
    parser.add_argument("--retry-backoff", type=float, default=0.0,
                        help="seconds before retry k runs (scaled by k)")
    parser.add_argument("--no-frd", action="store_true",
                        help="skip the FRD comparison pass")
    parser.add_argument("--detectors", default=None, metavar="NAMES",
                        help="extra registry detector names attached to "
                        "every run alongside SVD(+FRD)")
    _add_consistency_flags(parser)


#: default results-database path for ``repro db`` queries
DEFAULT_DB = "results.db"


def _obs_active(args) -> bool:
    return bool(getattr(args, "obs", False) or args.trace_out
                or args.metrics_out)


def _status_of(code: int) -> str:
    """Map an exit code to the status vocabulary the db stores."""
    return {EXIT_OK: "ok", EXIT_VIOLATIONS: "violations",
            EXIT_DEGRADED: "degraded"}.get(code, "error")


def _obs_emit(args, snapshot, tracer) -> None:
    """Write the requested artifacts and print the summary tables."""
    if args.metrics_out:
        # atomic: a crash mid-write must not leave a truncated snapshot
        obs.atomic_write_text(
            args.metrics_out,
            json.dumps(snapshot, sort_keys=True, indent=2) + "\n")
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        if args.trace_out.endswith(".jsonl"):
            tracer.write_jsonl(args.trace_out)
        else:
            tracer.write_chrome_trace(args.trace_out)
        print(f"trace written to {args.trace_out} "
              f"({len(tracer.spans)} spans)", file=sys.stderr)
    print()
    print(obs.render_summary(snapshot, tracer))


def _observed(args, call, record: bool = False):
    """``call()`` inside an obs session that is on when ``args`` asks
    for obs artifacts or ``record`` wants a snapshot for a results-DB
    row.  Returns ``(call(), snapshot)`` -- the snapshot ``None`` when
    obs was off -- after writing and printing the requested artifacts."""
    on = _obs_active(args) or record
    with obs.session(metrics=on, tracing=on) as handle:
        value = call()
    if not on:
        return value, None
    snapshot = handle.registry.snapshot()
    if _obs_active(args):
        _obs_emit(args, snapshot, handle.tracer)
    return value, snapshot


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SVD: serializability violation detection (PLDI'05)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a bundled workload")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--switch-prob", type=float, default=0.4)
    run.add_argument("--fixed", action="store_true",
                     help="use the patched variant where one exists")
    run.add_argument("--detector", default="svd",
                     choices=["svd", "precise", "frd", "lockset",
                              "atomizer", "offline", "stale",
                              "lock-order", "hybrid", "all"])
    run.add_argument("--detectors", default=None, metavar="NAMES",
                     help="comma-separated registry detector names (or "
                     "'all') multiplexed over one execution by the "
                     "engine; available: " + ", ".join(available()))
    run.add_argument("--max-steps", type=int, default=1_000_000)
    run.add_argument("--inject", default=None, metavar="PLAN",
                     help="fault-plan JSON file (see docs/robustness.md); "
                     "stream faults perturb the event stream, analysis "
                     "faults exercise engine quarantine, trace faults "
                     "round-trip the run through a corrupted trace file "
                     "and the salvaging reader")
    _add_consistency_flags(run)
    _add_obs_flags(run)
    _add_db_flag(run)

    execute = sub.add_parser("exec", help="compile and run a MiniSMP file")
    execute.add_argument("source", help="path to the MiniSMP source file")
    execute.add_argument("--thread", action="append", default=[],
                         metavar="NAME[:ARG,ARG...]",
                         help="thread instance to run (repeatable)")
    execute.add_argument("--seed", type=int, default=0)
    execute.add_argument("--switch-prob", type=float, default=0.4)
    execute.add_argument("--svd", action="store_true",
                         help="attach the online detector")
    execute.add_argument("--save-trace", metavar="PATH",
                         help="record the execution trace to a file")
    execute.add_argument("--record", metavar="PATH",
                         help="save a replayable schedule recording")
    execute.add_argument("--max-steps", type=int, default=1_000_000)

    analyze = sub.add_parser(
        "analyze", help="run trace-based detectors over a saved trace")
    analyze.add_argument("source", help="the MiniSMP source the trace "
                         "was recorded from")
    analyze.add_argument("trace", help="trace file saved by `exec "
                         "--save-trace`")
    analyze.add_argument("--detector", default="frd",
                         metavar="NAMES",
                         help="comma-separated registry detector names "
                         "(or 'all'), or 'queries'; available: "
                         + ", ".join(available()))
    analyze.add_argument("--variable", default=None,
                         help="with --detector queries: variable history "
                         "to print")
    analyze.add_argument("--salvage", action="store_true",
                         help="recover what the framing checksums can "
                         "vouch for from a damaged trace instead of "
                         "failing on the first bad record")

    replay = sub.add_parser(
        "replay", help="replay a schedule recording with detectors")
    replay.add_argument("source", help="the MiniSMP source the recording "
                        "was captured from")
    replay.add_argument("recording", help="file saved by `exec --record`")
    replay.add_argument("--svd", action="store_true",
                        help="attach the online detector during replay")

    comp = sub.add_parser("compile", help="compile and show the listing")
    comp.add_argument("source")
    comp.add_argument("--stats", action="store_true",
                      help="print layout statistics instead of a listing")

    t1 = sub.add_parser("table1", help="regenerate Table 1")
    t1.add_argument("--seed", type=int, default=3)

    t2 = sub.add_parser("table2", help="regenerate Table 2")
    t2.add_argument("--scale", type=int, default=1)
    t2.add_argument("--max-steps", type=int, default=400_000)

    over = sub.add_parser("overhead", help="measure detection overheads")
    over.add_argument("workload", choices=sorted(WORKLOADS), nargs="?",
                      default="mysql-tablelock")
    over.add_argument("--repeats", type=int, default=2)

    camp = sub.add_parser(
        "campaign", help="parallel (workload, seed, config) sweep")
    _add_matrix_flags(camp)
    camp.add_argument("-j", "--workers", type=int, default=1,
                      help="worker processes (1 = serial in-process)")
    camp.add_argument("--budget", type=float, default=None,
                      help="campaign wall-clock budget in seconds; "
                      "undispatched runs are marked skipped")
    # --journal starts a fresh journal, --resume continues one
    journal = camp.add_mutually_exclusive_group()
    journal.add_argument("--journal", default=None, metavar="DIR",
                         help="checkpoint every finished run to an atomic "
                         "journal in DIR (resume later with --resume DIR)")
    journal.add_argument("--resume", default=None, metavar="DIR",
                         help="resume an interrupted campaign from its "
                         "journal; already-journaled runs are skipped and "
                         "the merged output is identical to an "
                         "uninterrupted run")
    camp.add_argument("--table2", action="store_true",
                      help="also render with the paper's Table 2 "
                      "reference columns")
    camp.add_argument("--quiet", action="store_true",
                      help="suppress per-run progress lines")
    camp.add_argument("--progress", action="store_true",
                      help="render a live heartbeat status line "
                      "(tasks, events/sec, violations, worker "
                      "liveness) instead of per-run lines")
    camp.add_argument("--heartbeat-out", default=None, metavar="PATH",
                      help="append the heartbeat telemetry stream as "
                      "JSONL to PATH (one record per beat; "
                      "tail -f friendly)")
    camp.add_argument("--heartbeat-interval", type=float, default=1.0,
                      metavar="SECONDS",
                      help="seconds between heartbeat records "
                      "(default: 1.0)")
    _add_obs_flags(camp)
    _add_db_flag(camp)

    shard = sub.add_parser(
        "shard", help="split a campaign across independent shard "
        "processes and merge their journals (see docs/scaling.md)")
    shsub = shard.add_subparsers(dest="shard_command", required=True)

    splan = shsub.add_parser(
        "plan", help="write an N-shard plan for a campaign matrix")
    splan.add_argument("--shards", type=int, required=True, metavar="N",
                       help="number of shards to split the matrix into")
    splan.add_argument("--out", required=True, metavar="DIR",
                       help="plan directory (one subdirectory per shard)")
    splan.add_argument("--no-obs", action="store_true",
                       help="plan without per-task metrics collection "
                       "(fastest; the merge then has no obs snapshot)")
    _add_matrix_flags(splan)

    srun = shsub.add_parser(
        "run", help="run one shard directory (journaled; rerunning "
        "resumes from the journal)")
    srun.add_argument("shard_dir", help="a shard directory written by "
                      "`repro shard plan`")
    srun.add_argument("-j", "--workers", type=int, default=1,
                      help="worker processes for this shard")
    srun.add_argument("--budget", type=float, default=None,
                      help="shard wall-clock budget in seconds")
    srun.add_argument("--heartbeat-interval", type=float, default=1.0,
                      metavar="SECONDS")
    _add_db_flag(srun)

    smerge = shsub.add_parser(
        "merge", help="merge every shard's journal into the final "
        "campaign report (commutative; byte-identical to the unsharded "
        "campaign)")
    smerge.add_argument("plan_dir", help="the plan directory")
    smerge.add_argument("--table2", action="store_true",
                        help="also render with the paper's Table 2 "
                        "reference columns")
    smerge.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the merged obs snapshot as "
                        "canonical JSON")
    _add_db_flag(smerge)

    sdrive = shsub.add_parser(
        "drive", help="run every shard as a local subprocess, then "
        "merge (the single-host multi-process backend)")
    sdrive.add_argument("plan_dir", help="the plan directory")
    sdrive.add_argument("-j", "--workers", type=int, default=1,
                        help="worker processes per shard subprocess")
    sdrive.add_argument("--table2", action="store_true")
    sdrive.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the merged obs snapshot as "
                        "canonical JSON")
    _add_db_flag(sdrive)

    serve = sub.add_parser(
        "serve", help="long-lived supervised fleet of detector "
        "executions (see docs/robustness.md)")
    serve.add_argument("--workloads", default="all",
                       help="comma-separated workload names, or 'all'")
    serve.add_argument("--executions", type=int, default=100,
                       help="total executions to run (default: 100)")
    serve.add_argument("--concurrency", type=int, default=4,
                       help="executions in flight at once (default: 4)")
    serve.add_argument("--master-seed", type=int, default=0)
    serve.add_argument("--switch-prob", type=float, default=0.3)
    serve.add_argument("--max-steps", type=int, default=20_000,
                       help="per-execution step cap (default: 20000)")
    serve.add_argument("--detectors", default=None, metavar="NAMES",
                       help="comma-separated registry detector names "
                       "per execution (default: svd)")
    serve.add_argument("--wall-deadline", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-execution wall-clock deadline enforced "
                       "by the watchdog (default: 30)")
    serve.add_argument("--stall-timeout", type=float, default=5.0,
                       metavar="SECONDS",
                       help="kill an execution making no progress for "
                       "this long (default: 5)")
    serve.add_argument("--max-restarts", type=int, default=2,
                       help="crash-restart attempts per execution, with "
                       "capped exponential backoff (default: 2)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="cross-execution failures before an analysis "
                       "is quarantined fleet-wide (default: 3)")
    serve.add_argument("--budget-events-per-sec", type=float,
                       default=None, metavar="RATE",
                       help="fleet event-rate budget driving the "
                       "degradation ladder (full -> sampled -> paused); "
                       "default: no budget, ladder pinned at full")
    serve.add_argument("--ladder-dwell", type=float, default=1.0,
                       metavar="SECONDS",
                       help="minimum seconds between ladder transitions "
                       "(default: 1.0)")
    serve.add_argument("--drain-grace", type=float, default=5.0,
                       metavar="SECONDS",
                       help="grace window for running executions on "
                       "SIGTERM/SIGINT before kill flags (default: 5)")
    serve.add_argument("--http-port", type=int, default=None,
                       metavar="PORT",
                       help="serve live JSON status on 127.0.0.1:PORT "
                       "(0 = ephemeral; default: no endpoint)")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound HTTP port to PATH "
                       "(for scripts using --http-port 0)")
    serve.add_argument("--inject", default=None, metavar="PLAN",
                       help="fault-plan JSON file; exec.stall / "
                       "exec.crash / serve.slow_consumer sites address "
                       "executions by index (attempt 0 only, so "
                       "restart recovers)")
    serve.add_argument("--heartbeat-out", default=None, metavar="PATH",
                       help="append the heartbeat telemetry stream as "
                       "JSONL to PATH")
    serve.add_argument("--heartbeat-interval", type=float, default=1.0,
                       metavar="SECONDS")
    serve.add_argument("--progress", action="store_true",
                       help="render a live heartbeat status line")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the final summary lines")
    _add_consistency_flags(serve)
    _add_obs_flags(serve)
    _add_db_flag(serve)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing of the SVD detector family")
    fuzz.add_argument("--budget", type=float, default=30.0,
                      help="wall-clock budget in seconds")
    fuzz.add_argument("--programs", type=int, default=None,
                      help="cap on generated programs (default: "
                      "budget-bound only)")
    fuzz.add_argument("--seeds", type=int, default=2,
                      help="schedule probes per generated program")
    fuzz.add_argument("--workers", type=int, default=1)
    fuzz.add_argument("--master-seed", type=int, default=0)
    fuzz.add_argument("--minimize", action="store_true",
                      help="shrink violating programs before reporting")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="existing corpus directory; report which "
                      "entries this session rediscovered")
    fuzz.add_argument("--save-corpus", default=None, metavar="DIR",
                      help="write up to 10 violating programs as a "
                      "seed corpus")
    fuzz.add_argument("--faults", action="store_true",
                      help="fault-matrix mode: probe each generated "
                      "program's recorded trace under every single-fault "
                      "plan and check the degradation oracle (no "
                      "uncaught exceptions, quarantine isolates the "
                      "targeted analysis)")
    fuzz.add_argument("--directed", action="store_true",
                      help="conflict-directed violation hunt on the "
                      "transactional workloads: profile conflict sites, "
                      "then compare directed vs uniformly random "
                      "schedule search at equal probe budgets")
    fuzz.add_argument("--probes", type=int, default=120,
                      help="probes per (workload, arm) in --directed "
                      "mode (default: 120)")
    fuzz.add_argument("--consistency", default="tso",
                      choices=["strict", "tso"],
                      help="memory model for --directed probes "
                      "(default: tso)")
    _add_obs_flags(fuzz)
    _add_db_flag(fuzz)

    bench = sub.add_parser(
        "bench", help="gate recorded benchmark artefacts against "
        "pinned performance floors")
    bench.add_argument("--check", required=True, metavar="FILE",
                       help="benchmark artefact to gate (e.g. "
                       "benchmarks/out/BENCH_engine.json)")
    bench.add_argument("--floor", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="extra floor: dotted key into the artefact "
                       "and its minimum value (e.g. speedup=1.5); "
                       "repeatable, overrides the built-in table")
    bench.add_argument("--no-builtin", action="store_true",
                       help="ignore the built-in floor table and gate "
                       "only the --floor specs")
    bench.add_argument("--gate", action="store_true",
                       help="also gate against the recorded trend: fail "
                       "if a floored value regressed more than "
                       "--tolerance below the median of its recent "
                       "history in --db (requires --db)")
    bench.add_argument("--trend-window", type=int, default=5,
                       metavar="N",
                       help="number of recent recorded runs the trend "
                       "median is taken over (default: 5)")
    bench.add_argument("--tolerance", type=float, default=0.10,
                       metavar="F",
                       help="allowed fractional regression below the "
                       "trend median (default: 0.10)")
    bench.add_argument("--no-record", action="store_true",
                       help="with --db: gate against history but do not "
                       "append this artefact to the database")
    _add_db_flag(bench)

    db = sub.add_parser(
        "db", help="query the persistent results database")
    dbsub = db.add_subparsers(dest="db_command", required=True)

    def _db_path_flag(p):
        p.add_argument("--db", default=DEFAULT_DB, metavar="PATH",
                       help=f"results database path "
                       f"(default: {DEFAULT_DB})")

    rec = dbsub.add_parser(
        "record", help="record a benchmark artefact into the database")
    rec.add_argument("artefact", help="benchmark artefact JSON file")
    rec.add_argument("--kind", default="bench", metavar="KIND",
                     help="run kind to record under (default: bench)")
    rec.add_argument("--label", default=None, metavar="NAME",
                     help="run label (default: artefact basename)")
    _db_path_flag(rec)

    lst = dbsub.add_parser("list", help="list recorded runs")
    lst.add_argument("--kind", default=None,
                     help="only runs of this kind")
    lst.add_argument("--label", default=None,
                     help="only runs with this label")
    lst.add_argument("--limit", type=int, default=20,
                     help="show only the newest N runs (default: 20)")
    _db_path_flag(lst)

    show = dbsub.add_parser("show", help="show one recorded run")
    show.add_argument("run_id", nargs="?", type=int, default=None,
                      help="run id (default: the latest run)")
    show.add_argument("--field", default=None,
                      choices=["obs", "payload", "config", "heartbeat"],
                      help="print just this stored JSON document "
                      "(canonical indented JSON) instead of the "
                      "full record")
    _db_path_flag(show)

    trend = dbsub.add_parser(
        "trend", help="render the recorded trajectory of one metric")
    trend.add_argument("label", help="run label (e.g. BENCH_engine.json)")
    trend.add_argument("key", help="dotted key into the recorded "
                       "payload (e.g. speedup)")
    trend.add_argument("--kind", default="bench",
                       help="run kind (default: bench)")
    trend.add_argument("--fingerprint", default=None,
                       help="only runs with this config fingerprint")
    trend.add_argument("--limit", type=int, default=None,
                       help="use only the newest N runs")
    _db_path_flag(trend)

    exp = dbsub.add_parser(
        "export", help="export the database as deterministic JSONL")
    exp.add_argument("out", help="output path (one canonical JSON "
                     "record per line)")
    _db_path_flag(exp)

    mrg = dbsub.add_parser(
        "merge", help="merge result databases into one (commutative; "
        "duplicate rows -- same kind, label, fingerprint, seeds, and "
        "recording time -- are kept once)")
    mrg.add_argument("sources", nargs="+",
                     help="source database paths")
    mrg.add_argument("--into", required=True, metavar="DST",
                     help="destination database (created if missing)")
    return parser


def _parse_threads(specs: Sequence[str]) -> List:
    threads = []
    for spec in specs:
        name, _sep, args = spec.partition(":")
        values = tuple(int(a) for a in args.split(",") if a)
        threads.append((name, values))
    return threads


def _cmd_run(args) -> int:
    plan = None
    if args.inject:
        from repro.faults import FaultPlan
        try:
            plan = FaultPlan.load(args.inject)
        except (OSError, ValueError) as exc:
            print(f"cannot load fault plan: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(plan.describe(), file=sys.stderr)
    db_info = {} if args.db else None
    start = _time.perf_counter()
    code, snapshot = _observed(
        args, lambda: _run_workload_cmd(args, plan, db_info))
    if db_info is not None and code != EXIT_USAGE:
        _db_record_run(args, code, db_info, snapshot,
                       elapsed=_time.perf_counter() - start)
    return code


def _db_record_run(args, code, db_info, snapshot, elapsed) -> None:
    """Append one ``repro run`` outcome to the results database."""
    from repro import resultsdb
    config = {
        "command": "run",
        "workload": args.workload,
        "fixed": bool(args.fixed),
        "detector": args.detector,
        "detectors": args.detectors,
        "switch_prob": args.switch_prob,
        "max_steps": args.max_steps,
        "consistency": args.consistency,
        "inject": bool(args.inject),
    }
    run_id = resultsdb.write_run(
        args.db, "run", args.workload, config,
        status=_status_of(code),
        violations=db_info.get("violations", 0),
        events=db_info.get("events", 0),
        elapsed=elapsed,
        schedule_seed=args.seed,
        model_seed=(args.model_seed if args.model_seed is not None
                    else args.seed),
        detectors=db_info.get("detectors", ()),
        consistency=args.consistency,
        obs=snapshot,
        violation_fingerprints=resultsdb.violation_report_fingerprints(
            db_info.get("reports", {})))
    print(f"recorded run {run_id} in {args.db}", file=sys.stderr)


def _print_failures(failures) -> None:
    for failure in failures:
        print(f"DEGRADED: {failure.describe()}", file=sys.stderr)


def _trace_round_trip(trace, program, plan) -> bool:
    """Demonstrate the ``trace.*`` faults in ``plan``: save the recorded
    trace, corrupt the file as planned, salvage-load it back.  Returns
    True when records were skipped or lost (a degraded result)."""
    import tempfile

    from repro.faults.inject import corrupt_trace_file
    from repro.trace import Trace

    with tempfile.TemporaryDirectory(prefix="repro-inject-") as tmp:
        path = f"{tmp}/run.trace"
        trace.save(path)
        corrupt_trace_file(path, plan)
        _salvaged, report = Trace.salvage_load(path, program)
        print()
        print(report.describe())
        return not report.clean


def _run_workload_cmd(args, plan=None, db_info=None) -> int:
    import repro.faults.runtime as faults
    from repro.machine import resolve_model

    def note(events, reports) -> None:
        # collect what the results database wants from whichever
        # branch ran: event count, detector set, and the report map
        # the violation fingerprints derive from
        if db_info is not None:
            db_info["events"] = events
            db_info["detectors"] = sorted(reports)
            db_info["reports"] = reports
            db_info["violations"] = sum(
                getattr(r, "dynamic_count", 0) for r in reports.values())

    model_seed = (args.model_seed if args.model_seed is not None
                  else args.seed)
    if args.fixed:
        factory = _FIXABLE.get(args.workload)
        if factory is None:
            print(f"workload {args.workload!r} has no patched variant",
                  file=sys.stderr)
            return EXIT_USAGE
        workload = factory(fixed=True)
    else:
        workload = WORKLOADS[args.workload]()
    print(f"workload: {workload.description}")
    keep_trace = plan is not None and bool(plan.trace_faults())

    if args.detectors:
        try:
            names = parse_detector_list(args.detectors)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return EXIT_USAGE
        with faults.install(plan):
            engine = DetectorEngine(workload.program, names)
            machine = workload.make_machine(
                RandomScheduler(seed=args.seed,
                                switch_prob=args.switch_prob),
                memmodel=resolve_model(args.consistency, model_seed))
            result = engine.run_machine(machine, max_steps=args.max_steps,
                                        keep_trace=keep_trace)
        print(f"outcome : {workload.validate(machine).detail}")
        print(f"status  : {result.status}, {result.end_seq} events, "
              f"{result.stats.stream_passes} stream pass(es) for "
              f"{len(result.requested)} detector(s)")
        reports = {name: result.report(name) for name in result.requested}
        note(result.end_seq, reports)
        violations = False
        for name in result.requested:
            print()
            report = reports[name]
            violations = violations or report.dynamic_count > 0
            print(report.describe())
        degraded = result.degraded
        _print_failures(result.failures.values())
        if keep_trace and result.trace is not None:
            degraded = _trace_round_trip(result.trace, workload.program,
                                         plan) or degraded
        return _exit_code(violations, degraded)

    if args.detector in ("svd", "all"):
        with faults.install(plan):
            result = run_workload(workload, seed=args.seed,
                                  switch_prob=args.switch_prob,
                                  max_steps=args.max_steps,
                                  run_frd=args.detector == "all",
                                  keep_trace=keep_trace,
                                  consistency=args.consistency,
                                  model_seed=model_seed)
        print(f"outcome : {result.outcome.detail}")
        print(f"status  : {result.status}, "
              f"{result.instructions} instructions, "
              f"{result.cus_created} CUs")
        stats = result.stats
        if stats is not None:
            print(f"engine  : {stats.stream_passes} stream pass(es), "
                  f"{stats.total_events_dispatched} events dispatched "
                  f"to {len(result.reports)} detector(s)")
        print()
        print(result.svd_report.describe())
        if result.frd_report is not None:
            print()
            print(result.frd_report.describe())
        print()
        print(result.log.describe(limit=5))
        note(result.instructions, result.reports)
        violations = any(r.dynamic_count > 0
                         for r in result.reports.values())
        degraded = result.engine is not None and result.engine.degraded
        if result.engine is not None:
            _print_failures(result.engine.failures.values())
        if (keep_trace and result.engine is not None
                and result.engine.trace is not None):
            degraded = _trace_round_trip(result.engine.trace,
                                         workload.program, plan) or degraded
        return _exit_code(violations, degraded)

    # any other single detector resolves through the same registry
    with faults.install(plan):
        engine = DetectorEngine(workload.program, [args.detector])
        machine = workload.make_machine(
            RandomScheduler(seed=args.seed, switch_prob=args.switch_prob),
            memmodel=resolve_model(args.consistency, model_seed))
        result = engine.run_machine(machine, max_steps=args.max_steps,
                                    keep_trace=keep_trace)
    print(f"outcome : {workload.validate(machine).detail}")
    report = result.report(result.requested[0])
    note(result.end_seq, {result.requested[0]: report})
    print(report.describe())
    degraded = result.degraded
    _print_failures(result.failures.values())
    if keep_trace and result.trace is not None:
        degraded = _trace_round_trip(result.trace, workload.program,
                                     plan) or degraded
    return _exit_code(report.dynamic_count > 0, degraded)


def _cmd_exec(args) -> int:
    try:
        with open(args.source) as fh:
            source = fh.read()
    except OSError as exc:
        print(f"cannot read {args.source}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        program = compile_source(source)
    except LangError as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    threads = _parse_threads(args.thread)
    if not threads:
        threads = [(name, ()) for name, spec in program.threads.items()
                   if not spec.param_offsets]
        if not threads:
            print("no --thread given and every thread body takes "
                  "parameters", file=sys.stderr)
            return EXIT_USAGE
    detector = OnlineSVD(program) if args.svd else None
    observers = [detector] if detector else []
    recorder = None
    if args.save_trace:
        recorder = TraceRecorder(program, len(threads))
        observers.append(recorder)
    if args.record:
        from repro.machine import record_execution
        machine, recording = record_execution(
            program, threads,
            RandomScheduler(seed=args.seed, switch_prob=args.switch_prob),
            max_steps=args.max_steps, observers=observers)
        recording.save(args.record)
        print(f"recording saved to {args.record} "
              f"({recording.steps} steps)")
        status = machine.status
    else:
        machine = Machine(program, threads,
                          scheduler=RandomScheduler(
                              seed=args.seed,
                              switch_prob=args.switch_prob),
                          observers=observers)
        status = machine.run(max_steps=args.max_steps)
    if recorder is not None:
        trace = recorder.trace()
        trace.save(args.save_trace)
        print(f"trace saved to {args.save_trace} ({len(trace)} events)")
    print(f"status: {status} after {machine.steps} steps")
    if machine.output:
        print("output:", " ".join(str(v) for _t, v in machine.output))
    for crash in machine.crashes:
        loc = program.locs[crash.loc] if crash.loc >= 0 else "?"
        print(f"CRASH thread {crash.tid}: {crash.reason} at {loc}")
    if detector is not None:
        print()
        print(detector.report.describe())
    return 0


def _cmd_compile(args) -> int:
    try:
        with open(args.source) as fh:
            source = fh.read()
    except OSError as exc:
        print(f"cannot read {args.source}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        program = compile_source(source)
    except LangError as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.stats:
        rows = [(name, spec.entry, spec.frame_words, spec.reg_count)
                for name, spec in program.threads.items()]
        print(render_table(["thread", "entry pc", "frame words", "regs"],
                           rows, title=f"{len(program.code)} instructions, "
                           f"{program.shared_words} shared words"))
    else:
        print(program.disassemble())
    return 0


def _cmd_table1(args) -> int:
    print(render_table1(table1_rows(seed=args.seed)))
    return 0


def _cmd_table2(args) -> int:
    print(render_table2(table2_rows(scale=args.scale,
                                    max_steps=args.max_steps)))
    return 0


def _cmd_overhead(args) -> int:
    result = measure_overhead(WORKLOADS[args.workload](),
                              repeats=args.repeats)
    print(f"{result.workload}: {result.instructions} instructions")
    print(f"bare machine : {result.bare_seconds * 1e3:8.1f} ms")
    print(f"with SVD     : {result.svd_seconds * 1e3:8.1f} ms "
          f"({result.slowdown:.1f}x)")
    print(f"tracked state: {result.peak_detector_state} block entries "
          f"({result.memory_overhead_fraction:.2f}x program memory)")
    return 0


def _cmd_analyze(args) -> int:
    try:
        with open(args.source) as fh:
            source = fh.read()
    except OSError as exc:
        print(f"cannot read {args.source}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        program = compile_source(source)
    except LangError as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    from repro.trace import Trace, TraceLoadError, TraceQuery
    degraded = False
    try:
        if args.salvage:
            trace, salvage = Trace.salvage_load(args.trace, program)
            print(salvage.describe())
            degraded = not salvage.clean
        else:
            trace = Trace.load(args.trace, program)
    except TraceLoadError as exc:
        print(str(exc), file=sys.stderr)
        print("hint: --salvage recovers the readable records from a "
              "damaged trace", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot read {args.trace}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"loaded {len(trace)} events, {trace.n_threads} threads")
    if args.detector == "queries":
        query = TraceQuery(trace)
        print(query.render_shared_report())
        if args.variable:
            print()
            print(query.render_history(args.variable))
        return _exit_code(False, degraded)
    try:
        names = parse_detector_list(args.detector)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_USAGE
    result = DetectorEngine(program, names).run_trace(trace)
    violations = False
    for i, name in enumerate(result.requested):
        if i:
            print()
        report = result.report(name)
        violations = violations or report.dynamic_count > 0
        print(report.describe())
    _print_failures(result.failures.values())
    return _exit_code(violations, degraded or result.degraded)


def _cmd_replay(args) -> int:
    try:
        with open(args.source) as fh:
            source = fh.read()
    except OSError as exc:
        print(f"cannot read {args.source}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        program = compile_source(source)
    except LangError as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    from repro.machine import Recording, replay_execution
    try:
        recording = Recording.load(args.recording)
    except OSError as exc:
        print(f"cannot read {args.recording}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    detector = OnlineSVD(program) if args.svd else None
    try:
        machine = replay_execution(
            program, recording,
            observers=[detector] if detector else [])
    except ValueError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"replayed {machine.steps} steps deterministically "
          f"(status {machine.status})")
    for crash in machine.crashes:
        loc = program.locs[crash.loc] if crash.loc >= 0 else "?"
        print(f"CRASH thread {crash.tid}: {crash.reason} at {loc}")
    if detector is not None:
        print()
        print(detector.report.describe())
        print()
        print(detector.log.describe(limit=5))
    return 0


class _MatrixError(Exception):
    """Bad campaign matrix flags; the message is the usage error."""


def _resolve_campaign_spec(args, obs_on: bool):
    """Expand the shared matrix flags into ``(spec, names, configs)``.
    One resolver for ``campaign`` and ``shard plan`` keeps the expanded
    task matrix -- and therefore the journal fingerprint -- identical
    for identical flags."""
    from repro.harness.campaign import (CampaignSpec, NAMED_CONFIGS,
                                        WorkloadSpec)
    if args.workloads == "all":
        names = sorted(WORKLOADS)
    else:
        names = [n.strip() for n in args.workloads.split(",") if n.strip()]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise _MatrixError(f"unknown workloads: {', '.join(unknown)}")
    configs = []
    for cname in args.configs.split(","):
        cname = cname.strip()
        if cname not in NAMED_CONFIGS:
            raise _MatrixError(
                f"unknown config {cname!r} (choose from "
                f"{', '.join(sorted(NAMED_CONFIGS))})")
        config = NAMED_CONFIGS[cname]()
        config.switch_prob = args.switch_prob
        config.max_steps = args.max_steps
        config.run_frd = not args.no_frd
        config.consistency = args.consistency
        config.model_seed = args.model_seed
        if args.detectors:
            try:
                config.detectors = tuple(
                    parse_detector_list(args.detectors))
            except KeyError as exc:
                raise _MatrixError(exc.args[0])
        configs.append(config)
    spec = CampaignSpec(
        workloads=[WorkloadSpec(name=n) for n in names],
        configs=configs, seeds=args.seeds,
        master_seed=args.master_seed, task_timeout=args.timeout,
        task_retries=args.retries, retry_backoff=args.retry_backoff,
        obs=obs_on)
    return spec, names, configs


def _campaign_config_doc(args, names, configs) -> dict:
    """The campaign config document the results DB fingerprints.
    Shared by ``campaign --db`` and the shard plan manifest so a merged
    shard campaign records a row byte-identical to an unsharded one."""
    return {
        "command": "campaign",
        "workloads": sorted(names),
        "configs": sorted(c.name for c in configs),
        "seeds": args.seeds,
        "switch_prob": args.switch_prob,
        "max_steps": args.max_steps,
        "frd": not args.no_frd,
        "detectors": args.detectors,
        "consistency": args.consistency,
    }


def _campaign_code(report) -> int:
    """Exit code of a finished (or merged) campaign report."""
    if report.interrupted:
        return EXIT_DEGRADED
    return _exit_code(report.aggregate.violations > 0,
                      report.failed_count > 0)


def _tally(report) -> str:
    return (f"{report.completed - report.failed_count} ok, "
            f"{report.failed_count} failed/skipped")


def _print_tables(report, table2: bool) -> None:
    print(report.render_metrics())
    if table2:
        print()
        print(report.render_table2())


def _record_campaign(db: str, label: str, config: Optional[dict], report,
                     snapshot, heartbeat) -> None:
    """Append one campaign row -- unsharded, one shard, or a shard
    merge -- to the results database.  Everything but the label, config
    document and telemetry derives from the report, so a merged shard
    campaign records the same row as the unsharded one.  A plan built
    without a config document records the bare matrix instead."""
    from repro import resultsdb
    spec = report.spec
    first = spec.configs[0] if spec.configs else None
    if config is None:
        config = {"command": "campaign",
                  "workloads": sorted(w.name for w in spec.workloads),
                  "configs": sorted(c.name for c in spec.configs),
                  "seeds": spec.seeds}
    run_id = resultsdb.write_run(
        db, "campaign", label, config,
        status=("interrupted" if report.interrupted
                else _status_of(_campaign_code(report))),
        violations=report.aggregate.violations,
        events=report.aggregate.events,
        elapsed=report.elapsed,
        master_seed=spec.master_seed,
        detectors=first.detectors if first else (),
        consistency=first.consistency if first else "",
        payload={"runs": report.completed, "failed": report.failed_count},
        obs=snapshot,
        violation_fingerprints=sorted(
            report.aggregate.violation_fingerprints),
        heartbeat=heartbeat)
    print(f"recorded {label} {run_id} in {db}", file=sys.stderr)


def _cmd_campaign(args) -> int:
    from repro.harness.journal import JournalError
    from repro.harness.session import run_session
    # --db wants the merged obs snapshot in the record, so recording a
    # campaign implies collecting task metrics even without --obs
    try:
        spec, names, configs = _resolve_campaign_spec(
            args, _obs_active(args) or bool(args.db))
    except _MatrixError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    journal_dir = args.resume or args.journal
    total = spec.task_count()
    done = [0]

    def progress(result) -> None:
        done[0] += 1
        # --progress replaces the per-run lines with the live
        # heartbeat status line; mixing both garbles the terminal
        if args.quiet or args.progress:
            return
        note = result.status
        if result.ok:
            note += (f", {result.svd.dynamic_total} svd reports, "
                     f"{result.instructions} insts")
        print(f"[{done[0]}/{total}] {result.workload}/{result.config} "
              f"seed#{result.seed_index} -> {note}", file=sys.stderr)

    try:
        session = run_session(
            spec, workers=args.workers, budget=args.budget,
            journal_dir=journal_dir, resume=bool(args.resume),
            on_result=progress, heartbeat_path=args.heartbeat_out,
            heartbeat_interval=args.heartbeat_interval,
            render=args.progress, summary=bool(args.db))
    except JournalError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    report = session.report
    _print_tables(report, args.table2)
    print(f"{report.completed} runs ({_tally(report)}) in "
          f"{report.elapsed:.1f}s with {args.workers} worker(s)",
          file=sys.stderr)
    for result in report.errors[:5]:
        first_line = result.error.strip().splitlines()[-1:] or ["?"]
        print(f"  {result.workload}/{result.config} seed#"
              f"{result.seed_index}: {result.status}: {first_line[0]}",
              file=sys.stderr)
    if session.snapshot is not None and _obs_active(args):
        _obs_emit(args, session.snapshot, session.tracer)
    if report.interrupted:
        print(f"campaign interrupted after {report.completed} of "
              f"{total} runs; journal and heartbeat are flushed"
              + (", resume with --resume" if journal_dir else ""),
              file=sys.stderr)
    if args.db:
        _record_campaign(
            args.db, "campaign", _campaign_config_doc(args, names, configs),
            report, session.snapshot, session.heartbeat)
    return _campaign_code(report)


def _cmd_shard(args) -> int:
    """``repro shard``: plan, run, merge, drive."""
    return {"plan": _cmd_shard_plan, "run": _cmd_shard_run,
            "merge": _cmd_shard_merge,
            "drive": _cmd_shard_drive}[args.shard_command](args)


def _cmd_shard_plan(args) -> int:
    from repro.harness import shard as shardlib
    # shards collect per-task metrics by default so the merged report
    # carries the campaign-wide obs snapshot, exactly like
    # `campaign --db`; --no-obs opts out for throughput runs
    try:
        spec, names, configs = _resolve_campaign_spec(
            args, obs_on=not args.no_obs)
    except _MatrixError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    config_doc = _campaign_config_doc(args, names, configs)
    try:
        plan = shardlib.plan_shards(spec, args.shards, args.out,
                                    config_doc=config_doc)
    except shardlib.ShardError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    per_shard = [spec.task_count((k, plan.count))
                 for k in range(plan.count)]
    print(f"planned {plan.total_tasks} tasks across {plan.count} "
          f"shard(s) in {args.out} ({min(per_shard)}-{max(per_shard)} "
          f"tasks/shard, fingerprint {plan.fingerprint[:16]})")
    return EXIT_OK


def _cmd_shard_run(args) -> int:
    import os
    from repro.harness import shard as shardlib
    from repro.harness.journal import JournalError
    from repro.harness.session import run_session
    try:
        spec, (index, count) = shardlib.load_shard(args.shard_dir)
    except shardlib.ShardError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    # rerunning a shard directory always resumes its journal (a missing
    # journal is simply started): the normal recovery path after a
    # crash or kill is to run the same command again
    try:
        session = run_session(
            spec, workers=args.workers, budget=args.budget,
            journal_dir=args.shard_dir, resume=True, shard=(index, count),
            heartbeat_path=os.path.join(args.shard_dir,
                                        shardlib.HEARTBEAT_NAME),
            heartbeat_interval=args.heartbeat_interval)
    except JournalError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    report = session.report
    if session.snapshot is not None:
        # merge_shards folds these files into the campaign snapshot
        obs.atomic_write_text(
            os.path.join(args.shard_dir, shardlib.METRICS_NAME),
            json.dumps(session.snapshot, sort_keys=True, indent=2) + "\n",
            fsync=True)
    print(f"shard {index + 1}/{count}: {report.completed}/{session.total} "
          f"tasks ({_tally(report)}) in {report.elapsed:.1f}s")
    if report.interrupted:
        print(f"shard interrupted; the journal is flushed, rerun "
              f"`repro shard run {args.shard_dir}` to resume",
              file=sys.stderr)
    if args.db:
        try:
            config_doc = shardlib.load_plan(
                os.path.dirname(os.path.abspath(args.shard_dir))).config
        except shardlib.ShardError:
            config_doc = None  # a shard directory away from its plan
        _record_campaign(
            args.db, f"campaign[shard {index + 1}/{count}]", config_doc,
            report, session.snapshot, session.heartbeat)
    return _campaign_code(report)


def _cmd_shard_merge(args) -> int:
    from repro.harness import shard as shardlib
    from repro.harness.journal import JournalError
    try:
        merge = shardlib.merge_shards(args.plan_dir)
    except (shardlib.ShardError, JournalError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    report = merge.report
    _print_tables(report, args.table2)
    print(f"merged {len(merge.shards)}/{merge.plan.count} shard "
          f"journal(s): {report.completed}/{merge.plan.total_tasks} runs "
          f"({_tally(report)})", file=sys.stderr)
    if merge.missing:
        sample = ", ".join(str(i) for i in merge.missing_sample)
        print(f"{merge.missing} task(s) not covered by any shard "
              f"journal (e.g. indices {sample}); the merged report is "
              f"partial -- rerun the missing shards and merge again",
              file=sys.stderr)
    if args.metrics_out:
        if merge.obs is None:
            print("no shard metrics snapshots to merge (planned with "
                  "--no-obs?)", file=sys.stderr)
        else:
            obs.atomic_write_text(
                args.metrics_out,
                json.dumps(merge.obs, sort_keys=True, indent=2) + "\n")
            print(f"metrics written to {args.metrics_out}",
                  file=sys.stderr)
    if args.db:
        _record_campaign(args.db, "campaign", merge.plan.config,
                         report, merge.obs, merge.heartbeat)
    return _campaign_code(report)


def _cmd_shard_drive(args) -> int:
    from repro.harness import shard as shardlib
    try:
        codes = shardlib.drive_shards(args.plan_dir, workers=args.workers)
    except shardlib.ShardError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    for index in sorted(codes):
        print(f"shard {index + 1}/{len(codes)}: exit {codes[index]}",
              file=sys.stderr)
    bad = {i: c for i, c in codes.items()
           if c not in (EXIT_OK, EXIT_VIOLATIONS)}
    if bad:
        print(f"{len(bad)} shard(s) did not complete cleanly (see "
              f"shard.log in each shard directory); merging what "
              f"finished", file=sys.stderr)
    return _cmd_shard_merge(args)


def _cmd_serve(args) -> int:
    """``repro serve``: the long-lived supervised detector fleet."""
    import repro.faults.runtime as fault_runtime
    from repro.harness.heartbeat import ServeHeartbeat
    from repro.serve import ServeConfig, Supervisor

    if args.workloads == "all":
        names = sorted(WORKLOADS)
    else:
        names = [n.strip() for n in args.workloads.split(",") if n.strip()]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    detectors = ("svd",)
    if args.detectors:
        try:
            detectors = tuple(parse_detector_list(args.detectors))
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return EXIT_USAGE
    plan = None
    if args.inject:
        from repro.faults import FaultPlan
        try:
            plan = FaultPlan.load(args.inject)
        except (OSError, ValueError) as exc:
            print(f"cannot load fault plan: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(plan.describe(), file=sys.stderr)

    if args.port_file and args.http_port is None:
        print("--port-file needs --http-port", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = ServeConfig(
            workloads=names, executions=args.executions,
            concurrency=args.concurrency, max_steps=args.max_steps,
            detectors=detectors, switch_prob=args.switch_prob,
            master_seed=args.master_seed, consistency=args.consistency,
            wall_deadline=args.wall_deadline,
            stall_timeout=args.stall_timeout,
            max_restarts=args.max_restarts,
            breaker_threshold=args.breaker_threshold,
            budget_events_per_sec=args.budget_events_per_sec,
            ladder_dwell=args.ladder_dwell,
            drain_grace=args.drain_grace,
            http_port=args.http_port, port_file=args.port_file)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # the heartbeat opens its stream file, so it comes only after every
    # usage check has passed
    if args.progress or args.heartbeat_out or args.db:
        config.heartbeat = ServeHeartbeat(
            args.executions, path=args.heartbeat_out,
            interval=args.heartbeat_interval,
            render=args.progress, stream=sys.stderr)
    supervisor = Supervisor(config)

    with fault_runtime.install(plan):
        outcome, snapshot = _observed(args, supervisor.run,
                                      record=bool(args.db))

    totals = supervisor.totals
    if not args.quiet:
        print(f"serve: {outcome}: {totals.completed} completed, "
              f"{totals.failed} failed of {totals.launched} launched "
              f"({config.executions} planned), {totals.restarts} "
              f"restart(s), {totals.watchdog_kills} watchdog kill(s), "
              f"{totals.violations} violation report(s), "
              f"ladder level {supervisor.ladder.level}",
              file=sys.stderr)
    code = {"ok": EXIT_OK, "violations": EXIT_VIOLATIONS,
            "degraded": EXIT_DEGRADED,
            "interrupted": EXIT_DEGRADED}[outcome]
    if args.db:
        from repro import resultsdb
        config_doc = {
            "command": "serve",
            "workloads": sorted(names),
            "executions": args.executions,
            "concurrency": args.concurrency,
            "max_steps": args.max_steps,
            "detectors": list(detectors),
            "consistency": args.consistency,
            "budget_events_per_sec": args.budget_events_per_sec,
            "inject": bool(args.inject),
        }
        run_id = resultsdb.write_run(
            args.db, "serve", "serve", config_doc,
            status=outcome,
            violations=totals.violations,
            events=totals.events,
            elapsed=supervisor.elapsed,
            master_seed=args.master_seed,
            detectors=detectors,
            consistency=args.consistency,
            payload=supervisor.final_payload(),
            obs=snapshot,
            heartbeat=(config.heartbeat.summary()
                       if config.heartbeat is not None else None))
        print(f"recorded serve {run_id} in {args.db}", file=sys.stderr)
    return code


def _cmd_fuzz(args) -> int:
    db_info = {} if args.db else None
    start = _time.perf_counter()
    code, snapshot = _observed(args, lambda: _run_fuzz_cmd(args, db_info))
    if db_info is not None and code != EXIT_USAGE:
        from repro import resultsdb
        config = {
            "command": "fuzz",
            "budget": args.budget,
            "programs": args.programs,
            "seeds": args.seeds,
            "minimize": bool(args.minimize),
            "faults": bool(args.faults),
            "directed": bool(args.directed),
            "probes": args.probes,
            "consistency": args.consistency,
        }
        run_id = resultsdb.write_run(
            args.db, "fuzz",
            "directed" if args.directed else "fuzz", config,
            status=_status_of(code),
            violations=db_info.get("violations", 0),
            events=db_info.get("events", 0),
            elapsed=_time.perf_counter() - start,
            master_seed=args.master_seed,
            consistency=args.consistency,
            payload=db_info.get("payload"),
            obs=snapshot)
        print(f"recorded fuzz {run_id} in {args.db}", file=sys.stderr)
    return code


def _run_fuzz_cmd(args, db_info=None) -> int:
    from repro.fuzz import (load_corpus, rediscovered, run_fuzz,
                            save_corpus)
    if args.budget is not None and args.budget <= 0:
        args.budget = None
    if args.directed:
        return _run_directed_hunt(args, db_info)
    try:
        report = run_fuzz(budget=args.budget, max_programs=args.programs,
                          probes_per_program=args.seeds,
                          workers=args.workers,
                          master_seed=args.master_seed,
                          minimize=args.minimize,
                          fault_mode=args.faults)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    print(report.describe())
    if db_info is not None:
        import dataclasses
        db_info["violations"] = report.stats.violations
        db_info["events"] = report.stats.probes
        db_info["payload"] = {"stats": dataclasses.asdict(report.stats),
                              "findings": len(report.findings),
                              "elapsed": report.elapsed}
    if args.corpus:
        try:
            entries = load_corpus(args.corpus)
        except OSError as exc:
            print(f"cannot read corpus: {exc}", file=sys.stderr)
            return EXIT_USAGE
        hits = rediscovered(report, entries)
        print(f"corpus: rediscovered {len(hits)}/{len(entries)} entries")
        for entry in hits:
            print(f"  {entry.file}")
    if args.save_corpus:
        entries = save_corpus(args.save_corpus, report.findings)
        print(f"saved {len(entries)} corpus entries to {args.save_corpus}")
    stats = report.stats
    if stats.replay_divergences:
        print("FAIL: live and trace-replayed online SVD disagreed "
              f"{stats.replay_divergences} time(s)", file=sys.stderr)
        return EXIT_VIOLATIONS
    if stats.fault_crashes or stats.fault_isolation_breaks:
        print(f"FAIL: fault oracle: {stats.fault_crashes} uncaught "
              f"crash(es), {stats.fault_isolation_breaks} isolation "
              f"break(s)", file=sys.stderr)
        return EXIT_VIOLATIONS
    # worker errors mean probes were silently lost: a degraded session
    return _exit_code(False, stats.errors > 0)


def _run_directed_hunt(args, db_info=None) -> int:
    """``fuzz --directed``: conflict-directed vs random violation hunt
    over the transactional workloads at equal probe budgets."""
    from repro.fuzz.directed import compare_hunts, describe_comparison
    from repro.workloads import TXN_WORKLOADS

    if args.probes <= 0:
        print("--probes must be positive", file=sys.stderr)
        return EXIT_USAGE
    workloads = [factory() for factory in TXN_WORKLOADS.values()]
    pairs = compare_hunts(workloads, args.probes,
                          master_seed=args.master_seed,
                          consistency=args.consistency,
                          budget=args.budget)
    print(f"conflict-directed hunt: {len(workloads)} workloads x "
          f"{args.probes} probes/arm, consistency={args.consistency}, "
          f"master seed {args.master_seed}")
    print()
    print(describe_comparison(pairs))
    elapsed = sum(d.elapsed + r.elapsed for d, r in pairs)
    directed_hits = sum(d.violations for d, _ in pairs)
    random_hits = sum(r.violations for _, r in pairs)
    print()
    print(f"total: directed {directed_hits}, random {random_hits} "
          f"manifested violations in {elapsed:.1f}s")
    for directed, _rand in pairs:
        for hit in directed.hits[:1]:
            print(f"  replay {directed.workload}: schedule seed "
                  f"{hit.schedule_seed}, model seed {hit.model_seed} "
                  f"-> {hit.detail}")
    if db_info is not None:
        db_info["violations"] = directed_hits + random_hits
        db_info["events"] = sum(d.probes + r.probes for d, r in pairs)
        db_info["payload"] = {
            "arms": [{"workload": arm.workload, "mode": arm.mode,
                      "probes": arm.probes, "violations": arm.violations,
                      "elapsed": arm.elapsed}
                     for pair in pairs for arm in pair],
            "elapsed": elapsed}
    # the hunt *measures* violation yield; finding seeded violations in
    # the buggy transactional workloads is the expected outcome, so the
    # exit code only distinguishes "ran" from "could not run"
    return EXIT_OK


def _cmd_bench(args) -> int:
    """Gate a benchmark artefact against its pinned floors and,
    with ``--gate``, against its recorded trend."""
    import os
    if args.gate and not args.db:
        print("--gate compares against recorded history; pass --db PATH",
              file=sys.stderr)
        return EXIT_USAGE
    basename = os.path.basename(args.check)
    extra = {}
    try:
        for spec in args.floor:
            key, value = bench_gate.parse_floor(spec)
            extra[key] = value
        record = bench_gate.load_artefact(args.check)
        floors = bench_gate.floors_for(basename, extra_floors=extra,
                                       use_builtin=not args.no_builtin)
        checks = bench_gate.check_record(record, floors)
    except bench_gate.FloorSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for check in checks:
        print(f"{args.check}: {check.render()}")
    ok = all(c.ok for c in checks)

    if not args.db:
        return EXIT_OK if ok else EXIT_VIOLATIONS

    from repro import resultsdb
    # the fingerprint groups every recording of the same artefact, so
    # the trend compares like with like across commits
    config = {"artefact": basename}
    with resultsdb.open_db(args.db) as db:
        if args.gate:
            trends = resultsdb.trend_check(
                db, basename, record, sorted(floors),
                fingerprint=resultsdb.config_fingerprint(config),
                window=args.trend_window, tolerance=args.tolerance)
            for trend in trends:
                print(f"{args.check}: {trend.render()}")
            ok = ok and all(t.ok for t in trends)
        if not args.no_record:
            run_id = db.write_run(
                "bench", basename, config,
                status="ok" if ok else "violations",
                payload=record)
            print(f"recorded bench {run_id} in {args.db}",
                  file=sys.stderr)
    return EXIT_OK if ok else EXIT_VIOLATIONS


def _cmd_db(args) -> int:
    """``repro db``: query the persistent results database."""
    import os
    from repro import resultsdb
    cmd = args.db_command
    if cmd == "record":
        try:
            record = bench_gate.load_artefact(args.artefact)
        except bench_gate.FloorSpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        label = args.label or os.path.basename(args.artefact)
        try:
            run_id = resultsdb.write_run(
                args.db, args.kind, label, {"artefact": label},
                payload=record)
        except resultsdb.ResultsDBError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"recorded {args.kind} {run_id} in {args.db}")
        return EXIT_OK
    if cmd == "merge":
        try:
            added = resultsdb.merge_databases(args.sources, args.into)
        except resultsdb.ResultsDBError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"merged {added} new row(s) into {args.into}")
        return EXIT_OK

    if not os.path.exists(args.db):
        print(f"error: no results database at {args.db}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with resultsdb.open_db(args.db) as db:
            if cmd == "list":
                records = db.list_runs(kind=args.kind, label=args.label,
                                       limit=args.limit)
                if not records:
                    print("(no matching runs)")
                    return EXIT_OK
                header = (f"{'id':>4}  {'recorded':<25} {'kind':<9} "
                          f"{'label':<24} {'fingerprint':<16} "
                          f"{'status':<10} {'viol':>5} {'events':>9}")
                print(header)
                print("-" * len(header))
                for rec in records:
                    print(f"{rec.run_id:>4}  {rec.recorded_at:<25} "
                          f"{rec.kind:<9} {rec.label:<24} "
                          f"{rec.fingerprint:<16} {rec.status:<10} "
                          f"{rec.violations:>5} {rec.events:>9}")
                return EXIT_OK
            if cmd == "show":
                rec = (db.get(args.run_id) if args.run_id is not None
                       else db.latest())
                if args.field:
                    doc = getattr(rec, args.field)
                    if doc is None:
                        print(f"error: run {rec.run_id} has no "
                              f"{args.field}", file=sys.stderr)
                        return EXIT_USAGE
                    # byte-identical to the --metrics-out file format
                    sys.stdout.write(
                        json.dumps(doc, sort_keys=True, indent=2) + "\n")
                    return EXIT_OK
                print(json.dumps(rec.to_json(), sort_keys=True, indent=2))
                return EXIT_OK
            if cmd == "trend":
                points = db.trend_values(args.label, args.key,
                                         kind=args.kind,
                                         fingerprint=args.fingerprint,
                                         limit=args.limit)
                if not points:
                    print(f"(no recorded values of {args.key!r} for "
                          f"{args.label!r})")
                    return EXIT_OK
                print(resultsdb.render_trend_table(points, args.key))
                return EXIT_OK
            if cmd == "export":
                count = db.export_jsonl(args.out)
                print(f"exported {count} records to {args.out}")
                return EXIT_OK
    except resultsdb.ResultsDBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled db command {cmd!r}")


_COMMANDS = {
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "replay": _cmd_replay,
    "exec": _cmd_exec,
    "compile": _cmd_compile,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "overhead": _cmd_overhead,
    "campaign": _cmd_campaign,
    "shard": _cmd_shard,
    "serve": _cmd_serve,
    "fuzz": _cmd_fuzz,
    "bench": _cmd_bench,
    "db": _cmd_db,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # output piped into e.g. `head`; exit quietly like other CLIs
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

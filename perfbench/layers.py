"""The traced run: per-layer numbers from timing each layer's public calls.

Nothing inside ``src/`` is instrumented.  Each layer is measured from
here by calling into it directly -- ``make_machine``/``Machine.run``,
``TraceRecorder``, ``Trace.batches``/``save``/``load``,
``DetectorEngine.run_machine``/``run_trace``, ``classify_reports``,
``Supervisor(ServeConfig)``, ``execute_task``, ``CampaignJournal.record``,
``CampaignAggregate.fold``, ``resultsdb.write_run`` and the
``repro campaign`` CLI -- on the same inputs the untraced workloads use.
The sweep covers every layer whatever ``--workload`` names, so each
traced run reports every per-layer metric; ``--workload`` picks the
closure row that becomes ``closure.*``.  Its size is fixed (45 to 50
seconds on a 2-core VM), independent of ``--seconds``.

A closure row sets the sum of a workload's layer times against the
untraced wall of its unit of work; the gap is time no layer accounts
for (dispatch, scheduling, process start-up, I/O waits).
"""

from __future__ import annotations

import json
import os
import pickle
from typing import Dict, List, Tuple

from repro.engine import DetectorEngine
from repro.harness.campaign import (CampaignAggregate, CampaignReport,
                                    execute_task)
from repro.harness.journal import CampaignJournal, spec_fingerprint
from repro.lang import compile_source
from repro.machine.memmodel import resolve_model
from repro.machine.scheduler import RandomScheduler
from repro.metrics.classify import classify_reports
from repro.resultsdb import write_run
from repro.trace.trace import Trace, TraceRecorder
from repro.workloads import WORKLOADS, apache_log

import checks
import workloads as wl
from common import (CONCURRENCY, Tally, log, median, percentile, sub_seed,
                    timed)

#: ROADMAP baseline for apache_log(6, 200): live-run seconds per config
ROADMAP_BASELINE = (("bare", 0.19), ("+TraceRecorder", 0.81),
                    ("svd", 1.02), ("frd", 0.39), ("lockset", 0.34),
                    ("atomizer", 1.19), ("all four", 2.05))
#: repetitions of the cheap (sub-second) measurements
REPS = 5

Closures = Dict[str, Tuple[float, float]]


def _machine(workload, seed: int, consistency=None):
    return workload.make_machine(
        RandomScheduler(seed=seed, switch_prob=wl.SWITCH_PROB),
        memmodel=resolve_model(consistency, seed))


def _bare_run(workload, seed: int, consistency=None) -> Tuple[float, int]:
    machine = _machine(workload, seed, consistency)
    wall, _ = timed(machine.run, max_steps=wl.APACHE_MAX_STEPS)
    return wall, machine.steps


def _recorder_run(workload, seed: int) -> Tuple[float, Trace]:
    machine = _machine(workload, seed)
    recorder = TraceRecorder(workload.program, len(machine.threads))
    machine.add_observer(recorder)
    wall, _ = timed(machine.run, max_steps=wl.APACHE_MAX_STEPS)
    return wall, recorder.trace()


def _cold_batches_s(trace: Trace) -> float:
    """Walk ``Trace.batches()`` of a fresh trace (no cached columns)."""
    fresh = Trace(trace.program, trace.events, trace.n_threads)
    return timed(fresh.batches)[0]


def _live_s(workload, seed: int, detectors) -> float:
    engine = DetectorEngine(workload.program, list(detectors))
    return timed(engine.run_machine, _machine(workload, seed),
                 max_steps=wl.APACHE_MAX_STEPS)[0]


def layers_4det(seed: int, m: Dict[str, float], closures: Closures,
                tally: Tally, notes: List[str]) -> checks.Run4Det:
    """lang, machine, trace (record/batches), engine, core (svd),
    detectors and metrics, on the run-4det execution."""
    schedule = sub_seed(seed, "run-4det", 0)
    workload = apache_log(**wl.APACHE_SIZE)
    m["lang.compile_s"] = median([timed(compile_source, workload.source)[0]
                                  for _ in range(REPS)])
    program = workload.program
    m["machine.construct_ms"] = 1000 * median(
        [timed(_machine, workload, schedule)[0] for _ in range(REPS)])

    bare, tso = [], []
    for _ in range(REPS):
        wall, steps = _bare_run(workload, schedule)
        bare.append(wall)
        tso.append(_bare_run(workload, schedule, "tso")[0])
    bare_s = median(bare)
    m["machine.bare_steps_per_s"] = steps / bare_s
    m["machine.tso_slowdown"] = median(tso) / bare_s

    recorded = [_recorder_run(workload, schedule) for _ in range(2)]
    m["trace.record_s"] = median([wall for wall, _ in recorded]) - bare_s
    trace = recorded[0][1]
    m["trace.batches_s"] = median([_cold_batches_s(trace)
                                   for _ in range(REPS)])
    del recorded, trace

    live = {name: _live_s(workload, schedule, [name])
            for name in checks.DETECTORS_4}
    runs = []
    for _ in range(2):
        _, machine, engine = wl.build_4det(schedule)
        wall, result = timed(engine.run_machine, machine,
                             max_steps=wl.APACHE_MAX_STEPS)
        runs.append(wall)
    all_four = median(runs)
    stats = result.stats
    m["engine.stream_passes"] = stats.stream_passes
    m["engine.events_read"] = stats.total_events_read
    m["engine.events_dispatched"] = stats.total_events_dispatched

    # the recording's columns are warm (phase 1 walked them), so these
    # replays time the detectors, not the column build
    record, replay = wl.capture_4det(program, result)
    tally.account(1, 0, checks.check(record))
    lockset_s = replay["lockset"]
    m["core.svd_replay_s"] = replay["svd"]
    m["detectors.frd_replay_s"] = replay["frd"]
    m["detectors.lockset_replay_s"] = lockset_s
    # atomizer's engine also runs its lockset prerequisite
    m["detectors.atomizer_replay_s"] = replay["atomizer"] - lockset_s
    reports = {name: result.report(name) for name in checks.DETECTORS_4}
    bug_locs = workload.bug_locs()
    m["metrics.classify_s"] = median(
        [timed(classify_reports, reports, bug_locs, machine.steps)[0]
         for _ in range(REPS)])

    layer_sum = (bare_s + m["trace.record_s"] + m["trace.batches_s"]
                 + replay["svd"] + replay["frd"] + lockset_s
                 + m["detectors.atomizer_replay_s"])
    closures["run-4det"] = (layer_sum, all_four)
    measured = [bare_s, bare_s + m["trace.record_s"]] + [
        live[name] for name in checks.DETECTORS_4] + [all_four]
    notes.append(f"apache_log(6, 200), {machine.steps} steps: live-run "
                 f"seconds here vs the ROADMAP baseline")
    for (label, baseline), seconds in zip(ROADMAP_BASELINE, measured):
        notes.append(f"  {label:<15} {seconds:7.3f} s   "
                     f"(ROADMAP {baseline:.2f} s)")
    return record


def layers_offline(seed: int, workdir: str, m: Dict[str, float],
                   closures: Closures, tally: Tally) -> checks.Offline:
    """trace (save/load/size) and core (offline SVD), on the
    analyze-offline input."""
    path = os.path.join(workdir, "offline.trace")
    program, trace, live_svd = wl.record_offline_input(seed)
    m["trace.save_s"] = median([timed(trace.save, path)[0]
                                for _ in range(2)])
    recorded = len(trace)
    m["trace.file_bytes_per_event"] = os.path.getsize(path) / recorded
    del trace

    units = []
    for _ in range(2):
        wall, (loaded, result) = timed(wl.analyze_offline, program, path)
        units.append(wall)
    record = wl.offline_record(recorded, live_svd, loaded, result)
    tally.account(1, 0, checks.check(record))
    m["trace.load_s"] = median([timed(Trace.load, path, program)[0]
                                for _ in range(2)])

    batches_s = _cold_batches_s(loaded)
    loaded.batches()  # warm, as for the run-4det replays
    replay = {name: timed(DetectorEngine(program, [name]).run_trace,
                          loaded)[0]
              for name in wl.OFFLINE_DETECTORS}
    m["core.offline_replay_s"] = replay["offline"]
    closures["analyze-offline"] = (
        m["trace.load_s"] + batches_s + sum(replay.values()), median(units))
    return record


def layers_serve(seed: int, m: Dict[str, float], closures: Closures,
                 tally: Tally) -> checks.Fleet:
    """serve: the fleet against the same executions run standalone."""
    compiled = {}
    compile_s = 0.0
    for name in wl.SERVE_WORKLOADS:
        workload = WORKLOADS[name]()
        compile_s += timed(lambda: workload.program)[0]
        compiled[name] = workload

    wall, supervisor, record = wl.run_fleet(sub_seed(seed, "serve-fleet", 0))
    construct_s = run_s = 0.0
    events = 0
    for info in sorted(supervisor.execs.values(), key=lambda i: i.index):
        workload = compiled[info.workload]
        built, machine = timed(_machine, workload, info.seed)
        construct_s += built
        built, engine = timed(DetectorEngine, workload.program, ["svd"])
        construct_s += built
        run_s += timed(engine.run_machine, machine,
                       max_steps=wl.SERVE_MAX_STEPS)[0]
        events += machine.seq
    problems = checks.check(record)
    if events != supervisor.totals.events:
        problems.append(f"standalone executions retired {events} events, "
                        f"the fleet {supervisor.totals.events}")
    tally.account(wl.SERVE_EXECUTIONS,
                  wl.SERVE_EXECUTIONS - record.completed, problems)

    totals = supervisor.totals
    m["serve.overhead_ratio"] = wall / run_s
    m["serve.exec_latency_p95_ms"] = 1000 * percentile(
        wl.exec_latencies(supervisor), 95)
    m["serve.restarts"] = totals.restarts
    m["serve.watchdog_kills"] = totals.watchdog_kills
    m["serve.ladder_transitions"] = len(supervisor.ladder.transitions)
    closures["serve-fleet"] = (compile_s + construct_s + run_s, wall)
    return record


def layers_harness(seed: int, workdir: str, m: Dict[str, float],
                   closures: Closures, tally: Tally) -> checks.Campaign:
    """harness and resultsdb: the CLI campaign against its tasks run
    serially in-process, journalled, folded and recorded from here."""
    master_seed = sub_seed(seed, "campaign-tso")
    setup = wl.CampaignSetup(master_seed, workdir, tally)
    for _ in range(3):
        setup.sample()
    setup_s = setup.setup_s()
    argv = wl.campaign_argv(wl.CAMPAIGN_WORKLOADS, wl.CAMPAIGN_SEEDS,
                            master_seed, workdir, "traced")
    inv = wl.invoke_campaign(argv)

    spec = wl.campaign_spec(wl.CAMPAIGN_WORKLOADS, wl.CAMPAIGN_SEEDS,
                            master_seed)
    tasks = spec.tasks()
    timed_results = [timed(execute_task, task) for task in tasks]
    results = [result for _, result in timed_results]
    task_s = sum(wall for wall, _ in timed_results)

    pickled = [timed(pickle.dumps, result) for result in results]
    pickle_s = sum(wall for wall, _ in pickled) + sum(
        timed(pickle.loads, blob)[0] for _, blob in pickled)

    journal_dir = os.path.join(workdir, "journal-replayed")
    os.makedirs(journal_dir)
    journal = CampaignJournal.open(journal_dir, spec)
    journal_s = sum(timed(journal.record, result)[0] for result in results)
    journal.close()

    aggregate = CampaignAggregate(spec)
    fold_s = sum(timed(aggregate.fold, result)[0] for result in results)

    # the serial in-process campaign must render exactly what the
    # two-worker CLI printed
    serial_stdout = (CampaignReport(spec=spec, aggregate=aggregate)
                     .render_metrics() + "\n").encode()
    record = wl.campaign_record(inv, len(tasks), serial_stdout)
    problems = checks.check(record)
    journal_path = argv[argv.index("--journal") + 1]
    with open(os.path.join(journal_path, "journal.jsonl")) as fh:
        header = json.loads(fh.readline())
    if header.get("fingerprint") != spec_fingerprint(spec):
        problems.append("the CLI ran a different campaign spec than the "
                        "one timed in-process")
    tally.account(len(tasks), 0, problems)

    row = inv.row
    write_s = [0.0] if row is None else [
        timed(write_run, os.path.join(workdir, f"rewrite-{rep}.db"),
              row.kind, row.label, row.config, status=row.status,
              violations=row.violations, events=row.events,
              elapsed=row.elapsed, master_seed=row.master_seed,
              detectors=row.detectors, consistency=row.consistency,
              payload=row.payload, obs=row.obs,
              violation_fingerprints=row.violation_fingerprints,
              heartbeat=row.heartbeat, git_commit=row.git_commit)[0]
        for rep in range(REPS)]
    write_run_s = median(write_s)

    count = len(results)
    m["harness.task_s"] = task_s
    m["harness.pool_overhead_ratio"] = inv.wall * CONCURRENCY / task_s
    m["harness.result_pickle_bytes"] = sum(
        len(blob) for _, blob in pickled) / count
    m["harness.journal_record_ms"] = 1000 * journal_s / count
    m["harness.fold_us"] = 1e6 * fold_s / count
    m["resultsdb.write_run_ms"] = 1000 * write_run_s
    closures["campaign-tso"] = (
        setup_s + task_s / CONCURRENCY + pickle_s + journal_s + fold_s
        + write_run_s, inv.wall)
    return record


def run(workload: str, seed: int, seconds: float, workdir: str) -> wl.Outcome:
    del seconds  # the sweep has a fixed size
    m: Dict[str, float] = {}
    closures: Closures = {}
    tally = Tally()
    notes: List[str] = []
    log("traced: run-4det layers")
    samples = {"run-4det": layers_4det(seed, m, closures, tally, notes)}
    log("traced: analyze-offline layers")
    samples["analyze-offline"] = layers_offline(seed, workdir, m, closures,
                                                tally)
    log("traced: serve-fleet layers")
    samples["serve-fleet"] = layers_serve(seed, m, closures, tally)
    log("traced: campaign-tso layers")
    samples["campaign-tso"] = layers_harness(seed, workdir, m, closures,
                                             tally)
    notes.append("closure: workload, layer sum, untraced wall, "
                 "unattributed, layer sum / wall")
    for name, (layer_sum, wall) in closures.items():
        notes.append(f"  {name:<16} {layer_sum:8.3f} s {wall:8.3f} s "
                     f"{wall - layer_sum:8.3f} s {layer_sum / wall:6.3f}")
    layer_sum, wall = closures[workload]
    m["closure.layer_sum_ratio"] = layer_sum / wall
    m["closure.unattributed_s"] = wall - layer_sum
    return wl.Outcome(m, tally, list(samples.values()), notes)

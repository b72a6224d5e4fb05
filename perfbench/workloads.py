"""The two workloads, each run untraced for a fixed measuring time.

A run repeats the same units of work (five run-4det executions, or one
campaign command, all fixed by ``--seed``) until the measured time
reaches ``seconds``, checking every repetition's outputs outside the
timed region, and sets up a few times before each repetition
(``setup_s`` is the median of all set-ups).  All load comes from this
one process with at most :data:`~common.CONCURRENCY` executions or
workers in flight.

Timings are *best of the repetitions*, at a nominal host speed.  A
unit is cut into pieces (the 3000-step chunks of a chunk-driven
execution and its finish, or a whole command) and each piece keeps the
fastest time any repetition gave it; the unit's time is the sum
(:class:`Best`).  The repetitions are identical work, so what differs
between them is the host: on the shared 2-core VM this was tuned on, a
fixed 25 ms spin loop ran anywhere from 21 to 37 ms within seconds,
and the median of its samples over 10-second windows spread about 20%
(interquartile range over median) while the fastest sample of each
window spread 3%.  Slow phases lasting minutes remain, so every time
is then scaled by :class:`~common.HostSpeed`, the same best-of
estimate taken on a fixed reference workload between the units, on
the CPU the workload is pinned to (every CPU for the two-worker
campaign).  run-4det runs five distinct 30k-step executions rather
than one long one, so no one schedule's cost per event sets the run's
figure.

``events_per_s`` and ``exec_per_s`` are the unit's events or
executions (campaign tasks) over its best time.  ``exec_latency_p50_ms``
is the best time per execution for run-4det, whose executions run one
at a time (a median over five differently scheduled executions would
jump from schedule to schedule), and the command's best time for
campaign-tso.

analyze-offline and serve-fleet are not workloads: their units are
single calls of 0.2 to 2 s (``run_trace``, ``Supervisor.run``) that
cannot be cut into short pieces from outside ``src/``, and with the
estimator above their figures spread 0.16 (analyze-offline) and 0.21
(serve-fleet) of the median between ten seeded runs, against 0.055 for
run-4det, whose pieces are about as short as the reference's 20 ms
samples.  The traced run (``layers.py``) still measures their layers.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import DetectorEngine
from repro.harness.campaign import (CampaignSpec, ConfigSpec, WorkloadSpec,
                                    execute_task)
from repro.machine.scheduler import RandomScheduler
from repro.resultsdb import ResultsDB
from repro.serve.supervisor import ServeConfig, Supervisor
from repro.trace.trace import Trace
from repro.workloads import apache_log, pgsql_oltp

import checks
from common import (CONCURRENCY, ROOT, HostSpeed, Tally, median, peak_rss_mb,
                    subprocess_env, sub_seed, timed)

#: scheduler context-switch probability of every in-process execution
SWITCH_PROB = 0.3
#: setups timed before each unit of work; ``setup_s`` is the median of
#: all of them, spread across the run so one slow moment cannot set it
SETUPS_PER_UNIT = 3
#: reference samples (about 20 ms each) around every unit, and before
#: every execution within one
HOST_SAMPLES_PER_UNIT = 4
HOST_SAMPLES_PER_PIECE = 3

APACHE_SIZE = {"writers": 6, "requests": 200}
#: traced apache_log executions stop here: uncapped, their length
#: follows the schedule seed (140k to 461k events over ten seeds), so
#: latency and RSS would track the seed rather than the code
APACHE_MAX_STEPS = 150_000
#: the untraced run-4det unit: this many distinct executions (schedule
#: seeds), each stopped at RUN_4DET_STEPS, so no one schedule's cost per
#: event sets the run's figure and each is repeated often enough for
#: its best time to settle
APACHE_EXECUTIONS = 5
RUN_4DET_STEPS = 30_000
#: machine steps per timed piece of a run-4det execution (about 50 ms)
CHUNK_STEPS = 3_000
PGSQL_SIZE = {"terminals": 4, "txns": 200}
OFFLINE_DETECTORS = ("svd", "offline", "frd")

SERVE_WORKLOADS = ("apache", "pgsql", "mysql-prepared", "stringbuffer")
SERVE_EXECUTIONS = 300
SERVE_MAX_STEPS = 5_000

CAMPAIGN_WORKLOADS = ("txn-bank", "txn-cart", "txn-session", "stringbuffer",
                      "queue-region", "mysql-tablelock")
CAMPAIGN_SEEDS = 40
CAMPAIGN_MAX_STEPS = 20_000
#: a hung campaign is killed (and counted failed) after this long
CAMPAIGN_TIMEOUT_S = 60


@dataclass
class Outcome:
    """What one run measured."""

    metrics: Dict[str, float]
    tally: Tally
    #: captured outputs fed altered through the checks (see checks.py)
    samples: List[object] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


class Best:
    """Fastest time seen for each piece of a repeated, identical unit."""

    def __init__(self) -> None:
        self.seconds: Dict[object, float] = {}

    def add(self, piece: object, seconds: float) -> float:
        known = self.seconds.get(piece)
        if known is None or seconds < known:
            self.seconds[piece] = seconds
        return seconds

    def timed(self, piece: object, fn, *args, **kwargs):
        seconds, out = timed(fn, *args, **kwargs)
        self.add(piece, seconds)
        return seconds, out

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def _rates(best: Best, events: int, execs: int,
           host: HostSpeed) -> Dict[str, float]:
    """Rates of one unit at its best time, and that time, all at the
    nominal host speed."""
    seconds = host.scale(best.total)
    return {
        "events_per_s": events / seconds,
        "exec_per_s": execs / seconds,
        "exec_latency_p50_ms": 1000 * seconds,
    }


def _measure(seconds: float, setup, unit, host: HostSpeed,
             minimum: int = 3,
             setups_per_unit: int = SETUPS_PER_UNIT) -> List[float]:
    """Alternate ``setup()`` samples, host-speed samples and
    ``unit(index)`` calls (each returns the seconds it timed) until the
    units' timed total reaches ``seconds``; returns the setup samples.
    Garbage from the previous call is collected first, so no call pays
    for another's."""
    setups: List[float] = []
    spent, index = 0.0, 0
    while spent < seconds or index < minimum:
        for _ in range(setups_per_unit):
            gc.collect()
            setups.append(setup())
        gc.collect()
        host.sample(HOST_SAMPLES_PER_UNIT)
        spent += unit(index)
        index += 1
    host.sample(HOST_SAMPLES_PER_UNIT)
    return setups


def _notes(what: str, best: Best, host: HostSpeed) -> List[str]:
    cpus = ", ".join(f"{seconds * 1000:.3f} ms on CPU {cpu}"
                     for cpu, seconds in sorted(host.best.items()))
    return [what, f"best unit {best.total:.4f} s as measured, reference "
                  f"sample best {cpus} (nominal "
                  f"{HostSpeed.REFERENCE_S * 1000:.3f} ms)"]


# -- run-4det -----------------------------------------------------------------

def build_4det(schedule_seed: int):
    """Compile the workload, build the machine and the engine."""
    workload = apache_log(**APACHE_SIZE)
    program = workload.program
    machine = workload.make_machine(
        RandomScheduler(seed=schedule_seed, switch_prob=SWITCH_PROB))
    return program, machine, DetectorEngine(program, list(checks.DETECTORS_4))


def capture_4det(program, result) -> Tuple[checks.Run4Det, Dict[str, float]]:
    """Replay the recording once per detector for the output check;
    also returns each replay's seconds."""
    replay, seconds = {}, {}
    for name in checks.DETECTORS_4:
        engine = DetectorEngine(program, [name])
        seconds[name], replayed = timed(engine.run_trace, result.trace)
        replay[name] = list(replayed.report(name).violations)
    return checks.Run4Det(
        stream_passes=result.stats.stream_passes,
        failures=sorted(result.failures),
        live={name: list(result.report(name).violations)
              for name in checks.DETECTORS_4},
        replay=replay), seconds


def drive_4det(engine, machine, best: Best):
    """The timed unit: the execution, advanced in :data:`CHUNK_STEPS`
    chunks, each chunk and the finish timed as one piece.  Returns the
    seconds it timed and the engine result."""
    drive = engine.drive_machine(machine, max_steps=RUN_4DET_STEPS)
    spent, piece, more = 0.0, 0, True
    while more:
        seconds, more = best.timed(piece, drive.advance, CHUNK_STEPS)
        spent += seconds
        piece += 1
    seconds, result = best.timed("finish", drive.finish)
    return spent + seconds, result


def run_4det(seed: int, seconds: float, host: HostSpeed) -> Outcome:
    schedules = [sub_seed(seed, "run-4det", k)
                 for k in range(APACHE_EXECUTIONS)]
    bests = [Best() for _ in schedules]
    tally = Tally()
    #: per execution: the first repetition's checked record and events
    first: List[Tuple[checks.Run4Det, int]] = []

    def setup() -> float:
        return timed(build_4det, sub_seed(seed, "run-4det-setup"))[0]

    def unit(index: int) -> float:
        spent = 0.0
        for k, schedule in enumerate(schedules):
            host.sample(HOST_SAMPLES_PER_PIECE)
            gc.collect()
            program, machine, engine = build_4det(schedule)
            wall, result = drive_4det(engine, machine, bests[k])
            spent += wall
            if len(first) == k:
                record, _ = capture_4det(program, result)
                first.append((record, machine.seq))
            else:
                # the same execution again: its live reports must match
                # the single-detector replays of its first recording
                record = checks.Run4Det(
                    stream_passes=result.stats.stream_passes,
                    failures=sorted(result.failures),
                    live={name: list(result.report(name).violations)
                          for name in checks.DETECTORS_4},
                    replay=first[k][0].replay)
            problems = checks.check(record)
            if machine.seq != first[k][1]:
                problems.append(f"repetition retired {machine.seq} "
                                f"events, the first {first[k][1]}")
            tally.account(1, 0, problems)
            # nothing of this execution may live on into the next
            del program, machine, engine, result, record
        return spent

    setups = _measure(seconds, setup, unit, host)
    best = Best()
    for k, each in enumerate(bests):
        best.add(k, each.total)
    metrics = _rates(best, sum(events for _, events in first),
                     len(schedules), host)
    metrics["exec_latency_p50_ms"] = 1000 * host.scale(
        best.total) / len(schedules)
    metrics["setup_s"] = host.scale(median(setups))
    metrics["peak_rss_mb"] = peak_rss_mb()
    return Outcome(metrics, tally, [record for record, _ in first], _notes(
        f"{tally.attempted // len(schedules)} repetitions of "
        f"{len(schedules)} executions of "
        f"{'/'.join(str(events) for _, events in first)} events, "
        f"{sum(len(each.seconds) for each in bests)} pieces", best, host))


# -- traced-only inputs -------------------------------------------------------
#
# analyze-offline and serve-fleet are measured by the traced run only
# (layers.py); see the module docstring for why they are not workloads.

def record_offline_input(seed: int):
    """Record the analyze-offline input: returns the program, the trace
    and the live svd reports."""
    workload = pgsql_oltp(**PGSQL_SIZE)
    program = workload.program
    machine = workload.make_machine(RandomScheduler(
        seed=sub_seed(seed, "analyze-offline"), switch_prob=SWITCH_PROB))
    result = DetectorEngine(program, ["svd"]).run_machine(
        machine, keep_trace=True)
    return program, result.trace, list(result.report("svd").violations)


def analyze_offline(program, path: str):
    """Load the file and replay it through the a-posteriori detector
    set."""
    trace = Trace.load(path, program)
    return trace, DetectorEngine(program, list(OFFLINE_DETECTORS)
                                 ).run_trace(trace)


def offline_record(recorded: int, live_svd, trace,
                   result) -> checks.Offline:
    return checks.Offline(
        events_recorded=recorded, events_loaded=len(trace),
        failures=sorted(result.failures), live_svd=live_svd,
        replay_svd=list(result.report("svd").violations))


def run_fleet(master_seed: int) -> Tuple[float, Supervisor, checks.Fleet]:
    supervisor = Supervisor(ServeConfig(
        workloads=SERVE_WORKLOADS, executions=SERVE_EXECUTIONS,
        concurrency=CONCURRENCY, max_steps=SERVE_MAX_STEPS,
        detectors=("svd",), switch_prob=SWITCH_PROB,
        master_seed=master_seed))
    wall, outcome = timed(supervisor.run)
    totals = supervisor.totals
    return wall, supervisor, checks.Fleet(
        executions=SERVE_EXECUTIONS, completed=totals.completed,
        failed=totals.failed, outcome=outcome, modes=dict(totals.by_mode))


def exec_latencies(supervisor: Supervisor) -> List[float]:
    """Seconds from launch to completion of every execution."""
    return [info.last_progress - info.started_at
            for info in supervisor.execs.values()]


# -- campaign-tso -------------------------------------------------------------

def campaign_argv(workloads: Sequence[str], seeds: int, master_seed: int,
                  workdir: str, tag: str) -> List[str]:
    return [sys.executable, "-m", "repro", "campaign",
            "--workloads", ",".join(workloads), "--seeds", str(seeds),
            "--max-steps", str(CAMPAIGN_MAX_STEPS), "-j", str(CONCURRENCY),
            "--consistency", "tso",
            "--journal", os.path.join(workdir, f"journal-{tag}"),
            "--db", os.path.join(workdir, f"results-{tag}.db"),
            "--quiet", "--master-seed", str(master_seed)]


def campaign_spec(workloads: Sequence[str], seeds: int,
                  master_seed: int) -> CampaignSpec:
    """The spec ``campaign_argv`` makes the CLI build (``--db`` turns on
    per-task metrics, hence ``obs=True``)."""
    return CampaignSpec(
        workloads=[WorkloadSpec(name=name) for name in workloads],
        configs=[ConfigSpec(max_steps=CAMPAIGN_MAX_STEPS,
                            consistency="tso")],
        seeds=seeds, master_seed=master_seed, obs=True)


@dataclass
class Invocation:
    wall: float
    returncode: int
    stdout: bytes
    #: the results-DB row (None when the command wrote none)
    row: Optional[object]


def invoke_campaign(argv: List[str]) -> Invocation:
    """Run one campaign command to completion; a command that outlives
    :data:`CAMPAIGN_TIMEOUT_S` is killed with its whole process group."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=subprocess_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CAMPAIGN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
    wall = time.perf_counter() - started
    db_path = argv[argv.index("--db") + 1]
    row = None
    if os.path.exists(db_path):
        with ResultsDB(db_path) as db:
            if db.count():
                row = db.latest("campaign")
    return Invocation(wall, proc.returncode, stdout, row)


def campaign_record(inv: Invocation, tasks: int,
                    reference: bytes) -> checks.Campaign:
    payload = (inv.row.payload or {}) if inv.row is not None else {}
    return checks.Campaign(
        returncode=inv.returncode, tasks=tasks,
        row_runs=payload.get("runs", 0), row_failed=payload.get("failed", 0),
        stdout=inv.stdout, reference_stdout=reference)


class CampaignSetup:
    """Samples the campaign's set-up: the wall of the same command on a
    one-task matrix, minus that task's in-process ``execute_task`` time
    (what is left is process start, import and pool spawn)."""

    def __init__(self, master_seed: int, workdir: str, tally: Tally) -> None:
        self.master_seed = master_seed
        self.workdir = workdir
        self.tally = tally
        self.walls: List[float] = []
        self.reference: Optional[bytes] = None

    def sample(self) -> float:
        inv = invoke_campaign(campaign_argv(
            CAMPAIGN_WORKLOADS[:1], 1, self.master_seed, self.workdir,
            f"setup{len(self.walls)}"))
        if self.reference is None:
            self.reference = inv.stdout
        self.walls.append(inv.wall)
        self.tally.account(1, 0, checks.check(
            campaign_record(inv, 1, self.reference)))
        return inv.wall

    def setup_s(self) -> float:
        task = campaign_spec(CAMPAIGN_WORKLOADS[:1], 1,
                             self.master_seed).tasks()[0]
        execute_task(task)  # warm, as the pool worker is by then
        task_s = [timed(execute_task, task)[0] for _ in range(5)]
        return median(self.walls) - median(task_s)


def run_campaign(seed: int, seconds: float, workdir: str,
                 host: HostSpeed) -> Outcome:
    master_seed = sub_seed(seed, "campaign-tso")
    tally = Tally()
    setup = CampaignSetup(master_seed, workdir, tally)
    tasks = len(CAMPAIGN_WORKLOADS) * CAMPAIGN_SEEDS
    best = Best()
    events: List[int] = []
    samples: List[checks.Campaign] = []

    def unit(index: int) -> float:
        inv = invoke_campaign(campaign_argv(
            CAMPAIGN_WORKLOADS, CAMPAIGN_SEEDS, master_seed, workdir,
            f"unit{index}"))
        best.add("campaign", inv.wall)
        reference = samples[0].stdout if samples else inv.stdout
        record = campaign_record(inv, tasks, reference)
        events.append(inv.row.events if inv.row is not None else 0)
        tally.account(tasks, 0, checks.check(record))
        if not samples:
            samples.append(record)
        return inv.wall

    # three invocations at least: stdout must be byte-identical across them
    _measure(seconds, setup.sample, unit, host, setups_per_unit=2)
    metrics = _rates(best, events[0], tasks, host)
    metrics["setup_s"] = host.scale(setup.setup_s())
    metrics["peak_rss_mb"] = peak_rss_mb(children=True)
    return Outcome(metrics, tally, samples, _notes(
        f"{len(events)} invocations of {tasks} tasks", best, host))


def run(workload: str, seed: int, seconds: float, workdir: str) -> Outcome:
    with HostSpeed() as host:
        if workload == "run-4det":
            host.pin()  # single-threaded: one CPU, sampled alone
            return run_4det(seed, seconds, host)
        return run_campaign(seed, seconds, workdir, host)

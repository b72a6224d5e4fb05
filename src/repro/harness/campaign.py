"""Parallel schedule-exploration campaigns over the workload matrix.

A campaign expands a spec -- workloads x detector configs x seed count
-- into a deterministic task list, fans the tasks across a
:mod:`repro.harness.pool` worker pool (each run is CPU-bound pure
Python, so processes sidestep the GIL), streams slim results back as
they complete, and aggregates them with the same machinery that renders
the paper's Table 2.

Determinism contract: every task's schedule seed is *derived* (SHA-256)
from the campaign master seed and the task's coordinates, never from
worker identity, shard assignment, or arrival order.  Aggregation is a
*streaming fold* over commutative accumulators (integer sums, set
unions, max gauges -- see :class:`CampaignAggregate`), so a campaign
produces byte-identical aggregated metrics for any worker count, any
shard count (``repro shard``, :mod:`repro.harness.shard`), and any
completion order; serial unsharded (``workers=1``) is the reference
every other execution shape must reproduce.

Memory contract: with ``keep_results=False`` the parent retains O(1)
state per completed task (a fixed set of accumulators plus a seen-index
bitmap), which is what lets one coordinator aggregate million-execution
campaigns.  The default ``keep_results=True`` additionally retains the
full result list for the small-campaign paths that want it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Sequence, Set, Tuple)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.heartbeat import CampaignHeartbeat

import repro.obs as obs
from repro.core.online import SvdConfig
from repro.harness.pool import Outcome, parallel_map
from repro.harness.runner import run_workload
from repro.harness.table2 import Table2Row, render_table2
from repro.harness.render import render_table
from repro.metrics.classify import DetectorMetrics


@dataclass
class ConfigSpec:
    """One detector configuration axis of the campaign matrix."""

    name: str = "default"
    #: keyword overrides applied to :class:`SvdConfig`
    svd: Dict[str, Any] = field(default_factory=dict)
    switch_prob: float = 0.3
    max_steps: Optional[int] = 400_000
    run_frd: bool = True
    #: extra registry detector names run alongside SVD(+FRD); resolved
    #: through :mod:`repro.engine.registry` like everywhere else
    detectors: Tuple[str, ...] = ()
    #: memory model the live machines execute under ("strict"/"tso")
    consistency: str = "strict"
    #: TSO store-buffer seed; None derives it from each task's schedule
    #: seed, so one number still reproduces any cell exactly
    model_seed: Optional[int] = None

    def svd_config(self) -> SvdConfig:
        return SvdConfig(**self.svd)

    def detector_names(self) -> List[str]:
        """The full engine detector list this config runs."""
        from repro.harness.runner import detector_names
        return detector_names(self.run_frd, self.detectors)


#: named detector-config ablations selectable from the CLI
NAMED_CONFIGS: Dict[str, Callable[[], ConfigSpec]] = {
    "default": lambda: ConfigSpec(),
    "block4": lambda: ConfigSpec(name="block4",
                                 svd={"block_size": 4}),
    "all-blocks": lambda: ConfigSpec(name="all-blocks",
                                     svd={"check_all_blocks": True}),
    "no-addr-deps": lambda: ConfigSpec(name="no-addr-deps",
                                       svd={"use_address_deps": False}),
    "no-ctrl-deps": lambda: ConfigSpec(name="no-ctrl-deps",
                                       svd={"use_control_deps": False}),
    "cut-at-wait": lambda: ConfigSpec(name="cut-at-wait",
                                      svd={"cut_at_wait": True}),
}


@dataclass
class WorkloadSpec:
    """A workload axis entry: a registry name, or any importable factory
    given as ``"package.module:callable"`` (what lets tests inject
    failing workloads and keeps tasks picklable under spawn)."""

    name: str
    factory: Optional[str] = None
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def build(self):
        if self.factory is not None:
            module_name, _sep, attr = self.factory.partition(":")
            fn: Any = importlib.import_module(module_name)
            for part in attr.split("."):
                fn = getattr(fn, part)
        else:
            from repro.workloads import WORKLOADS
            fn = WORKLOADS[self.name]
        return fn(**self.kwargs)


@dataclass
class CampaignSpec:
    """The full campaign matrix plus execution policy."""

    workloads: List[WorkloadSpec]
    configs: List[ConfigSpec] = field(default_factory=lambda: [ConfigSpec()])
    seeds: int = 8
    master_seed: int = 0
    #: per-task wall-clock limit (parallel mode only)
    task_timeout: Optional[float] = None
    #: collect a :mod:`repro.obs` metrics snapshot per task; snapshots
    #: ride the result channel and merge deterministically
    obs: bool = False
    #: re-run a task whose attempt ends in error/timeout up to this many
    #: extra times (see :func:`repro.harness.pool.parallel_map`)
    task_retries: int = 0
    #: deterministic backoff factor between attempts, in seconds
    retry_backoff: float = 0.0

    def tasks(self) -> List["CampaignTask"]:
        """The deterministic task expansion of the matrix."""
        out: List[CampaignTask] = []
        for workload in self.workloads:
            for config in self.configs:
                for seed_index in range(self.seeds):
                    out.append(CampaignTask(
                        index=len(out),
                        workload=workload,
                        config=config,
                        seed_index=seed_index,
                        seed=derive_seed(self.master_seed, workload.name,
                                         config.name, seed_index),
                        obs=self.obs))
        return out


def derive_seed(master_seed: int, workload: str, config: str,
                seed_index: int) -> int:
    """Deterministic per-task schedule seed.

    Hash-derived so (a) the same campaign spec always explores the same
    schedules regardless of worker count or completion order, and (b)
    distinct matrix cells do not accidentally share schedule prefixes
    the way ``master_seed + index`` schemes do.
    """
    key = f"{master_seed}:{workload}:{config}:{seed_index}".encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFF


@dataclass
class CampaignTask:
    index: int
    workload: WorkloadSpec
    config: ConfigSpec
    seed_index: int
    seed: int
    #: record this task's run under a fresh metrics registry
    obs: bool = False


@dataclass
class CampaignResult:
    """Slim, picklable per-run record.

    Exposes exactly the attributes :meth:`repro.harness.table2.Table2Row.add`
    reads from a full ``RunResult``, so campaign results flow unchanged
    into the Table 2 aggregation; the heavyweight reports, traces and
    logs never cross the process boundary.
    """

    index: int
    workload: str
    config: str
    seed_index: int
    seed: int
    status: str
    instructions: int
    manifested: bool
    svd: DetectorMetrics
    frd: Optional[DetectorMetrics]
    posteriori_found_bug: bool
    posteriori_static_entries: int
    cus_created: int
    apparent_false_negative: bool
    error: str = ""
    #: classified metrics of any extra detectors the config requested
    #: (slim and picklable, like ``svd``/``frd``)
    extra_metrics: Dict[str, DetectorMetrics] = field(default_factory=dict)
    #: this task's :mod:`repro.obs` registry snapshot (plain JSON-safe
    #: dict, so it crosses the process boundary like everything else)
    obs: Optional[Dict[str, Any]] = None
    #: sorted static-level violation fingerprints of this run (see
    #: :func:`repro.resultsdb.violation_report_fingerprints`); the
    #: campaign-wide union is a set, so it merges commutatively
    violation_fingerprints: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status not in ("error", "timeout", "skipped")

    def to_json(self) -> Dict[str, Any]:
        """JSON-safe form; round-trips exactly through
        :meth:`from_json` (what the resume journal persists -- exact
        round-tripping is what keeps resumed aggregation byte-identical
        to an uninterrupted run)."""
        return {
            "index": self.index,
            "workload": self.workload,
            "config": self.config,
            "seed_index": self.seed_index,
            "seed": self.seed,
            "status": self.status,
            "instructions": self.instructions,
            "manifested": self.manifested,
            "svd": self.svd.to_json(),
            "frd": self.frd.to_json() if self.frd is not None else None,
            "posteriori_found_bug": self.posteriori_found_bug,
            "posteriori_static_entries": self.posteriori_static_entries,
            "cus_created": self.cus_created,
            "apparent_false_negative": self.apparent_false_negative,
            "error": self.error,
            "extra_metrics": {name: m.to_json() for name, m
                              in sorted(self.extra_metrics.items())},
            "obs": self.obs,
            "violation_fingerprints": list(self.violation_fingerprints),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "CampaignResult":
        frd = data["frd"]
        return cls(
            index=data["index"],
            workload=data["workload"],
            config=data["config"],
            seed_index=data["seed_index"],
            seed=data["seed"],
            status=data["status"],
            instructions=data["instructions"],
            manifested=data["manifested"],
            svd=DetectorMetrics.from_json(data["svd"]),
            frd=DetectorMetrics.from_json(frd) if frd is not None else None,
            posteriori_found_bug=data["posteriori_found_bug"],
            posteriori_static_entries=data["posteriori_static_entries"],
            cus_created=data["cus_created"],
            apparent_false_negative=data["apparent_false_negative"],
            error=data["error"],
            extra_metrics={name: DetectorMetrics.from_json(m)
                           for name, m in data["extra_metrics"].items()},
            obs=data["obs"],
            # absent in journals written before the field existed
            violation_fingerprints=list(
                data.get("violation_fingerprints", [])),
        )


def execute_task(task: CampaignTask) -> CampaignResult:
    """Run one matrix cell; any failure becomes an ``error`` result so a
    broken workload never takes the campaign down with it."""
    try:
        if task.obs:
            # a fresh registry per task: the snapshot rides the result
            # channel and merges deterministically campaign-wide
            with obs.metrics_scope() as registry, \
                    obs.span("campaign.task", workload=task.workload.name,
                             config=task.config.name, seed=task.seed_index):
                result = _run_task(task)
            snapshot = registry.snapshot()
        else:
            result = _run_task(task)
            snapshot = None
        extra = {name: metrics
                 for name, metrics in result.metrics.items()
                 if name not in ("svd", "frd")}
        # local import: resultsdb pulls in trend/bench machinery that
        # must not load whenever the harness package does
        from repro.resultsdb.db import violation_report_fingerprints
        return CampaignResult(
            index=task.index,
            workload=task.workload.name,
            config=task.config.name,
            seed_index=task.seed_index,
            seed=task.seed,
            status=result.status,
            instructions=result.instructions,
            manifested=result.outcome.manifested,
            svd=result.svd,
            frd=result.frd,
            posteriori_found_bug=result.posteriori_found_bug,
            posteriori_static_entries=result.posteriori_static_entries,
            cus_created=result.cus_created,
            apparent_false_negative=result.apparent_false_negative,
            extra_metrics=extra,
            obs=snapshot,
            violation_fingerprints=violation_report_fingerprints(
                result.reports),
        )
    except Exception:
        return failed_result(task, "error", traceback.format_exc())


def _run_task(task: CampaignTask):
    workload = task.workload.build()
    config = task.config
    model_seed = (config.model_seed if config.model_seed is not None
                  else task.seed)
    return run_workload(workload, seed=task.seed,
                        switch_prob=config.switch_prob,
                        max_steps=config.max_steps,
                        svd_config=config.svd_config(),
                        run_frd=config.run_frd,
                        detectors=config.detectors,
                        consistency=config.consistency,
                        model_seed=model_seed)


def failed_result(task: CampaignTask, status: str,
                  message: str) -> CampaignResult:
    return CampaignResult(
        index=task.index, workload=task.workload.name,
        config=task.config.name, seed_index=task.seed_index,
        seed=task.seed, status=status, instructions=0, manifested=False,
        svd=DetectorMetrics(detector="svd"), frd=None,
        posteriori_found_bug=False, posteriori_static_entries=0,
        cus_created=0, apparent_false_negative=False, error=message)


#: failures retained verbatim by the streaming aggregate (enough for
#: the CLI's error tail without growing with the campaign)
ERROR_SAMPLE_CAP = 8


class CampaignAggregate:
    """O(1)-per-task streaming aggregation of a campaign.

    Everything a finished campaign reports -- Table-2 rows, counts,
    the merged obs snapshot, the violation-fingerprint set -- is folded
    in as each result arrives, instead of retained and re-derived from
    a result list.  Parent memory is therefore a fixed set of
    accumulators plus one bit per matrix task (the seen-index bitmap),
    independent of how many results have completed.

    Every accumulator is commutative (integer sums, set unions, the
    obs merge's sum/max/bucket-add semantics over integer-valued
    metrics), so folding the same result set in any order -- one pool,
    many pools, shard journals replayed in any sequence -- produces
    byte-identical aggregates.  :func:`fold` is also idempotent per
    task index, which makes shard merges safe against replaying an
    overlapping journal twice.
    """

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec
        self.total = len(spec.workloads) * len(spec.configs) * spec.seeds
        self._seen = bytearray((self.total + 7) // 8)
        self.completed = 0
        self.ok_count = 0
        self.failed_count = 0
        #: instructions executed across ok runs
        self.events = 0
        #: SVD dynamic reports across ok runs
        self.violations = 0
        #: one streaming Table-2 row per (workload, config) cell; buggy
        #: is filled in at render time (see table2_rows), because
        #: knowing it means building the workload
        self.cells: Dict[Tuple[str, str], Table2Row] = {}
        for workload in spec.workloads:
            for config in spec.configs:
                label = (workload.name if config.name == "default"
                         else f"{workload.name}[{config.name}]")
                self.cells[(workload.name, config.name)] = Table2Row(
                    program=label, buggy=False)
        self.obs_snapshot: Optional[Dict[str, Any]] = None
        self.violation_fingerprints: Set[str] = set()
        self.error_samples: List[CampaignResult] = []

    def seen(self, index: int) -> bool:
        return bool(self._seen[index >> 3] & (1 << (index & 7)))

    def fold(self, result: CampaignResult) -> bool:
        """Fold one result in; ``False`` if its task index was already
        folded (the duplicate is ignored)."""
        index = result.index
        if not 0 <= index < self.total:
            raise ValueError(
                f"result index {index} outside campaign matrix "
                f"(0..{self.total - 1})")
        if self.seen(index):
            return False
        self._seen[index >> 3] |= 1 << (index & 7)
        cell = self.cells.get((result.workload, result.config))
        if cell is None:
            raise ValueError(
                f"result for unknown cell ({result.workload!r}, "
                f"{result.config!r})")
        self.completed += 1
        if result.ok:
            cell.add(result)
            self.ok_count += 1
            self.events += result.instructions
            self.violations += result.svd.dynamic_total
        else:
            cell.failed += 1
            self.failed_count += 1
            if len(self.error_samples) < ERROR_SAMPLE_CAP:
                self.error_samples.append(result)
        self.violation_fingerprints.update(result.violation_fingerprints)
        if result.obs is not None:
            if self.obs_snapshot is None:
                self.obs_snapshot = obs.merge_snapshots([result.obs])
            else:
                self.obs_snapshot = obs.merge_snapshots(
                    [self.obs_snapshot, result.obs])
        return True

    def missing_indices(self, cap: int = 10) -> Tuple[int, List[int]]:
        """How many matrix tasks were never folded, plus the first
        ``cap`` of them (for error messages)."""
        count = 0
        sample: List[int] = []
        for index in range(self.total):
            if not self.seen(index):
                count += 1
                if len(sample) < cap:
                    sample.append(index)
        return count, sample

    def table2_rows(self) -> List[Table2Row]:
        """Cells with at least one folded result, in matrix order --
        the row order batch aggregation produced when it grouped
        index-sorted results."""
        buggy = {}
        for workload in self.spec.workloads:
            try:
                buggy[workload.name] = workload.build().buggy
            except Exception:
                buggy[workload.name] = False
        return [replace(cell, buggy=buggy[workload])
                for (workload, _config), cell in self.cells.items()
                if cell.segments + cell.failed]


@dataclass
class CampaignReport:
    """The aggregated view of a finished campaign.

    ``results`` is the full per-run list when the campaign ran with
    ``keep_results=True`` (the default) and empty when it streamed;
    everything aggregated -- rows, counts, merged obs, fingerprints --
    reads from :attr:`aggregate` either way, so the two modes render
    byte-identically.
    """

    spec: CampaignSpec
    aggregate: CampaignAggregate
    results: List[CampaignResult] = field(default_factory=list)
    elapsed: float = 0.0
    #: the campaign was cut short by SIGINT/SIGTERM; the aggregate (and
    #: ``results``, when kept) holds whatever completed (and was
    #: journaled) before the interruption
    interrupted: bool = False

    @property
    def completed(self) -> int:
        return self.aggregate.completed

    @property
    def errors(self) -> List[CampaignResult]:
        """Failed/skipped results: all of them when results were kept,
        the first :data:`ERROR_SAMPLE_CAP` otherwise."""
        if self.results:
            return [r for r in self.results if not r.ok]
        return list(self.aggregate.error_samples)

    @property
    def failed_count(self) -> int:
        return self.aggregate.failed_count

    def table2_rows(self) -> List[Table2Row]:
        """Each (workload, config) cell's metrics, merged exactly the
        way Table 2 aggregates its seeded segments."""
        return self.aggregate.table2_rows()

    def render_metrics(self) -> str:
        """Deterministic aggregated-metrics table: identical input
        matrix => byte-identical text, for any worker count, shard
        count, or completion order."""
        rows = []
        for table_row in self.table2_rows():
            rows.append((
                table_row.program,
                table_row.segments,
                table_row.failed,
                f"{table_row.instructions / 1e6:.3f}",
                table_row.apparent_fn_text,
                f"{table_row.bugs_found_svd}/{table_row.bugs_found_frd}",
                f"{table_row.svd_static_fp}/{table_row.frd_static_fp}",
                (f"{table_row.svd_dynfp_per_million():.3g}/"
                 f"{table_row.frd_dynfp_per_million():.3g}"),
                table_row.posteriori_examinations,
                f"{table_row.cus_per_million():.3g}",
            ))
        return render_table(
            ["Workload[config]", "Runs", "Fail", "M insts", "FN",
             "bugs s/f", "staticFP s/f", "dynFP/M s/f", "a-post", "CUs/M"],
            rows,
            title=(f"Campaign: {self.aggregate.completed} runs, "
                   f"master seed {self.spec.master_seed}"))

    def render_table2(self) -> str:
        return render_table2(self.table2_rows())

    def merged_obs(self) -> Optional[Dict[str, Any]]:
        """Campaign-wide metrics: every per-task snapshot merged.
        Counters sum, gauges max, histograms add bucket-wise -- all
        commutative over the integer values the tasks record -- so the
        result is identical for any worker count, shard count, or
        completion order.  ``None`` when the campaign ran without
        obs."""
        return self.aggregate.obs_snapshot

    def obs_json(self) -> Optional[str]:
        """The merged snapshot as canonical JSON (sorted keys) -- the
        byte-identical-at-any-worker-count artifact."""
        merged = self.merged_obs()
        if merged is None:
            return None
        return json.dumps(merged, sort_keys=True, indent=2) + "\n"


def run_campaign(spec: CampaignSpec, workers: int = 1,
                 budget: Optional[float] = None,
                 on_result: Optional[Callable[[CampaignResult], None]] = None,
                 journal_dir: Optional[str] = None,
                 resume: bool = False,
                 heartbeat: Optional["CampaignHeartbeat"] = None,
                 keep_results: bool = True,
                 shard: Optional[Tuple[int, int]] = None,
                 ) -> CampaignReport:
    """Execute the campaign matrix (or one shard of it) and aggregate.

    ``workers=1`` runs serially in-process; ``workers>1`` fans out via
    the crash-isolating pool.  ``on_result`` streams results back in
    completion order while the campaign is still running.

    ``keep_results=False`` drops each result after folding it into the
    streaming aggregate, keeping parent memory O(1) in completed tasks;
    the report then exposes only aggregated state (and a small error
    sample).  The default retains the full result list.

    ``shard=(index, count)`` runs only the tasks whose *global* matrix
    index satisfies ``index % count == shard_index``.  Task identity,
    seeds, and per-task results are exactly those of the unsharded
    campaign -- sharding only partitions the dispatch -- so merging all
    shards' journals (:mod:`repro.harness.shard`) reproduces the
    unsharded report byte-identically.

    With ``journal_dir``, every final task outcome is appended (fsynced
    and commit-marked, see :mod:`repro.harness.journal`) to a journal
    there; ``resume=True`` replays an existing journal (fingerprint-
    and shard-checked against ``spec``) and runs only the
    not-yet-journaled tasks.  Seeds are position-derived and the
    aggregation is commutative, so an interrupted+resumed campaign
    aggregates byte-identically to an uninterrupted one.

    ``heartbeat`` (a :class:`repro.harness.heartbeat.CampaignHeartbeat`)
    receives every finished result and the pool's liveness snapshots,
    and emits the live telemetry stream; its final record is forced
    before this function returns.
    """
    tasks = spec.tasks()
    if shard is not None:
        shard_index, shard_count = shard
        if not 0 <= shard_index < shard_count:
            raise ValueError(
                f"shard index {shard_index} outside 0..{shard_count - 1}")
        tasks = [t for t in tasks if t.index % shard_count == shard_index]
    started = time.perf_counter()
    aggregate = CampaignAggregate(spec)
    results: List[CampaignResult] = []

    journal = None
    pending = tasks

    def on_outcome(position: int, outcome: Outcome) -> None:
        status, value = outcome
        if status == "ok":
            result = value
        else:
            result = failed_result(pending[position], status, str(value))
        if journal is not None:
            journal.record(result)
        aggregate.fold(result)
        if keep_results:
            results.append(result)
        if heartbeat is not None:
            heartbeat.task_done(result)
        if on_result is not None:
            on_result(result)

    monitor = heartbeat.pool_update if heartbeat is not None else None
    interrupted = False
    try:
        # journal open/replay sits inside the absorbing region too: an
        # interrupt during a long resume replay still yields a partial
        # (truthful) report instead of escaping as an exception
        if journal_dir is not None:
            from repro.harness.journal import CampaignJournal
            journal = CampaignJournal.open(journal_dir, spec,
                                           resume=resume, shard=shard)
            done: Set[int] = set()
            for result in journal.replay():
                done.add(result.index)
                aggregate.fold(result)
                if keep_results:
                    results.append(result)
            if done:
                pending = [t for t in tasks if t.index not in done]
        parallel_map(execute_task, pending, workers=workers,
                     timeout=spec.task_timeout, budget=budget,
                     on_outcome=on_outcome, retries=spec.task_retries,
                     retry_backoff=spec.retry_backoff, monitor=monitor)
    except KeyboardInterrupt:
        # graceful interruption: every finished task was already
        # journaled and fed to the heartbeat by on_outcome, so the
        # partial report (flagged below) is the truthful state
        interrupted = True
        obs.add("campaign.interrupted")
    finally:
        if heartbeat is not None:
            heartbeat.interrupted = interrupted
            heartbeat.finish()
        if journal is not None:
            journal.close()
    results.sort(key=lambda r: r.index)
    return CampaignReport(spec=spec, results=results,
                          elapsed=time.perf_counter() - started,
                          interrupted=interrupted,
                          aggregate=aggregate)

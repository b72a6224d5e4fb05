"""One campaign session: the lifecycle ``repro campaign`` and
``repro shard run`` share.

SIGTERM joins SIGINT in raising ``KeyboardInterrupt``; wherever it
lands, the journal keeps every finished task, the heartbeat gets its
final (interrupted) record, and the report comes back flagged
``interrupted``.  The heartbeat is created only once the handlers are
installed, so a signal can never land in an unprotected window after
the heartbeat stream exists.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import repro.obs as obs
from repro.harness.campaign import (CampaignAggregate, CampaignReport,
                                    CampaignResult, CampaignSpec,
                                    run_campaign)
from repro.harness.heartbeat import DEFAULT_INTERVAL, CampaignHeartbeat
from repro.obs.tracing import Tracer


class SessionInterrupt(KeyboardInterrupt):
    """What SIGTERM/SIGINT raise during a session.

    A subclass because CPython 3.11 marks an exact ``KeyboardInterrupt``
    that escapes an ``exec`` of a string (a dataclass being created by
    a lazy import, say) as unhandled; the interpreter then kills itself
    with SIGINT at exit even though the session absorbed the interrupt.
    """


def _interrupt(signum, frame):
    raise SessionInterrupt(signal.Signals(signum).name)


@contextmanager
def _signals_interrupt() -> Iterator[None]:
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _interrupt)
        except (ValueError, OSError):
            pass  # not the main thread; keep whatever is installed
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


@dataclass
class SessionResult:
    """What one session produced."""

    report: CampaignReport
    #: tasks this session's matrix (or shard) holds
    total: int
    #: the heartbeat's final record; ``None`` when the session ran
    #: without one
    heartbeat: Optional[Dict[str, Any]]
    #: task snapshots merged with the session's pool counters; ``None``
    #: when the spec runs without obs
    snapshot: Optional[Dict[str, Any]] = None
    tracer: Optional[Tracer] = None


def run_session(spec: CampaignSpec, *, workers: int = 1,
                budget: Optional[float] = None,
                journal_dir: Optional[str] = None, resume: bool = False,
                shard: Optional[Tuple[int, int]] = None,
                on_result: Optional[Callable[[CampaignResult], None]] = None,
                heartbeat_path: Optional[str] = None,
                heartbeat_interval: float = DEFAULT_INTERVAL,
                render: bool = False,
                summary: bool = False) -> SessionResult:
    """Run ``spec`` (or shard ``(index, count)`` of it) under the
    interrupt handlers, a heartbeat and the obs session the spec asks
    for.

    A heartbeat runs only when something reads it: a
    ``heartbeat_path`` stream, a ``render``ed status line, or the final
    ``summary`` record a results-DB row carries.  Other arguments pass
    through to :func:`run_campaign`, which raises
    :class:`~repro.harness.journal.JournalError` on journal misuse.
    Results always stream (``keep_results=False``), so parent memory
    stays O(1) in completed tasks however large the matrix is.
    """
    total = len(spec.workloads) * len(spec.configs) * spec.seeds
    if shard is not None:
        total = len(range(shard[0], total, shard[1]))
    report = heartbeat = handle = None
    try:
        with _signals_interrupt():
            if heartbeat_path or render or summary:
                heartbeat = CampaignHeartbeat(
                    total, path=heartbeat_path,
                    interval=heartbeat_interval, render=render)
            with obs.session(metrics=spec.obs, tracing=spec.obs) as handle:
                report = run_campaign(
                    spec, workers=workers, budget=budget,
                    on_result=on_result, journal_dir=journal_dir,
                    resume=resume, heartbeat=heartbeat,
                    keep_results=False, shard=shard)
    except KeyboardInterrupt:
        # landed outside run_campaign's absorbing region (set-up or
        # teardown): report what there is, flagged as interrupted
        if report is None:
            report = CampaignReport(spec=spec,
                                    aggregate=CampaignAggregate(spec))
        report.interrupted = True
        if heartbeat is not None:
            heartbeat.interrupted = True
            heartbeat.finish()
    snapshot = None
    if spec.obs and handle is not None:
        merged = report.merged_obs()
        snapshot = obs.merge_snapshots(
            ([merged] if merged is not None else [])
            + [handle.registry.snapshot()])
    return SessionResult(
        report=report, total=total,
        heartbeat=heartbeat.summary() if heartbeat is not None else None,
        snapshot=snapshot,
        tracer=handle.tracer if handle is not None else None)

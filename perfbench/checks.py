"""Output checks for every workload, and the alterations that prove them.

Each workload captures what one unit of work produced into a small
record; a ``check_*`` function turns that record into a list of
problems (empty when the outputs are right).  ``ALTERATIONS`` maps each
record type to deliberately damaged copies -- a dropped violation, a
degraded exit code, a changed byte -- that the matching check must
reject.  Every run replays those alterations through the real checks
and the real failure accounting (:func:`sentinel_problems`): each must
fail its check and raise ``fail_ratio`` above 0, so a check that stops
checking makes the run incorrect instead of silently passing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.report import Violation

from common import Tally

#: the detectors attached to the run-4det execution
DETECTORS_4 = ("svd", "frd", "lockset", "atomizer")


def _differ(name: str, expected: Sequence, got: Sequence) -> List[str]:
    if list(expected) == list(got):
        return []
    for index, (a, b) in enumerate(zip(expected, got)):
        if a != b:
            return [f"{name}: first difference at report {index}: "
                    f"{a} != {b}"]
    return [f"{name}: {len(expected)} reports expected, {len(got)} got"]


def _drop_one(violations: Sequence[Violation]) -> List[Violation]:
    """The list with its last report dropped (or one invented, if
    empty), so the result always differs from the input."""
    if violations:
        return list(violations[:-1])
    return [Violation(detector="altered", seq=0, tid=0, loc=0, address=0,
                      kind="altered")]


@dataclass
class Run4Det:
    """One live ``svd,frd,lockset,atomizer`` execution."""

    stream_passes: int
    failures: Sequence[str]
    #: detector -> reports of the 4-detector run
    live: Dict[str, List[Violation]]
    #: detector -> reports of a single-detector replay of its recording
    replay: Dict[str, List[Violation]]


def check_run_4det(c: Run4Det) -> List[str]:
    problems = []
    if c.stream_passes != 2:
        problems.append(f"engine.stream_passes == {c.stream_passes}, "
                        f"expected 2")
    if c.failures:
        problems.append(f"quarantined analyses: {', '.join(c.failures)}")
    for name in DETECTORS_4:
        problems += _differ(f"{name} live vs single-detector replay",
                            c.live.get(name, ()), c.replay.get(name, ()))
    return problems


@dataclass
class Offline:
    """One ``Trace.load`` plus ``run_trace(svd,offline,frd)``."""

    events_recorded: int
    events_loaded: int
    failures: Sequence[str]
    #: svd reports of the live run that wrote the trace
    live_svd: List[Violation]
    #: svd reports of the replay of the loaded file
    replay_svd: List[Violation]


def check_offline(c: Offline) -> List[str]:
    problems = []
    if c.events_loaded != c.events_recorded:
        problems.append(f"loaded {c.events_loaded} events, recorded "
                        f"{c.events_recorded}")
    if c.failures:
        problems.append(f"quarantined analyses: {', '.join(c.failures)}")
    return problems + _differ("svd replay vs live", c.live_svd,
                              c.replay_svd)


@dataclass
class Fleet:
    """One supervisor fleet run to completion."""

    executions: int
    completed: int
    failed: int
    outcome: str
    #: ladder mode -> executions launched in it
    modes: Dict[str, int]


def check_fleet(c: Fleet) -> List[str]:
    problems = []
    if c.completed != c.executions:
        problems.append(f"{c.completed} of {c.executions} executions "
                        f"completed")
    if c.failed:
        problems.append(f"{c.failed} executions failed")
    if c.modes != {"full": c.executions}:
        problems.append(f"executions by mode {c.modes}, expected all "
                        f"{c.executions} in full")
    if c.outcome not in ("ok", "violations"):
        problems.append(f"fleet outcome {c.outcome!r}")
    return problems


@dataclass
class Campaign:
    """One ``repro campaign`` invocation."""

    returncode: int
    tasks: int
    #: ``runs``/``failed`` of the results-DB row it wrote
    row_runs: int
    row_failed: int
    stdout: bytes
    #: stdout of the run's first invocation (same command, same seed)
    reference_stdout: bytes


def check_campaign(c: Campaign) -> List[str]:
    problems = []
    if c.returncode not in (0, 1):
        problems.append(f"exit code {c.returncode}, expected 0 or 1")
    if c.row_runs != c.tasks or c.row_failed:
        problems.append(f"DB row shows {c.row_runs} runs, {c.row_failed} "
                        f"failed; expected {c.tasks} completed")
    if c.stdout != c.reference_stdout:
        problems.append("stdout differs from the first invocation's")
    return problems


def _alter_run_4det(c: Run4Det) -> List[Run4Det]:
    return [dataclasses.replace(c, live={**c.live,
                                         "svd": _drop_one(c.live["svd"])}),
            dataclasses.replace(c, stream_passes=3)]


def _alter_offline(c: Offline) -> List[Offline]:
    return [dataclasses.replace(c, replay_svd=_drop_one(c.replay_svd)),
            dataclasses.replace(c, events_loaded=c.events_loaded - 1)]


def _alter_fleet(c: Fleet) -> List[Fleet]:
    modes = dict(c.modes)
    modes["full"] = modes.get("full", 0) - 1
    modes["sampled"] = modes.get("sampled", 0) + 1
    return [dataclasses.replace(c, modes=modes),
            dataclasses.replace(c, completed=c.completed - 1,
                                failed=c.failed + 1)]


def _alter_campaign(c: Campaign) -> List[Campaign]:
    flipped = bytes([c.stdout[0] ^ 1]) + c.stdout[1:] if c.stdout else b"x"
    return [dataclasses.replace(c, returncode=3),
            dataclasses.replace(c, stdout=flipped),
            dataclasses.replace(c, row_runs=c.row_runs - 1)]


#: record type -> (check, alterations the check must reject)
ALTERATIONS: Dict[type, tuple] = {
    Run4Det: (check_run_4det, _alter_run_4det),
    Offline: (check_offline, _alter_offline),
    Fleet: (check_fleet, _alter_fleet),
    Campaign: (check_campaign, _alter_campaign),
}


def check(record) -> List[str]:
    return ALTERATIONS[type(record)][0](record)


def sentinel_problems(record) -> List[str]:
    """Account each alteration of ``record`` as one operation; report
    the alterations that left ``fail_ratio`` at 0."""
    verify, alter = ALTERATIONS[type(record)]
    problems = []
    for index, altered in enumerate(alter(record)):
        tally = Tally()
        tally.account(1, 0, verify(altered))
        if tally.fail_ratio == 0:
            problems.append(f"check accepted altered "
                            f"{type(record).__name__} #{index}")
    return problems

"""Shared plumbing for the benchmark: seeds, timing, accounting, paths.

Every input a workload uses is derived here from the one ``--seed``
argument, so the same seed always produces the same inputs and the
program under test receives only those generated values.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

#: the checkout root (the benchmark is launched from there, but resolve
#: it from this file so a stray working directory cannot redirect it)
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch area for trace files, journals and result databases; every
#: run makes its own subdirectory and removes it when it ends
WORK = os.path.join(ROOT, ".perfbench-work")

#: workers / executions in flight -- the box this was tuned on has 2 cores
CONCURRENCY = 2

#: workload names, exactly as BENCHMARK.json lists them (keep them stable)
WORKLOADS = ("run-4det", "campaign-tso")


def sub_seed(seed: int, label: str, index: int = 0) -> int:
    """A 31-bit seed for input ``label``/``index`` derived from ``seed``."""
    digest = hashlib.sha256(f"{seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFF


def timed(fn: Callable, *args, **kwargs) -> Tuple[float, object]:
    started = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - started, out


class HostSpeed:
    """How fast the host runs a fixed reference workload during a run.

    The shared VM this was tuned on changes speed by up to 1.5x for
    minutes at a time (other tenants), which no repetition within one
    run can average away, and its two vCPUs differ: for seconds at a
    time one ran a 17 ms spin loop in 23 ms while the other did not.
    A run samples the reference (``reference.py``, in a child process)
    between its units and keeps the fastest sample per CPU, the same
    estimator the workloads apply to their own pieces; :meth:`scale`
    converts the run's times to what they would be on a host that runs
    the reference in :data:`REFERENCE_S`, roughly this VM's fast state.
    The raw times are printed beside the scaled ones.

    A single-threaded workload calls :meth:`pin` first: it then runs on
    one CPU and the reference is sampled on that CPU only.  Otherwise
    (the two-worker campaign) every CPU is sampled and the scale uses
    their combined speed.  Use as a context manager: leaving it stops
    the child and waits for it."""

    #: reference-sample seconds of the nominal host
    REFERENCE_S = 0.020

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        #: CPU -> fastest reference sample seen on it
        self.best: Dict[int, float] = {}

    def __enter__(self) -> "HostSpeed":
        self._child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        child = self._child
        try:
            child.stdin.close()
            child.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            child.kill()
            child.wait()
        child.stdout.close()

    def pin(self) -> None:
        """Run this process, and sample the reference, on one CPU."""
        self.cpus = self.cpus[:1]
        os.sched_setaffinity(0, self.cpus)

    def sample(self, count: int) -> None:
        for cpu in self.cpus:
            self._child.stdin.write(f"{cpu} {count}\n")
            self._child.stdin.flush()
            seconds = float(self._child.stdout.readline())
            self.best[cpu] = min(self.best.get(cpu, seconds), seconds)

    @property
    def reference_s(self) -> float:
        """The reference's best time at the speed of all CPUs in use
        together (the harmonic mean of their bests)."""
        return len(self.best) / sum(1 / best for best in self.best.values())

    def scale(self, seconds: float) -> float:
        return seconds * self.REFERENCE_S / self.reference_s


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: int) -> float:
    """Inclusive-method percentile (``pct`` in 1..99) of ``values``."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100,
                                      method="inclusive")[pct - 1])


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS in MiB: this process's VmHWM, or with ``children`` the
    largest waited-for descendant (a CLI process and its pool)."""
    if children:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def subprocess_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # results-DB rows stamp the git commit; pinning it keeps the write
    # path identical in a git checkout and in an exported tree
    env["REPRO_GIT_COMMIT"] = "perfbench"
    return env


class WorkDir:
    """A per-run scratch directory under :data:`WORK`, removed on exit."""

    def __enter__(self) -> str:
        os.makedirs(WORK, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=WORK)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Tally:
    """Operations attempted and failed; a failed output check counts.

    ``problems`` keeps the first few check failures for the report."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def account(self, operations: int, failed_ops: int,
                problems: Sequence[str]) -> None:
        """Add one unit of work: ``operations`` attempted of which
        ``failed_ops`` failed outright; any check problem fails the
        whole unit."""
        self.attempted += operations
        self.failed += operations if problems else failed_ops
        self.problems.extend(problems)
        del self.problems[5:]

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)

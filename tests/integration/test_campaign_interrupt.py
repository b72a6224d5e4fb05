"""Graceful campaign interruption: SIGTERM (and SIGINT) mid-campaign
must flush the journal, emit a final (interrupted) heartbeat record,
write an ``interrupted`` results-DB row, and exit 3 -- then resuming
must complete the matrix as if nothing happened.

Every test runs against both front-ends of the one campaign session:
``repro campaign --journal`` (resumed with ``--resume``) and
``repro shard run`` on shard 1 of a 2-shard plan (resumed by running
the same shard directory again, then merged with the other shard).
Either way the final report must be byte-identical to the
uninterrupted unsharded campaign.

Complements ``test_campaign_kill_resume.py``, which covers the brutal
SIGKILL path (no chance to flush); this file covers the cooperative
path the ``repro serve``/``repro campaign`` shutdown contract promises.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

MATRIX = ["--workloads", "apache,pgsql", "--seeds", "20",
          "--max-steps", "200000"]
TOTAL = 40


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _repro(argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "repro"] + argv,
                          env=_env(), cwd=REPO, capture_output=True,
                          text=True, timeout=600, **kwargs)


class _CampaignCase:
    """``repro campaign`` with a journal directory."""

    total = TOTAL
    label = "campaign"
    interrupted_message = "campaign interrupted"

    def __init__(self, tmp_path):
        self.jdir = str(tmp_path / "journal")
        self.journal = os.path.join(self.jdir, "journal.jsonl")
        self.heartbeat = str(tmp_path / "hb.jsonl")

    def _argv(self, extra):
        return ["campaign", *MATRIX, "-j", "1", "--quiet", *extra]

    def start(self, db):
        return self._argv(["--journal", self.jdir, "--db", db,
                           "--heartbeat-out", self.heartbeat])

    def start_plain(self):
        """Heartbeat only: no journal, no DB row."""
        return self._argv(["--heartbeat-out", self.heartbeat])

    def finish(self, db):
        """Resume to completion; returns the final report's stdout."""
        resumed = _repro(self._argv(["--resume", self.jdir, "--db", db]))
        assert resumed.returncode == 1, resumed.stderr  # buggy workloads
        assert f"{TOTAL} runs ({TOTAL} ok" in resumed.stderr
        return resumed.stdout


class _ShardRunCase:
    """``repro shard run`` on shard 1 of a 2-shard plan."""

    total = TOTAL // 2
    label = "campaign[shard 1/2]"
    interrupted_message = "shard interrupted"

    def __init__(self, tmp_path):
        self.plan = str(tmp_path / "plan")
        planned = _repro(["shard", "plan", *MATRIX, "--shards", "2",
                          "--out", self.plan])
        assert planned.returncode == 0, planned.stderr
        self.shard_dir = os.path.join(self.plan, "shard-00")
        self.journal = os.path.join(self.shard_dir, "journal.jsonl")
        self.heartbeat = os.path.join(self.shard_dir, "heartbeat.jsonl")

    def start(self, db):
        return ["shard", "run", self.shard_dir, "--db", db]

    def start_plain(self):
        """A shard run always journals and keeps its heartbeat."""
        return ["shard", "run", self.shard_dir]

    def finish(self, db):
        """Rerun the interrupted shard (a resume), run the other one,
        and merge; returns the merged report's stdout."""
        # both shards hold buggy apache and pgsql tasks: exit 1
        resumed = _repro(["shard", "run", self.shard_dir, "--db", db])
        assert resumed.returncode == 1, resumed.stderr
        assert f"{self.total}/{self.total} tasks" in resumed.stdout
        other = _repro(["shard", "run",
                        os.path.join(self.plan, "shard-01")])
        assert other.returncode == 1, other.stderr
        merged = _repro(["shard", "merge", self.plan])
        assert merged.returncode == 1, merged.stderr  # buggy workloads
        return merged.stdout


CASES = {"campaign": _CampaignCase, "shard-run": _ShardRunCase}


@pytest.fixture(scope="module")
def reference_stdout():
    """The uninterrupted unsharded campaign every resume must match."""
    done = _repro(["campaign", *MATRIX, "-j", "1", "--quiet"])
    assert done.returncode == 1, done.stderr
    return done.stdout


def _wait_for_journal_records(path, minimum, proc, deadline=120):
    """Block until the journal holds ``minimum`` records (header +
    outcomes) or the process exits on its own."""
    end = time.time() + deadline
    while time.time() < end and proc.poll() is None:
        try:
            with open(path, "rb") as fh:
                if len(fh.read().splitlines()) >= minimum + 1:
                    return True
        except OSError:
            pass
        time.sleep(0.02)
    return False


class TestCampaignSigterm:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sigterm_flushes_everything_and_resume_completes(
            self, case, tmp_path, reference_stdout):
        run = CASES[case](tmp_path)
        db = str(tmp_path / "campaign.db")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro"] + run.start(db),
            env=_env(), cwd=REPO, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        got_some = _wait_for_journal_records(run.journal, 2, victim)
        victim.send_signal(signal.SIGTERM)
        stderr = victim.communicate(timeout=120)[1]
        if victim.returncode == 1:
            # the run finished before the signal landed (slow CI box won
            # the race); the interruption path was not exercised, which the
            # resume below still verifies
            pass
        else:
            assert victim.returncode == 3, stderr
            assert got_some
            assert run.interrupted_message in stderr

            # journal: every completed task checkpointed, file intact
            with open(run.journal) as fh:
                lines = fh.read().splitlines()
            assert len(lines) >= 3  # header + >= 2 results
            for line in lines:
                json.loads(line)  # no torn writes

            # heartbeat: final record flagged interrupted
            records = [json.loads(line)
                       for line in open(run.heartbeat).read().splitlines()]
            final = records[-1]
            assert final["final"] is True
            assert final["interrupted"] is True
            assert final["completed"] < final["total"] == run.total

            # results DB: a truthful partial row
            sys.path.insert(0, str(REPO / "src"))
            from repro import resultsdb
            with resultsdb.open_db(db) as handle:
                record = handle.latest()
            assert record.kind == "campaign"
            assert record.label == run.label
            assert record.status == "interrupted"
            assert record.payload["runs"] < run.total

        # resuming completes the matrix (same spec => same fingerprint) and
        # reports exactly what the uninterrupted campaign reports
        assert run.finish(db) == reference_stdout


class TestCampaignSigintSerial:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sigint_in_serial_mode_interrupts_instead_of_recording_errors(
            self, case, tmp_path):
        """workers=1 runs tasks in-process; KeyboardInterrupt must
        propagate out of the pool as an interruption, not be swallowed
        into per-task error results."""
        run = CASES[case](tmp_path)
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro"] + run.start_plain(),
            env=_env(), cwd=REPO, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        # wait for the first heartbeat record, then interrupt
        deadline = time.time() + 120
        while time.time() < deadline and victim.poll() is None:
            if os.path.exists(run.heartbeat):
                break
            time.sleep(0.02)
        victim.send_signal(signal.SIGINT)
        stderr = victim.communicate(timeout=120)[1]
        if victim.returncode == 1:
            return  # finished before the signal; nothing to assert
        assert victim.returncode == 3, stderr
        records = [json.loads(line)
                   for line in open(run.heartbeat).read().splitlines()]
        assert records[-1]["interrupted"] is True
        # no task may be reported as failed by the interruption itself
        assert records[-1]["failures"] == 0

"""The shard planner: spec serialization, plan artefacts, heartbeat
merging, and the partial-merge (missing shard) path.  End-to-end
sharded/unsharded byte-identity lives in
``tests/property/test_shard_merge_identity.py``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.harness.campaign import (CampaignSpec, ConfigSpec,
                                    WorkloadSpec, run_campaign)
from repro.harness.journal import spec_fingerprint
from repro.harness.shard import (ShardError, load_plan, load_shard,
                                 merge_heartbeats, merge_shards,
                                 plan_shards, shard_dir_name,
                                 spec_from_json, spec_to_json)


def small_spec(**kwargs):
    kwargs.setdefault("obs", False)
    return CampaignSpec(
        workloads=[WorkloadSpec(name="stringbuffer"),
                   WorkloadSpec(name="queue-region")],
        configs=[ConfigSpec(max_steps=30_000)], seeds=3, **kwargs)


class TestSpecSerialization:
    def test_round_trips_exactly(self):
        spec = CampaignSpec(
            workloads=[WorkloadSpec(name="apache", factory=None,
                                    kwargs={"writers": 2})],
            configs=[ConfigSpec(name="tuned", svd={"window": 9},
                                switch_prob=0.7, max_steps=500,
                                run_frd=False, detectors=("svd", "frd"),
                                consistency="tso", model_seed=3)],
            seeds=5, master_seed=42, task_timeout=9.0, obs=False,
            task_retries=2, retry_backoff=0.5)
        loaded = spec_from_json(json.loads(
            json.dumps(spec_to_json(spec))))
        assert loaded == spec
        assert spec_fingerprint(loaded) == spec_fingerprint(spec)


class TestPlanArtefacts:
    def test_plan_writes_manifest_and_shard_specs(self, tmp_path):
        out = str(tmp_path / "plan")
        plan = plan_shards(small_spec(), 3, out)
        assert plan.total_tasks == 6
        loaded = load_plan(out)
        assert loaded.count == 3
        assert loaded.fingerprint == plan.fingerprint
        assert loaded.spec == small_spec()
        # each shard carries the full spec plus its round-robin slice
        for index in range(3):
            spec, (k, n) = load_shard(
                os.path.join(out, shard_dir_name(index)))
            assert (k, n) == (index, 3)
            assert spec == small_spec()

    def test_empty_shards_are_planned(self, tmp_path):
        plan = plan_shards(small_spec(), 7, str(tmp_path / "plan"))
        counts = [json.load(open(os.path.join(d, "spec.json")))["tasks"]
                  for d in plan.shard_dirs()]
        assert sum(counts) == 6
        assert counts.count(0) == 1  # 6 tasks over 7 shards

    def test_bad_count_rejected(self, tmp_path):
        with pytest.raises(ShardError, match="must be >= 1"):
            plan_shards(small_spec(), 0, str(tmp_path / "plan"))

    def test_existing_plan_rejected(self, tmp_path):
        out = str(tmp_path / "plan")
        plan_shards(small_spec(), 2, out)
        with pytest.raises(ShardError, match="already exists"):
            plan_shards(small_spec(), 2, out)

    def test_tampered_manifest_rejected(self, tmp_path):
        out = str(tmp_path / "plan")
        plan_shards(small_spec(), 2, out)
        manifest = os.path.join(out, "manifest.json")
        doc = json.load(open(manifest))
        doc["spec"]["seeds"] = 99  # no longer matches the fingerprint
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ShardError, match="does not match"):
            load_plan(out)

    def test_missing_plan_rejected(self, tmp_path):
        with pytest.raises(ShardError, match="cannot read"):
            load_plan(str(tmp_path / "nope"))


class TestMergeShards:
    def _run_shard(self, plan_dir, index, count):
        shard_dir = os.path.join(plan_dir, shard_dir_name(index))
        spec, (k, n) = load_shard(shard_dir)
        assert (k, n) == (index, count)
        run_campaign(spec, journal_dir=shard_dir, keep_results=False,
                     shard=(k, n))

    def test_partial_merge_reports_missing_tasks(self, tmp_path):
        out = str(tmp_path / "plan")
        plan_shards(small_spec(), 3, out)
        self._run_shard(out, 0, 3)
        self._run_shard(out, 2, 3)  # shard 1 never ran
        merge = merge_shards(out)
        assert merge.shards == [0, 2]
        assert merge.missing == 2  # shard 1's round-robin slice
        assert all(i % 3 == 1 for i in merge.missing_sample)
        assert merge.report.interrupted
        # what did run is aggregated normally
        assert merge.report.aggregate.completed == 4

    def test_complete_merge(self, tmp_path):
        out = str(tmp_path / "plan")
        plan_shards(small_spec(), 3, out)
        for index in range(3):
            self._run_shard(out, index, 3)
        merge = merge_shards(out)
        assert merge.missing == 0
        assert not merge.report.interrupted
        assert merge.report.aggregate.completed == 6
        assert merge.report.aggregate.failed_count == 0


class TestMergeHeartbeats:
    def test_counts_sum_clocks_max(self):
        merged = merge_heartbeats([
            {"completed": 2, "total": 3, "events": 100, "violations": 1,
             "failures": 0, "worker_crashes": 0, "task_retries": 1,
             "elapsed": 2.0, "rss_peak_bytes": 500, "final": True},
            {"completed": 3, "total": 3, "events": 200, "violations": 0,
             "failures": 1, "worker_crashes": 2, "task_retries": 0,
             "elapsed": 4.0, "rss_peak_bytes": 900, "final": True,
             "interrupted": True},
        ])
        assert merged["completed"] == 5
        assert merged["events"] == 300
        assert merged["violations"] == 1
        assert merged["failures"] == 1
        assert merged["worker_crashes"] == 2
        assert merged["task_retries"] == 1
        # the shards ran concurrently: wall clock is the slowest shard,
        # peak RSS the largest coordinator
        assert merged["elapsed"] == 4.0
        assert merged["rss_peak_bytes"] == 900
        assert merged["events_per_sec"] == 75.0
        assert merged["interrupted"] and merged["merged"]
        assert merged["shards"] == 2

    def test_empty_is_none(self):
        assert merge_heartbeats([]) is None


#: the peak-RSS probe, run in a fresh interpreter: in the test process
#: the high-water mark was set by earlier tests, and whatever they freed
#: since leaves the current RSS an unknown distance below it, so the
#: ballast below need not raise the mark at all
_PEAK_RSS_PROBE = """
from repro.obs.rss import peak_rss_bytes
first = peak_rss_bytes()
ballast = bytearray(32 * 1024 * 1024)
grown = peak_rss_bytes()
del ballast
print(first, grown, peak_rss_bytes())
"""


class TestPeakRss:
    def test_positive_and_tracks_growth(self):
        # the child imports the same repro this process did
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        probe = subprocess.run([sys.executable, "-c", _PEAK_RSS_PROBE],
                               capture_output=True, text=True, check=True,
                               env=env)
        first, grown, after = map(int, probe.stdout.split())
        assert first > 1024 * 1024  # a python process is at least a MB
        assert grown >= first + 24 * 1024 * 1024
        # a high-water mark does not come back down (modulo the
        # kernel's deferred per-thread RSS accounting, which can lag a
        # few hundred KB either way)
        assert after >= grown - 2 * 1024 * 1024


class TestShardRunCli:
    def test_garbled_metrics_snapshot_is_a_usage_error(self, tmp_path,
                                                       capsys):
        from repro.cli import main
        out = str(tmp_path / "plan")
        assert main(["shard", "plan", "--workloads", "stringbuffer",
                     "--seeds", "2", "--max-steps", "30000",
                     "--shards", "2", "--out", out]) == 0
        for index in range(2):
            assert main(["shard", "run", os.path.join(
                out, shard_dir_name(index))]) in (0, 1)
        metrics = os.path.join(out, shard_dir_name(0), "metrics.json")
        with open(metrics) as fh:
            assert json.load(fh)["counters"]
        open(metrics, "w").close()  # truncated to 0 bytes
        capsys.readouterr()
        assert main(["shard", "merge", out]) == 2
        assert "metrics.json: not valid JSON" in capsys.readouterr().err

    def test_db_row_carries_the_plan_detectors(self, tmp_path):
        from repro.cli import main
        from repro.resultsdb import open_db
        out = str(tmp_path / "plan")
        db = str(tmp_path / "results.db")
        assert main(["shard", "plan", "--workloads", "stringbuffer",
                     "--seeds", "1", "--max-steps", "30000",
                     "--detectors", "lockset", "--shards", "1",
                     "--out", out]) == 0
        assert main(["shard", "run", os.path.join(out, shard_dir_name(0)),
                     "--db", db]) in (0, 1)
        with open_db(db) as handle:
            record = handle.latest()
        assert record.label == "campaign[shard 1/1]"
        assert list(record.detectors) == ["lockset"]

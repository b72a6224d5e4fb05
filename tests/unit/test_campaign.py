"""Campaign engine tests: deterministic seed derivation, serial/parallel
result equality, and worker-crash isolation."""

import time

import pytest

from repro.harness.campaign import (CampaignSpec, ConfigSpec, WorkloadSpec,
                                    derive_seed, execute_task, run_campaign)

FAST = ConfigSpec(max_steps=30_000)


def failing_workload():
    """Injected broken factory: raises before a machine ever runs."""
    raise RuntimeError("injected workload failure")


def hanging_workload():
    """Injected hang: sleeps far past any per-task timeout."""
    time.sleep(600)


def small_spec(seeds=3, **kwargs):
    return CampaignSpec(
        workloads=[WorkloadSpec(name="stringbuffer"),
                   WorkloadSpec(name="queue-region")],
        configs=[FAST], seeds=seeds, **kwargs)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(0, "apache", "default", 3) == \
            derive_seed(0, "apache", "default", 3)

    def test_coordinates_matter(self):
        base = derive_seed(0, "apache", "default", 0)
        assert derive_seed(1, "apache", "default", 0) != base
        assert derive_seed(0, "mysql", "default", 0) != base
        assert derive_seed(0, "apache", "block4", 0) != base
        assert derive_seed(0, "apache", "default", 1) != base

    def test_stable_across_releases(self):
        """Pinned values: changing the derivation silently re-randomises
        every recorded campaign, so it must be an explicit decision."""
        assert derive_seed(0, "apache", "default", 0) == 1760085674
        assert derive_seed(7, "pgsql", "block4", 3) == 1977583274

    def test_task_expansion_is_deterministic(self):
        tasks_a = small_spec().tasks()
        tasks_b = small_spec().tasks()
        assert [(t.index, t.workload.name, t.seed_index, t.seed)
                for t in tasks_a] == \
            [(t.index, t.workload.name, t.seed_index, t.seed)
             for t in tasks_b]

    @pytest.mark.parametrize("seeds,shards", [(3, 4), (5, 3), (1, 5)])
    def test_task_count_matches_the_expansion(self, seeds, shards):
        """The one task-count rule: the matrix size, and per shard the
        tasks whose index is the shard index modulo the shard count."""
        spec = small_spec(seeds=seeds)
        tasks = spec.tasks()
        assert spec.task_count() == len(tasks)
        for k in range(shards):
            assert spec.task_count((k, shards)) == sum(
                1 for t in tasks if t.index % shards == k)


class TestSerialCampaign:
    def test_runs_and_aggregates(self):
        report = run_campaign(small_spec(), workers=1)
        assert len(report.results) == 6
        assert all(r.ok for r in report.results)
        rows = report.table2_rows()
        assert {row.program for row in rows} == \
            {"stringbuffer", "queue-region"}
        assert all(row.segments == 3 for row in rows)

    def test_identical_across_repeats(self):
        first = run_campaign(small_spec(), workers=1)
        second = run_campaign(small_spec(), workers=1)
        assert first.render_metrics() == second.render_metrics()

    def test_streaming_callback_sees_every_result(self):
        seen = []
        run_campaign(small_spec(seeds=2), workers=1,
                     on_result=lambda r: seen.append(r.index))
        assert sorted(seen) == list(range(4))


class TestParallelCampaign:
    def test_matches_serial_byte_for_byte(self):
        serial = run_campaign(small_spec(), workers=1)
        parallel = run_campaign(small_spec(), workers=2)
        assert parallel.render_metrics() == serial.render_metrics()
        assert parallel.render_table2() == serial.render_table2()

    def test_per_run_results_match_serial(self):
        serial = run_campaign(small_spec(seeds=2), workers=1)
        parallel = run_campaign(small_spec(seeds=2), workers=3)
        for a, b in zip(serial.results, parallel.results):
            assert (a.index, a.workload, a.seed, a.status,
                    a.instructions, a.svd.dynamic_total) == \
                (b.index, b.workload, b.seed, b.status,
                 b.instructions, b.svd.dynamic_total)


class TestCrashIsolation:
    def spec_with_failure(self):
        return CampaignSpec(
            workloads=[
                WorkloadSpec(name="stringbuffer"),
                WorkloadSpec(
                    name="broken",
                    factory="tests.unit.test_campaign:failing_workload"),
            ],
            configs=[FAST], seeds=2)

    def test_serial_failure_is_one_error_result(self):
        report = run_campaign(self.spec_with_failure(), workers=1)
        errors = [r for r in report.results if not r.ok]
        assert len(errors) == 2  # one per seed of the broken workload
        assert all(r.workload == "broken" for r in errors)
        assert all("injected workload failure" in r.error for r in errors)
        # the healthy workload still completed every seed
        ok = [r for r in report.results if r.workload == "stringbuffer"]
        assert len(ok) == 2 and all(r.ok for r in ok)

    def test_parallel_failure_does_not_kill_campaign(self):
        report = run_campaign(self.spec_with_failure(), workers=2)
        assert len(report.results) == 4
        errors = [r for r in report.results if not r.ok]
        assert [r.workload for r in errors] == ["broken", "broken"]

    def test_hung_worker_is_timed_out_and_isolated(self):
        spec = CampaignSpec(
            workloads=[
                WorkloadSpec(name="stringbuffer"),
                WorkloadSpec(
                    name="hang",
                    factory="tests.unit.test_campaign:hanging_workload"),
            ],
            configs=[FAST], seeds=1, task_timeout=1.5)
        report = run_campaign(spec, workers=2)
        assert len(report.results) == 2
        hung = [r for r in report.results if r.workload == "hang"]
        assert len(hung) == 1 and hung[0].status == "timeout"
        healthy = [r for r in report.results
                   if r.workload == "stringbuffer"]
        assert len(healthy) == 1 and healthy[0].ok

    def test_execute_task_never_raises(self):
        spec = self.spec_with_failure()
        for task in spec.tasks():
            result = execute_task(task)
            assert result.status != ""  # always a result, never a raise


class TestCampaignObs:
    def test_tasks_carry_obs_flag(self):
        assert all(not t.obs for t in small_spec().tasks())
        assert all(t.obs for t in small_spec(obs=True).tasks())

    def test_serial_collects_snapshots(self):
        report = run_campaign(small_spec(seeds=2, obs=True), workers=1)
        assert all(r.obs is not None for r in report.results)
        merged = report.merged_obs()
        assert merged["counters"]["runner.runs"] == 4

    def test_obs_json_byte_identical_across_worker_counts(self):
        serial = run_campaign(small_spec(obs=True), workers=1)
        parallel = run_campaign(small_spec(obs=True), workers=2)
        assert serial.obs_json() is not None
        assert serial.obs_json() == parallel.obs_json()

    def test_no_obs_means_no_snapshots(self):
        report = run_campaign(small_spec(seeds=1), workers=1)
        assert all(r.obs is None for r in report.results)
        assert report.merged_obs() is None
        assert report.obs_json() is None

    def test_worker_scope_does_not_leak_into_parent(self):
        import repro.obs as obs
        run_campaign(small_spec(seeds=1, obs=True), workers=1)
        assert not obs.metrics_enabled()


class TestBudget:
    def test_budget_skips_rather_than_hangs(self):
        spec = small_spec(seeds=40)
        report = run_campaign(spec, workers=1, budget=0.0)
        skipped = [r for r in report.results if r.status == "skipped"]
        assert len(report.results) == 80
        assert len(skipped) >= 78  # the first task may sneak in


class TestSession:
    def test_shard_session_runs_its_slice_and_merges_obs(self):
        from repro.harness.session import run_session
        session = run_session(small_spec(obs=True), shard=(2, 4),
                              summary=True)
        assert session.total == 1  # index 2 of the 6-task matrix
        assert session.report.completed == 1
        assert not session.report.interrupted
        assert session.heartbeat["final"] is True
        assert session.snapshot["counters"]["pool.tasks.ok"] == 1

    def test_no_heartbeat_without_a_reader(self):
        """No stream, no render, no summary wanted: the session runs
        without a heartbeat, so the pool is not monitored either."""
        from repro.harness.session import run_session
        session = run_session(small_spec(), shard=(2, 4))
        assert session.report.completed == 1
        assert session.heartbeat is None

    def test_interrupt_outside_run_campaign_reports_interrupted(
            self, tmp_path, monkeypatch):
        """A signal in set-up (before ``run_campaign`` can absorb it)
        still yields an interrupted report and a flushed heartbeat."""
        import json

        import repro.harness.session as session_mod

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt("SIGTERM")

        monkeypatch.setattr(session_mod, "run_campaign", interrupted)
        path = tmp_path / "hb.jsonl"
        session = session_mod.run_session(small_spec(),
                                          heartbeat_path=str(path))
        assert session.report.interrupted
        assert session.report.completed == 0
        final = json.loads(path.read_text().splitlines()[-1])
        assert final["final"] and final["interrupted"]
        assert session.heartbeat == final

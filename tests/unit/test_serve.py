"""Serve-mode unit tests: the degradation ladder, the analysis
breaker, incremental engine drives, the status endpoint, and small
in-process supervisor runs.

The chaos-style integration suite (faults, drains, subprocess signals)
lives in ``tests/integration/test_serve_chaos.py``; this file pins the
component contracts the supervisor composes.
"""

import io
import json
import urllib.request

import pytest

import repro.obs as obs
from repro.engine import DetectorEngine
from repro.harness.heartbeat import ServeHeartbeat
from repro.machine import Machine, RandomScheduler
from repro.serve import (LEVELS, AnalysisBreaker, DegradationLadder,
                         ServeConfig, StatusServer, Supervisor)
from repro.workloads import WORKLOADS


class TestDegradationLadder:
    def test_no_budget_pins_full(self):
        ladder = DegradationLadder(None)
        ladder.note_events(10**9, now=0.0)
        ladder.note_events(10**9, now=1.0)
        assert ladder.maybe_transition(now=10.0) is None
        assert ladder.level == "full"

    def test_degrades_one_level_at_a_time(self):
        ladder = DegradationLadder(100.0, dwell=0.0)
        ladder.note_events(0, now=0.0)
        ladder.note_events(1000, now=1.0)  # 1000 ev/s >> budget
        assert ladder.maybe_transition(now=1.0) == ("full", "sampled")
        assert ladder.maybe_transition(now=1.0) == ("sampled", "paused")
        # already at the bottom: stays there, no exception, no death
        assert ladder.maybe_transition(now=1.0) is None
        assert ladder.level == "paused"

    def test_dwell_prevents_flapping(self):
        ladder = DegradationLadder(100.0, dwell=5.0)
        ladder.note_events(0, now=0.0)
        ladder.note_events(1000, now=1.0)
        assert ladder.maybe_transition(now=1.0) is None  # dwell not met
        assert ladder.maybe_transition(now=6.0) == ("full", "sampled")
        # the second hop needs its own dwell at the new level
        assert ladder.maybe_transition(now=6.1) is None

    def test_recovers_below_hysteresis_band(self):
        ladder = DegradationLadder(100.0, recover_fraction=0.5, dwell=0.0)
        ladder.note_events(0, now=0.0)
        ladder.note_events(1000, now=1.0)
        assert ladder.maybe_transition(now=1.0) == ("full", "sampled")
        # 75 ev/s is under budget but inside the hysteresis band: hold
        ladder._samples.clear()
        ladder.note_events(0, now=2.0)
        ladder.note_events(75, now=3.0)
        assert ladder.maybe_transition(now=3.0) is None
        # 10 ev/s is below recover_fraction * budget: recover
        ladder._samples.clear()
        ladder.note_events(0, now=4.0)
        ladder.note_events(10, now=5.0)
        assert ladder.maybe_transition(now=5.0) == ("sampled", "full")

    def test_transitions_counted_in_obs_and_snapshot(self):
        with obs.session(tracing=False) as handle:
            ladder = DegradationLadder(100.0, dwell=0.0)
            ladder.note_events(0, now=0.0)
            ladder.note_events(1000, now=1.0)
            ladder.maybe_transition(now=1.0)
        counters = handle.registry.snapshot()["counters"]
        assert counters["serve.ladder.full_to_sampled"] == 1
        snap = ladder.snapshot()
        assert snap["level"] == "sampled"
        assert snap["transitions"] == [
            {"ts": pytest.approx(1.0, abs=0.001),
             "from": "full", "to": "sampled"}]

    def test_levels_vocabulary(self):
        assert LEVELS == ("full", "sampled", "paused")

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            DegradationLadder(-1.0)
        with pytest.raises(ValueError):
            DegradationLadder(100.0, recover_fraction=1.5)


class TestAnalysisBreaker:
    def test_opens_at_threshold_once(self):
        breaker = AnalysisBreaker(threshold=2)
        assert breaker.record_failure("svd") is False
        assert breaker.record_failure("svd") is True    # opens now
        assert breaker.record_failure("svd") is False   # already open
        assert breaker.open == ["svd"]
        assert breaker.filter(["svd", "frd"]) == ["frd"]

    def test_counts_per_analysis(self):
        breaker = AnalysisBreaker(threshold=3)
        for _ in range(2):
            breaker.record_failure("svd")
            breaker.record_failure("frd")
        assert breaker.open == []
        assert breaker.snapshot()["failures"] == {"frd": 2, "svd": 2}

    def test_obs_counters(self):
        with obs.session(tracing=False) as handle:
            breaker = AnalysisBreaker(threshold=1)
            breaker.record_failure("svd")
        counters = handle.registry.snapshot()["counters"]
        assert counters["serve.breaker.failure"] == 1
        assert counters["serve.breaker.opened"] == 1


def _fresh_machine(workload, seed=7):
    return workload.make_machine(
        RandomScheduler(seed=seed, switch_prob=0.3))


class TestMachineDrive:
    """The incremental drive must be indistinguishable from
    ``run_machine`` -- same seed, same reports, same status."""

    @pytest.mark.parametrize("name", ["apache", "txn-bank"])
    @pytest.mark.parametrize("chunk", [1, 64, 100000])
    def test_differential_vs_run_machine(self, name, chunk):
        workload = WORKLOADS[name]()
        reference = DetectorEngine(workload.program, ["svd"]).run_machine(
            _fresh_machine(workload), max_steps=3000)
        drive = DetectorEngine(workload.program, ["svd"]).drive_machine(
            _fresh_machine(workload), max_steps=3000)
        while drive.advance(chunk):
            pass
        result = drive.finish()
        assert result.status == reference.status
        assert result.end_seq == reference.end_seq
        assert (len(result.reports["svd"].violations)
                == len(reference.reports["svd"].violations))

    def test_finish_without_advance_runs_everything(self):
        workload = WORKLOADS["apache"]()
        reference = DetectorEngine(workload.program, ["svd"]).run_machine(
            _fresh_machine(workload), max_steps=2000)
        drive = DetectorEngine(workload.program, ["svd"]).drive_machine(
            _fresh_machine(workload), max_steps=2000)
        result = drive.finish()
        assert result.end_seq == reference.end_seq

    def test_abort_reports_partial_truthfully(self):
        workload = WORKLOADS["apache"]()
        drive = DetectorEngine(workload.program, ["svd"]).drive_machine(
            _fresh_machine(workload), max_steps=5000)
        drive.advance(500)
        result = drive.abort("deadline")
        assert result.status == "aborted:deadline"
        assert 0 < result.end_seq <= drive.machine.seq
        assert "svd" in result.reports

    def test_finalizes_only_once(self):
        from repro.engine import EngineError
        workload = WORKLOADS["apache"]()
        drive = DetectorEngine(workload.program, ["svd"]).drive_machine(
            _fresh_machine(workload), max_steps=500)
        drive.finish()
        with pytest.raises(EngineError):
            drive.abort("again")


class TestStatusServer:
    def test_routes_and_errors(self):
        server = StatusServer(port=0)
        server.route("/status", lambda: {"answer": 42})
        server.route("/boom", lambda: 1 / 0)
        server.start()
        try:
            base = f"http://127.0.0.1:{server.port}"

            def get(path):
                try:
                    with urllib.request.urlopen(base + path) as resp:
                        return resp.status, json.load(resp)
                except urllib.error.HTTPError as err:
                    return err.code, json.load(err)

            assert get("/healthz") == (200, {"ok": True})
            assert get("/status") == (200, {"answer": 42})
            assert get("/status/") == (200, {"answer": 42})
            code, body = get("/nope")
            assert code == 404 and "/status" in body["routes"]
            code, body = get("/boom")
            assert code == 500 and "ZeroDivisionError" in body["error"]
        finally:
            server.stop()


class TestSupervisorSmall:
    def test_clean_fleet_completes_and_reports(self):
        hb = ServeHeartbeat(total=4, stream=io.StringIO())
        config = ServeConfig(workloads=("apache",), executions=4,
                             concurrency=2, max_steps=2000, chunk=500,
                             heartbeat=hb)
        supervisor = Supervisor(config)
        outcome = supervisor.run()
        assert outcome in ("ok", "violations")
        totals = supervisor.totals
        assert totals.launched == totals.completed == 4
        assert totals.failed == 0
        final = hb.summary()
        assert final["final"] is True
        assert final["completed"] == 4
        assert "interrupted" not in final
        assert final["level"] == "full"

    def test_per_execution_seeds_are_deterministic(self):
        def run():
            supervisor = Supervisor(ServeConfig(
                workloads=("apache",), executions=3, concurrency=3,
                max_steps=1500))
            supervisor.run()
            return [(e.seed, e.events, e.violations)
                    for _, e in sorted(supervisor.execs.items())]
        assert run() == run()

    def test_http_endpoint_serves_fleet_snapshot(self, tmp_path):
        port_file = tmp_path / "port"
        config = ServeConfig(workloads=("apache",), executions=2,
                             concurrency=1, max_steps=1500,
                             http_port=0, port_file=str(port_file))
        supervisor = Supervisor(config)
        outcome = supervisor.run()
        assert outcome in ("ok", "violations")
        # the endpoint is down after run(); the port file proves it was
        # bound, and the snapshot functions still work in-process
        assert port_file.read_text().strip().isdigit()
        snap = supervisor.status_snapshot()
        assert snap["totals"]["completed"] == 2
        assert snap["ladder"]["level"] == "full"
        assert snap["draining"] is False

    def test_shutdown_before_launch_interrupts_truthfully(self):
        supervisor = Supervisor(ServeConfig(
            workloads=("apache",), executions=5, concurrency=1,
            max_steps=1500))
        supervisor.request_shutdown("test")
        outcome = supervisor.run()
        assert outcome == "interrupted"
        assert supervisor.totals.launched == 0

    def test_rejects_unknown_workload(self):
        with pytest.raises(ValueError):
            ServeConfig(workloads=("nonesuch",))

    @pytest.mark.parametrize("bad", [
        ["--port-file", "port"],  # --port-file without --http-port
        ["--concurrency", "0"],   # rejected by ServeConfig
    ])
    def test_cli_usage_error_leaves_no_heartbeat_file(self, tmp_path,
                                                      monkeypatch, bad):
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        assert main(["serve", "--workloads", "apache", "--executions",
                     "1", "--heartbeat-out", "hb.jsonl", *bad]) == 2
        assert list(tmp_path.iterdir()) == []

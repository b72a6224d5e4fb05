"""The pool parent wakes on events, not on a fixed nap: it reacts the
moment a worker delivers a result or exits, and it checks task
deadlines on every wake-up -- also while results keep streaming in."""

import time

import repro.faults as faults
import repro.harness.pool as pool
from repro.faults import Fault, FaultPlan
from repro.harness.pool import parallel_map


def short_sleep(payload):
    time.sleep(0.02)
    return payload


def no_op(payload):
    return payload


class TestWakeup:
    def test_timeout_fires_while_results_stream(self):
        # task 0 hangs; the other 119 take 20 ms each, so the second
        # worker keeps the result queue busy the whole run.  The hung
        # task's deadline must still be enforced promptly, not only
        # once everything else has finished.
        order = []
        plan = FaultPlan([Fault("worker.hang", at=0)])
        with faults.install(plan):
            outcomes = parallel_map(
                short_sleep, list(range(120)), workers=2, timeout=0.5,
                on_outcome=lambda index, outcome: order.append(index))
        assert outcomes[0][0] == "timeout"
        assert all(status == "ok" for status, _ in outcomes[1:])
        assert order.index(0) < len(order) // 2

    def test_workers_do_not_wait_for_the_poll_interval(self, monkeypatch):
        # the poll interval is only an upper bound on the parent's
        # sleep: a nap-paced loop would need >= 10 s here
        monkeypatch.setattr(pool, "_POLL_SECONDS", 2.0)
        started = time.perf_counter()
        outcomes = parallel_map(no_op, list(range(24)), workers=2)
        elapsed = time.perf_counter() - started
        assert outcomes == [("ok", index) for index in range(24)]
        assert elapsed < 2.0

"""Serving-layer resilience: deadlines, cancellation, circuit breakers,
bounded shutdown, client-side timeouts, and the conservation identity
(every submitted request lands in exactly one outcome bucket)."""

import threading
import time

import pytest

from repro.serve import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    Request,
    Scheduler,
    Server,
    WorkerPool,
    replay,
    run_serial,
    synth_trace,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, BreakerBoard


class FakeClock:
    """Steppable monotonic clock so breaker tests never sleep."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def _open_breaker(self, breaker):
        for _ in range(breaker.threshold):
            breaker.record(ok=False)
        assert breaker.state == OPEN

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)

    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(threshold=3, clock=FakeClock())
        breaker.record(ok=False)
        breaker.record(ok=False)
        assert breaker.state == CLOSED
        assert breaker.allow() == (True, 0.0)

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.record(ok=False)
        breaker.record(ok=True)
        for _ in range(2):
            breaker.record(ok=False)
        assert breaker.state == CLOSED

    def test_opens_at_threshold_and_sheds_with_retry_after(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, cooldown_s=0.5, clock=clock)
        self._open_breaker(breaker)
        allowed, retry_after = breaker.allow()
        assert not allowed
        assert retry_after == pytest.approx(0.5)
        clock.advance(0.2)
        allowed, retry_after = breaker.allow()
        assert not allowed
        assert retry_after == pytest.approx(0.3)
        assert breaker.counters()["rejected"] == 2
        assert breaker.counters()["opened"] == 1

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=0.5, clock=clock)
        self._open_breaker(breaker)
        clock.advance(0.6)
        assert breaker.state == HALF_OPEN
        assert breaker.allow() == (True, 0.0)  # the probe
        allowed, retry_after = breaker.allow()  # single-flight
        assert not allowed
        assert retry_after == pytest.approx(0.5)
        assert breaker.counters()["probes"] == 1

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=0.5, clock=clock)
        self._open_breaker(breaker)
        clock.advance(0.6)
        assert breaker.allow()[0]
        breaker.record(ok=True)
        assert breaker.state == CLOSED
        assert breaker.allow() == (True, 0.0)

    def test_probe_failure_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown_s=0.5, clock=clock)
        for _ in range(3):
            breaker.record(ok=False)
        clock.advance(0.6)
        assert breaker.allow()[0]
        breaker.record(ok=False)  # probe failed: reopen immediately,
        assert breaker.state == OPEN  # even though 4 < a fresh threshold run
        assert breaker.counters()["opened"] == 2
        assert not breaker.allow()[0]

    def test_straggler_failure_does_not_restart_the_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=0.5, clock=clock)
        self._open_breaker(breaker)
        clock.advance(0.3)
        # A request admitted before the trip finishes late and fails.
        breaker.record(ok=False)
        clock.advance(0.25)  # 0.55 since the trip, 0.25 since straggler
        assert breaker.state == HALF_OPEN
        assert breaker.counters()["opened"] == 1


class TestBreakerBoard:
    def test_workloads_are_isolated(self):
        board = BreakerBoard(threshold=2, clock=FakeClock())
        board.record("bad", ok=False)
        board.record("bad", ok=False)
        allowed, retry_after = board.allow("bad")
        assert not allowed
        assert retry_after > 0
        assert board.allow("good") == (True, 0.0)
        snapshot = board.snapshot()
        assert snapshot["bad"]["state"] == OPEN
        assert "good" in snapshot and snapshot["good"]["state"] == CLOSED

    def test_threshold_zero_disables_the_board(self):
        board = BreakerBoard(threshold=0)
        assert not board.enabled
        for _ in range(10):
            board.record("w", ok=False)
        assert board.allow("w") == (True, 0.0)
        assert board.counters()["workloads"] == 0

    def test_flat_counters_aggregate_across_workloads(self):
        clock = FakeClock()
        board = BreakerBoard(threshold=1, cooldown_s=0.5, clock=clock)
        board.record("a", ok=False)
        board.record("b", ok=False)
        board.allow("a")
        counters = board.counters()
        assert counters["workloads"] == 2
        assert counters["open"] == 2
        assert counters["opened"] == 2
        assert counters["rejected"] == 1
        clock.advance(0.6)
        assert board.counters()["half_open"] == 2


class TestDeadlines:
    def test_spent_deadline_is_rejected_at_admission(self):
        server = Server(workers=1)
        for deadline in (0.0, -1.0):
            with pytest.raises(DeadlineExceededError):
                server.submit(
                    Request(workload="MobileRobot", deadline_s=deadline)
                )
        counters = server._serve_counters()
        assert counters["submitted"] == 2
        assert counters["expired"] == 2
        assert counters["outstanding"] == 0

    def test_queued_expiry_and_cancellation_never_execute(self):
        # Submit before starting the workers: both tickets sit in the
        # queue deterministically while we expire one and cancel the
        # other.
        server = Server(workers=1, queue_capacity=8)
        doomed = server.submit(
            Request(workload="MobileRobot", steps=1, deadline_s=0.02)
        )
        cancelled = server.submit(Request(workload="MobileRobot", steps=1))
        assert cancelled.cancel() is True
        time.sleep(0.05)  # let the deadline lapse in the queue
        with server:
            assert server.drain(timeout=30.0)

        expired_response = doomed.wait(timeout=5.0)
        assert not expired_response.ok
        assert expired_response.error_kind == "DeadlineExceededError"
        assert not expired_response.outputs  # never executed
        assert doomed.metrics.outcome == "expired"

        cancelled_response = cancelled.wait(timeout=5.0)
        assert cancelled_response.error_kind == "CancelledError"
        assert not cancelled_response.outputs
        assert cancelled.metrics.outcome == "cancelled"
        assert cancelled.cancel() is False  # too late: already answered

        report = server.report()
        assert report.expired == 1
        assert report.cancelled == 1
        assert report.completed == 0
        assert report.conservation_ok, report.to_dict()
        # Expiry and cancellation say nothing about workload health.
        assert report.breakers.get("MobileRobot", {}).get("opened", 0) == 0

    def test_deadline_checked_again_after_compile_and_plan(self):
        # Drive the request body directly with a deadline that is
        # already spent: compile and plan run, execute must not.
        server = Server(workers=1)
        request = Request(workload="MobileRobot", steps=1, deadline_s=5.0)
        outcome = server.executor.serve(
            request, deadline_at=time.perf_counter() - 1.0
        )
        assert outcome.error_kind == "DeadlineExceededError"
        assert "refusing to execute" in outcome.error
        assert not outcome.outputs
        assert outcome.compile_seconds > 0  # compile did happen
        assert outcome.execute_seconds == 0

    def test_cancellation_checked_again_after_compile_and_plan(self):
        server = Server(workers=1)
        request = Request(workload="MobileRobot", steps=1)
        outcome = server.executor.serve(request, cancelled=lambda: True)
        assert outcome.error_kind == "CancelledError"
        assert not outcome.outputs
        assert outcome.plan_provenance == "built"  # plan did happen

    @pytest.mark.parametrize("guard", [
        {"deadline_at": 0.0}, {"cancelled": lambda: True},
    ])
    def test_session_step_guard_pins_the_plan_but_never_advances(self, guard):
        # The same body serves session steps: a first step stopped by
        # the guard has compiled and pinned, and the retry starts at
        # step 0 with nothing left to look up.
        server = Server(workers=1)
        session = server.open_session("MobileRobot")
        request = Request(workload="MobileRobot", steps=1, deadline_s=5.0)
        stopped = server.executor.serve(request, session=session, **guard)
        assert stopped.error_kind in ("DeadlineExceededError", "CancelledError")
        assert session.config.plan is not None and session.steps_done == 0
        assert session.trajectory.previous is None

        retry = server.executor.serve(request, session=session)
        assert retry.error is None
        assert retry.compile_provenance == retry.plan_provenance == "session"
        assert session.steps_done == 1
        (reference,) = run_serial([Request(workload="MobileRobot", steps=1)])[0]
        assert retry.signature == reference.signature


class TestServerBreaker:
    def test_failing_workload_opens_the_breaker(self):
        server = Server(workers=1, breaker_threshold=2)
        with server:
            for _ in range(2):
                response = server.request(
                    Request(workload="no-such-workload"), timeout=30.0
                )
                assert not response.ok
            with pytest.raises(CircuitOpenError) as excinfo:
                server.submit(Request(workload="no-such-workload"))
            assert excinfo.value.retry_after > 0
            # Other workloads are untouched by the open breaker.
            healthy = server.request(
                Request(workload="MobileRobot"), timeout=60.0
            )
            assert healthy.ok
        report = server.report()
        assert report.failed == 2
        assert report.breaker_rejected == 1
        assert report.completed == 1
        assert report.conservation_ok, report.to_dict()
        assert report.breakers["no-such-workload"]["state"] == OPEN
        assert report.breakers["no-such-workload"]["opened"] == 1
        registry = server.metrics_registry()
        snapshot = registry.snapshot()
        assert snapshot["breaker.opened"] == 1
        assert snapshot["serve.breaker_rejected"] == 1

    def test_breaker_recloses_after_successful_probe(self):
        server = Server(
            workers=1, breaker_threshold=1, breaker_cooldown_s=0.05
        )
        with server:
            bad = server.request(
                Request(workload="no-such-workload"), timeout=30.0
            )
            assert not bad.ok
            breaker = server.breakers.breaker("no-such-workload")
            assert breaker.state == OPEN
            time.sleep(0.06)
            assert breaker.state == HALF_OPEN
            # The probe: feed it a success the way the server would.
            allowed, _ = server.breakers.allow("no-such-workload")
            assert allowed
            server.breakers.record("no-such-workload", ok=True)
            assert breaker.state == CLOSED


class TestWorkerPoolJoin:
    def test_join_timeout_is_shared_across_threads(self):
        scheduler = Scheduler(capacity=16)
        release = threading.Event()

        def handler(entry, worker_name):
            release.wait(10.0)

        pool = WorkerPool(scheduler, handler, workers=4).start()
        try:
            for _ in range(4):
                scheduler.submit(1, object())
            deadline = time.monotonic() + 5.0
            while pool.alive < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            scheduler.close()
            started = time.monotonic()
            assert pool.join(timeout=0.4) is False
            elapsed = time.monotonic() - started
            # Per-thread timeouts would block ~4 x 0.4 s; the shared
            # deadline returns in ~0.4 s.
            assert elapsed < 1.2, f"join took {elapsed:.2f}s"
        finally:
            release.set()
        assert pool.join(timeout=10.0) is True


class TestReplayResilience:
    def test_wait_timeout_is_counted_as_timed_out(self):
        # A cold FFT-8192 compile takes far longer than a 1 ms client
        # timeout, so the wait always gives up first.
        server = Server(workers=1)
        with server:
            responses, _ = replay(
                server,
                [Request(workload="FFT-8192", steps=1)],
                timeout=0.001,
            )
        assert responses == [None]
        report = server.report()
        assert report.timed_out == 1
        assert report.completed == 0
        assert report.conservation_ok, report.to_dict()
        assert report.requests[0].outcome == "timed_out"

    def test_conservation_under_deadlines_faults_and_backpressure(self):
        trace = synth_trace(
            requests=12,
            seed=3,
            max_steps=2,
            deadline_s=60.0,
            fault_rate=0.4,
        )
        assert any(request.inject for request in trace)
        server = Server(workers=2, queue_capacity=4, breaker_threshold=3)
        with server:
            responses, retries = replay(server, trace)
        report = server.report()
        assert report.conservation_ok, report.to_dict()
        # Backpressure resubmissions are themselves submissions; each
        # rejected attempt occupies the `rejected` bucket.
        assert report.submitted == len(trace) + retries
        assert report.rejected == retries
        assert report.completed == len(trace)
        for response in responses:
            assert response is not None and response.ok
        assert "accounting ok" in report.render()

    def test_report_flags_conservation_violation(self):
        server = Server(workers=1)
        with server:
            assert server.request(
                Request(workload="MobileRobot"), timeout=60.0
            ).ok
        report = server.report()
        assert report.conservation_ok
        report.submitted += 1  # simulate a lost request
        assert not report.conservation_ok
        assert "VIOLATED" in report.render()

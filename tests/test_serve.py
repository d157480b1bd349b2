"""Concurrency suite for the repro.serve subsystem.

The contracts under test:

* identical concurrent requests coalesce into a single compile and a
  single plan build (counter-based, not timing-based),
* a concurrent run is bit-identical to a serial replay of the same trace,
* queue overflow surfaces as explicit backpressure (``QueueFullError``
  with a positive ``retry_after``), never as blocking or silent loss,
* a crashing request yields an error response without poisoning the
  worker pool,
* dispatch honours priority (high before normal before low), FIFO
  within a level,
* disk-cache writes are atomic (temp-file + ``os.replace``) and degrade
  to memory-only on disk failure.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.driver.cache import COMPILE, ArtifactCache, fingerprint
from repro.errors import QueueFullError
from repro.serve import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    Request,
    Scheduler,
    Server,
    percentile,
    replay,
    run_serial,
    synth_trace,
)


# ---------------------------------------------------------------------------
# Coalescing: N identical concurrent requests, one compile, one plan.
# ---------------------------------------------------------------------------


def test_identical_concurrent_requests_coalesce():
    requests = [Request(workload="MobileRobot", steps=2) for _ in range(8)]
    with Server(workers=4, queue_capacity=16) as server:
        tickets = [server.submit(request) for request in requests]
        responses = [ticket.wait(timeout=120) for ticket in tickets]
    report = server.report()

    assert all(response.ok for response in responses)
    signatures = {response.signature for response in responses}
    assert len(signatures) == 1

    # Exactly one worker ran the compile stages; every other request was
    # served from the artifact cache or coalesced onto the in-flight
    # compile. Same for planning.
    compile_counts = report.provenance["compile"]
    assert compile_counts.get("built", 0) == 1
    assert sum(compile_counts.values()) == len(requests)
    plan_counts = report.provenance["plan"]
    assert plan_counts.get("built", 0) == 1
    assert sum(plan_counts.values()) == len(requests)

    # The hard, counter-based form of the same claim.
    assert report.distinct_configs == 1
    assert report.plans_built == report.expected_plans
    assert report.statements_planned == report.expected_statements
    assert report.plan_reuse_ok
    assert report.completed == len(requests)
    assert report.failed == 0


@pytest.mark.parametrize("name", ["FFT-8192", "MobileRobot"])
def test_concurrent_codegen_plans_build_one_kernel(name):
    """Exactly-one-build holds for every tier: N threads asking for the
    same kernel-backed plan on a fresh session build one plan *and one
    kernel* — the kernel tier used to have no single-flight at all."""
    import threading

    from repro.codegen import CODEGEN_STATS
    from repro.driver import CompilerSession
    from repro.targets import default_accelerators
    from repro.workloads import get_workload

    workload = get_workload(name)
    session = CompilerSession(default_accelerators())
    app = session.compile(
        workload.source(), domain=workload.domain, data_hints=workload.hints()
    )
    threads = 4
    barrier = threading.Barrier(threads, timeout=30.0)
    plans, errors = [], []

    def ask():
        try:
            barrier.wait()
            plans.append(session.plan_for(app, codegen=True))
        except BaseException as exc:  # surfaced below, not lost in a thread
            errors.append(exc)

    built_before = CODEGEN_STATS.kernels_built
    workers = [threading.Thread(target=ask) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)

    assert not any(worker.is_alive() for worker in workers)
    assert not errors and len(plans) == threads
    assert CODEGEN_STATS.kernels_built - built_before == 1
    assert session.cache.stats.kernel_stores == 1
    assert session.plan_stats.graphs_planned == 1
    assert plans[0].kernel is not None
    assert all(plan.kernel is plans[0].kernel for plan in plans)


def test_first_touch_of_a_config_builds_everything_once():
    """Eight requests released together onto a config a fresh executor
    has never seen: one compile, one plan, one kernel, one config object,
    eight bit-identical outcomes."""
    import collections
    import sys
    import threading

    from repro.codegen import CODEGEN_STATS
    from repro.driver import CompilerSession
    from repro.serve.executor import LocalExecutor

    executor = LocalExecutor(CompilerSession())
    threads = 8
    barrier = threading.Barrier(threads, timeout=30.0)
    outcomes = []

    def ask():
        barrier.wait()
        outcomes.append(executor.serve(Request("Hexacopter", steps=2)))

    built_before = CODEGEN_STATS.kernels_built
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=ask) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)

    assert not any(worker.is_alive() for worker in workers)
    assert len(outcomes) == threads
    assert [outcome.error for outcome in outcomes] == [None] * threads
    assert len({outcome.signature for outcome in outcomes}) == 1
    for phase in ("compile_provenance", "plan_provenance"):
        counts = collections.Counter(getattr(o, phase) for o in outcomes)
        assert counts["built"] == 1, (phase, counts)
        assert counts["coalesced"] + counts["cache"] == threads - 1, counts
    assert CODEGEN_STATS.kernels_built - built_before == 1
    assert executor.session.cache.stats.kernel_stores == 1
    assert executor.session.plan_stats.graphs_planned == 1
    (config,) = executor._configs.values()
    assert executor.configs() == {config.key}
    assert config.plan.kernel is not None


@pytest.mark.parametrize("through", ["one-shot", "session"])
def test_warm_path_is_flat(through):
    """Once a config is bound, a request of it — one-shot or session
    step — touches no compiler surface: no stage record, no cache or
    plan counter, no new config, however many requests follow."""
    names = ("MobileRobot", "Hexacopter", "OptionPricing")
    rounds = 34  # x 3 configs: 102 warm requests

    with Server(workers=2) as server:
        for name in names:
            assert server.request(Request(name)).ok

        def compiler_counts():
            counts = server.metrics_registry().snapshot()
            return {
                key: value for key, value in counts.items()
                if key.startswith(("cache.", "plan.", "session."))
            }

        records, counts = len(server.session.records), compiler_counts()
        # What each reply must equal: step k of a session is the last of
        # a (k + 1)-step one-shot request.
        session_mode = through == "session"
        twins = [
            Request(name, steps=index + 1 if session_mode else 2)
            for index in range(rounds) for name in names
        ]
        if session_mode:
            sessions = {name: server.open_session(name) for name in names}
            replies = [sessions[twin.workload].step() for twin in twins]
        else:
            replies = [server.request(twin) for twin in twins]
        assert len(server.session.records) == records
        assert compiler_counts() == counts
        assert len(server.executor._configs) == len(names)

    references, _ = run_serial(twins)
    assert len(replies) >= 100
    for reply, reference in zip(replies, references):
        assert reply.ok and reference.ok
        assert reply.signature == reference.signature
        assert reply.metrics.compile_seconds == reply.metrics.plan_seconds == 0
    assert {reply.metrics.plan_provenance for reply in replies} == {
        "session" if session_mode else "cache"
    }


def test_finished_response_is_collectable_once_the_client_drops_it():
    """The server keeps a finished request's metrics, never its ticket
    or its response arrays."""
    import gc
    import weakref

    with Server(workers=1) as server:
        response = server.request(Request("MobileRobot"))
        assert response.ok and response.outputs
        dropped = weakref.ref(response)
        del response
        # The idle worker still holds the ticket it last ran; the next
        # request replaces it.
        kept = server.request(Request("MobileRobot"))
        gc.collect()
        assert dropped() is None
        assert kept.ok
    report = server.report()
    assert len(report.requests) == report.completed == 2
    assert report.provenance["execute"] == {"kernel": 2}
    assert report.conservation_ok


#: The nine (workload, f64, default dims) configs of the ledger's serve-*
#: workloads.
LEDGER_SERVE_CONFIGS = (
    "MobileRobot", "Hexacopter", "OptionPricing", "ElecUse", "FFT-8192",
    "MovieL-100K", "ResNet-18", "BrainStimul", "MobileNet",
)


@pytest.fixture(scope="module")
def interpreted_signatures(tmp_path_factory):
    """Two trajectory steps of each ledger serve config on a kernel-less
    plan — a reference no serving code (all of it kernel-tier, the serial
    baseline included) takes part in — and the cache directory holding
    the compiles."""
    from repro.driver import CompilerSession
    from repro.serve import result_signature
    from repro.workloads import Trajectory, get_workload

    cache_dir = str(tmp_path_factory.mktemp("ledger-serve-cache"))
    session = CompilerSession(cache_dir=cache_dir)
    signatures = {}
    for name in LEDGER_SERVE_CONFIGS:
        workload = get_workload(name)
        app, _ = session.compile_workload(workload)
        plan = session.plan_for(app)
        assert plan.kernel is None
        trajectory = Trajectory(workload)
        for _ in range(2):
            result = trajectory.step(plan.execute)
        assert result.tier == "interpreted"
        signatures[name] = result_signature(result.outputs)
    return cache_dir, signatures


@pytest.mark.parametrize("pool", ["thread", "process"])
def test_served_replies_match_the_interpreted_plan(interpreted_signatures, pool):
    """Every ledger serve config is answered by its generated kernel, in
    both pools, bit-identically to the interpreted plan."""
    cache_dir, expected = interpreted_signatures
    with Server(workers=2, queue_capacity=16, cache_dir=cache_dir,
                pool=pool) as server:
        fallbacks = server.metrics_registry().snapshot()[
            "codegen.kernel_fallbacks"
        ]
        tickets = [
            server.submit(Request(workload=name, steps=2))
            for name in LEDGER_SERVE_CONFIGS
        ]
        responses = [ticket.wait(timeout=120) for ticket in tickets]
    assert all(response.ok for response in responses)
    assert {
        response.request.workload: response.signature
        for response in responses
    } == expected
    assert server.report().provenance_counts("execute") == {
        "kernel": len(LEDGER_SERVE_CONFIGS)
    }
    snapshot = server.metrics_registry().snapshot()
    assert snapshot["codegen.kernel_fallbacks"] == fallbacks


def test_execute_provenance_names_what_ran(monkeypatch):
    """A kernel that fails at run time is a ``fallback``, a fault-injecting
    request is whatever its HostManager run executed, and a plan the
    emitter declined is ``interpreted`` — never ``kernel`` because a
    kernel merely exists."""
    from repro.codegen import KernelArtifact

    with Server(workers=1, queue_capacity=4) as server:
        assert server.request(Request(workload="MobileRobot")).ok

        def broken(self, *args, **kwargs):
            raise RuntimeError("kernel bug")

        monkeypatch.setattr(KernelArtifact, "run", broken)
        fallback = server.request(Request(workload="MobileRobot", steps=2))
        monkeypatch.undo()
        injected = server.request(
            Request(workload="MobileRobot", inject=("transient",))
        )
        monkeypatch.setattr(
            "repro.driver.session.build_kernel", lambda *args, **kwargs: None
        )
        declined = server.request(Request(workload="Hexacopter"))
    assert fallback.ok and injected.ok and declined.ok
    assert fallback.metrics.kernel_provenance == "fallback"
    assert declined.metrics.kernel_provenance == "interpreted"
    counts = server.report().provenance_counts("execute")
    assert counts["kernel"] >= 1 and counts["fallback"] == 1
    assert sum(counts.values()) == 4
    assert "1 fallback" in server.report().render()


def test_concurrent_run_bit_identical_to_serial():
    trace = synth_trace(
        requests=10,
        workloads=("MobileRobot", "FFT-8192"),
        seed=3,
        max_steps=3,
    )
    server = Server(workers=4, queue_capacity=32)
    with server:
        concurrent, retries = replay(server, trace)
    # Snapshot before the serial replay (the report is scoped to this
    # server's session, so the serial baseline's plan builds stay out).
    report = server.report()
    serial, _ = run_serial(trace)

    assert retries == 0
    assert len(concurrent) == len(serial) == len(trace)
    for conc, ref in zip(concurrent, serial):
        assert conc.ok and ref.ok
        assert conc.signature is not None
        assert conc.signature == ref.signature
    assert report.plan_reuse_ok


# ---------------------------------------------------------------------------
# Backpressure.
# ---------------------------------------------------------------------------


def test_queue_overflow_raises_backpressure_error():
    # Not started: nothing drains the queue, so capacity is exact.
    server = Server(workers=1, queue_capacity=2)
    first = server.submit(Request(workload="MobileRobot"))
    second = server.submit(Request(workload="MobileRobot"))

    with pytest.raises(QueueFullError) as excinfo:
        server.submit(Request(workload="MobileRobot"))
    assert excinfo.value.retry_after > 0

    # The rejected request left no residue; admitted ones still complete.
    server.start()
    assert server.drain(timeout=120)
    server.close()
    assert first.wait(timeout=1).ok
    assert second.wait(timeout=1).ok
    report = server.report()
    assert report.rejected == 1
    assert report.completed == 2
    assert report.queue_peak == 2


def test_submit_after_close_is_rejected():
    server = Server(workers=1, queue_capacity=4)
    server.start()
    server.close()
    with pytest.raises(QueueFullError):
        server.submit(Request(workload="MobileRobot"))


# ---------------------------------------------------------------------------
# Fault isolation: a crashing request must not poison the pool.
# ---------------------------------------------------------------------------


def test_crashing_request_does_not_poison_pool():
    with Server(workers=2, queue_capacity=8) as server:
        bad = server.request(Request(workload="no-such-workload"), timeout=60)
        assert not bad.ok
        assert bad.error and "no-such-workload" in bad.error
        assert bad.error_kind == "WorkloadError"
        # Both workers survived and the next request is served normally.
        assert server.pool.alive == 2
        good = server.request(Request(workload="MobileRobot"), timeout=120)
        assert good.ok and good.signature is not None
    assert server.pool.handler_faults == 0
    report = server.report()
    assert report.completed == 1
    assert report.failed == 1


# ---------------------------------------------------------------------------
# Priority scheduling.
# ---------------------------------------------------------------------------


def test_scheduler_orders_by_priority_then_fifo():
    scheduler = Scheduler(capacity=8)
    scheduler.submit(PRIORITY_LOW, "low-0")
    scheduler.submit(PRIORITY_NORMAL, "normal-0")
    scheduler.submit(PRIORITY_HIGH, "high-0")
    scheduler.submit(PRIORITY_NORMAL, "normal-1")
    scheduler.submit(PRIORITY_HIGH, "high-1")
    order = [scheduler.next(timeout=0.1) for _ in range(5)]
    assert order == ["high-0", "high-1", "normal-0", "normal-1", "low-0"]
    scheduler.close()
    assert scheduler.next(timeout=0.1) is None


def test_server_dispatches_by_priority():
    # Queue everything before starting the single worker, so dispatch
    # order is purely the scheduler's.
    server = Server(workers=1, queue_capacity=8)
    low = server.submit(Request(workload="MobileRobot", priority=PRIORITY_LOW))
    normal = server.submit(Request(workload="MobileRobot"))
    high = server.submit(Request(workload="MobileRobot", priority=PRIORITY_HIGH))
    server.start()
    assert server.drain(timeout=120)
    server.close()
    started = [ticket.metrics.started_at for ticket in (high, normal, low)]
    assert started == sorted(started)


# ---------------------------------------------------------------------------
# Atomic disk-cache writes.
# ---------------------------------------------------------------------------


def test_disk_writes_are_atomic_and_leave_no_temp_files(tmp_path):
    cache = ArtifactCache(cache_dir=str(tmp_path))
    key = fingerprint("artifact-v1")
    assert cache.put(COMPILE, key, {"payload": 1})
    entries = sorted(p.name for p in tmp_path.iterdir())
    assert entries == [f"{key}.pkl"]  # no .tmp residue
    with open(tmp_path / f"{key}.pkl", "rb") as handle:
        assert pickle.load(handle) == {"payload": 1}


def test_failed_disk_write_preserves_old_entry(tmp_path, monkeypatch):
    cache = ArtifactCache(cache_dir=str(tmp_path))
    key = fingerprint("artifact-v1")
    cache.put(COMPILE, key, {"version": 1})

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", broken_replace)
    # The put still succeeds (memory tier), the disk tier degrades, and
    # the published on-disk entry is the intact old version.
    assert cache.put(COMPILE, key, {"version": 2})
    assert cache.stats.disk_errors == 1
    monkeypatch.undo()

    assert cache.get(COMPILE, key) == {"version": 2}  # memory tier has the new value
    with open(tmp_path / f"{key}.pkl", "rb") as handle:
        assert pickle.load(handle) == {"version": 1}
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


# ---------------------------------------------------------------------------
# Metrics plumbing.
# ---------------------------------------------------------------------------


def test_percentile_nearest_rank():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.5) == 20.0
    assert percentile(values, 0.95) == 40.0
    assert percentile([], 0.5) == 0.0


def test_report_serialises_to_json_compatible_dict():
    trace = synth_trace(requests=4, workloads=("MobileRobot",), seed=1)
    with Server(workers=2, queue_capacity=8) as server:
        replay(server, trace)
    payload = server.report().to_dict()
    assert payload["completed"] == 4
    assert payload["plan_reuse"]["ok"] is True
    assert payload["throughput_rps"] > 0
    assert len(payload["requests"]) == 4
    for entry in payload["requests"]:
        assert entry["compile_provenance"] in ("built", "cache", "coalesced")
        assert entry["queue_seconds"] >= 0


# ---------------------------------------------------------------------------
# Scheduler concurrency: the estimator runs outside the lock, estimator
# failures are counted rather than swallowed, and close() is safe to race
# against submitters and poppers.
# ---------------------------------------------------------------------------


def test_retry_after_estimator_runs_outside_scheduler_lock():
    scheduler = Scheduler(capacity=1)
    scheduler.submit(PRIORITY_NORMAL, "occupant")

    observed = {}

    def estimator(depth):
        # Deterministic proof (not timing-based): if submit() still held
        # the non-reentrant scheduler lock while calling us, both of
        # these would deadlock — acquire() would never succeed and
        # len() blocks on the same lock.
        acquired = scheduler._lock.acquire(timeout=1.0)
        observed["lock_free"] = acquired
        if acquired:
            scheduler._lock.release()
        observed["depth_via_len"] = len(scheduler)
        return 2.5

    scheduler.retry_after_estimator = estimator
    with pytest.raises(QueueFullError) as excinfo:
        scheduler.submit(PRIORITY_NORMAL, "rejected")
    assert observed["lock_free"] is True
    assert observed["depth_via_len"] == 1
    assert excinfo.value.retry_after == 2.5


def test_estimator_exception_is_counted_not_swallowed():
    scheduler = Scheduler(capacity=1)
    scheduler.submit(PRIORITY_NORMAL, "occupant")

    def broken(depth):
        raise RuntimeError("estimator bug")

    scheduler.retry_after_estimator = broken
    for _ in range(2):
        with pytest.raises(QueueFullError) as excinfo:
            scheduler.submit(PRIORITY_NORMAL, "rejected")
        assert excinfo.value.retry_after == 0.0

    counters = scheduler.counters()
    assert counters["estimator_errors"] == 2
    assert counters["rejected"] == 2
    assert counters["admitted"] == 1


def test_concurrent_rejections_overlap_in_the_estimator():
    import threading

    scheduler = Scheduler(capacity=1)
    scheduler.submit(PRIORITY_NORMAL, "occupant")

    # Two rejections must be able to sit in the estimator at the same
    # time. Under the old under-lock call they serialised, and this
    # barrier could never be satisfied.
    barrier = threading.Barrier(2, timeout=10.0)

    def estimator(depth):
        barrier.wait()
        return 0.5

    scheduler.retry_after_estimator = estimator
    failures = []

    def reject_one():
        try:
            with pytest.raises(QueueFullError):
                scheduler.submit(PRIORITY_NORMAL, "rejected")
        except Exception as exc:  # barrier timeout -> BrokenBarrierError
            failures.append(exc)

    threads = [threading.Thread(target=reject_one) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures
    assert scheduler.counters()["rejected"] == 2


def test_close_racing_submit_and_pop_loses_nothing():
    import threading

    scheduler = Scheduler(capacity=1024)
    submitters = 4
    per_thread = 100
    admitted = []
    rejected = []
    popped = []
    admitted_lock = threading.Lock()
    start = threading.Barrier(submitters + 2)  # + popper + closer

    def submit_many(index):
        start.wait()
        for i in range(per_thread):
            entry = f"s{index}-{i}"
            try:
                scheduler.submit(PRIORITY_NORMAL, entry)
                with admitted_lock:
                    admitted.append(entry)
            except QueueFullError:
                with admitted_lock:
                    rejected.append(entry)

    def pop_all():
        start.wait()
        while True:
            entry = scheduler.next(timeout=0.2)
            if entry is None:
                # Closed and drained (or momentarily empty pre-close):
                # only stop once the scheduler is actually closed.
                if scheduler.closed and len(scheduler) == 0:
                    return
                continue
            popped.append(entry)

    def close_midway():
        start.wait()
        scheduler.close()

    threads = [
        threading.Thread(target=submit_many, args=(i,))
        for i in range(submitters)
    ]
    threads.append(threading.Thread(target=pop_all))
    threads.append(threading.Thread(target=close_midway))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)

    # Conservation: every submission either raised or was admitted, and
    # every admitted entry was popped exactly once (close() drains).
    assert len(admitted) + len(rejected) == submitters * per_thread
    assert sorted(popped) == sorted(admitted)
    counters = scheduler.counters()
    assert counters["admitted"] == len(admitted)
    assert counters["depth"] == 0
    assert counters["estimator_errors"] == 0

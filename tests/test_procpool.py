"""Process-parallel serving suite: cross-process compile coalescing via
lease files, the process-backed worker pool, crash healing, priority
aging, and closed-scheduler rejections.

The contracts under test:

* two processes racing the same artifact key run the builder exactly
  once — the lease loser waits on the published artifact instead of
  recompiling,
* a killed lease-holder's stale lease is detected (pid probe / ttl) and
  reclaimed without deadlock or double-publish,
* process mode is bit-identical to thread mode on a mixed trace, with
  per-process counters aggregated into one truthful ServeReport,
* a worker process that dies mid-service answers its request with
  ``WorkerCrashedError``, the slot respawns, and later requests succeed,
* priority aging promotes long-waiting low-priority entries (injectable
  clock, no sleeping),
* a closed scheduler rejects with ``closed=True`` / ``retry_after=None``
  and ``loadgen.replay`` gives up instead of spinning.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import pickle
import shutil
import signal
import threading
import time

import pytest

from repro.driver import Diagnostics
from repro.driver.cache import COMPILE, ArtifactCache
from repro.driver.lease import Lease
from repro.serve import (
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    Request,
    Scheduler,
    Server,
    replay,
    result_signature,
    run_serial,
    synth_trace,
)
from repro.errors import QueueFullError, WorkerCrashedError


_FORK = multiprocessing.get_context("fork")


# ---------------------------------------------------------------------------
# Cross-process single-flight: the lease protocol on the disk tier.
# ---------------------------------------------------------------------------


def _race_build_once(cache_dir, key, barrier, marker_dir, queue):
    cache = ArtifactCache(cache_dir=str(cache_dir))

    def builder():
        marker = os.path.join(marker_dir, f"built-{os.getpid()}")
        with open(marker, "w") as handle:
            handle.write(str(os.getpid()))
        time.sleep(0.2)  # long enough that the losers must wait
        return {"payload": "artifact-body", "key": key}

    barrier.wait(timeout=30)
    assert cache.get(COMPILE, key) is None
    artifact, provenance = cache.build_once(COMPILE, key, builder)
    queue.put(
        (
            os.getpid(),
            provenance,
            artifact["payload"],
            cache.stats.lease_waited,
        )
    )


def test_two_processes_racing_same_key_build_exactly_once(tmp_path):
    cache_dir = tmp_path / "cache"
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    barrier = _FORK.Barrier(3)
    queue = _FORK.Queue()
    racers = [
        _FORK.Process(
            target=_race_build_once,
            args=(cache_dir, "k-race", barrier, str(marker_dir), queue),
        )
        for _ in range(3)
    ]
    for racer in racers:
        racer.start()
    results = [queue.get(timeout=60) for _ in racers]
    for racer in racers:
        racer.join(timeout=10)
        assert racer.exitcode == 0

    provenances = sorted(result[1] for result in results)
    assert provenances == ["built", "coalesced", "coalesced"]
    # Every process got the same artifact body.
    assert {result[2] for result in results} == {"artifact-body"}
    # The builder ran in exactly one process: one marker file.
    assert len(list(marker_dir.iterdir())) == 1
    # The losers waited on the artifact (lease_waited counted in-child).
    waited = sum(result[3] for result in results)
    assert waited == 2
    # No lease file survives the race.
    assert not (cache_dir / "k-race.lease").exists()


def test_sessions_sharing_a_cache_dir_build_one_key_once(tmp_path, monkeypatch):
    """No flag asks for the lease: two sessions (two caches) over one
    ``cache_dir`` — the shape of ``--pool process``'s parent session and
    its children — coordinate a cold compile, the second arriving while
    the first is inside its build."""
    from repro.driver import STAGES, CompilerSession
    from repro.targets import default_accelerators

    source = (
        "main(input float A[6][5], input float x[5], output float y[6]) {"
        " index i[0:4], j[0:5]; y[j] = sum[i](A[j][i] * x[i]); }"
    )
    first, second = (
        CompilerSession(default_accelerators(), cache_dir=str(tmp_path))
        for _ in range(2)
    )
    assert first.cache is not second.cache
    inside, waiting = threading.Event(), threading.Event()

    # The first session's build parks after its parse stage, lease held,
    # until the second is polling that lease.
    def park(record):
        if record.stage == "parse":
            inside.set()
            assert waiting.wait(timeout=30)

    first.add_stage_hook(park)
    lease_wait = Lease.wait

    def wait(self, *args, **kwargs):
        waiting.set()
        return lease_wait(self, *args, **kwargs)

    monkeypatch.setattr(Lease, "wait", wait)

    provenances = {}

    def compile_on(name, session):
        provenances[name] = session.compile_traced(source, domain="DA")[1]

    leader = threading.Thread(target=compile_on, args=("first", first))
    leader.start()
    assert inside.wait(timeout=30)
    compile_on("second", second)
    leader.join(timeout=30)
    assert not leader.is_alive()

    assert provenances == {"first": "built", "second": "coalesced"}
    assert [first.stage_executions(stage) for stage in STAGES] == [1] * 6
    assert [second.stage_executions(stage) for stage in STAGES] == [0] * 6
    assert first.cache.stats.lease_acquired == 1
    assert second.cache.stats.lease_waited == 1
    assert not list(tmp_path.glob("*.lease"))


def test_dead_holders_stale_lease_is_reclaimed(tmp_path):
    cache = ArtifactCache(cache_dir=str(tmp_path))
    # A child that exits immediately gives us a guaranteed-dead pid.
    child = _FORK.Process(target=lambda: None)
    child.start()
    child.join()
    lease_path = tmp_path / "k-stale.lease"
    lease_path.write_text(f"{child.pid}:{time.time()}")

    started = time.monotonic()
    artifact, provenance = cache.build_once(
        COMPILE, "k-stale", lambda: {"v": 1}, wait_timeout_s=30.0
    )
    elapsed = time.monotonic() - started

    assert provenance == "built"
    assert artifact == {"v": 1}
    assert cache.stats.lease_reclaimed >= 1
    assert elapsed < 10.0  # reclaimed, not waited out
    assert not lease_path.exists()


@pytest.mark.parametrize("breakage", ["directory removed", "link refused"])
def test_unleasable_directory_builds_at_once(tmp_path, monkeypatch, breakage):
    """Only ``FileExistsError`` is contention. Any other ``OSError`` from
    ``acquire`` used to read as "held", and with no lease file ``wait``
    answered "free" at once — a sleepless acquire/wait spin until
    ``wait_timeout_s`` (120 s by default). The suite runs as root, so a
    ``chmod`` proves nothing: remove the directory, or refuse the link."""
    diagnostics = Diagnostics()
    cache = ArtifactCache(cache_dir=str(tmp_path / "cache"), diagnostics=diagnostics)
    if breakage == "directory removed":
        shutil.rmtree(cache.cache_dir)
    else:
        def refuse(src, dst):
            raise PermissionError(errno.EPERM, "Operation not permitted", dst)

        monkeypatch.setattr(os, "link", refuse)

    started = time.monotonic()
    results = [
        cache.build_once(COMPILE, key, lambda: {"v": 1}, wait_timeout_s=30.0)
        for key in ("k-one", "k-two")
    ]
    elapsed = time.monotonic() - started

    assert results == [({"v": 1}, "built")] * 2
    assert elapsed < 1.0
    assert cache.stats.lease_timeouts == 0
    assert cache.stats.lease_acquired == 0
    assert cache.stats.disk_errors >= 2
    leasing = [w for w in diagnostics.warnings if "cannot lease" in w.message]
    assert len(leasing) == 1  # once per cache, not once per build
    assert not list(tmp_path.rglob("*.tmp"))


def test_killed_leaseholder_does_not_deadlock_waiters(tmp_path):
    """SIGKILL the process holding the lease mid-build; a waiter must
    reclaim and build — no deadlock, no double-publish."""
    cache_dir = tmp_path / "cache"

    def hold_forever(ready):
        cache = ArtifactCache(cache_dir=str(cache_dir))
        lease = Lease(cache._lease_path("k-kill"))
        assert lease.acquire()
        ready.set()
        time.sleep(300)  # killed long before this returns

    ready = _FORK.Event()
    holder = _FORK.Process(target=hold_forever, args=(ready,))
    holder.start()
    assert ready.wait(timeout=30)
    os.kill(holder.pid, signal.SIGKILL)
    holder.join(timeout=10)

    cache = ArtifactCache(cache_dir=str(cache_dir))
    started = time.monotonic()
    artifact, provenance = cache.build_once(
        COMPILE, "k-kill", lambda: {"v": "rebuilt"}, wait_timeout_s=60.0
    )
    elapsed = time.monotonic() - started

    assert provenance == "built"
    assert artifact == {"v": "rebuilt"}
    assert elapsed < 30.0
    assert cache.stats.lease_reclaimed >= 1


def test_lease_is_never_visible_without_its_payload(tmp_path):
    """The exactly-one-build race: ``acquire`` used to create the lease
    and only then write ``pid:stamp``, so a waiter polling in between
    read an empty payload, called the *live* lease stale, reclaimed it
    and built too. Hold that window open and look through it."""
    import threading

    path = tmp_path / "k-torn.lease"
    writing, go_on = threading.Event(), threading.Event()

    def held_write(fd, payload):
        writing.set()
        assert go_on.wait(timeout=30)
        return os.write(fd, payload)

    first, acquired = Lease(path), []
    first._write = held_write
    holder = threading.Thread(target=lambda: acquired.append(first.acquire()))
    holder.start()
    try:
        assert writing.wait(timeout=30)
        waiter = Lease(path)
        # Mid-acquire there is no lease yet, or a whole one — never an
        # empty one that reads as a dead holder.
        assert waiter.holder() != (0, 0.0)
        assert not waiter.stale()
        outcome = waiter.wait(lambda: False, timeout_s=0.05, poll_s=0.001)
        assert outcome != "reclaim"
    finally:
        go_on.set()
        holder.join(timeout=30)

    assert not holder.is_alive()
    assert acquired == [True]
    pid, stamp = waiter.holder()
    assert pid == os.getpid() and stamp > 0
    # While the first lease is held nobody else gets in.
    assert waiter.acquire() is False
    assert waiter.wait(lambda: False, timeout_s=0.05, poll_s=0.001) == "timeout"
    first.release()
    assert waiter.acquire() is True
    waiter.release()
    assert list(tmp_path.iterdir()) == []  # no lease, no temp residue


def test_lease_staleness_probes():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.lease")
        lease = Lease(path, ttl_s=60.0)
        assert lease.acquire()
        # Our own live lease is never stale.
        assert not Lease(path, ttl_s=60.0).stale()
        lease.release()
        # An expired-ttl lease is stale even with a live pid.
        with open(path, "w") as handle:
            handle.write(f"{os.getpid()}:{time.time() - 120}")
        assert Lease(path, ttl_s=60.0).stale()


# ---------------------------------------------------------------------------
# Process pool: bit-identity, counter aggregation, crash healing.
# ---------------------------------------------------------------------------


def _mixed_trace():
    return synth_trace(
        requests=10,
        workloads=("MobileRobot", "ElecUse", "FFT-8192"),
        seed=7,
        max_steps=2,
    )


def test_process_mode_bit_identical_to_thread_mode(tmp_path):
    from repro.driver import CompilerSession

    trace = _mixed_trace()

    with Server(workers=3, queue_capacity=32) as threaded:
        thread_responses, _ = replay(threaded, trace)

    session = CompilerSession(cache_dir=str(tmp_path / "shared"))
    with Server(
        session=session, workers=3, queue_capacity=32, pool="process"
    ) as server:
        responses, _ = replay(server, trace)
    report = server.report()

    assert all(response.ok for response in responses)
    assert [r.signature for r in responses] == [
        r.signature for r in thread_responses
    ]
    # The child sends the body's Outcome home as-is, so a request's
    # metrics come back populated exactly as thread mode fills them.
    for remote, local in zip(responses, thread_responses):
        for name in (
            "compile_seconds", "plan_seconds", "execute_seconds",
            "compile_provenance", "plan_provenance", "kernel_provenance",
        ):
            there, here = getattr(remote.metrics, name), getattr(local.metrics, name)
            assert type(there) is type(here), name
            # A warm request's lookups take no time at all, and which
            # requests are warm depends on the child each lands on.
            if name not in ("compile_seconds", "plan_seconds"):
                assert bool(there) == bool(here), name
        assert sorted(remote.state) == sorted(local.state)
    assert report.pool == "process"
    assert report.processes == 3
    assert report.worker_crashes == 0
    assert report.conservation_ok
    # Aggregated per-process counters stay truthful: every child plans
    # its own configs once, and the report's expectation accounts for
    # that per-process rebuild.
    assert report.plan_reuse_ok
    assert report.plans_built == report.expected_plans
    assert report.distinct_configs == 3


def test_outcome_record_survives_the_pipe():
    """What the body returns is what crosses the pipe: the record pickles
    round-trip, arrays and all, for a success and for a classified error."""
    executor = Server(workers=1).executor
    done = executor.serve(Request(workload="MobileRobot", steps=2))
    stopped = executor.serve(
        Request(workload="MobileRobot", deadline_s=1.0), deadline_at=0.0
    )
    assert done.error is None and stopped.error_kind == "DeadlineExceededError"
    for outcome in (done, stopped):
        shipped = pickle.loads(pickle.dumps(outcome))
        assert result_signature(shipped.outputs) == result_signature(
            outcome.outputs
        )
        assert result_signature(shipped.state) == result_signature(outcome.state)
        assert {
            name: value for name, value in vars(shipped).items()
            if name not in ("outputs", "state")
        } == {
            name: value for name, value in vars(outcome).items()
            if name not in ("outputs", "state")
        }
    assert done.signature == result_signature(done.outputs)


def test_process_mode_registry_matches_thread_mode_and_the_report(tmp_path):
    """One snapshot tells the truth in both pool modes: the same keys
    (process mode adds only ``procpool.*``) and, for the children's
    share, the totals the report is built from."""
    from repro.driver import CompilerSession

    trace = _mixed_trace()
    with Server(workers=3, queue_capacity=32) as threaded:
        replay(threaded, trace)
    thread_snapshot = threaded.metrics_registry().snapshot()

    session = CompilerSession(cache_dir=str(tmp_path / "shared"))
    with Server(
        session=session, workers=3, queue_capacity=32, pool="process"
    ) as server:
        responses, _ = replay(server, trace)
    assert all(response.ok for response in responses)
    report = server.report()
    snapshot = server.metrics_registry().snapshot()

    extra = set(snapshot) - set(thread_snapshot)
    assert extra and all(key.startswith("procpool.") for key in extra)
    assert set(thread_snapshot) <= set(snapshot)
    assert snapshot["plan.graphs_planned"] == report.plans_built > 0
    assert snapshot["plan.statements_planned"] == report.statements_planned
    assert snapshot["executor.expected_plans"] == report.expected_plans
    assert snapshot["cache.lease_acquired"] >= 1
    # Only a request that binds a config in its child asks the session.
    assert snapshot["session.compiles"] == sum(
        response.metrics.compile_seconds > 0 for response in responses
    ) >= 3
    assert snapshot["procpool.processes_reported"] == report.processes == 3


def test_process_mode_close_is_idempotent():
    """Each child's counters merge exactly once: a second ``close()``
    (``with server:`` then an explicit close) must not double them."""
    with Server(workers=2, queue_capacity=8, pool="process") as server:
        for _ in range(3):
            assert server.request(Request(workload="MobileRobot")).ok

    first = server.report().to_dict()
    snapshot = server.metrics_registry().snapshot()
    server.close()

    reuse = first["plan_reuse"]
    assert reuse["plans_built"] == reuse["expected_plans"] >= 1
    assert first["processes"] == 2
    # The whole report, the stop time included: it is stamped once.
    assert first["wall_seconds"] > 0
    assert server.report().to_dict() == first
    assert server.metrics_registry().snapshot() == snapshot


def test_forked_children_do_not_reship_the_parents_counts():
    """A forked child starts from the parent's process-wide counts; the
    merged ``codegen.kernels_built`` must count every build once."""
    from repro.codegen import CODEGEN_STATS, build_kernel
    from repro.eval import Harness

    _, app, _ = Harness().compiled("MobileRobot")
    assert build_kernel(app.execution_plan()) is not None
    before = CODEGEN_STATS.kernels_built
    assert before >= 1

    with Server(workers=2, queue_capacity=8, pool="process") as server:
        for name in ("MobileRobot", "ElecUse", "MobileRobot", "ElecUse"):
            assert server.request(Request(workload=name)).ok
    snapshot = server.metrics_registry().snapshot()

    # Without a disk tier every build is followed by exactly one store in
    # the building child's cache, so the stores count the builds.
    built = snapshot["codegen.kernels_built"] - before
    assert 2 <= built <= 4
    assert built == snapshot["cache.kernel_stores"]


def test_process_mode_coalesces_compiles_across_processes(tmp_path):
    """With a shared disk tier, the N children build each artifact once
    between them — the lease losers coalesce."""
    from repro.driver import CompilerSession

    trace = _mixed_trace()
    session = CompilerSession(cache_dir=str(tmp_path / "shared"))
    with Server(
        session=session, workers=3, queue_capacity=32, pool="process"
    ) as server:
        responses, _ = replay(server, trace)
    report = server.report()

    assert all(response.ok for response in responses)
    compile_counts = report.provenance_counts("compile")
    # 3 distinct configs; every "built" beyond 3 must have been
    # prevented by the disk tier + lease protocol.
    assert compile_counts.get("built", 0) == 3
    assert sum(compile_counts.values()) == len(trace)


def test_worker_crash_yields_error_and_respawns():
    with Server(workers=2, queue_capacity=16, pool="process") as server:
        # Warm both workers so every child has served at least once.
        warm = [
            server.request(Request(workload="MobileRobot", steps=1))
            for _ in range(4)
        ]
        assert all(response.ok for response in warm)

        # Kill every child out from under the pool.
        with server.procs._members_lock:
            members = list(server.procs._members.values())
        for member in members:
            os.kill(member.process.pid, signal.SIGKILL)
        for member in members:
            member.process.join(timeout=10)

        # The next dispatch per worker hits the dead child: the request
        # fails loudly with WorkerCrashedError and the slot respawns.
        after = [
            server.request(Request(workload="MobileRobot", steps=1))
            for _ in range(6)
        ]
    report = server.report()

    crashed = [r for r in after if not r.ok]
    healed = [r for r in after if r.ok]
    assert crashed, "killing every child must fail at least one request"
    assert all(
        r.error_kind == "WorkerCrashedError" for r in crashed
    )
    assert healed, "respawned children must serve subsequent requests"
    assert report.worker_crashes == len(crashed)
    assert report.conservation_ok
    assert report.completed == len(warm) + len(healed)
    assert report.failed == len(crashed)


def test_worker_crashed_error_is_a_serve_error():
    from repro.errors import PolyMathError, ServeError

    error = WorkerCrashedError("boom")
    assert isinstance(error, ServeError)
    assert isinstance(error, PolyMathError)


# ---------------------------------------------------------------------------
# Priority aging (injectable clock — no sleeping).
# ---------------------------------------------------------------------------


def test_aging_promotes_long_waiting_low_priority():
    now = [0.0]
    scheduler = Scheduler(capacity=8, aging_s=1.0, clock=lambda: now[0])
    scheduler.submit(PRIORITY_LOW, "old-low")
    now[0] = 2.5
    scheduler.submit(PRIORITY_NORMAL, "new-normal")
    # After 2.5s the low entry has aged two levels (effective 0) while
    # the just-submitted normal entry has not aged at all — the old
    # request dispatches first instead of starving.
    assert scheduler.next(timeout=1) == "old-low"
    assert scheduler.next(timeout=1) == "new-normal"


def test_without_aging_priority_order_is_strict():
    scheduler = Scheduler(capacity=8)
    scheduler.submit(PRIORITY_LOW, "low")
    scheduler.submit(PRIORITY_NORMAL, "normal")
    assert scheduler.next(timeout=1) == "normal"
    assert scheduler.next(timeout=1) == "low"


def test_aging_rebuild_is_lazy():
    now = [0.0]
    scheduler = Scheduler(capacity=8, aging_s=1.0, clock=lambda: now[0])
    scheduler.submit(PRIORITY_LOW, "low")
    scheduler.submit(PRIORITY_NORMAL, "normal")
    # Within the first interval nothing has aged: strict priority holds.
    now[0] = 0.5
    assert scheduler.next(timeout=1) == "normal"


def test_aging_s_must_be_positive():
    with pytest.raises(ValueError):
        Scheduler(capacity=8, aging_s=0)
    with pytest.raises(ValueError):
        Scheduler(capacity=8, aging_s=-1.0)


# ---------------------------------------------------------------------------
# Closed-scheduler rejections are terminal, not backpressure.
# ---------------------------------------------------------------------------


def test_closed_scheduler_rejection_is_distinguishable():
    scheduler = Scheduler(capacity=4)
    scheduler.close()
    with pytest.raises(QueueFullError) as excinfo:
        scheduler.submit(PRIORITY_NORMAL, "late")
    assert excinfo.value.closed
    assert excinfo.value.retry_after is None


def test_backpressure_rejection_still_carries_retry_after():
    scheduler = Scheduler(capacity=1)
    scheduler.submit(PRIORITY_NORMAL, "fills-the-queue")
    with pytest.raises(QueueFullError) as excinfo:
        scheduler.submit(PRIORITY_NORMAL, "rejected")
    assert not excinfo.value.closed
    assert excinfo.value.retry_after is not None


def test_replay_gives_up_on_closed_server():
    server = Server(workers=1, queue_capacity=4)
    server.start()
    server.close()
    trace = [Request(workload="MobileRobot", steps=1) for _ in range(3)]
    started = time.monotonic()
    responses, retries = replay(server, trace, retry=True)
    elapsed = time.monotonic() - started
    assert responses == [None, None, None]
    assert retries == 0  # closed is terminal: no retry spin
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# Per-server plan-stat scoping (satellite: plan_reuse_ok must not read
# a process-wide total).
# ---------------------------------------------------------------------------


def test_plan_reuse_scoped_per_server():
    trace = synth_trace(
        requests=6, workloads=("MobileRobot",), seed=1, max_steps=2
    )
    with Server(workers=2, queue_capacity=16) as first:
        replay(first, trace)
    # A second server with a fresh session must report only its own
    # plan builds — the first run's counters must not leak in.
    with Server(workers=2, queue_capacity=16) as second:
        replay(second, trace)
    report = second.report()
    assert report.plan_reuse_ok
    assert report.distinct_configs == 1
    assert report.plans_built == report.expected_plans


def test_serial_baseline_matches_process_trace(tmp_path):
    from repro.driver import CompilerSession

    trace = synth_trace(
        requests=6, workloads=("MobileRobot", "FFT-8192"), seed=5,
        max_steps=2,
    )
    serial, _ = run_serial(trace)
    session = CompilerSession(cache_dir=str(tmp_path / "shared"))
    with Server(
        session=session, workers=2, queue_capacity=16, pool="process"
    ) as server:
        responses, _ = replay(server, trace)
    assert [r.signature for r in responses] == [
        r.signature for r in serial
    ]

"""Process-parallel serving suite: cross-process compile coalescing via
lease files, the process-backed worker pool, crash healing, strict
priority order, and closed-scheduler rejections.

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
* a one-shot request cheaper than the pipe runs in the parent, decided
  from measurements the children's replies carry (injected here: no
  timing assumptions), and the parent never builds a workload that
  stays in a child,
* the scheduler dispatches in strict priority order,
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
    Outcome,
    Request,
    Scheduler,
    Server,
    replay,
    result_signature,
    run_serial,
    synth_trace,
)
from repro.errors import QueueFullError, WorkerCrashedError
from repro.serve.server import Placement


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


def test_a_won_lease_over_a_published_key_counts_a_wait(tmp_path):
    """A sibling published the key between our miss and our lease: the
    lease is won, nothing is built, and the artifact is the sibling's —
    a wait, not an acquisition (``lease_acquired`` counts builds)."""
    ArtifactCache(cache_dir=str(tmp_path)).put(COMPILE, "k-sibling", {"v": "theirs"})
    cache = ArtifactCache(cache_dir=str(tmp_path))

    def builder():
        raise AssertionError("the published key was built again")

    assert cache.build_once(COMPILE, "k-sibling", builder) == ({"v": "theirs"}, "coalesced")
    assert (cache.stats.lease_waited, cache.stats.lease_acquired) == (1, 0)
    assert not list(tmp_path.glob("*.lease"))


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


def _measure(placement, name, step_s, trip_s, steps=2):
    """Feed *placement* a warm child reply for *name*: *step_s* seconds
    of execution per step and a trip that cost *trip_s* on top."""
    outcome = Outcome(
        execute_seconds=step_s * steps,
        compile_provenance="cache", plan_provenance="cache",
    )
    placement.observe(
        Request(workload=name, steps=steps), outcome, trip_s + step_s * steps
    )


def _inline(server, name):
    """Measure *name* as free to run and dear to ship: it runs in the
    parent from now on, whatever real replies say (the minima only fall)."""
    _measure(server.placement, name, step_s=0.0, trip_s=1.0)


def _in_child(server, name):
    """Measure *name*'s trip as free: it stays in a child for good."""
    _measure(server.placement, name, step_s=1.0, trip_s=0.0)


def test_process_mode_bit_identical_to_thread_mode(tmp_path):
    from repro.driver import CompilerSession

    trace = _mixed_trace()

    with Server(workers=3, queue_capacity=32) as threaded:
        thread_responses, _ = replay(threaded, trace)

    session = CompilerSession(cache_dir=str(tmp_path / "shared"))
    with Server(
        session=session, workers=3, queue_capacity=32, pool="process"
    ) as server:
        # MobileRobot is cheaper than the pipe: it runs in the parent,
        # bound there from the shared disk cache.
        _inline(server, "MobileRobot")
        responses, _ = replay(server, trace)
    report = server.report()

    assert all(response.ok for response in responses)
    assert [r.signature for r in responses] == [
        r.signature for r in thread_responses
    ]
    assert [r.metrics.site for r in responses] == [
        "parent" if r.request.workload == "MobileRobot" else "child"
        for r in responses
    ]
    sites = report.provenance_counts("site")
    assert sites["parent"] >= 1 and sites["child"] >= 1
    assert sum(sites.values()) == len(trace)
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


def _kill_children(server):
    with server.procs._members_lock:
        members = list(server.procs._members.values())
    for member in members:
        os.kill(member.process.pid, signal.SIGKILL)
    for member in members:
        member.process.join(timeout=10)


def test_worker_crash_yields_error_and_respawns(tmp_path):
    # ElecUse's steps cost more than the pipe, so the rule keeps every
    # one of them in a child (pinned there, so no timing decides it); the
    # disk tier spares each respawned child the compile.
    with Server(
        workers=2, queue_capacity=16, pool="process",
        cache_dir=str(tmp_path),
    ) as server:
        _in_child(server, "ElecUse")
        # Warm both workers so every child has served at least once.
        warm = [
            server.request(Request(workload="ElecUse", steps=1))
            for _ in range(4)
        ]
        assert all(response.ok for response in warm)

        # Kill every child out from under the pool.
        _kill_children(server)

        # The next dispatch per worker hits the dead child: the request
        # fails loudly with WorkerCrashedError and the slot respawns.
        after = [
            server.request(Request(workload="ElecUse", steps=1))
            for _ in range(6)
        ]
    report = server.report()

    assert {r.metrics.site for r in warm + after} == {"child"}

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


def test_inline_config_answers_after_every_child_is_killed():
    """A request that runs in the parent never touches a child: killing
    them all fails none of its requests and counts no crash."""
    with Server(workers=2, queue_capacity=16, pool="process") as server:
        _inline(server, "MobileRobot")
        before = server.request(Request(workload="MobileRobot", steps=2))
        _kill_children(server)
        after = [
            server.request(Request(workload="MobileRobot", steps=2))
            for _ in range(4)
        ]
    report = server.report()

    assert all(r.ok for r in [before] + after)
    assert {r.signature for r in [before] + after} == {before.signature}
    assert {r.metrics.site for r in [before] + after} == {"parent"}
    assert report.worker_crashes == 0
    assert report.provenance_counts("site") == {"parent": 5}


def test_placement_sends_an_unmeasured_config_to_a_child():
    placement = Placement()
    assert not placement.inline(Request(workload="MobileRobot"))
    # Replies that bound their config in the child (a disk-cache hit
    # among them) carry its construction, compile and plan, and failed
    # replies carry no execution: none of them measures.
    for outcome in (
        Outcome(compile_seconds=0.5, compile_provenance="built"),
        Outcome(compile_seconds=0.5, plan_seconds=0.5,
                compile_provenance="cache", plan_provenance="built"),
        Outcome().fail(RuntimeError("boom")),
    ):
        placement.observe(Request(workload="MobileRobot", steps=2), outcome, 1.0)
    assert not placement.inline(Request(workload="MobileRobot"))


def test_placement_runs_a_cheap_config_in_the_parent():
    placement = Placement()
    _measure(placement, "MobileRobot", step_s=1.0, trip_s=4.0)
    assert placement.inline(Request(workload="MobileRobot", steps=2))
    # The key is the request's own fields: other dims or precision are
    # another config, still unmeasured.
    assert not placement.inline(Request(workload="MobileRobot", precision="f32"))
    assert not placement.inline(Request(workload="Hexacopter"))


def test_placement_scales_the_execute_side_by_steps():
    placement = Placement()
    _measure(placement, "MobileRobot", step_s=1.0, trip_s=4.0)
    assert [
        placement.inline(Request(workload="MobileRobot", steps=steps))
        for steps in (1, 3, 4, 8)
    ] == [True, True, False, False]


def test_placement_keeps_a_heavy_config_in_a_child():
    placement = Placement()
    _measure(placement, "ElecUse", step_s=8.0, trip_s=1.0)
    assert not placement.inline(Request(workload="ElecUse", steps=1))
    # Each number is a running minimum: a slower reply changes nothing,
    # a faster trip only makes the child more attractive.
    _measure(placement, "ElecUse", step_s=16.0, trip_s=0.5)
    _measure(placement, "ElecUse", step_s=0.25, trip_s=8.0)
    assert placement.inline(Request(workload="ElecUse", steps=1))
    assert not placement.inline(Request(workload="ElecUse", steps=2))


def test_placement_sends_fault_injection_to_a_child():
    placement = Placement()
    _measure(placement, "MobileRobot", step_s=1.0, trip_s=4.0)
    injected = Request(workload="MobileRobot", inject=("transient",))
    assert not placement.inline(injected)
    # Nor does a fault-injecting reply measure its config.
    _measure(placement, "Hexacopter", step_s=1.0, trip_s=4.0)
    placement.observe(
        Request(workload="Hexacopter", inject=("transient",)),
        Outcome(execute_seconds=8.0), 8.0,
    )
    assert placement.inline(Request(workload="Hexacopter"))


def test_parent_never_builds_a_child_served_workload(monkeypatch):
    """Deciding reads only the request: a config that stays in a child is
    never resolved or constructed in the parent."""
    import repro.serve.executor as executor_module

    built = []
    real = executor_module.get_workload

    def recording(name, *args, **kwargs):
        built.append(name)
        return real(name, *args, **kwargs)

    with Server(workers=2, queue_capacity=16, pool="process") as server:
        # The children are forked already: only the parent records.
        monkeypatch.setattr(executor_module, "get_workload", recording)
        _inline(server, "MobileRobot")
        _in_child(server, "ElecUse")
        names = ["ElecUse", "MobileRobot"] * 3
        responses = [
            server.request(Request(workload=name, steps=1)) for name in names
        ]

    assert all(response.ok for response in responses)
    assert built == ["MobileRobot"]
    assert [r.metrics.site for r in responses] == [
        "parent" if name == "MobileRobot" else "child" for name in names
    ]


def test_worker_crashed_error_is_a_serve_error():
    from repro.errors import PolyMathError, ServeError

    error = WorkerCrashedError("boom")
    assert isinstance(error, ServeError)
    assert isinstance(error, PolyMathError)


# ---------------------------------------------------------------------------
# Strict priority order.
# ---------------------------------------------------------------------------


def test_without_aging_priority_order_is_strict():
    scheduler = Scheduler(capacity=8)
    scheduler.submit(PRIORITY_LOW, "low")
    scheduler.submit(PRIORITY_NORMAL, "normal")
    assert scheduler.next(timeout=1) == "normal"
    assert scheduler.next(timeout=1) == "low"


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


def test_process_pool_lists_every_workers_plans(tmp_path):
    """Each child sends its session's plans home at retirement: the serve
    report lists them under the worker's name beside the parent's own
    (``parent``), so their executions add up to the steps served, in a
    child or inline."""
    from repro.driver import CompilerSession

    trace = synth_trace(
        requests=9,
        workloads=("MobileRobot", "OptionPricing", "Twitter-BFS"),
        seed=11,
        max_steps=3,
    )
    session = CompilerSession(cache_dir=str(tmp_path))
    with Server(session=session, workers=2, queue_capacity=32, pool="process") as server:
        responses, _ = replay(server, trace)
    assert all(response.ok for response in responses)
    report = server.report()
    plans = report.session["plans"]

    workers = {plan["worker"] for plan in plans}
    assert workers & {"serve-0", "serve-1"}
    assert workers <= {"parent", "serve-0", "serve-1"}
    served = sum(metrics.steps for metrics in report.requests)
    assert served == sum(request.steps for request in trace)
    assert sum(plan["executions"] for plan in plans) == served

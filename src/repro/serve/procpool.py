"""Process-backed execution behind the thread pool's drainer surface.

The thread :class:`~repro.serve.pool.WorkerPool` stays exactly where it
was — draining the priority scheduler, running the server's admission,
deadline, and classification logic — but in process mode each worker
thread proxies the request body to a dedicated worker *process* over a
pipe. Each child owns a fresh :class:`~repro.driver.CompilerSession`
warmed from the shared disk cache tier: the first child to compile a
config publishes the artifact (holding the lease file), siblings wait on
the artifact instead of recompiling, and plans — memory-only by design —
rebuild once per process from the shared compiled artifact.

Envelopes are plain pickles: ``("request", (Request, remaining_s))``
out, the body's :class:`~repro.serve.request.Outcome` back as-is.
Deadlines ship as *remaining seconds* because ``perf_counter`` values
are not comparable across processes; the child re-arms the body's
post-compile guard from them.

Not every request makes the trip. The server's
:class:`~repro.serve.server.Placement` runs a one-shot request in the
parent iff its config has a warm child measurement and ``steps x
per-step execute`` is below the measured trip overhead (the wall time
around :meth:`ProcessWorkerSet.dispatch` less the reply's compile, plan
and execute seconds); fault-injecting requests always come here. An
inline request gives up the isolation a child buys: a kernel that
segfaults in the parent takes the server down, as in thread mode.

A crashed child (its pipe breaks mid-request) is respawned and the
in-flight request answered with ``WorkerCrashedError`` — the pool heals,
the request fails loudly, and ``worker_crashes`` counts it. At
retirement every child sends back one flat snapshot of its executor's
:class:`~repro.obs.MetricsRegistry` (plus the set of configs it served),
which the parent merges — once per child — into the server's registry,
and its session's plans, which the serve report lists under the
worker's name.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import time

__all__ = ["ProcessWorkerSet", "child_main"]


def child_main(conn, config):
    """Worker-process entry: serve envelopes from *conn* until stopped."""
    from ..driver import CompilerSession
    from ..obs import DEFAULT_REGISTRY
    from .executor import LocalExecutor
    from .heap import keep_heap

    # A forked child inherits the parent's process-wide counts; what it
    # ships home must be its own work only.
    DEFAULT_REGISTRY.reset()
    # The child exists to run kernels: the pages a step frees stay for
    # the next, instead of being trimmed and faulted in again.
    keep_heap()
    session = CompilerSession(cache_dir=config.get("cache_dir"))
    executor = LocalExecutor(
        session, bucket_policy=config.get("bucket_policy", "exact")
    )
    while True:
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError):
            break
        if kind == "stop":
            try:
                conn.send(("stats", (
                    executor.metrics.snapshot(),
                    executor.configs(),
                    session.stats_dict()["plans"],
                )))
            except (OSError, ValueError):
                pass
            break
        request, remaining_s = payload
        outcome = executor.serve(
            request,
            deadline_at=(
                time.perf_counter() + remaining_s
                if remaining_s is not None
                else None
            ),
        )
        try:
            conn.send(("response", outcome))
        except Exception as exc:
            # Unpicklable outputs must not wedge the parent's recv.
            conn.send(("response", dataclasses.replace(
                outcome, outputs={}, state={},
                error=f"response not picklable: {exc}",
                error_kind="SerializationError",
            )))
    conn.close()


class _Member:
    __slots__ = ("process", "conn", "lock")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()


class ProcessWorkerSet:
    """One bound worker process per pool worker thread."""

    def __init__(self, workers, config, name="serve"):
        self.workers = workers
        self.config = dict(config)
        self.name = name
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context("spawn")
        self._members = {}
        self._members_lock = threading.Lock()
        self._started = False
        self.worker_crashes = 0
        #: Children that answered the retirement request with their counts.
        self.reported = 0

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, worker_name):
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=child_main,
            args=(child_conn, self.config),
            name=f"{worker_name}-proc",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Member(process, parent_conn)

    def start(self):
        """Fork the worker set. Call BEFORE the drainer threads start —
        forking a single-threaded parent sidesteps every inherited-lock
        hazard."""
        if self._started:
            return self
        self._started = True
        for index in range(self.workers):
            worker_name = f"{self.name}-{index}"
            self._members[worker_name] = self._spawn(worker_name)
        return self

    def _member(self, worker_name):
        with self._members_lock:
            member = self._members.get(worker_name)
            if member is None:
                member = self._spawn(worker_name)
                self._members[worker_name] = member
            return member

    def _crashed(self, worker_name, member):
        """Retire a dead child and heal the slot with a fresh fork."""
        try:
            member.conn.close()
        except OSError:
            pass
        member.process.join(timeout=1.0)
        with self._members_lock:
            self.worker_crashes += 1
            if self._members.get(worker_name) is member:
                self._members[worker_name] = self._spawn(worker_name)

    # -- request proxying ---------------------------------------------------

    def dispatch(self, worker_name, request, remaining_s=None):
        """Run *request* on the worker bound to *worker_name*.

        Returns the child's Outcome, or None when the child crashed
        mid-request (the slot is respawned; the caller answers the
        request with ``WorkerCrashedError``).
        """
        member = self._member(worker_name)
        with member.lock:
            try:
                member.conn.send(("request", (request, remaining_s)))
                kind, payload = member.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                self._crashed(worker_name, member)
                return None
        if kind != "response":  # protocol violation == crash
            self._crashed(worker_name, member)
            return None
        return payload

    # -- retirement ---------------------------------------------------------

    def stop(self, timeout=5.0):
        """Retire every child; returns ``(worker name, flat counter
        snapshot, distinct configs, plans)`` of each one that answered,
        its plans as its session's ``stats_dict()["plans"]``. A child is
        asked once — a second ``stop`` finds no members and returns
        ``[]``."""
        with self._members_lock:
            members = dict(self._members)
            self._members = {}
        deadline = time.monotonic() + timeout
        payloads = []
        for worker_name, member in members.items():
            with member.lock:
                try:
                    member.conn.send(("stop", None))
                    if member.conn.poll(max(0.1, deadline - time.monotonic())):
                        kind, payload = member.conn.recv()
                        if kind == "stats":
                            payloads.append((worker_name, *payload))
                except (EOFError, OSError, BrokenPipeError):
                    pass
                try:
                    member.conn.close()
                except OSError:
                    pass
        for member in members.values():
            member.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if member.process.is_alive():
                member.process.terminate()
                member.process.join(timeout=1.0)
        self.reported += len(payloads)
        return payloads

    @property
    def alive(self):
        with self._members_lock:
            return sum(
                1 for member in self._members.values()
                if member.process.is_alive()
            )

    def counters(self):
        """Pool health (the ``procpool`` MetricsRegistry source)."""
        with self._members_lock:
            crashes = self.worker_crashes
        return {
            "processes": self.workers,
            "alive": self.alive,
            "worker_crashes": crashes,
            "processes_reported": self.reported,
        }

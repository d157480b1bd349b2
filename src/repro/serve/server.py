"""The multi-tenant compile-and-execute service.

One :class:`Server` owns a single shared
:class:`~repro.driver.CompilerSession` (and through it one
:class:`~repro.driver.cache.ArtifactCache` and one execution-plan tier),
a priority :class:`~repro.serve.scheduler.Scheduler` with a bounded
admission queue, and a :class:`~repro.serve.pool.WorkerPool`. Requests
flow::

    submit -> [scheduler: priority heap, backpressure] -> worker
           -> LocalExecutor.serve, the one request body (in this process,
              or in the worker's bound child in process mode, unless the
              request is cheaper than the trip there — see Placement):
              config lookup; the first request of a config binds it:
                 compile (single-flight: identical requests coalesce)
                 -> plan (single-flight, plan-tier cached)
              -> guard (deadline / cancellation, re-checked)
              -> Trajectory.step x N (state threaded; fault-injecting
                 requests step through the HostManager with their own
                 RecoveryPolicy)
           -> Outcome -> Response (outputs + signature + RequestMetrics)

This module is the orchestration around that body: admission, deadlines,
finish-time classification, breakers, placement, and the report.

In process mode a one-shot request still runs in the parent when the pipe
would cost more than the work it carries. :class:`Placement` keeps two
running minima per config, both read off the warm replies the children
send anyway: the execute seconds per step, and the trip's overhead (the
wall time around ``dispatch`` minus the reply's compile, plan and
execute seconds). A config goes to a child until it has a measurement;
after that a request runs in the parent iff ``steps x per-step execute
< overhead``. Fault-injecting requests always go to a child. An inline
request binds its config in the parent from the shared disk cache and
gives up process isolation: a kernel that crashes there takes the
parent down, as in thread mode. Each request's ``site`` ("parent" or
"child") says where its body ran.

Because compilation amortizes — the paper's whole premise, sharpened by
DaCe/MLIR-style reusable compiled artifacts — the steady state of a hot
workload is: zero compiles, zero plans, pure execution fan-out across
workers. The per-request provenance in the metrics stream makes that
claim checkable per run, and the ``plan`` counter group's delta makes it
a hard counter-based assertion (``plans_built`` == distinct
configurations).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import List

from ..driver import BucketPolicy, CompilerSession
from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    QueueFullError,
    ShapeError,
    WorkerCrashedError,
)
from ..obs import Counters, MetricsRegistry, NULL_TRACER
from ..pmlang.builtins import special
from .breaker import BreakerBoard
from .executor import LocalExecutor
from .heap import keep_heap
from .metrics import RequestMetrics, ServeReport
from .pool import WorkerPool
from .procpool import ProcessWorkerSet
from .request import PRIORITY_NORMAL, Outcome, Request, Response
from .scheduler import Scheduler

__all__ = ["Placement", "Server", "Ticket"]

#: The ``serve`` group: where every submission ends up (exactly one of the
#: outcomes per submitted request — the conservation identity), plus
#: ``invalid`` (refused at admission with a ShapeError: bad dims or
#: mismatched input/state arrays — never enqueued, never counted as
#: submitted) and ``session_steps``.
_TALLIES = (
    "submitted", "completed", "failed", "rejected", "expired", "cancelled",
    "breaker_rejected", "timed_out", "invalid", "session_steps",
)


class Ticket:
    """Client-side handle for one submitted request."""

    __slots__ = (
        "request", "metrics", "response", "deadline_at",
        "session", "step_inputs",
        "_event", "_cancelled", "_abandoned",
    )

    def __init__(self, request, metrics):
        self.request = request
        self.metrics = metrics
        self.response = None
        #: Absolute (perf_counter) deadline, set at submission.
        self.deadline_at = None
        #: The owning :class:`~repro.serve.session.Session` when this
        #: ticket is one step of a stateful session (None otherwise).
        self.session = None
        #: Client-supplied inputs for a session step (validated at
        #: admission); None means "use the workload's input generator".
        self.step_inputs = None
        self._event = threading.Event()
        self._cancelled = False
        self._abandoned = False

    def _finish(self, response):
        self.response = response
        self._event.set()

    def done(self):
        return self._event.is_set()

    def cancel(self):
        """Cooperative cancellation: ask the server not to execute this.

        Returns True when the request had not finished yet — the worker
        that dequeues it will answer with ``CancelledError`` instead of
        executing. Returns False when the response already exists (too
        late; read ``response``). A request already mid-execution when
        the flag is checked still runs to completion — cancellation is
        checked before the execute phase, never mid-kernel.
        """
        if self._event.is_set():
            return False
        self._cancelled = True
        return True

    @property
    def cancelled(self):
        return self._cancelled

    def abandon(self):
        """The client stopped waiting (``wait`` timed out).

        The server still finishes the request — there is no way to yank
        a running worker — but the finish-time classification counts it
        as ``timed_out`` rather than completed, so the report reflects
        what the client observed. Returns False when the response landed
        first (not abandoned; read ``response``).
        """
        if self._event.is_set():
            return False
        self._abandoned = True
        return True

    @property
    def abandoned(self):
        return self._abandoned

    def expired(self, now=None):
        """Has this ticket's deadline passed (at *now* or right now)?"""
        if self.deadline_at is None:
            return False
        if now is None:
            now = time.perf_counter()
        return now >= self.deadline_at

    def wait(self, timeout=None):
        """Block until the response is ready; returns the Response."""
        if not self._event.wait(timeout=timeout):
            raise TimeoutError(
                f"request {self.request.request_id} "
                f"({self.request.describe()}) still pending"
            )
        return self.response


class Placement:
    """Where process mode runs a one-shot request: in a child, or inline.

    Keyed on the request's own fields, so deciding never resolves or
    constructs a workload in the parent. Per config it keeps the running
    minimum of two numbers, both from warm child replies: the execute
    seconds per step, and the trip's overhead — the wall time around
    ``dispatch`` less the reply's compile, plan and execute seconds. A
    reply that bound its config in the child also carried the workload's
    construction, which no segment times, so only a reply that found its
    config bound (zero compile and plan seconds) measures; a failed reply
    and a fault-injecting request measure nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: config key -> (per-step execute seconds, trip overhead seconds)
        self._measured = {}

    @staticmethod
    def key(request):
        return (
            request.workload,
            tuple(sorted((request.dims or {}).items())),
            request.precision,
        )

    def inline(self, request):
        """Run *request* in the parent? True iff its config is measured
        and its steps cost less than the trip; never for fault injection."""
        if request.inject:
            return False
        measured = self._measured.get(self.key(request))
        return measured is not None and request.steps * measured[0] < measured[1]

    def observe(self, request, outcome, seconds):
        """Fold a child's *outcome* for *request*, *seconds* of wall time
        around its dispatch, into the config's minima."""
        if (
            request.inject
            or outcome.error is not None
            or outcome.compile_seconds
            or outcome.plan_seconds
        ):
            return
        step = outcome.execute_seconds / request.steps
        # A warm reply's compile and plan seconds are zero.
        trip = seconds - outcome.execute_seconds
        key = self.key(request)
        with self._lock:
            known = self._measured.get(key)
            if known is not None:
                step, trip = min(step, known[0]), min(trip, known[1])
            self._measured[key] = (step, trip)


class Server:
    """Concurrent compile-and-execute service over one CompilerSession."""

    def __init__(
        self,
        session=None,
        workers=4,
        queue_capacity=64,
        cache_dir=None,
        tracer=None,
        breaker_threshold=5,
        breaker_cooldown_s=0.25,
        bucket_policy="exact",
        pool="thread",
    ):
        if pool not in ("thread", "process"):
            raise ValueError(
                f"pool must be 'thread' or 'process', got {pool!r}"
            )
        #: One tracer spans the whole request lifecycle: serve-level
        #: request/queue-wait spans here, session/pass/plan spans through
        #: the CompilerSession, and runtime instants through HostManager.
        self.tracer = tracer or NULL_TRACER
        if session is None:
            session = CompilerSession(cache_dir=cache_dir, tracer=self.tracer)
        elif tracer is not None and not session.tracer.enabled:
            # Caller supplied both a session and a tracer: thread the
            # tracer through unless the session already has its own.
            session.tracer = self.tracer
        self.session = session
        self.scheduler = Scheduler(capacity=queue_capacity)
        self.scheduler.retry_after_estimator = self._retry_after
        self.pool = WorkerPool(
            self.scheduler, self._handle, workers=workers, name="serve",
            diagnostics=self.session.diagnostics,
        )
        self.workers = workers
        #: Per-workload circuit breakers consulted at admission and fed
        #: at completion (threshold <= 0 disables them).
        self.breakers = BreakerBoard(
            threshold=breaker_threshold, cooldown_s=breaker_cooldown_s
        )
        #: How requested dims round into shape buckets ("exact", "pow2",
        #: "multiple:N", or a BucketPolicy instance).
        self.bucket_policy = BucketPolicy.parse(bucket_policy)
        #: The in-process request body. Thread mode runs every request
        #: through it; process mode keeps it for session steps (whose
        #: retained numpy state cannot cross a pipe), for one-shot
        #: requests cheaper than the trip to a child, and for
        #: admission-time shape resolution. Every plan is lowered to a
        #: generated kernel — the one serving tier; a plan the emitter
        #: declines runs interpreted, and each request's "execute"
        #: provenance says which of kernel / interpreted answered it. A
        #: kernel that raises fails its request.
        self.executor = LocalExecutor(
            session=self.session,
            bucket_policy=self.bucket_policy,
            tracer=self.tracer,
        )
        #: "thread" or "process": which backend runs the request body.
        self.pool_mode = pool
        #: Process mode's per-request choice between parent and child.
        self.placement = Placement()
        self.procs = None
        if pool == "process":
            self.procs = ProcessWorkerSet(
                workers,
                config={
                    "cache_dir": self.session.cache.cache_dir,
                    "bucket_policy": bucket_policy,
                },
                name="serve",
            )

        self._lock = threading.Lock()
        self._outstanding = 0
        self._drained = threading.Condition(self._lock)
        self._recent_service = deque(maxlen=64)
        #: The ``RequestMetrics`` of every finished request — scalars
        #: only; tickets and their responses belong to the clients.
        self._finished: List[RequestMetrics] = []
        self._tallies = Counters(_TALLIES)
        self._sessions: List[object] = []
        #: The plans of every retired worker process, each tagged with
        #: its worker's name.
        self._worker_plans: List[dict] = []
        self._started_at = None
        self._stopped_at = None
        #: Every counter this server touches, thread or process mode
        #: alike: the executor's view of the compile stack (this server's
        #: session, never a process-wide total, so two concurrent servers
        #: cannot pollute each other's ``plan_reuse_ok``), the snapshot of
        #: each retired worker process merged in once, and the live gauges.
        self.metrics = MetricsRegistry().include(self.executor.metrics)
        self.metrics.register("serve", self._serve_counters)
        self.metrics.register("scheduler", self.scheduler.counters)
        self.metrics.register("pool", self._pool_counters)
        self.metrics.register("breaker", self.breakers.counters)
        if self.procs is not None:
            self.metrics.register("procpool", self.procs.counters)
        # The session may have planned before this server existed.
        self._plan_base = self.session.plan_stats.snapshot()

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        if self._started_at is None:
            self._started_at = time.perf_counter()
        # Every worker may run sigmoid or phi: import scipy.special here,
        # once, so forked children inherit it and no request pays for it.
        special()
        if self.procs is not None:
            # Fork the worker processes before any drainer thread exists:
            # a single-threaded fork cannot inherit a held lock.
            self.procs.start()
        else:
            # The workers about to start run every kernel: keep the pages
            # their steps free (the arena limit binds only threads that
            # have not allocated yet). A process-mode parent keeps glibc's
            # defaults; its children set the policy themselves.
            keep_heap()
        self.pool.start()
        return self

    def close(self):
        """Stop admissions, drain the queue, and join the workers."""
        self.scheduler.close()
        if self._started_at is not None:
            self.pool.join()
        if self.procs is not None:
            # Retire the children; each one's counters (plan builds,
            # cache/lease stats, kernels) merge in exactly once.
            for worker, flat, configs, plans in self.procs.stop():
                self.metrics.merge(flat)
                self.executor.note_served(configs)
                self._worker_plans += [dict(plan, worker=worker) for plan in plans]
        if self._stopped_at is None:
            self._stopped_at = time.perf_counter()
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- submission --------------------------------------------------------

    def submit(self, request, _session=None, _inputs=None):
        """Admit *request*; returns a :class:`Ticket`.

        Raises :class:`~repro.errors.QueueFullError` when the admission
        queue is at capacity (carrying a ``retry_after`` estimate),
        :class:`~repro.errors.CircuitOpenError` when the workload's
        circuit breaker is shedding load,
        :class:`~repro.errors.DeadlineExceededError` when the request's
        deadline is already spent at admission, and
        :class:`~repro.errors.ShapeError` when the request's dims or
        input/state arrays do not match the workload's declared shapes —
        before the request is enqueued, so a malformed request never
        occupies a worker. ``_session``/``_inputs`` are the internal
        session-step path (see :meth:`open_session`).
        """
        if not isinstance(request, Request):
            raise TypeError(f"expected a Request, got {type(request).__name__}")
        if _session is not None or request.dims or request.initial_state:
            try:
                config = (
                    _session.config if _session is not None
                    else self.executor.resolve(
                        request.workload, request.dims, request.precision
                    )
                )
                if _inputs is not None:
                    config.workload.validate_values(
                        dict(_inputs), modifier="input"
                    )
                if request.initial_state:
                    config.workload.validate_values(
                        dict(request.initial_state), modifier="state"
                    )
            except ShapeError as exc:
                # Refused at admission: not submitted, not enqueued — the
                # conservation identity never sees it.
                self._tallies.bump(invalid=1)
                self.tracer.instant(
                    "invalid", category="serve",
                    request_id=request.request_id,
                    workload=request.workload, error=str(exc),
                )
                raise
        self._tallies.bump(submitted=1)
        allowed, retry_after = self.breakers.allow(request.workload)
        if not allowed:
            self._tallies.bump(breaker_rejected=1)
            self.tracer.instant(
                "breaker-rejected", category="serve",
                request_id=request.request_id, workload=request.workload,
            )
            raise CircuitOpenError(
                f"circuit breaker for workload {request.workload!r} is "
                f"open; retry after {retry_after:.3f}s",
                retry_after=retry_after,
            )
        now = time.perf_counter()
        if request.deadline_s is not None and request.deadline_s <= 0:
            self._tallies.bump(expired=1)
            self.tracer.instant(
                "expired", category="serve",
                request_id=request.request_id, workload=request.workload,
            )
            raise DeadlineExceededError(
                f"request {request.request_id} deadline "
                f"({request.deadline_s:g}s) already spent at admission"
            )
        metrics = RequestMetrics(
            request_id=request.request_id,
            workload=request.workload,
            priority=request.priority_name,
            steps=request.steps,
            enqueued_at=now,
        )
        ticket = Ticket(request, metrics)
        ticket.session = _session
        ticket.step_inputs = _inputs
        if request.deadline_s is not None:
            ticket.deadline_at = now + request.deadline_s
        with self._lock:
            self._outstanding += 1
        try:
            self.scheduler.submit(request.priority, ticket)
        except BaseException as exc:
            with self._lock:
                self._outstanding -= 1
            if isinstance(exc, QueueFullError):
                self._tallies.bump(rejected=1)
            self.tracer.instant(
                "rejected", category="serve",
                request_id=request.request_id, workload=request.workload,
            )
            raise
        self.tracer.instant(
            "submit", category="serve",
            request_id=request.request_id, workload=request.workload,
            priority=request.priority_name,
        )
        return ticket

    def request(self, request, timeout=None):
        """Submit and wait: the synchronous client convenience."""
        return self.submit(request).wait(timeout=timeout)

    def open_session(
        self,
        workload,
        dims=None,
        precision="f64",
        priority=PRIORITY_NORMAL,
        deadline_s=None,
    ):
        """Open a long-lived stateful :class:`~repro.serve.session.Session`.

        Resolves (and, when *dims* is given, specializes and
        bucket-rounds) the workload immediately, so a bad binding raises
        :class:`~repro.errors.ShapeError` here — at open — not on the
        first step. Each subsequent ``session.step()`` flows through the
        scheduler like any request but steps the session's retained
        state.
        """
        from .session import Session

        try:
            config = self.executor.resolve(workload, dims, precision)
        except ShapeError as exc:
            # Same admission accounting as a shape-refused submit: the
            # open never occupied a worker and never enqueued anything.
            self._tallies.bump(invalid=1)
            self.tracer.instant(
                "invalid", category="serve", workload=workload,
                error=str(exc),
            )
            raise
        session = Session(self, config, priority, deadline_s)
        with self._lock:
            self._sessions.append(session)
        self.tracer.instant(
            "session-open", category="serve", track=session.track,
            session=session.session_id, workload=workload,
            dims=",".join(
                f"{k}={v}" for k, v in sorted(session.dims().items())
            ),
        )
        return session

    def drain(self, timeout=None):
        """Block until every admitted request has a response."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._drained:
            while self._outstanding:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._drained.wait(timeout=remaining)
        return True

    def _retry_after(self, depth):
        """Backpressure hint: how long until a queue slot likely frees."""
        with self._lock:
            recent = list(self._recent_service)
        mean = sum(recent) / len(recent) if recent else 0.010
        return max(0.001, depth * mean / max(1, self.workers))

    # -- the worker body ---------------------------------------------------
    # (the compile/plan/execute core lives in LocalExecutor, shared with
    # the process pool's worker children)

    def _handle(self, ticket, worker_name):
        request = ticket.request
        metrics = ticket.metrics
        metrics.worker = worker_name
        metrics.started_at = time.perf_counter()
        response = Response(request=request)
        # Session steps export onto the session's lane, so a whole
        # session reads as one track in the Chrome trace no matter which
        # workers ran its steps.
        track = ticket.session.track if ticket.session is not None else None
        if ticket.cancelled:
            # Cooperative cancellation: honoured before any work starts.
            response.error = (
                f"request {request.request_id} cancelled before execution"
            )
            response.error_kind = "CancelledError"
            self.tracer.instant(
                "cancelled", category="serve", track=track,
                request_id=request.request_id,
            )
        elif ticket.expired(metrics.started_at):
            # The deadline passed while the ticket sat in the queue.
            # Expired work is answered, never executed.
            late = metrics.started_at - ticket.deadline_at
            response.error = (
                f"request {request.request_id} deadline "
                f"({request.deadline_s:g}s) expired {late:.3f}s before "
                "execution"
            )
            response.error_kind = "DeadlineExceededError"
            self.tracer.instant(
                "expired", category="serve", track=track,
                request_id=request.request_id,
            )
        else:
            with self.tracer.span(
                f"request {request.request_id}", category="serve",
                track=track, workload=request.workload, worker=worker_name,
                steps=request.steps,
            ) as span:
                try:
                    outcome = self._serve_one(ticket)
                except Exception as exc:  # defensive: never poison the worker
                    outcome = Outcome().fail(exc)
                outcome.apply(metrics, response)
                if ticket.session is not None and response.ok:
                    ticket.session.step_seconds.append(metrics.execute_seconds)
                    self._tallies.bump(session_steps=1)
                span.note(
                    ok=response.ok,
                    **({"error_kind": response.error_kind} if response.error else {}),
                )
        if self.tracer.enabled:
            # Retroactive span for the time the ticket sat in the
            # admission queue (only measurable once dequeued).
            self.tracer.record(
                "queue-wait", category="serve",
                start=metrics.enqueued_at,
                duration=metrics.started_at - metrics.enqueued_at,
                track=track,
                request_id=request.request_id,
            )
        metrics.finished_at = time.perf_counter()
        metrics.ok = response.ok
        response.metrics = metrics
        # Finish-time classification: every ticket lands in exactly one
        # bucket. An abandoned ticket counts as timed_out regardless of
        # how its (now unobserved) response turned out, because that is
        # what the client experienced.
        executed = response.error_kind not in (
            "CancelledError", "DeadlineExceededError"
        )
        if ticket.abandoned:
            metrics.outcome = "timed_out"
        elif response.error_kind == "CancelledError":
            metrics.outcome = "cancelled"
        elif response.error_kind == "DeadlineExceededError":
            metrics.outcome = "expired"
        elif response.ok:
            metrics.outcome = "completed"
        else:
            metrics.outcome = "failed"
        self._tallies.bump(metrics.outcome)
        with self._lock:
            self._recent_service.append(metrics.service_seconds)
            self._finished.append(metrics)
        if executed:
            # Only genuine execution outcomes drive the breaker — a
            # deadline expiry or cancellation says nothing about the
            # workload's health.
            self.breakers.record(request.workload, response.ok)
        ticket._finish(response)
        with self._drained:
            self._outstanding -= 1
            if not self._outstanding:
                self._drained.notify_all()

    def _serve_one(self, ticket):
        """The request body's Outcome for *ticket*.

        In process mode a one-shot request is proxied to this worker's
        bound child unless :attr:`placement` finds it cheaper than the
        trip; the envelope carries the *remaining* deadline budget in
        seconds (``perf_counter`` values are not comparable across
        processes). A child that dies mid-request is respawned by the
        worker set and the request answered with ``WorkerCrashedError``.
        Session steps always run in-parent, even in process mode: the
        retained numpy state lives here, and shipping it across a pipe
        every step would cost more than it buys.
        """
        request = ticket.request
        if (
            self.procs is None
            or ticket.session is not None
            or self.placement.inline(request)
        ):
            ticket.metrics.site = "parent"
            return self.executor.serve(
                request,
                session=ticket.session,
                inputs=ticket.step_inputs,
                deadline_at=ticket.deadline_at,
                cancelled=lambda: ticket.cancelled,
            )
        ticket.metrics.site = "child"
        start = time.perf_counter()
        remaining_s = None
        if ticket.deadline_at is not None:
            remaining_s = ticket.deadline_at - start
        worker = ticket.metrics.worker
        outcome = self.procs.dispatch(worker, request, remaining_s)
        if outcome is None:
            return Outcome().fail(WorkerCrashedError(
                f"worker process for {worker} died serving request "
                f"{request.request_id}; slot respawned"
            ))
        self.placement.observe(request, outcome, time.perf_counter() - start)
        return outcome

    # -- reporting ---------------------------------------------------------

    def _serve_counters(self):
        """The ``serve`` group plus its gauges (a MetricsRegistry source)."""
        with self._lock:
            gauges = {
                "outstanding": self._outstanding,
                "sessions": len(self._sessions),
            }
        return {
            **self._tallies.to_dict(),
            **gauges,
            "distinct_configs": len(self.executor.configs()),
        }

    def _pool_counters(self):
        return {
            "workers": self.workers,
            "alive": self.pool.alive,
            "handler_faults": self.pool.handler_faults,
        }

    def metrics_registry(self):
        """This server's :class:`~repro.obs.MetricsRegistry`: one
        ``snapshot()`` over the compile stack's groups (``plan``,
        ``cache``, ``session``, ``executor``, ``rewrite``, ``codegen`` —
        in process mode including every retired child's share), the
        ``serve`` group, and the ``scheduler``/``pool``/``breaker``/
        ``procpool`` gauges, which have no safe reset (they are
        load-bearing for :meth:`report`) and register snapshot-only.
        """
        return self.metrics

    def report(self):
        """The run's :class:`ServeReport` (call after :meth:`close`)."""
        tallies = self._tallies.snapshot()
        counts = self.metrics.snapshot()
        with self._lock:
            finished = list(self._finished)
            sessions = list(self._sessions)
        stopped = self._stopped_at or time.perf_counter()
        started = self._started_at or stopped
        report = ServeReport(
            workers=self.workers,
            pool=self.pool_mode,
            processes=counts.get("procpool.processes_reported", 0),
            worker_crashes=counts.get("procpool.worker_crashes", 0),
            queue_capacity=self.scheduler.capacity,
            wall_seconds=max(0.0, stopped - started),
            submitted=tallies.submitted,
            completed=tallies.completed,
            failed=tallies.failed,
            rejected=tallies.rejected,
            expired=tallies.expired,
            cancelled=tallies.cancelled,
            breaker_rejected=tallies.breaker_rejected,
            timed_out=tallies.timed_out,
            invalid=tallies.invalid,
            sessions=[sess.summary() for sess in sessions],
            breakers=self.breakers.snapshot(),
            queue_peak=self.scheduler.peak_depth,
            plans_built=(
                counts["plan.graphs_planned"] - self._plan_base.graphs_planned
            ),
            statements_planned=(
                counts["plan.statements_planned"]
                - self._plan_base.statements_planned
            ),
            distinct_configs=len(self.executor.configs()),
            expected_plans=counts["executor.expected_plans"],
            expected_statements=counts["executor.expected_statements"],
            requests=finished,
            session=self.session.stats_dict(),
        )
        report.session["plans"] = [
            dict(plan, worker="parent") for plan in report.session["plans"]
        ] + self._worker_plans
        for metrics in finished:
            for phase, provenance in (
                ("compile", metrics.compile_provenance),
                ("plan", metrics.plan_provenance),
                ("execute", metrics.kernel_provenance),
                ("site", metrics.site),
            ):
                if not provenance:
                    continue
                counts = report.provenance.setdefault(phase, {})
                counts[provenance] = counts.get(provenance, 0) + 1
        return report

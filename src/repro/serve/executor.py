"""The request body: the one compile → plan → guard → step code.

:meth:`LocalExecutor.serve` resolves the workload (bucket-rounding dim
overrides), compiles through the session (single-flight), plans
(plan-tier cached), checks the deadline/cancellation guard, steps a
:class:`~repro.workloads.Trajectory` N times and answers with one
picklable :class:`~repro.serve.request.Outcome`. Its callers differ only
in what they hand it: a one-shot request steps a fresh trajectory seeded
from ``initial_state``/``step_offset``; a session step hands in the
session's retained trajectory and, once pinned, its ``(app, plan)``, so
no compiler surface is touched (provenance ``"session"``); a
process-pool child makes the same call around a ``cross_process=True``
CompilerSession warmed from the shared disk tier and sends the Outcome
home as-is — thread and process mode are bit-identical by construction.
A fault-injecting request differs only in the ``invoke`` its trajectory
steps: the HostManager's recovering run instead of ``plan.execute``.
"""

from __future__ import annotations

import functools
import threading
import time

from ..codegen import CODEGEN_STATS
from ..driver import BucketPolicy, SpecializationKey
from ..errors import CancelledError, DeadlineExceededError
from ..obs import NULL_TRACER, MetricsRegistry
from ..rewrite.engine import REWRITE_STATS
from ..workloads import Trajectory, get_workload
from .request import Outcome, result_signature

__all__ = ["LocalExecutor"]


class LocalExecutor:
    """One compile-and-execute engine over one CompilerSession."""

    def __init__(self, session, bucket_policy="exact", tracer=None):
        self.session = session
        self.bucket_policy = BucketPolicy.parse(bucket_policy)
        self.tracer = tracer or NULL_TRACER
        self._lock = threading.Lock()
        self._workloads = {}
        #: Every counter of the compile-and-execute stack as this
        #: executor sees it: the session's groups, the process-scoped
        #: ``rewrite``/``codegen`` groups, and its own ``executor`` group.
        #: A worker child ships ``metrics.snapshot()`` home at retirement.
        self.metrics = MetricsRegistry().include(session.metrics)
        for name, group in (
            ("rewrite", REWRITE_STATS), ("codegen", CODEGEN_STATS)
        ):
            self.metrics.register(name, group.to_dict, group.reset)
        #: Reuse bookkeeping: the graph/statement plans this executor's
        #: "built" provenances paid for (``plan_reuse_ok`` compares the
        #: session's ``plan`` group against these) and every distinct
        #: (workload, precision, dims) config served — a *set*, the one
        #: fact here that does not add across processes.
        self.expected = self.metrics.counters(
            "executor", ("expected_plans", "expected_statements")
        )
        self.distinct_configs = set()

    # -- workload resolution ------------------------------------------------

    def resolve(self, name, dims=None, precision="f64"):
        """Workload instance + SpecializationKey for a (name, dims) pair.

        Without *dims* this is the base instance and no specialization
        (the legacy static-shape path, byte-for-byte unchanged). With
        *dims*, the overrides are validated against the workload's
        declared ``symbolic_dims``, rounded up by the bucket policy, and
        the specialized instance is cached per bucket — so every request
        landing in one bucket shares one workload, one compiled app, and
        one plan.
        """
        with self._lock:
            base = self._workloads.get((name, ()))
            if base is None:
                base = self._workloads[(name, ())] = get_workload(name)
        if not dims:
            return base, None
        dims = dict(dims)
        # Names/positivity check on the raw request; structural
        # constraints (pow2 FFT, blocked DCT) are checked on the
        # *bucketed* dims by with_dims, since rounding may be exactly
        # what makes them satisfiable.
        type(base).validate_dim_names(dims)
        bucketed = self.bucket_policy.bucket(base.shape_binding().merge(dims))
        key = (name, bucketed.key())
        with self._lock:
            workload = self._workloads.get(key)
        if workload is None:
            workload = base.with_dims(**bucketed.as_dict())
            with self._lock:
                workload = self._workloads.setdefault(key, workload)
        spec = SpecializationKey(
            template=name, binding=bucketed, config_key=(precision,)
        )
        return workload, spec

    def note_planned(self, config_key, plan, provenance):
        """Record one served config (and a paid-for plan build)."""
        with self._lock:
            self.distinct_configs.add(config_key)
        if provenance == "built":
            self.expected.bump(
                expected_plans=plan.graph_count,
                expected_statements=plan.statement_count,
            )

    def configs(self):
        """The distinct configs served so far (a copy)."""
        with self._lock:
            return set(self.distinct_configs)

    # -- the request body ---------------------------------------------------

    def serve(self, request, workload=None, specialization=None,
              session=None, inputs=None, deadline_at=None, cancelled=None):
        """Compile, plan, and execute *request*; returns its Outcome.

        Never raises: a :class:`~repro.errors.PolyMathError` or a defect
        anywhere in the body is classified into the outcome, beside the
        segments the body got through.

        *workload*/*specialization* carry an admission-time resolution so
        the worker never re-resolves. *session*, a
        :class:`~repro.serve.session.Session`, supplies the retained
        trajectory (with *inputs* overriding its generator for this step)
        and, once pinned, the ``(app, plan)`` that skip both lookups.
        *deadline_at* (this process's ``perf_counter``) and *cancelled* (a
        zero-argument callable) arm the guard after the compile/plan
        phase — the last line of defence before the request really
        executes.
        """
        outcome = Outcome()
        try:
            if workload is None:
                workload, specialization = self.resolve(
                    request.workload, request.dims, request.precision
                )
            if session is not None and session.plan is not None:
                app, plan = session.app, session.plan
                outcome.compile_provenance = outcome.plan_provenance = "session"
            else:
                start = time.perf_counter()
                app, outcome.compile_provenance = self.session.compile_workload(
                    workload
                )
                outcome.compile_seconds = time.perf_counter() - start

                start = time.perf_counter()
                # Serving has one execution tier, the generated kernel; a
                # plan the emitter declines stays interpreted.
                plan, outcome.plan_provenance = self.session.plan_for_traced(
                    app, precision=request.precision,
                    specialization=specialization, codegen=True,
                )
                outcome.plan_seconds = time.perf_counter() - start
                self.note_planned(
                    request.config_key(), plan, outcome.plan_provenance
                )
                if session is not None:
                    session.pin(app, plan, outcome.plan_provenance)
            # Compile/plan may have eaten the request's budget; past this
            # point the request really executes.
            if deadline_at is not None and time.perf_counter() >= deadline_at:
                raise DeadlineExceededError(
                    f"request {request.request_id} deadline "
                    f"({request.deadline_s:g}s) expired after compile/plan; "
                    "refusing to execute"
                )
            if cancelled is not None and cancelled():
                raise CancelledError(
                    f"request {request.request_id} cancelled before execution"
                )

            if session is not None:
                trajectory = session.trajectory
            else:
                # ``initial_state`` (shape-checked at admission) and
                # ``step_offset`` let a chain of one-shot requests replay a
                # stateful trajectory step by step — the bit-identity
                # reference for sessions.
                trajectory = Trajectory(
                    workload, request.initial_state, request.step_offset
                )
            if request.inject:
                invoke = self._recovering_invoke(request, workload, app)
            else:
                invoke = functools.partial(plan.execute, tracer=self.tracer)
            start = time.perf_counter()
            tiers = set()
            for _ in range(request.steps):
                result = trajectory.step(invoke, inputs)
                tiers.add(result.tier)
            outcome.execute_seconds = time.perf_counter() - start
            # What ran, not what the plan carries: one step that fell back
            # makes the request a fallback.
            outcome.kernel_provenance = (
                "fallback" if "fallback" in tiers else result.tier
            )

            outcome.outputs = dict(result.outputs)
            outcome.state = dict(result.state)
            outcome.signature = result_signature(result.outputs)
        except Exception as exc:  # answered, never raised: the worker lives
            outcome.fail(exc)
        return outcome

    def _recovering_invoke(self, request, workload, app):
        """The ``invoke`` of a fault-injecting request: each step runs
        through a HostManager under the request's own fault plan and
        recovery budget."""
        from ..runtime import FaultPlan, HostManager, RecoveryPolicy

        manager = HostManager(
            app.accelerators,
            diagnostics=self.session.diagnostics,
            tracer=self.tracer,
        )
        active = FaultPlan.parse(
            list(request.inject), seed=request.seed
        ).activate()
        policy = RecoveryPolicy(
            max_attempts=request.retries + 1,
            host_fallback=request.host_fallback,
        )
        hints = workload.hints()
        return lambda **values: manager.run(
            app,
            fault_plan=active,
            hints=hints,
            precision=request.precision,
            policy=policy,
            **values,
        ).result

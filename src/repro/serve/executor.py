"""The request body: the one resolve → guard → step code.

:meth:`LocalExecutor.serve` looks the request's :class:`Config` up — one
table keyed by (workload, bucketed binding, precision) — and, the first
time a config reaches the body, binds it: compiles through the session
(single-flight), plans onto the generated-kernel tier (plan-tier cached)
and keeps the ``(app, plan)`` on the config. Every later request of that
config touches no compiler surface at all. It then checks the
deadline/cancellation guard, steps a :class:`~repro.workloads.Trajectory`
N times and answers with one picklable
:class:`~repro.serve.request.Outcome`. Its callers differ only in the
trajectory: a one-shot request steps a fresh one seeded from
``initial_state``/``step_offset``; a session step hands in the session's
retained one (a warm step reports provenance ``"session"``, a warm
one-shot ``"cache"``); a process-pool child makes the same call around
its own CompilerSession warmed from the shared disk tier and sends the
Outcome home as-is — thread and process mode are bit-identical by
construction. A fault-injecting request differs only in the ``invoke``
its trajectory steps: the HostManager's recovering run instead of
``plan.execute``.
"""

from __future__ import annotations

import functools
import threading
import time

from ..codegen import CODEGEN_STATS
from ..driver import BucketPolicy
from ..errors import CancelledError, DeadlineExceededError
from ..obs import NULL_TRACER, MetricsRegistry
from ..rewrite.engine import REWRITE_STATS
from ..workloads import Trajectory, get_workload
from .request import Outcome, result_signature

__all__ = ["Config", "LocalExecutor"]


class Config:
    """One served configuration — a workload at one bucketed binding and
    precision — and everything its requests share.

    :meth:`LocalExecutor.resolve` creates it unbound (``workload`` and
    ``binding`` only, enough for admission to validate against);
    the first request to reach the body binds ``app``, ``plan`` and the
    plan's provenance, and every later request just reads them.
    """

    __slots__ = (
        "key", "workload", "binding", "precision",
        "app", "plan", "plan_provenance",
    )

    def __init__(self, key, workload, binding):
        self.key = key
        self.precision = key[2]
        self.workload = workload
        #: The bucketed :class:`~repro.srdfg.shapes.ShapeBinding` the
        #: workload is instantiated at; empty for a workload that
        #: declares no symbolic dims.
        self.binding = binding
        self.app = self.plan = self.plan_provenance = None


class LocalExecutor:
    """One compile-and-execute engine over one CompilerSession."""

    def __init__(self, session, bucket_policy="exact", tracer=None):
        self.session = session
        self.bucket_policy = BucketPolicy.parse(bucket_policy)
        self.tracer = tracer or NULL_TRACER
        self._lock = threading.Lock()
        #: ``(name, bucketed binding, precision)`` → :class:`Config`: one
        #: entry per config seen, however many requests are served.
        self._configs = {}
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
        #: session's ``plan`` group against these) and the key of every
        #: config bound here or by a retired child — a *set*, the one
        #: fact here that does not add across processes.
        self.expected = self.metrics.counters(
            "executor", ("expected_plans", "expected_statements")
        )
        self.distinct_configs = set()

    # -- config resolution --------------------------------------------------

    def resolve(self, name, dims=None, precision="f64"):
        """The :class:`Config` of a (name, dims, precision) triple.

        Without *dims* this is the workload's own binding, never rounded.
        With *dims*, the overrides are validated against the workload's
        declared ``symbolic_dims``, rounded up by the bucket policy, and
        the workload re-instantiated at the bucketed dims — once per
        bucket, so every request landing in one bucket shares one
        workload, one compiled app, and one plan.
        """
        key = (name, (), precision)
        with self._lock:
            base = self._configs.get(key)
            if base is None:
                workload = get_workload(name)
                base = self._configs[key] = Config(
                    key, workload, workload.shape_binding()
                )
        if not dims:
            return base
        dims = dict(dims)
        # Names/positivity check on the raw request; structural
        # constraints (pow2 FFT, blocked DCT) are checked on the
        # *bucketed* dims by with_dims, since rounding may be exactly
        # what makes them satisfiable.
        type(base.workload).validate_dim_names(dims)
        bucketed = self.bucket_policy.bucket(
            base.workload.shape_binding().merge(dims)
        )
        key = (name, bucketed.key(), precision)
        with self._lock:
            config = self._configs.get(key)
        if config is None:
            config = Config(
                key, base.workload.with_dims(**bucketed.as_dict()), bucketed
            )
            with self._lock:
                config = self._configs.setdefault(key, config)
        return config

    def note_served(self, keys):
        """Count *keys* among the distinct configs served."""
        with self._lock:
            self.distinct_configs.update(keys)

    def configs(self):
        """The distinct configs served so far (a copy)."""
        with self._lock:
            return set(self.distinct_configs)

    # -- the request body ---------------------------------------------------

    def serve(self, request, session=None, inputs=None, deadline_at=None,
              cancelled=None):
        """Compile, plan, and execute *request*; returns its Outcome.

        Never raises: a :class:`~repro.errors.PolyMathError` or a defect
        anywhere in the body is classified into the outcome, beside the
        segments the body got through.

        *session*, a :class:`~repro.serve.session.Session`, supplies the
        config it was opened on and its retained trajectory (with *inputs*
        overriding its generator for this step). *deadline_at* (this
        process's ``perf_counter``) and *cancelled* (a zero-argument
        callable) arm the guard after the compile/plan phase — the last
        line of defence before the request really executes.
        """
        outcome = Outcome()
        try:
            config = (
                session.config if session is not None
                else self.resolve(
                    request.workload, request.dims, request.precision
                )
            )
            if config.plan is None:
                self._bind(config, outcome)
            else:
                outcome.compile_provenance = outcome.plan_provenance = (
                    "cache" if session is None else "session"
                )
            app, plan = config.app, config.plan
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
                    config.workload, request.initial_state,
                    request.step_offset,
                )
            if request.inject:
                invoke = self._recovering_invoke(request, config.workload, app)
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

    def _bind(self, config, outcome):
        """Compile and plan *config* through the session's tiers, whose
        single-flight (and, across processes, lease) gives one build per
        key however many first requests arrive together; each records its
        own lookups on *outcome* and the first to finish fills *config*."""
        start = time.perf_counter()
        app, outcome.compile_provenance = self.session.compile_workload(
            config.workload
        )
        outcome.compile_seconds = time.perf_counter() - start

        start = time.perf_counter()
        # Serving has one execution tier, the generated kernel; a plan
        # the emitter declines stays interpreted.
        plan, outcome.plan_provenance = self.session.plan_for_traced(
            app, precision=config.precision, codegen=True
        )
        outcome.plan_seconds = time.perf_counter() - start
        if outcome.plan_provenance == "built":
            self.expected.bump(
                expected_plans=plan.graph_count,
                expected_statements=plan.statement_count,
            )
        with self._lock:
            self.distinct_configs.add(config.key)
            if config.plan is None:
                config.app = app
                config.plan_provenance = outcome.plan_provenance
                # Last: an unlocked reader that sees the plan sees the rest.
                config.plan = plan

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

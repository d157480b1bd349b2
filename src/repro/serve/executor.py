"""The compile-plan-execute core, shared by both worker pool backends.

:class:`LocalExecutor` is the request body that used to live inline in
``Server._serve_one``: resolve the workload (bucket-rounding dim
overrides), compile through the session (single-flight), plan
(plan-tier cached), then execute N steps threading state — optionally
sleeping out the cost model's emulated device occupancy, or routing
fault-injecting requests through the HostManager.

Extracting it lets the process pool run the *same* body in a worker
child (one LocalExecutor per process, wrapped around a
``cross_process=True`` CompilerSession warmed from the shared disk cache
tier) while the thread pool keeps calling it in-process — so thread and
process mode stay bit-identical by construction.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..codegen import CODEGEN_STATS
from ..driver import BucketPolicy, SpecializationKey
from ..obs import NULL_TRACER, MetricsRegistry
from ..rewrite.engine import REWRITE_STATS
from ..targets import default_accelerators
from ..workloads import get_workload
from .request import result_signature

__all__ = ["LocalExecutor"]


class LocalExecutor:
    """One compile-and-execute engine over one CompilerSession."""

    def __init__(self, session, emulate_device=0.0, codegen=False,
                 bucket_policy="exact", tracer=None):
        self.session = session
        self.emulate_device = emulate_device
        self.codegen = codegen
        self.bucket_policy = (
            bucket_policy
            if isinstance(bucket_policy, BucketPolicy)
            else BucketPolicy.parse(bucket_policy)
        )
        self.tracer = tracer or NULL_TRACER
        self._lock = threading.Lock()
        self._workloads = {}
        self._device_seconds = {}
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

    def workload(self, name):
        with self._lock:
            instance = self._workloads.get((name, ()))
            if instance is None:
                instance = get_workload(name)
                self._workloads[(name, ())] = instance
            return instance

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
        base = self.workload(name)
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

    def modeled_device_seconds(self, request, app):
        """Cost-model accelerator seconds for one invocation of *app*."""
        key = request.config_key()
        with self._lock:
            cached = self._device_seconds.get(key)
        if cached is not None:
            return cached
        total = 0.0
        for domain, program in app.programs.items():
            accelerator = app.accelerators.get(domain)
            if accelerator is None:
                continue
            total += accelerator.estimate(program).seconds
        with self._lock:
            self._device_seconds[key] = total
        return total

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

    def serve(self, request, metrics, response, workload=None,
              specialization=None, guard=None):
        """Compile, plan, and execute *request*, filling *response*.

        *workload*/*specialization* carry an admission-time resolution
        (dim-overridden requests) so the worker never re-resolves.
        *guard*, when given, is called after the compile/plan phase —
        the last line of deadline/cancellation defence — and raises to
        abort before execution.
        """
        if workload is None:
            workload = self.workload(request.workload)
        accelerators = default_accelerators(
            getattr(workload, "accelerator_overrides", None)
        )

        start = time.perf_counter()
        app, compile_provenance = self.session.compile_traced(
            workload.source(),
            domain=workload.domain,
            component_domains=getattr(workload, "component_domains", None),
            accelerators=accelerators,
            data_hints=workload.hints(),
        )
        metrics.compile_seconds = time.perf_counter() - start
        metrics.compile_provenance = compile_provenance

        start = time.perf_counter()
        plan, plan_provenance = self.session.plan_for_traced(
            app, precision=request.precision, specialization=specialization,
            codegen=self.codegen,
        )
        metrics.plan_seconds = time.perf_counter() - start
        metrics.plan_provenance = plan_provenance
        metrics.kernel_provenance = (
            "kernel" if plan.kernel is not None else ""
        )
        self.note_planned(request.config_key(), plan, plan_provenance)

        device_seconds = 0.0
        if self.emulate_device > 0:
            device_seconds = (
                self.modeled_device_seconds(request, app) * self.emulate_device
            )

        if guard is not None:
            # Compile/plan may have eaten the request's budget; past this
            # point the request really executes.
            guard()

        start = time.perf_counter()
        if request.inject:
            result = self.execute_with_faults(request, workload, app)
        else:
            result = self.execute_plan(request, workload, plan, device_seconds)
        metrics.execute_seconds = time.perf_counter() - start

        response.outputs = dict(result.outputs)
        response.state = dict(result.state)
        response.signature = result_signature(result.outputs)

    def execute_plan(self, request, workload, plan, device_seconds):
        """N plan invocations threading state, emulating device occupancy.

        ``request.initial_state`` (shape-checked at admission) seeds the
        state thread, and ``request.step_offset`` shifts the invocation
        indices — together they let a chain of one-shot requests replay a
        stateful trajectory step by step, which is the bit-identity
        reference for sessions.
        """
        state = {
            key: np.asarray(value)
            for key, value in (
                request.initial_state or workload.initial_state()
            ).items()
        }
        params = workload.params()
        previous = None
        result = None
        for step in range(request.steps):
            result = plan.execute(
                inputs=workload.inputs(request.step_offset + step, previous),
                params=params,
                state=state,
                tracer=self.tracer,
            )
            state = result.state
            previous = result
            if device_seconds > 0:
                # The host thread blocks while the (emulated) accelerator
                # runs — exactly when a worker pool buys throughput.
                time.sleep(device_seconds)
        return result

    def execute_with_faults(self, request, workload, app):
        """Fault-injecting requests route through the HostManager."""
        from ..runtime import FaultPlan, HostManager, RecoveryPolicy

        fault_plan = FaultPlan.parse(list(request.inject), seed=request.seed)
        policy = RecoveryPolicy(
            max_attempts=request.retries + 1,
            host_fallback=request.host_fallback,
        )
        manager = HostManager(
            app.accelerators,
            diagnostics=self.session.diagnostics,
            tracer=self.tracer,
        )
        active = fault_plan.activate()
        state = {
            key: np.asarray(value)
            for key, value in (
                request.initial_state or workload.initial_state()
            ).items()
        }
        previous = None
        report = None
        for step in range(request.steps):
            report = manager.run(
                app,
                inputs=workload.inputs(request.step_offset + step, previous),
                params=workload.params(),
                state=state,
                fault_plan=active,
                hints=workload.hints(),
                precision=request.precision,
                policy=policy,
            )
            previous = report.result
            state = report.result.state
        return report.result

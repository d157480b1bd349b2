"""Plan/execute engine for srDFGs: compile once, run many times.

Every backend in this stack funnels through the functional interpreter
(accelerator ``simulate``, ``CompiledApplication.run``, the HostManager's
retry/host-fallback path, workload reference drivers), and steady-state
workloads — an MPC control loop, a chaos run retrying the same stage —
invoke the *same* graph thousands of times. Re-deriving axis spaces,
einsum eligibility, chunk plans, topological order, and dtype tables on
every call is pure waste: none of it depends on the run's data.

This module splits execution into two artifacts, in the spirit of DaCe's
and MLIR's separation of analyzable lowering from a reusable executable:

:class:`StatementPlan`
    Everything about one formula statement that is knowable from the
    graph alone: its :class:`~repro.srdfg.interpreter._AxisSpace`, the
    precompiled einsum dispatch (subscript strings, operand shape
    requirements, static scalar factors), the chunking decision for big
    reductions, and the resolved target dtype.

:class:`ExecutionPlan`
    One graph compiled into a flat list of prebuilt steps (var binding,
    const materialisation, statement execution, component sub-plan
    invocation) in topological order, with gather lists and the
    output/state collection resolved to value keys ahead of time. A plan
    is *self-contained*: executing it never touches the graph again, so
    a plan keyed on a structural :func:`graph_fingerprint` is valid for
    any structurally identical graph (which is what lets the driver's
    :class:`~repro.driver.cache.ArtifactCache` plan tier skip planning
    on replays entirely).

Plans carry counters (``built``, ``executions``, per-statement timings)
so steady-state reuse is *observable*, not assumed: ``python -m repro
stats --execute N`` and the CI plan-reuse smoke step assert each
statement plan is built exactly once while being executed N times.

:func:`plan_for_graph` memoises plans per graph *instance* (weakly, so
plans never extend a graph's lifetime); cross-instance reuse is the
driver's plan tier, keyed on :func:`plan_cache_key`. Both build through
:class:`SingleFlight`, the stack's one in-process single-flight.
:class:`~repro.srdfg.interpreter.Executor` is a thin facade that plans
lazily through this function.
"""

from __future__ import annotations

import hashlib
import threading
import time
import weakref
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError
from ..obs import DEFAULT_REGISTRY, NULL_TRACER
from ..pmlang.render import render_reduction, render_stmt
from .graph import COMPONENT, COMPUTE, CONST, VAR
from .interpreter import (
    DEFAULT_LATTICE_LIMIT,
    ExecutionResult,
    PRECISIONS,
    _AxisSpace,
    _ExprEvaluator,
    _plan_chunks,
    compile_einsum,
    resolve_dtype,
)

__all__ = [
    "ExecutionPlan",
    "PLAN_FIELDS",
    "PlanConfig",
    "SingleFlight",
    "StatementPlan",
    "build_plan",
    "graph_fingerprint",
    "memoize_plan",
    "plan_cache_key",
    "plan_for_graph",
]


# ---------------------------------------------------------------------------
# Configuration and counters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanConfig:
    """Everything a plan's shape depends on besides the graph itself."""

    precision: str = "f64"
    lattice_limit: int = DEFAULT_LATTICE_LIMIT
    enable_einsum: bool = True

    def __post_init__(self):
        if self.lattice_limit is None:
            object.__setattr__(self, "lattice_limit", DEFAULT_LATTICE_LIMIT)
        if self.precision not in PRECISIONS:
            raise ExecutionError(
                f"unknown precision {self.precision!r}; choose from "
                f"{sorted(PRECISIONS)}"
            )

    @property
    def float_dtype(self):
        return PRECISIONS[self.precision]

    def key(self):
        return (self.precision, self.lattice_limit, self.enable_einsum)

    def describe(self):
        einsum = "on" if self.enable_einsum else "off"
        return (
            f"precision={self.precision} einsum={einsum} "
            f"lattice_limit={self.lattice_limit}"
        )


#: Field names of a ``plan`` counter group (see :mod:`repro.obs.metrics`).
PLAN_FIELDS = ("graphs_planned", "statements_planned")

#: Where a plan build counts when it is handed no ``stats=`` group.
#: Wall-clock assertions flake; these do not: the reuse checks assert
#: that the number of statement plans built equals the statement count —
#: each plan constructed exactly once however many steps run.
_DEFAULT_STATS = DEFAULT_REGISTRY.counters("plan", PLAN_FIELDS)


# ---------------------------------------------------------------------------
# Per-statement plans
# ---------------------------------------------------------------------------


class StatementPlan:
    """One formula statement, compiled for repeated execution.

    Hoists out of the per-call path: axis-space construction, the
    einsum-eligibility decision (with precomputed subscript strings),
    the chunking decision for over-limit reductions, and target-dtype
    resolution. ``execute`` binds the statement's operand values and
    runs the prebuilt plan.
    """

    __slots__ = (
        "stmt",
        "index_ranges",
        "static_env",
        "lhs_shape",
        "dtype",
        "reductions",
        "float_dtype",
        "enable_einsum",
        "label",
        "space",
        "chunk_plan",
        "einsum",
        "target_dtype",
        "built",
        "build_seconds",
        "executions",
        "seconds",
        "first_seconds",
        "_lock",
    )

    def __init__(
        self,
        stmt,
        index_ranges,
        static_env,
        lhs_shape=(),
        dtype="float",
        reductions=None,
        lattice_limit=DEFAULT_LATTICE_LIMIT,
        float_dtype=np.float64,
        enable_einsum=True,
        label=None,
        stats=None,
    ):
        start = time.perf_counter()
        self.stmt = stmt
        self.index_ranges = index_ranges
        self.static_env = static_env
        self.lhs_shape = tuple(lhs_shape)
        self.dtype = dtype
        self.reductions = dict(reductions or {})
        self.float_dtype = float_dtype
        self.enable_einsum = enable_einsum
        self.label = label or stmt.target

        self.space = _AxisSpace(stmt, index_ranges)
        self.target_dtype = resolve_dtype(dtype, float_dtype)
        self.chunk_plan = _plan_chunks(stmt, self.space, lattice_limit)
        self.einsum = (
            compile_einsum(stmt.value, self.space, static_env)
            if enable_einsum
            else None
        )

        self.built = 1
        self.build_seconds = time.perf_counter() - start
        self.executions = 0
        self.seconds = 0.0
        self.first_seconds = None
        self._lock = threading.Lock()
        # A build counts in exactly one group: the scoped one it was
        # handed (e.g. one CompilerSession's, so two concurrent servers
        # each assert their own plan-reuse delta) or the process default.
        # Not stored: plans outlive sessions in the shared cache tier.
        (stats or _DEFAULT_STATS).bump(statements_planned=1)

    # -- execution ---------------------------------------------------------

    def execute(self, var_values):
        """Evaluate the statement; returns the new value of its target."""
        start = time.perf_counter()
        evaluator = _ExprEvaluator(
            self.space,
            self.static_env,
            var_values,
            self.reductions,
            enable_einsum=self.enable_einsum,
        )
        raw = evaluator.statement_value(self.stmt, self.einsum, self.chunk_plan)
        result = self._store(evaluator, raw)
        seconds = time.perf_counter() - start
        # Plans are shared across serving workers; counter updates must
        # not lose increments (the reuse assertions are counter-based).
        with self._lock:
            self.executions += 1
            self.seconds += seconds
            if self.first_seconds is None:
                self.first_seconds = seconds
        return result

    def _store(self, evaluator, raw):
        """Materialise the statement result into its target variable."""
        stmt = self.stmt
        target_dtype = self.target_dtype
        lhs_shape = self.lhs_shape

        if not stmt.target_indices:
            if lhs_shape not in ((), (1,)):
                raise ExecutionError(
                    f"whole-array assignment to {stmt.target!r} requires "
                    "subscripts"
                )
            return np.asarray(raw, dtype=target_dtype).reshape(lhs_shape)

        previous = evaluator.var_values.get(stmt.target)
        if previous is not None:
            out = np.array(previous, dtype=target_dtype, copy=True)
            if tuple(out.shape) != lhs_shape:
                out = np.zeros(lhs_shape, dtype=target_dtype)
        else:
            out = np.zeros(lhs_shape, dtype=target_dtype)

        index_arrays = evaluator.write_subscripts(stmt, lhs_shape)
        broadcast = np.broadcast_arrays(*index_arrays, np.asarray(raw))
        targets, payload = broadcast[:-1], broadcast[-1]
        out[tuple(targets)] = payload
        return out

    # Kernels carry their fallback statements as constants and are
    # pickled into the disk cache tier: the lock is dropped and recreated,
    # and the execution counters restart at zero in the loading process.

    def __getstate__(self):
        state = {
            name: getattr(self, name)
            for name in self.__slots__
            if name != "_lock"
        }
        state.update(executions=0, seconds=0.0, first_seconds=None)
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self._lock = threading.Lock()

    # -- reporting ---------------------------------------------------------

    @property
    def steady_seconds(self):
        """Mean per-execution seconds excluding the first call."""
        if self.executions <= 1:
            return 0.0
        return (self.seconds - (self.first_seconds or 0.0)) / (
            self.executions - 1
        )

    def path(self):
        """Which evaluation path this plan prefers (einsum/chunked/lattice)."""
        if self.einsum is not None:
            return "einsum"
        if self.chunk_plan is not None:
            return "chunked"
        return "lattice"


# ---------------------------------------------------------------------------
# Prebuilt steps
# ---------------------------------------------------------------------------


class _Step:
    """Base: one prebuilt unit of work; subclasses fill ``run``."""

    __slots__ = ("node_name", "kind", "produced")

    def run(self, values, inputs, params, state, output_init):
        raise NotImplementedError


class _VarStep(_Step):
    __slots__ = ("key", "name", "modifier", "np_dtype", "shape")

    def __init__(self, node, float_dtype):
        self.node_name = node.name
        self.kind = VAR
        self.key = (node.uid, node.name)
        self.name = node.name
        self.modifier = node.attrs["modifier"]
        self.np_dtype = resolve_dtype(node.attrs["dtype"], float_dtype)
        self.shape = tuple(node.attrs["shape"])
        self.produced = ((self.key, self.name),)

    def run(self, values, inputs, params, state, output_init):
        name = self.name
        modifier = self.modifier
        if modifier == "input":
            if name not in inputs:
                raise ExecutionError(f"missing input {name!r}")
            value = inputs[name]
        elif modifier == "param":
            if name not in params:
                raise ExecutionError(f"missing param {name!r}")
            value = params[name]
        elif modifier == "state":
            value = state.get(name)
            if value is None:
                value = np.zeros(self.shape)
        elif modifier == "output":
            value = output_init.get(name)
            if value is None:
                value = np.zeros(self.shape)
        else:  # local read-before-write
            value = np.zeros(self.shape)
        array = np.asarray(value, dtype=self.np_dtype)
        if tuple(array.shape) != self.shape:
            raise ExecutionError(
                f"value for {name!r} has shape {tuple(array.shape)}, "
                f"declared {self.shape}"
            )
        values[self.key] = array


class _ConstStep(_Step):
    __slots__ = ("key", "value")

    def __init__(self, node, float_dtype):
        self.node_name = node.name
        self.kind = CONST
        name = node.name.split("=")[0]
        self.key = (node.uid, name)
        # Constants are invocation-invariant: materialise once at plan
        # time (downstream consumers never mutate operand values).
        self.value = np.asarray(
            node.attrs["value"],
            dtype=resolve_dtype(node.attrs.get("dtype", "float"), float_dtype),
        )
        self.produced = ((self.key, name),)

    def run(self, values, inputs, params, state, output_init):
        values[self.key] = self.value


class _ComputeStep(_Step):
    __slots__ = ("key", "gather", "statement")

    def __init__(self, node, gather, statement):
        self.node_name = node.name
        self.kind = COMPUTE
        stmt = node.attrs["stmt"]
        self.key = (node.uid, stmt.target)
        self.gather = gather
        self.statement = statement
        self.produced = ((self.key, stmt.target),)

    def run(self, values, inputs, params, state, output_init):
        var_values = {name: values[key] for key, name in self.gather}
        values[self.key] = self.statement.execute(var_values)


class _ComponentStep(_Step):
    __slots__ = ("gather", "bindings", "sub_plan", "publishes")

    def __init__(self, node, gather, sub_plan):
        self.node_name = node.name
        self.kind = COMPONENT
        self.gather = gather
        self.sub_plan = sub_plan
        sub = node.subgraph
        bindings = []  # (formal, actual, default shape, modifier)
        publishes = []  # (key, modifier, formal, actual)
        for binding in node.attrs["bindings"]:
            if binding.kind == "const":
                continue
            declared = sub.vars.get(binding.formal)
            default_shape = tuple(declared.shape) if declared else ()
            bindings.append(
                (binding.formal, binding.actual, default_shape, binding.modifier)
            )
            if binding.modifier in ("output", "state"):
                publishes.append(
                    (
                        (node.uid, binding.actual),
                        binding.modifier,
                        binding.formal,
                        binding.actual,
                    )
                )
        self.bindings = tuple(bindings)
        self.publishes = tuple(publishes)
        self.produced = tuple((key, actual) for key, _, _, actual in publishes)

    def run(self, values, inputs, params, state, output_init):
        incoming = {name: values[key] for key, name in self.gather}
        sub_inputs, sub_params, sub_state, sub_output = {}, {}, {}, {}
        route = {
            "input": sub_inputs,
            "param": sub_params,
            "state": sub_state,
            "output": sub_output,
        }
        for formal, actual, default_shape, modifier in self.bindings:
            value = incoming.get(actual)
            if value is None:
                value = np.zeros(default_shape)
            target = route.get(modifier)
            if target is not None:
                target[formal] = value
        result = self.sub_plan.execute(
            inputs=sub_inputs,
            params=sub_params,
            state=sub_state,
            output_init=sub_output,
        )
        for key, modifier, formal, _ in self.publishes:
            if modifier == "output":
                values[key] = result.outputs[formal]
            else:
                values[key] = result.state[formal]


# ---------------------------------------------------------------------------
# Whole-graph plans
# ---------------------------------------------------------------------------


@dataclass
class PlanCounters:
    """Aggregate counters for one :class:`ExecutionPlan`."""

    executions: int = 0
    seconds: float = 0.0
    build_seconds: float = 0.0
    first_seconds: Optional[float] = None

    @property
    def steady_seconds(self):
        if self.executions <= 1:
            return 0.0
        return (self.seconds - (self.first_seconds or 0.0)) / (
            self.executions - 1
        )


class ExecutionPlan:
    """An srDFG compiled into a reusable, self-contained execution artifact.

    Built once per (graph, :class:`PlanConfig`, reductions) through
    :func:`plan_for_graph`; ``execute`` binds inputs/params/state and runs
    the prebuilt steps. Executing a plan never consults the graph, so one
    plan serves every structurally identical graph instance.
    """

    def __init__(self, graph, reductions=None, config=None, diagnostics=None,
                 stats=None):
        start = time.perf_counter()
        config = config or PlanConfig()
        if reductions is None:
            reductions = getattr(graph, "reductions", None)
        self.config = config
        self.reductions = dict(reductions or {})
        self.graph_name = graph.name
        self._graph_ref = weakref.ref(graph)
        float_dtype = config.float_dtype

        self.steps: List[_Step] = []
        #: label -> StatementPlan, in step order (this plan's level only).
        self.statements: Dict[str, StatementPlan] = {}
        self._components: List[Tuple[str, "ExecutionPlan"]] = []

        produced = set()
        order = graph.topological_order()
        for node in order:
            if node.kind == VAR:
                step = _VarStep(node, float_dtype)
            elif node.kind == CONST:
                step = _ConstStep(node, float_dtype)
            elif node.kind == COMPUTE:
                stmt = node.attrs["stmt"]
                statement = StatementPlan(
                    stmt,
                    node.attrs["index_ranges"],
                    node.attrs["static_env"],
                    lhs_shape=node.attrs["lhs_shape"],
                    dtype=node.attrs["dtype"],
                    reductions=self.reductions,
                    lattice_limit=config.lattice_limit,
                    float_dtype=float_dtype,
                    enable_einsum=config.enable_einsum,
                    label=f"{stmt.target} := {node.name}",
                    stats=stats,
                )
                label = statement.label
                serial = 2
                while label in self.statements:
                    label = f"{statement.label} #{serial}"
                    serial += 1
                self.statements[label] = statement
                step = _ComputeStep(
                    node, self._gather_list(graph, node, produced), statement
                )
            elif node.kind == COMPONENT:
                sub_plan = ExecutionPlan(
                    node.subgraph, reductions=self.reductions, config=config,
                    stats=stats,
                )
                self._components.append((node.name, sub_plan))
                step = _ComponentStep(
                    node, self._gather_list(graph, node, produced), sub_plan
                )
            else:
                raise ExecutionError(
                    f"cannot plan node kind {node.kind!r} ({node.name!r})"
                )
            produced.update(key for key, _ in step.produced)
            self.steps.append(step)

        self.collect = self._collect_plan(graph, produced)
        self.counters = PlanCounters(
            build_seconds=time.perf_counter() - start
        )
        self._counters_lock = threading.Lock()
        #: Optional generated-kernel tier (see repro.codegen); attached
        #: post-build by the driver, never required for correctness.
        #: ``kernel_declined`` remembers a build the emitter declined, so
        #: the driver attempts each plan once per process.
        self.kernel = None
        self.kernel_declined = False
        (stats or _DEFAULT_STATS).bump(graphs_planned=1)
        if diagnostics is not None:
            diagnostics.note(
                f"built execution plan for {graph.name!r}: "
                f"{self.statement_count} statement plan(s), "
                f"{len(self.steps)} step(s), "
                f"{self.counters.build_seconds * 1e3:.3f} ms "
                f"({config.describe()})",
                stage="plan",
            )

    # -- build helpers -----------------------------------------------------

    @staticmethod
    def _gather_list(graph, node, produced):
        """Prebound operand gather: (value key, local name) per in-edge.

        Keys are filtered against the statically known produced-key set,
        replacing the per-call ``if key in values`` probing the old
        interpreter did for every edge of every node on every run.
        """
        gather = []
        for edge in graph.in_edges(node):
            key = (edge.src.uid, edge.md.producer_name)
            if key in produced:
                gather.append((key, edge.md.name))
        return tuple(gather)

    @staticmethod
    def _collect_plan(graph, produced):
        """Resolved result collection: (name, modifier, final value key)."""
        collect = []
        for node in graph.var_nodes():
            modifier = node.attrs["modifier"]
            if modifier not in ("output", "state"):
                continue
            final = (node.uid, node.name)
            for edge in graph.edges:
                if edge.dst.uid == node.uid and edge.src.uid != node.uid:
                    key = (edge.src.uid, edge.md.producer_name)
                    if key in produced:
                        final = key
            collect.append((node.name, modifier, final))
        return tuple(collect)

    # -- execution ---------------------------------------------------------

    @property
    def graph(self):
        """The graph this plan was built from (None once collected)."""
        return self._graph_ref()

    def execute(self, inputs=None, params=None, state=None, output_init=None,
                trace=None, tracer=None):
        """One invocation of the prebuilt plan; returns ExecutionResult.

        *trace*, when a list, receives one record per executed step:
        ``{"node", "kind", "produced": {name: (shape, dtype)}}`` — the
        same lightweight execution trace the interpreter always offered.

        *tracer*, when an enabled :class:`repro.obs.Tracer`, records the
        invocation as one ``plan``-category span. It is a per-call
        argument rather than plan state because plans are shared across
        graphs, sessions, and servers — storing a tracer on the plan
        would leak one server's spans into another's timeline.
        """
        tier = "interpreted"
        if self.kernel is not None and trace is None:
            if tracer is not None and tracer.enabled:
                with tracer.span(
                    f"kernel {self.graph_name}", category="kernel",
                    steps=len(self.steps),
                ):
                    result = self.kernel.try_execute(
                        self, inputs, params, state, output_init
                    )
            else:
                result = self.kernel.try_execute(
                    self, inputs, params, state, output_init
                )
            if result is not None:
                return result
            # Runtime kernel fallback (already counted): re-execute
            # interpreted — the kernel never mutated the caller's dicts.
            tier = "fallback"
        if tracer is not None and tracer.enabled:
            with tracer.span(
                f"execute {self.graph_name}", category="plan",
                steps=len(self.steps),
            ):
                return self._execute(
                    inputs, params, state, output_init, trace, tier
                )
        return self._execute(inputs, params, state, output_init, trace, tier)

    def _execute(self, inputs, params, state, output_init, trace,
                 tier="interpreted"):
        start = time.perf_counter()
        inputs = inputs or {}
        params = params or {}
        state = state or {}
        output_init = output_init or {}

        values: Dict[tuple, np.ndarray] = {}
        for step in self.steps:
            step.run(values, inputs, params, state, output_init)
            if trace is not None:
                produced = {
                    name: (
                        tuple(np.shape(values[key])),
                        str(np.asarray(values[key]).dtype),
                    )
                    for key, name in step.produced
                }
                trace.append(
                    {"node": step.node_name, "kind": step.kind,
                     "produced": produced}
                )

        result = ExecutionResult(tier=tier)
        for name, modifier, final in self.collect:
            value = values[final]
            if modifier == "output":
                result.outputs[name] = value
            else:
                result.state[name] = value

        seconds = time.perf_counter() - start
        with self._counters_lock:
            self.counters.executions += 1
            self.counters.seconds += seconds
            if self.counters.first_seconds is None:
                self.counters.first_seconds = seconds
        return result

    def attach_kernel(self, kernel):
        """Attach (or detach, with None) a generated-kernel artifact.

        Subsequent ``execute`` calls prefer the kernel tier, falling
        back to the interpreted step list transparently whenever the
        kernel declines at run time or a step trace is requested.
        """
        self.kernel = kernel
        return self

    # -- reporting ---------------------------------------------------------

    @property
    def statement_count(self):
        """Recursive number of statement plans (component plans included)."""
        total = len(self.statements)
        for _, sub_plan in self._components:
            total += sub_plan.statement_count
        return total

    @property
    def graph_count(self):
        """Recursive number of ExecutionPlans (this plan + component plans).

        The ``plan`` group's ``graphs_planned`` advances by exactly this
        much when a plan is built, which is what lets the serving layer
        assert — by counters — that N coalesced requests planned each
        graph once.
        """
        total = 1
        for _, sub_plan in self._components:
            total += sub_plan.graph_count
        return total

    @property
    def plans_built(self):
        """How many statement plans this plan's construction built.

        Each statement's plan is constructed exactly once per
        ExecutionPlan, so this equals :attr:`statement_count`; the CI
        smoke step checks the ``plan`` group's ``statements_planned``
        delta against it to prove nothing was silently re-planned.
        """
        return self.statement_count

    def iter_statements(self, prefix=""):
        """Yield ``(label, StatementPlan)`` recursively, components prefixed."""
        for label, statement in self.statements.items():
            yield prefix + label, statement
        for name, sub_plan in self._components:
            yield from sub_plan.iter_statements(prefix=f"{prefix}{name}/")

    def stats_rows(self):
        """Per-statement rows: (label, path, built, executions, first ms,
        steady-state ms)."""
        return [
            (
                label,
                statement.path(),
                statement.built,
                statement.executions,
                statement.first_seconds or 0.0,
                statement.steady_seconds,
            )
            for label, statement in self.iter_statements()
        ]

    def render_stats(self):
        """Human-readable plan report (the `repro stats` plan section)."""
        counters = self.counters
        lines = [
            f"execution plan {self.graph_name!r} ({self.config.describe()}): "
            f"built in {counters.build_seconds * 1e3:.3f} ms, "
            f"{counters.executions} execution(s)"
        ]
        lines.append(
            f"  {'statement':34s} {'path':8s} {'built':>5s} {'execs':>6s} "
            f"{'first':>12s} {'steady':>12s}"
        )
        for label, path, built, executions, first, steady in self.stats_rows():
            lines.append(
                f"  {label:34s} {path:8s} {built:5d} {executions:6d} "
                f"{first * 1e3:9.3f} ms {steady * 1e3:9.3f} ms"
            )
        return "\n".join(lines)


def build_plan(graph, reductions=None, config=None, diagnostics=None,
               tracer=None, stats=None):
    """Compile *graph* into a fresh :class:`ExecutionPlan` (no memoisation).

    *stats* (a ``plan`` :class:`~repro.obs.Counters` group, e.g. one
    CompilerSession's) receives the build counters; without it they land
    in the process-default registry's ``plan`` group.
    """
    tracer = tracer or NULL_TRACER
    with tracer.span(
        f"plan-build {graph.name}", category="plan", graph=graph.name
    ) as span:
        plan = ExecutionPlan(
            graph, reductions=reductions, config=config,
            diagnostics=diagnostics, stats=stats,
        )
        span.note(steps=len(plan.steps), statements=plan.statement_count)
        return plan


# ---------------------------------------------------------------------------
# Plan sharing: single-flight builds and the per-instance memo
# ---------------------------------------------------------------------------


class SingleFlight:
    """In-process single-flight: at most one build per key at a time.

    The one implementation behind the per-instance plan memo below and
    every tier of :meth:`repro.driver.CompilerSession._resolve`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._flights: Dict[object, Future] = {}

    def run(self, key, lookup, build):
        """``(value, how)``: ``lookup()``'s answer (``"cache"``), else the
        value of one ``build()`` — run by the first caller to miss
        (``"built"``) and shared by everyone who misses while it runs
        (``"coalesced"``; they re-raise its error if it fails).

        *lookup* runs under the flight lock, so a caller either sees what
        a finished build published or joins the build still running — it
        can never miss both. *build* runs outside it.
        """
        with self._lock:
            value = lookup()
            if value is not None:
                return value, "cache"
            flight = self._flights.get(key)
            if flight is None:
                leading = self._flights[key] = Future()
        if flight is not None:
            return flight.result(), "coalesced"
        try:
            leading.set_result(build())
        except BaseException as exc:
            leading.set_exception(exc)
            raise
        finally:
            with self._lock:
                del self._flights[key]
        return leading.result(), "built"


#: graph -> {PlanConfig: ExecutionPlan}. Weak keys, and plans hold only a
#: weak reference back to their graph, so memoisation never extends a
#: graph's lifetime.
_PLAN_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: Guards _PLAN_MEMO — WeakKeyDictionary mutation is not thread-safe, and
#: the serving layer plans from many worker threads.
_MEMO_LOCK = threading.Lock()

#: Builds of (id(graph), PlanConfig) currently running; the leader's frame
#: keeps the graph alive, so its ``id`` stays valid for the whole flight.
_PLAN_FLIGHTS = SingleFlight()


def memoize_plan(graph, plan):
    """Seed the per-instance memo with an externally obtained plan.

    Used by the driver when the artifact cache's plan tier supplies a plan
    built from a structurally identical graph, so subsequent
    ``Executor(graph)`` construction on *this* instance reuses it too.
    """
    with _MEMO_LOCK:
        _PLAN_MEMO.setdefault(graph, {})[plan.config] = plan
    return plan


def plan_for_graph(graph, reductions=None, config=None, diagnostics=None,
                   tracer=None, stats=None):
    """The shared plan for *graph* under *config*; builds at most once.

    Consults the per-instance weak memo, then builds. Custom *reductions*
    differing from the graph's own bypass sharing entirely. (Sharing
    across structurally identical graph *instances* is the driver's plan
    tier, keyed on :func:`plan_cache_key`.)

    Concurrent callers over one graph instance coalesce: the first caller
    builds while followers wait and then return the very same plan — so
    ``plans_built == 1`` holds even when a serving worker pool floods one
    graph with requests.
    """
    config = config or PlanConfig()

    def build():
        return build_plan(
            graph, reductions=reductions, config=config,
            diagnostics=diagnostics, tracer=tracer, stats=stats,
        )

    def memoized():
        with _MEMO_LOCK:
            return _PLAN_MEMO.get(graph, {}).get(config)

    own = dict(getattr(graph, "reductions", None) or {})
    if reductions is not None and dict(reductions) != own:
        return build()  # sharing is only safe for the graph's own set
    plan, _ = _PLAN_FLIGHTS.run(
        (id(graph), config), memoized, lambda: memoize_plan(graph, build())
    )
    return plan


# ---------------------------------------------------------------------------
# Structural fingerprinting
# ---------------------------------------------------------------------------


def _binding_signature(binding):
    return (
        binding.kind,
        binding.formal,
        binding.actual,
        binding.modifier,
        repr(binding.value),
    )


def _node_signature(node):
    attrs = node.attrs
    if node.kind == COMPUTE:
        return (
            "compute",
            node.name,
            render_stmt(attrs["stmt"], indent=""),
            tuple(sorted(attrs["index_ranges"].items())),
            tuple(
                (name, repr(value))
                for name, value in sorted(attrs["static_env"].items())
            ),
            tuple(attrs["lhs_shape"]),
            attrs["dtype"],
        )
    if node.kind == VAR:
        return (
            "var",
            node.name,
            attrs.get("modifier"),
            attrs.get("dtype"),
            tuple(attrs.get("shape", ())),
        )
    if node.kind == CONST:
        return (
            "const",
            node.name,
            repr(attrs.get("value")),
            attrs.get("dtype", "float"),
        )
    if node.kind == COMPONENT:
        return (
            "component",
            node.name,
            tuple(
                _binding_signature(binding) for binding in attrs["bindings"]
            ),
            _graph_signature(node.subgraph),
        )
    return (node.kind, node.name)


def _graph_signature(graph):
    """Nested-tuple structural signature of an srDFG (uid-free)."""
    position = {node.uid: index for index, node in enumerate(graph.nodes)}
    nodes = tuple(_node_signature(node) for node in graph.nodes)
    edges = tuple(
        (
            position[edge.src.uid],
            position[edge.dst.uid],
            edge.md.name,
            edge.md.producer_name,
            edge.md.dtype,
            edge.md.modifier,
            tuple(edge.md.shape),
        )
        for edge in graph.edges
    )
    reductions = tuple(
        sorted(
            (name, render_reduction(definition))
            for name, definition in (getattr(graph, "reductions", None) or {}).items()
        )
    )
    return (graph.name, nodes, edges, reductions)


def graph_fingerprint(graph):
    """sha256 hex digest of the graph's execution-relevant structure.

    Two graphs with equal fingerprints execute identically, so a plan
    built from one is valid for the other — node uids, which differ
    between builds, are deliberately reduced to positions.
    """
    digest = hashlib.sha256()
    digest.update(repr(_graph_signature(graph)).encode("utf-8"))
    return digest.hexdigest()


def plan_cache_key(graph, config=None, fingerprint=None):
    """Registry key for one (graph structure, plan configuration) pair.

    *fingerprint* is *graph*'s :func:`graph_fingerprint` when the caller
    already holds it (a compiled application carries its own).
    """
    config = config or PlanConfig()
    digest = hashlib.sha256()
    digest.update((fingerprint or graph_fingerprint(graph)).encode("utf-8"))
    digest.update(repr(config.key()).encode("utf-8"))
    return digest.hexdigest()

"""Plan/execute engine for srDFGs: compile once, run many times.

Every backend in this stack funnels through the functional interpreter
(``CompiledApplication.run``, the HostManager's retry/host-fallback
path, workload reference drivers), and steady-state
workloads — an MPC control loop, a chaos run retrying the same stage —
invoke the *same* graph thousands of times. Re-deriving axis spaces,
einsum eligibility, chunk plans, topological order, and dtype tables on
every call is pure waste: none of it depends on the run's data.

This module splits execution into two artifacts, in the spirit of DaCe's
and MLIR's separation of analyzable lowering from a reusable executable:

:class:`StatementPlan`
    Everything about one formula statement that is knowable from the
    graph alone: its :class:`~repro.srdfg.interpreter._AxisSpace`, the
    planned contraction of each of its reductions, nested ones included
    (subscript strings, operand shape requirements, static scalar
    factors, numpy's contraction steps), the chunking decision for big
    reductions, the resolved target dtype, and how the result is stored
    (:class:`StoreForm`: a cover, a slice store or a scatter, decided
    from the write subscripts; the kernel emitter prints the same store).

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
stats --execute N`` and the ``plan-reuse`` row of ``repro selfcheck``
assert each statement plan is built exactly once while being executed
N times.

:func:`plan_for_graph` memoises plans per graph *instance* (weakly, so
plans never extend a graph's lifetime); cross-instance reuse is the
driver's plan tier, keyed on :func:`plan_cache_key`. Both build through
:class:`SingleFlight`, the stack's one in-process single-flight.
:class:`~repro.srdfg.interpreter.Executor` is a thin facade that plans
lazily through this function.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading
import time
import weakref
from collections import namedtuple
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ExecutionError
from ..obs import DEFAULT_REGISTRY, NULL_TRACER
from ..pmlang import ast_nodes as ast
from ..pmlang.render import render_reduction, render_stmt
from .graph import COMPONENT, COMPUTE, CONST, VAR
from . import interpreter
from .interpreter import (
    ExecutionResult,
    PRECISIONS,
    StaticMemo,
    _AxisSpace,
    _ExprEvaluator,
    _MemoEvaluator,
    _affine,
    _plan_chunks,
    compile_einsum,
    resolve_dtype,
)

__all__ = [
    "CompressedReduction",
    "ExecutionPlan",
    "POINTS_STATS",
    "PLAN_FIELDS",
    "PlanConfig",
    "SingleFlight",
    "StatementPlan",
    "StoreForm",
    "build_plan",
    "graph_fingerprint",
    "memoize_plan",
    "plan_cache_key",
    "plan_for_graph",
    "store_form",
]


# ---------------------------------------------------------------------------
# Configuration and counters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanConfig:
    """Everything a plan's shape depends on besides the graph itself."""

    precision: str = "f64"
    enable_einsum: bool = True

    def __post_init__(self):
        if self.precision not in PRECISIONS:
            raise ExecutionError(
                f"unknown precision {self.precision!r}; choose from "
                f"{sorted(PRECISIONS)}"
            )

    @property
    def float_dtype(self):
        return PRECISIONS[self.precision]

    def key(self):
        # The lattice limit every statement plan chunks at, a constant.
        return (self.precision, interpreter.DEFAULT_LATTICE_LIMIT, self.enable_einsum)

    def describe(self):
        einsum = "on" if self.enable_einsum else "off"
        return (
            f"precision={self.precision} einsum={einsum} "
            f"lattice_limit={interpreter.DEFAULT_LATTICE_LIMIT}"
        )


#: Field names of a ``plan`` counter group (see :mod:`repro.obs.metrics`).
PLAN_FIELDS = ("graphs_planned", "statements_planned")

#: Where a plan build counts when it is handed no ``stats=`` group.
#: Wall-clock assertions flake; these do not: the reuse checks assert
#: that the number of statement plans built equals the statement count —
#: each plan constructed exactly once however many steps run.
_DEFAULT_STATS = DEFAULT_REGISTRY.counters("plan", PLAN_FIELDS)

#: ``built`` counts the :class:`~repro.srdfg.interpreter.Points` that
#: :meth:`CompressedReduction.points` derived. Process-scoped: points
#: outlive sessions with their plans.
POINTS_STATS = DEFAULT_REGISTRY.counters("points", ("built",))


# ---------------------------------------------------------------------------
# Per-statement plans
# ---------------------------------------------------------------------------


def _frozen(value):
    """True when *value* is an ndarray nothing can write through numpy:
    it and every array it views are read-only, down to an owner or
    immutable bytes."""
    if not isinstance(value, np.ndarray):
        return False
    while isinstance(value, np.ndarray):
        if value.flags.writeable:
            return False
        value = value.base
    return value is None or isinstance(value, bytes)


class CompressedReduction:
    """A predicated ``min``/``max`` of one statement that runs on its
    predicate's true points (:class:`~repro.srdfg.interpreter.Points`).

    Eligible, decided at plan build from the statement alone, is a
    reduction outside any other whose predicate reads params (at least
    one), index variables, static names and literals only, and whose
    argument holds no reduction, reads no index variable the predicate
    does not or the reduction binds, and subscripts with index variables,
    static names and literals only. Its points are then a function of the
    params the predicate reads, and so is every subscript of a param the
    argument reads at them (:meth:`taken_nodes`: LiveJourn-SSP's
    ``w[u][v]``). A read-only param (:func:`_frozen`) is constant for the
    life of the object, so the points and those param gathers
    (``Points.taken``) are derived the first time the statement runs with
    read-only params — by the one evaluator, then ``np.nonzero`` — and
    kept in a one-slot memo keyed by weak references to those params (and
    the shapes of the operands the argument reads). The interpreted
    statement and its generated kernel share this object, so they share
    the memo. A writeable param never builds a memo: the reduction stays
    on the lattice. So does one whose predicate selects more than
    ``POINTS_SHARE`` of its lattice, or whose argument raises at the
    points: the memo then holds None.
    """

    __slots__ = (
        "expr", "axes", "params", "operands", "names", "space", "static_env",
        "reductions", "shape", "size", "_memo", "_lock",
    )

    def __init__(self, expr, axes, params, operands, names, space, static_env,
                 reductions, point_shape):
        self.expr = expr
        self.axes = axes
        #: The params the predicate reads or the argument gathers (their
        #: identities key the memo), and every other operand the argument
        #: reads (only their shapes do).
        self.params = params
        self.operands = operands
        #: The index variables the argument reads: the points' coordinates.
        self.names = names
        self.space = space
        self.static_env = static_env
        self.reductions = reductions
        #: The result shape (reduced axes kept as singletons), and the size
        #: of the lattice the points are drawn from — the most there can be.
        self.shape = tuple(1 if axis in axes else n for axis, n in enumerate(point_shape))
        self.size = math.prod(point_shape)
        self._memo = None
        self._lock = threading.Lock()

    @classmethod
    def find(cls, stmt, space, static_env, params, reductions):
        """The eligible reductions of *stmt* (see the class docstring)."""
        found = [node for node in ast.walk_expr(stmt.value) if isinstance(node, ast.ReductionCall)]
        inner = {
            id(node)
            for reduction in found
            for part in (reduction.arg, *(spec.predicate for spec in reduction.indices))
            for node in ast.walk_expr(part)
            if isinstance(node, ast.ReductionCall)
        }
        return tuple(filter(None, (
            cls._eligible(node, space, static_env, params, reductions)
            for node in found if id(node) not in inner
        )))

    @classmethod
    def _eligible(cls, expr, space, static_env, params, reductions):
        predicates = [spec.predicate for spec in expr.indices if spec.predicate is not None]
        if expr.op not in ("min", "max") or not predicates:
            return None
        indices = set(space.axis)
        read = set()
        for predicate in predicates:
            if any(isinstance(node, ast.ReductionCall) for node in ast.walk_expr(predicate)):
                return None
            names = ast.expr_names(predicate)
            if names - indices - set(static_env) - set(params):
                return None
            read |= names
        if not read & set(params):
            return None
        bound = {spec.name for spec in expr.indices}
        arg_names = ast.expr_names(expr.arg)
        if (arg_names & indices) - read - bound:
            return None
        for node in ast.walk_expr(expr.arg):
            if isinstance(node, ast.ReductionCall):
                return None
            if isinstance(node, ast.Indexed):
                for index_expr in node.indices:
                    for part in ast.walk_expr(index_expr):
                        if isinstance(part, ast.Indexed) or (
                            isinstance(part, ast.Name)
                            and part.id not in indices and part.id not in static_env
                        ):
                            return None
        point_shape = tuple(
            space.size(name) if name in read or name in bound else 1
            for name in space.order
        )
        if 0 in point_shape:
            return None
        gathered = {node.base for node in cls._gathers(expr.arg, set(params), indices)}
        return cls(
            expr,
            tuple(space.axis[spec.name] for spec in expr.indices),
            tuple(sorted(read & set(params) | gathered)),
            tuple(sorted(arg_names - indices - set(static_env))),
            tuple(sorted(arg_names & indices)),
            space, static_env, reductions, point_shape,
        )

    @staticmethod
    def _gathers(arg, params, indices):
        """The subscripts of a name in *params* that *arg* reads with an
        index variable, in walk order."""
        return [
            node for node in ast.walk_expr(arg)
            if isinstance(node, ast.Indexed) and node.base in params
            and any(ast.expr_names(index_expr) & indices for index_expr in node.indices)
        ]

    def taken_nodes(self):
        """The argument's subscripts of a memo-keyed param, each read at
        the points once, when they are derived: ``Points.taken`` holds
        their values, in this order."""
        return self._gathers(self.expr.arg, set(self.params), set(self.space.axis))

    def taken(self, points):
        """``id(node) -> value`` of :meth:`taken_nodes` at *points*."""
        return {id(node): value for node, value in zip(self.taken_nodes(), points.taken)}

    def points(self, values):
        """The :class:`~repro.srdfg.interpreter.Points` for the operand
        *values* (name -> array), or None: the lattice answers. Derived
        once per read-only param object; generated kernels call this very
        method."""
        params = [values.get(name) for name in self.params]
        if not all(map(_frozen, params)):
            return None
        shapes = tuple(np.shape(values.get(name)) for name in self.operands)
        memo = self._memo
        if not self._holds(memo, params, shapes):
            with self._lock:
                memo = self._memo
                if not self._holds(memo, params, shapes):
                    memo = self._memo = (
                        tuple(map(weakref.ref, params)), shapes, self._derive(values),
                    )
        return memo[2]

    @staticmethod
    def _holds(memo, params, shapes):
        return memo is not None and memo[1] == shapes and all(
            ref() is value for ref, value in zip(memo[0], params)
        )

    def _derive(self, values):
        evaluator = _ExprEvaluator(self.space, self.static_env, values, self.reductions)
        try:
            points = evaluator._select_points(self.expr, self.axes, self.names)
            if points is not None:
                points.taken = tuple(
                    evaluator._at_points(node, points.coords) for node in self.taken_nodes()
                )
                for value in points.taken:
                    value.flags.writeable = False  # shared by every later step
                evaluator._at_points(self.expr.arg, points.coords, self.taken(points))
        except ExecutionError:
            return None  # the lattice raises it
        if points is not None:
            POINTS_STATS.bump(built=1)
        return points

    # Pickled with their statement (kernel constants go to the disk
    # tier): the memo and the lock are dropped.

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__[:-2]}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self._memo = None
        self._lock = threading.Lock()


def _cells(origin, step, count):
    """The basic slice selecting *count* cells from *origin* by *step*."""
    return slice(origin, origin + step * (count - 1) + 1, None if step == 1 else step)


def _slice_store(subscripts, shape, lattice):
    """``(index, order, cover)`` writing the payload through the static
    *subscripts* as ``target[index] = payload.transpose(order)``, or None.

    Each subscript must be constant or ``origin + step*a``
    (:func:`~repro.srdfg.interpreter._affine`), ``step >= 1``, over a
    lattice axis ``a`` of its own, and every lattice axis of extent other
    than 1 mapped: then each lattice point writes a cell of its own, so
    no write order shows. *order* (None for the identity) moves the
    payload's unmapped axes first, where assignment drops them; *cover*
    says *index* is every cell, in the payload's C order.
    """
    if len(subscripts) != len(shape):
        return None
    steps = []
    for value in subscripts:
        affine = _affine(value) if value.ndim in (0, len(lattice)) else None
        if affine is None or len(affine[1]) > 1:
            return None
        origin, coeffs = affine
        axis, step = next(iter(coeffs.items()), (None, 0))
        if axis is not None and value.shape[axis] != lattice[axis]:
            return None
        steps.append((origin, axis, step))
    return _slice_index(steps, shape, lattice)


def _slice_index(steps, shape, lattice):
    """:func:`_slice_store`'s answer for subscripts given as ``(origin,
    axis, step)``: ``origin + step*a`` over lattice axis ``a``, or the
    constant *origin* when *axis* is None."""
    index, mapped = [], []
    for (origin, axis, step), extent in zip(steps, shape):
        if axis is None:
            index.append(origin)  # an integer: the dimension drops
            continue
        count = lattice[axis]
        if step < 1 or axis in mapped:
            return None
        mapped.append(axis)
        index.append(slice(None) if count == extent else _cells(origin, step, count))
    unmapped = [axis for axis in range(len(lattice)) if axis not in mapped]
    if any(lattice[axis] != 1 for axis in unmapped):
        return None
    order = tuple(unmapped + mapped)
    whole = [part == slice(None) for part in index]
    cover = mapped == sorted(mapped) and all(
        part or extent == 1 for part, extent in zip(whole, shape)
    )
    if not mapped:
        index.append(Ellipsis)  # a 0-d view broadcasts, an element does not
    elif all(whole):
        index = [Ellipsis]
    return tuple(index), None if order == tuple(sorted(order)) else order, cover


def _is_row_major_cover(subscripts, shape, lattice):
    """True when the write is a full cover that is a reshape view.

    Dimension d's subscripts must vary over their own contiguous run of
    lattice axes only — the runs in dimension order, between them using
    up the lattice — and, flattened, count ``0..shape[d]-1``. Then
    lattice point ``a`` lands on the cell whose d-th coordinate is the
    row-major rank of ``a`` within run d, which is precisely
    ``target.reshape(lattice)[a]``: a blocked store such as
    ``out[by*8+u][bx*8+v]`` over ``(by, u, bx, v)``. The subscript arrays
    arrive un-broadcast, so the test reads ``sum(shape)`` elements, not
    the lattice.
    """
    if len(subscripts) != len(shape):
        return False
    rank = len(lattice)
    axis = 0
    for value, extent in zip(subscripts, shape):
        stop, covered = axis, 1
        while stop < rank and covered < extent:
            covered *= lattice[stop]
            stop += 1
        run_shape = (1,) * axis + lattice[axis:stop] + (1,) * (rank - stop)
        if (
            value.dtype.kind not in ("i", "u")
            or value.shape != run_shape
            or not np.array_equal(value.reshape(-1), np.arange(extent))
        ):
            return False
        axis = stop
    return all(size == 1 for size in lattice[axis:])


def _shifted_name(index_expr):
    """``(name, shift)`` of a subscript ``name``, ``name + c``, ``c + name``
    or ``name - c`` for an integer literal ``c``; else ``(None, 0)``."""
    if isinstance(index_expr, ast.Name):
        return index_expr.id, 0
    if isinstance(index_expr, ast.BinOp) and index_expr.op in ("+", "-"):
        name, shift = index_expr.left, index_expr.right
        if index_expr.op == "+" and isinstance(name, ast.Literal):
            name, shift = shift, name
        if isinstance(name, ast.Name) and isinstance(shift, ast.Literal) and type(shift.value) is int:
            return name.id, shift.value if index_expr.op == "+" else -shift.value
    return None, 0


class StoreForm(namedtuple("StoreForm", "shape index order cover view subscripts")):
    """How one statement writes its target of *shape*: decided once, at
    plan build (:func:`store_form`), from its static write subscripts and
    the lattice its payload spans. Both tiers run it through
    :meth:`StatementPlan.write` over their evaluator's store primitives:
    the interpreted plan's call numpy, the kernel emitter's print the
    calls. Neither derives the form again.

    *index* is a basic index (ints, slices, ``Ellipsis``) that writes
    each cell the subscripts name once, with the payload transposed by
    *order* (None: as it is) and the target viewed as *view* (None: as
    it is; a row-major cover views it as the lattice); *cover* says
    every cell is written. None: the subscripts are not affine, and the
    payload scatters through *subscripts* (one bounds-checked integer
    array per target dimension, un-broadcast; kept for this form only).
    """

    __slots__ = ()


def store_form(subscripts, shape, lattice):
    """The :class:`StoreForm` of a write through the static *subscripts*
    into a target of *shape*, of a payload spanning *lattice*."""
    shape, lattice = tuple(shape), tuple(lattice)
    window = _slice_store(subscripts, shape, lattice)
    if window is not None:
        return StoreForm(shape, *window, None, None)
    if _is_row_major_cover(subscripts, shape, lattice):
        return StoreForm(shape, (Ellipsis,), None, True, lattice, None)
    return StoreForm(shape, None, None, False, None, tuple(subscripts))


class StatementPlan:
    """One formula statement, compiled for repeated execution.

    Hoists out of the per-call path: axis-space construction, every
    reduction's einsum-eligibility decision (:attr:`contractions`, with
    precomputed subscript strings and contraction steps), the chunking
    decision for over-limit reductions,
    target-dtype resolution, which predicated reductions may run on
    their predicate's points (:class:`CompressedReduction`; *params*
    names the operands bound to ``param`` variables), and the store
    form (:attr:`store`). ``execute`` binds
    the statement's operand values and runs the prebuilt plan; its first
    step makes :attr:`statics` over *memo*, which a plan's statements share.
    """

    __slots__ = (
        "stmt",
        "index_ranges",
        "static_env",
        "lhs_shape",
        "dtype",
        "reductions",
        "float_dtype",
        "label",
        "space",
        "chunk_plan",
        "contractions",
        "einsum",
        "compressed",
        "target_dtype",
        "store",
        "memo",
        "statics",
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
        float_dtype=np.float64,
        enable_einsum=True,
        label=None,
        stats=None,
        params=(),
        memo=None,
    ):
        start = time.perf_counter()
        self.stmt = stmt
        self.index_ranges = index_ranges
        self.static_env = static_env
        self.lhs_shape = tuple(lhs_shape)
        self.dtype = dtype
        self.reductions = dict(reductions or {})
        self.float_dtype = float_dtype
        self.label = label or stmt.target

        self.space = _AxisSpace(stmt, index_ranges)
        self.target_dtype = resolve_dtype(dtype, float_dtype)
        self.chunk_plan = _plan_chunks(stmt, self.space)
        #: ``(node, _EinsumPlan)`` of every reduction in the statement that
        #: is a contraction, nested ones included: keyed by the node
        #: itself, which a pickle of the statement keeps with its ``stmt``.
        self.contractions = tuple(
            (node, einsum)
            for node in ast.walk_expr(stmt.value)
            if enable_einsum and isinstance(node, ast.ReductionCall)
            and (einsum := compile_einsum(node, self.space, static_env)) is not None
        )
        self.einsum = next(
            (einsum for node, einsum in self.contractions if node is stmt.value), None
        )
        self.compressed = () if self.chunk_plan is not None else CompressedReduction.find(
            stmt, self.space, static_env, params, self.reductions
        )
        self.store = self._store_form()
        self.memo = {} if memo is None else memo
        self.statics = None

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
        if self.statics is None:
            with self._lock:
                if self.statics is None:
                    self.statics = StaticMemo(
                        self.stmt.value, self.space, self.static_env, self.memo
                    )
        make = (
            functools.partial(_MemoEvaluator, statics=self.statics)
            if self.statics.nodes else _ExprEvaluator
        )
        evaluator = make(
            self.space,
            self.static_env,
            var_values,
            self.reductions,
            contractions=self.contractions,
            compressed=self.compressed,
        )
        raw = evaluator.statement_value(self.stmt, self.einsum, self.chunk_plan)
        result = self.write(evaluator, raw)
        seconds = time.perf_counter() - start
        # Plans are shared across serving workers; counter updates must
        # not lose increments (the reuse assertions are counter-based).
        with self._lock:
            self.executions += 1
            self.seconds += seconds
            if self.first_seconds is None:
                self.first_seconds = seconds
        return result

    def _store_form(self):
        """The statement's :class:`StoreForm`; None without subscripts.
        Subscripts that are index names, each maybe shifted by an integer
        literal, and in range are read off the axis space; others are
        evaluated (:meth:`_evaluated_store_form`)."""
        stmt, space, shape = self.stmt, self.space, self.lhs_shape
        if not stmt.target_indices:
            return None
        steps = []
        for index_expr, extent in zip(stmt.target_indices, shape):
            name, shift = _shifted_name(index_expr)
            if name not in space.axis:
                break
            low, high = space.index_ranges[name]
            low, high = low + shift, high + shift
            if not 0 <= low <= high < extent:
                break
            steps.append((low, space.axis[name], 1) if high > low else (low, None, 0))
        index = None
        if len(steps) == len(stmt.target_indices) == len(shape):
            index = _slice_index(steps, shape, space.free_shape)
        if index is None:
            return self._evaluated_store_form()
        return StoreForm(shape, *index, None, None)

    def _evaluated_store_form(self):
        """The :class:`StoreForm` of the write subscripts evaluated once
        over the free lattice; None when they read operand data (unbound
        here) or leave the target, as they will again where the statement
        runs."""
        stmt = self.stmt
        evaluator = _ExprEvaluator(self.space, self.static_env, {}, self.reductions)
        try:
            subscripts = evaluator.write_subscripts(stmt, self.lhs_shape)
        except ExecutionError:
            return None
        return store_form(subscripts, self.lhs_shape, self.space.free_shape)

    def write(self, evaluator, raw):
        """A new array of the target dtype holding the statement's target
        after the write of its value *raw*, through *evaluator*'s store
        primitives: the one store both tiers run.

        A statement with write subscripts writes by its :class:`StoreForm`,
        decided at plan build: a cover into an empty array, a slice store
        through a basic index over the previous value (when it has the
        target's shape) or zeros, and only subscripts that are not affine
        through the fancy scatter. Subscripts that read operand data are
        evaluated here, and scatter."""
        stmt = self.stmt
        target_dtype = self.target_dtype
        lhs_shape = self.lhs_shape

        if not stmt.target_indices:
            if lhs_shape not in ((), (1,)):
                raise ExecutionError(
                    f"whole-array assignment to {stmt.target!r} requires "
                    "subscripts"
                )
            # A copy: *raw* may be a read-only value of the static memo.
            return evaluator._reshape(evaluator._copied(raw, target_dtype), lhs_shape)

        form = self.store
        if form is None:
            form = StoreForm(
                lhs_shape, None, None, False, None, evaluator.write_subscripts(stmt, lhs_shape)
            )
        previous = evaluator._operand(stmt.target)
        if form.cover:
            out = evaluator._allocate(lhs_shape, target_dtype, zeros=False)
        elif previous is not None and previous.shape == lhs_shape:
            out = evaluator._copied(previous, target_dtype)
        else:
            out = evaluator._allocate(lhs_shape, target_dtype, zeros=True)
        if form.index is None:
            return evaluator._scatter(out, form.subscripts, raw)
        return evaluator._write(out, form.index, form.order, form.view, raw)

    # Kernels carry statements in their lattice-reduction constants and
    # are pickled into the disk cache tier: the lock and the static memo
    # are dropped and recreated, and the execution counters restart at
    # zero in the loading process.

    def __getstate__(self):
        state = {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("memo", "statics", "_lock")
        }
        state.update(executions=0, seconds=0.0, first_seconds=None)
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self.memo, self.statics = {}, None
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
        """Which evaluation path this plan prefers
        (einsum/compressed/chunked/lattice)."""
        if self.einsum is not None:
            return "einsum"
        if self.compressed:
            return "compressed"
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


def _bind(values, name, modifier, shape, dtype):
    """The array variable *name* binds to: *values*' entry (the caller's
    dict of its *modifier*, ``{}`` for a local read before it is
    written), as *dtype* and checked against *shape*. A missing input or
    param raises; a missing state, output or local reads zeros. Both
    tiers bind through it: a kernel prints one call per variable."""
    if modifier == "input" or modifier == "param":
        if name not in values:
            raise ExecutionError(f"missing {modifier} {name!r}")
        value = values[name]
    else:
        value = values.get(name)
        if value is None:
            return np.zeros(shape, dtype)
    array = np.asarray(value, dtype=dtype)
    if array.shape != shape:
        raise ExecutionError(f"value for {name!r} has shape {array.shape}, declared {shape}")
    return array


#: A variable's modifier -> the ``run`` argument it binds from (a
#: kernel's parameter, in the same order); a local binds from an empty
#: dict, index 4.
_SOURCE = {"input": 0, "param": 1, "state": 2, "output": 3}


class _VarStep(_Step):
    __slots__ = ("key", "name", "modifier", "np_dtype", "shape", "source")

    def __init__(self, node, float_dtype):
        self.node_name = node.name
        self.kind = VAR
        self.key = (node.uid, node.name)
        self.name = node.name
        self.modifier = node.attrs["modifier"]
        self.np_dtype = resolve_dtype(node.attrs["dtype"], float_dtype)
        self.shape = tuple(node.attrs["shape"])
        self.source = _SOURCE.get(self.modifier, 4)
        self.produced = ((self.key, self.name),)

    def run(self, values, inputs, params, state, output_init):
        source = (inputs, params, state, output_init, {})[self.source]
        values[self.key] = _bind(source, self.name, self.modifier, self.shape, self.np_dtype)


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
    build_seconds: float = 0.0


class ExecutionPlan:
    """An srDFG compiled into a reusable, self-contained execution artifact.

    Built once per (graph, :class:`PlanConfig`, reductions) through
    :func:`plan_for_graph`; ``execute`` binds inputs/params/state and runs
    the prebuilt steps. Executing a plan never consults the graph, so one
    plan serves every structurally identical graph instance.
    """

    def __init__(self, graph, reductions=None, config=None, diagnostics=None,
                 stats=None, memo=None):
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
        #: The static values of its and its components' statements.
        self.memo = {} if memo is None else memo

        produced = set()
        #: Value keys of the ``param`` variables.
        param_keys = set()
        order = graph.topological_order()
        for node in order:
            if node.kind == VAR:
                step = _VarStep(node, float_dtype)
                if step.modifier == "param":
                    param_keys.add(step.key)
            elif node.kind == CONST:
                step = _ConstStep(node, float_dtype)
            elif node.kind == COMPUTE:
                stmt = node.attrs["stmt"]
                gather = self._gather_list(graph, node, produced)
                statement = StatementPlan(
                    stmt,
                    node.attrs["index_ranges"],
                    node.attrs["static_env"],
                    lhs_shape=node.attrs["lhs_shape"],
                    dtype=node.attrs["dtype"],
                    reductions=self.reductions,
                    float_dtype=float_dtype,
                    enable_einsum=config.enable_einsum,
                    label=f"{stmt.target} := {node.name}",
                    stats=stats,
                    params=frozenset(name for key, name in gather if key in param_keys),
                    memo=self.memo,
                )
                label = statement.label
                serial = 2
                while label in self.statements:
                    label = f"{statement.label} #{serial}"
                    serial += 1
                self.statements[label] = statement
                step = _ComputeStep(node, gather, statement)
            elif node.kind == COMPONENT:
                sub_plan = ExecutionPlan(
                    node.subgraph, reductions=self.reductions, config=config,
                    stats=stats, memo=self.memo,
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
        #: ``kernel_declined`` holds the reason the emitter declined a
        #: build, so a session attempts each plan once per process.
        self.kernel = None
        self.kernel_declined = None
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
        if self.kernel is not None and trace is None:
            if tracer is not None and tracer.enabled:
                with tracer.span(
                    f"kernel {self.graph_name}", category="kernel",
                    steps=len(self.steps),
                ):
                    return self.kernel.try_execute(
                        self, inputs, params, state, output_init
                    )
            return self.kernel.try_execute(
                self, inputs, params, state, output_init
            )
        if tracer is not None and tracer.enabled:
            with tracer.span(
                f"execute {self.graph_name}", category="plan",
                steps=len(self.steps),
            ):
                return self._execute(inputs, params, state, output_init, trace)
        return self._execute(inputs, params, state, output_init, trace)

    def _execute(self, inputs, params, state, output_init, trace):
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

        result = ExecutionResult()
        for name, modifier, final in self.collect:
            value = values[final]
            if modifier == "output":
                result.outputs[name] = value
            else:
                result.state[name] = value

        self.count_execution()
        return result

    def count_execution(self):
        """Count one execution on either tier."""
        with self._counters_lock:
            self.counters.executions += 1

    def attach_kernel(self, kernel):
        """Attach (or detach, with None) a generated-kernel artifact.

        Subsequent ``execute`` calls run the kernel, or the interpreted
        step list when a step trace is requested.
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
        ExecutionPlan, so this equals :attr:`statement_count`; the
        ``plan-reuse`` row of ``repro selfcheck`` checks the ``plan``
        group's ``statements_planned`` delta against it to prove nothing
        was silently re-planned.
        """
        return self.statement_count

    def iter_statements(self, prefix=""):
        """Yield ``(label, StatementPlan)`` recursively, components prefixed."""
        for label, statement in self.statements.items():
            yield prefix + label, statement
        for name, sub_plan in self._components:
            yield from sub_plan.iter_statements(prefix=f"{prefix}{name}/")

    def stats_rows(self):
        """Per-statement rows: (label, path, built, executions, first
        seconds, steady-state seconds, static memo entries read, bytes
        stored first)."""
        return [
            (
                label,
                statement.path(),
                statement.built,
                statement.executions,
                statement.first_seconds or 0.0,
                statement.steady_seconds,
                *(
                    (0, 0) if statement.statics is None
                    else (len(statement.statics.values), statement.statics.nbytes)
                ),
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
            f"  {'statement':34s} {'path':10s} {'built':>5s} {'execs':>6s} "
            f"{'first':>12s} {'steady':>12s} {'static':>6s} {'bytes':>10s}"
        )
        for label, path, built, executions, first, steady, static, nbytes in self.stats_rows():
            lines.append(
                f"  {label:34s} {path:10s} {built:5d} {executions:6d} "
                f"{first * 1e3:9.3f} ms {steady * 1e3:9.3f} ms {static:6d} {nbytes:10d}"
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

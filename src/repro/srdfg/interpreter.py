"""Vectorised functional interpreter for srDFGs.

This is the reference execution engine behind every backend: accelerator
simulators run the *same* lowered graphs functionally through this module,
so their outputs can be checked against hand-written numpy references.

Evaluation strategy for a formula statement
-------------------------------------------
Every index variable in a statement is assigned one broadcast axis: the
free (LHS) indices first, then each reduction's bound indices. An index
variable evaluates to an ``arange`` reshaped to occupy its axis, so the
whole right-hand side evaluates to an ndarray over the statement's index
lattice with plain numpy broadcasting — including strided subscripts like
``ctrl_prev[(i+1)*h]`` (fancy indexing with integer arrays) and boolean
reduction predicates. A predicated ``sum``/``prod``/``argmin``/``argmax``
masks its argument with the reduction's identity element; a predicated
``min``/``max`` is one masked ufunc reduction (``where=`` the mask,
``initial=`` the identity) over the broadcast argument, so no
lattice-sized select is built. The two agree bit for bit but for one
edge: when a tie is between ``-0.0`` and ``+0.0``, the masked reduction
may return the other zero than select-then-reduce did. NaN and the
infinities behave identically. A predicated ``min``/``max`` whose
predicate reads only params, index variables and literals runs on the
predicate's true points instead (:class:`Points`), once the statement's
plan has derived them from a read-only param.

Two optimisations keep large workloads practical without changing
semantics:

* a ``sum``-of-products whose subscripts are affine in the index
  variables is a contraction over zero-copy strided views of its
  operands (dot/matvec/matmul, general tensor contractions, strided and
  windowed ones such as convolutions). Its shapes are static, so its
  form is decided once when the plan is built (:func:`_contraction_steps`):
  the contraction order and each pairwise step's batch-matmul lowering
  that ``numpy.einsum(..., optimize=True)`` would pick, but a matmul
  whose product einsum would transpose takes its terms swapped. Both
  tiers replay exactly that form (:func:`_contract`) after checking each
  operand's rank and each subscript's range against the run-time shape:
  a contraction's bytes are the bytes of the form the plan chose;
* other big reductions are evaluated in chunks along their largest bound
  axis so the materialised lattice stays under
  :data:`DEFAULT_LATTICE_LIMIT` elements.

Planning vs executing
---------------------
Everything above that is derivable from the graph alone — axis spaces,
einsum dispatch, chunk plans, topological order, dtype tables — is
compiled once into an :class:`~repro.srdfg.plan.ExecutionPlan` (see
:mod:`repro.srdfg.plan`); :class:`Executor` is a thin facade that plans
lazily on first use and only binds data per call, so steady-state
workloads stop paying planning cost on every step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
# The two helpers np.einsum(optimize=True) itself calls: the one-operand
# kernel, and the parse of a pairwise step into its matmul lowering.
from numpy._core.einsumfunc import _parse_eq_to_batch_matmul, c_einsum

from ..errors import ExecutionError
from ..pmlang import ast_nodes as ast
from ..pmlang.builtins import GROUP_REDUCTIONS, SCALAR_FUNCTIONS

#: PMLang element type -> numpy dtype (the "float" entry is the default
#: float width; :func:`resolve_dtype` substitutes the active precision).
DTYPE_NP = {
    "float": np.float64,
    "int": np.int64,
    "bin": np.int8,
    "complex": np.complex128,
}

#: Available float precisions. ``f32`` models accelerator arithmetic:
#: values are rounded to float32 at every statement boundary
#: (statement-granularity quantisation; intermediates inside one formula
#: stay double, like a wide accumulator).
PRECISIONS = {"f64": np.float64, "f32": np.float32}

#: Maximum lattice elements materialised at once before reductions chunk.
DEFAULT_LATTICE_LIMIT = 1 << 24

#: A ``sum`` over fewer elements than this is folded slice by slice
#: (:meth:`_ExprEvaluator._fold_short_sum`): below it numpy's pairwise
#: summation adds the elements one after another.
SHORT_SUM = 8

#: A predicate selecting more than this share of its lattice keeps the
#: masked reduction: at 1024x1024 the point form is ~10x faster than the
#: masked ``np.min`` at half density but only ~2x at 0.9, while its
#: coordinate arrays grow with every point.
POINTS_SHARE = 0.75

_REDUCE_IDENTITY = {"sum": 0.0, "prod": 1.0, "max": -np.inf, "min": np.inf}

_UNARYOPS = {"-": np.negative, "!": np.logical_not}

_BINOPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "%": np.mod,
    "^": np.power,
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
    "&&": np.logical_and,
    "||": np.logical_or,
}


@dataclass
class ExecutionResult:
    """Outputs and next-invocation state of one srDFG execution."""

    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    state: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Which execution tier produced it: "interpreted" or "kernel" (the
    #: plan's generated kernel).
    tier: str = field(default="interpreted", compare=False)


def resolve_dtype(dtype, float_dtype=np.float64):
    """Resolve a PMLang element type to a numpy dtype.

    The single source of truth for dtype resolution (used by the
    interpreter, the plan engine's dtype tables, and binding synthesis):
    ``"float"`` maps to the active precision's width, everything else
    looks up :data:`DTYPE_NP`, and unknown types default to float64.
    """
    if dtype == "float":
        return float_dtype
    return DTYPE_NP.get(dtype, np.float64)


class _AxisSpace:
    """Axis assignment for the index variables of one statement."""

    def __init__(self, stmt, index_ranges):
        self.index_ranges = index_ranges
        self.order = []  # axis id -> index name
        self.axis = {}  # index name -> axis id
        for index_expr in stmt.target_indices:
            for name in self._names(index_expr):
                self._add(name)
        self.free_count = len(self.order)
        #: Extents of the free (LHS) axes: the shape a statement's value
        #: is broadcast to before it is stored.
        self.free_shape = tuple(self.size(name) for name in self.order)
        for node in ast.walk_expr(stmt.value):
            if isinstance(node, ast.ReductionCall):
                for spec in node.indices:
                    if spec.name in self.axis and self.axis[spec.name] >= self.free_count:
                        raise ExecutionError(
                            f"index {spec.name!r} is bound by two reductions "
                            "in one statement; rename one of them"
                        )
                    if spec.name not in self.axis:
                        self._add(spec.name)
        #: The reduction axes: all size 1 in a statement's value, squeezed
        #: before it is stored.
        self.bound_axes = tuple(range(self.free_count, len(self.order)))

    def _names(self, expr):
        return [
            name
            for name in sorted(ast.expr_names(expr))
            if name in self.index_ranges
        ]

    def _add(self, name):
        if name not in self.axis:
            self.axis[name] = len(self.order)
            self.order.append(name)

    @property
    def total(self):
        return len(self.order)

    def size(self, name):
        low, high = self.index_ranges[name]
        return max(0, high - low + 1)

    def lattice_size(self):
        total = 1
        for name in self.order:
            total *= self.size(name)
        return total

    def index_array(self, name, sub_range=None):
        """The broadcastable arange occupying *name*'s axis."""
        low, high = sub_range if sub_range is not None else self.index_ranges[name]
        values = np.arange(low, high + 1, dtype=np.int64)
        shape = [1] * self.total
        shape[self.axis[name]] = values.size
        return values.reshape(shape)


def _axview(array, order, absent):
    """Zero-copy relabelling behind ``A[i][j]`` with bare full-range indices.

    Transposes *array* into axis order and inserts a singleton axis for
    every *absent* lattice axis (present axes keep their extent even when
    it is 1). Views stay views throughout. Generated kernels print the
    same relabelling as basic indexing.
    """
    out = np.transpose(array, order)
    for axis in absent:
        out = np.expand_dims(out, axis=axis)
    return out


def _in_range(array, extent, dim, base):
    """*array*, unless an entry is no subscript into an axis of *extent*:
    then the error for subscript *dim* of *base*. Kernels call it too."""
    if array.size and (array.min() < 0 or array.max() >= extent):
        raise ExecutionError(
            f"subscript {dim} of {base!r} out of range "
            f"[{int(array.min())}, {int(array.max())}] for extent {extent}"
        )
    return array


def _affine_view(array, origin, coeffs, shape):
    """Zero-copy read-only view behind affine subscripts, or None.

    Element ``[a, b, ...]`` of the view is *array* at subscript
    ``origin[d] + coeffs[d][0]*a + coeffs[d][1]*b + ...`` in dimension
    ``d`` (``x[oy*2+ky]`` over ``(oy, ky)``: origin 0, coefficients
    ``(2, 1)``). None when *array* has another rank or a subscript leaves
    its extent on the *shape* lattice — checked at the corners, where an
    affine subscript is extreme, before any stride is trusted. Generated
    kernels call this very function.
    """
    if array.ndim != len(origin) or 0 in shape:
        return None
    for first, row, extent in zip(origin, coeffs, array.shape):
        reach = [coeff * (size - 1) for coeff, size in zip(row, shape)]
        if (
            first + sum(step for step in reach if step < 0) < 0
            or first + sum(step for step in reach if step > 0) >= extent
        ):
            return None
    strides = [
        sum(row[axis] * stride for row, stride in zip(coeffs, array.strides))
        for axis in range(len(shape))
    ]
    return np.lib.stride_tricks.as_strided(
        array[tuple(slice(first, None) for first in origin)],
        shape, strides, writeable=False,
    )


def _affine(values):
    """``(origin, {axis: coefficient})`` when the integer subscript array
    *values* (broadcastable over the lattice) equals origin + coefficient
    x coordinate along every axis it varies on, else None."""
    values = np.asarray(values)
    if values.dtype.kind not in ("i", "u") or values.size == 0:
        return None
    origin = int(values.flat[0])
    coeffs, model = {}, origin
    for axis, extent in enumerate(values.shape):
        if extent > 1:
            # One step along *axis* is math.prod(shape[axis+1:]) flat cells.
            coeffs[axis] = int(values.flat[math.prod(values.shape[axis + 1:])]) - origin
            ramp = np.arange(extent).reshape((extent,) + (1,) * (values.ndim - axis - 1))
            model = model + coeffs[axis] * ramp
    return (origin, coeffs) if not coeffs or (model == values).all() else None


def _lowering(equation, shape_a, shape_b):
    """numpy's batch-matmul parse of a pairwise step, as a tuple."""
    return tuple(
        tuple(part) if isinstance(part, list) else part
        for part in _parse_eq_to_batch_matmul(equation, shape_a, shape_b)
    )


@functools.lru_cache(maxsize=4096)
def _contraction_steps(spec, shapes):
    """The contraction of *spec* over operands of *shapes*, decided once:
    one ``(positions, equation, lowering)`` per contraction of the greedy
    path ``np.einsum(spec, *operands, optimize=True)`` takes.

    *positions* are popped from the operand list in order and the step's
    result is appended to it. *lowering* is None for a step that is one
    ``c_einsum`` call, else numpy's own batch-matmul parse of the
    pairwise step: ``(eq_a, eq_b, shape_a, shape_b, shape_ab, perm_ab,
    pure_multiplication)``. One form rule departs from einsum: a matmul
    whose product einsum would transpose (``perm_ab``) takes its terms
    swapped, popped in the swapped order, when that matmul writes the
    product in output order. The path depends on shapes alone, so
    zero-stride shadows stand in for the operands; each intermediate's
    shape is its output labels' extents, as numpy sizes them. Cached
    because a nested reduction has no statement plan to hold its steps.
    """
    shadows = [np.broadcast_to(np.empty(()), shape) for shape in shapes]
    _, contractions = np.einsum_path(
        spec, *shadows, optimize=True, einsum_call=True
    )
    sizes = {}
    for term, shape in zip(spec.partition("->")[0].split(","), shapes):
        for label, extent in zip(term, shape):
            if sizes.get(label, 1) == 1:
                sizes[label] = extent
    pending = list(shapes)
    steps = []
    for positions, equation, _ in contractions:
        picked = [pending.pop(position) for position in positions]
        lowering = None
        if len(picked) == 2:
            lowering = _lowering(equation, *picked)
            if lowering[5] is not None:
                terms, _, out = equation.partition("->")
                term_a, term_b = terms.split(",")
                swapped = f"{term_b},{term_a}->{out}"
                other = _lowering(swapped, picked[1], picked[0])
                if other[5] is None and not other[6]:
                    first, second = positions
                    positions = (second, first - 1) if second < first else (second + 1, first)
                    equation, lowering = swapped, other
        steps.append((positions, equation, lowering))
        pending.append(tuple(sizes[label] for label in equation.partition("->")[2]))
    return tuple(steps)


def _contract(steps, arrays):
    """The contraction the plan chose (:func:`_contraction_steps`), without
    planning: its numpy calls, in its order. Byte-identical to
    ``np.einsum(spec, *arrays, optimize=True)`` when no step swapped, and
    to the swapped ``matmul`` when one did. Generated kernels call this
    very function."""
    operands = list(arrays)
    for positions, equation, lowering in steps:
        picked = [operands.pop(position) for position in positions]
        if lowering is None:
            operands.append(c_einsum(equation, *picked))
            continue
        a, b = picked
        eq_a, eq_b, shape_a, shape_b, shape_ab, perm_ab, pure = lowering
        if eq_a is not None:
            a = c_einsum(eq_a, a)
        if shape_a is not None:
            a = a.reshape(shape_a)
        if eq_b is not None:
            b = c_einsum(eq_b, b)
        if shape_b is not None:
            b = b.reshape(shape_b)
        if pure:
            operands.append(np.multiply(a, b))
            continue
        ab = np.matmul(a, b)
        if shape_ab is not None:
            ab = ab.reshape(shape_ab)
        if perm_ab is not None:
            ab = ab.transpose(perm_ab)
        operands.append(ab)
    return operands[0]


@dataclass
class _EinsumPlan:
    """One sum-of-products as a planned contraction.

    Structure (subscript string, operand views, static scalar factors,
    output shape) and the contraction itself (:attr:`steps`) are decided
    by :func:`compile_einsum`; only per-operand presence, shape/range and
    dtype checks remain for :meth:`run`, and a mismatch answers None so
    the caller evaluates the lattice instead (and raises whatever the
    lattice raises).
    """

    spec: str
    #: ``(variable name, shape)`` per einsum operand.
    operands: Tuple[Tuple[str, Tuple[int, ...]], ...]
    scalar: float
    #: Full-rank result shape (absolute statement axes preserved).
    out_shape: Tuple[int, ...]
    #: Per operand: None when the variable itself is the operand (bare
    #: subscripts; it must have exactly the operand's shape), else the
    #: ``(origin, coeffs)`` of its :func:`_affine_view`.
    views: Tuple[Optional[Tuple], ...]
    #: :func:`_contraction_steps` of ``spec`` over the operand shapes:
    #: what :func:`_contract` replays on both tiers.
    steps: Tuple

    def run(self, var_values):
        arrays = []
        for (name, shape), view in zip(self.operands, self.views):
            value = var_values.get(name)
            if value is None:
                return None
            array = np.asarray(value)
            if view is None:
                if tuple(array.shape) != shape:
                    return None
            else:
                array = _affine_view(array, *view, shape)
                if array is None:
                    return None
            if array.dtype.kind not in ("f", "c"):
                array = array.astype(np.float64)
            arrays.append(array)
        result = _contract(self.steps, arrays)
        if self.scalar != 1.0:
            result = result * self.scalar
        return np.asarray(result).reshape(self.out_shape)


def compile_einsum(expr, space, static_env):
    """The einsum dispatch for *expr*, or None when it has none.

    Eligible is an unpredicated ``sum`` over a product of literals, static
    names and variables whose subscripts are affine in the index
    variables. Bare ``A[i][j]`` over zero-based ranges is the variable
    itself (einsum equals lattice evaluation provided the operand spans
    its ranges exactly); anything else — ``x[oy*s+ky]``, ``v[n-1-p]``, a
    range starting above zero — is an :func:`_affine_view` of it (equal
    provided the operand has that rank and no subscript leaves its
    extent); :meth:`_EinsumPlan.run` checks the provisos. Affine is
    decided numerically (:func:`_affine`) on subscripts evaluated from
    index variables and static names alone, so ``(i+k) % n`` and
    data-dependent subscripts stay on the lattice path. The operand
    shapes are static, so the contraction is decided here too
    (:func:`_contraction_steps`), and both tiers replay it through
    :func:`_contract`. The one place that decides all this: the
    evaluator asks for every reduction it meets, ``StatementPlan`` once
    at build for the statement's whole value, and the kernel emitter
    prints the answer.
    """
    if not isinstance(expr, ast.ReductionCall):
        return None
    if expr.op != "sum" or any(spec.predicate for spec in expr.indices):
        return None
    factors = _product_factors(expr.arg)
    if factors is None:
        return None

    letters = {}

    def letter(name):
        if name not in letters:
            letters[name] = chr(ord("a") + len(letters))
        return letters[name]

    operands = []
    views = []
    subscripts = []
    scalar = 1.0
    for factor in factors:
        if isinstance(factor, ast.Literal):
            scalar *= factor.value
            continue
        if isinstance(factor, ast.Name):
            if factor.id in static_env:
                scalar *= static_env[factor.id]
                continue
            return None
        if all(
            isinstance(index_expr, ast.Name)
            and index_expr.id in space.axis
            and space.index_ranges[index_expr.id][0] == 0
            for index_expr in factor.indices
        ):
            names = [index_expr.id for index_expr in factor.indices]
            view = None
        else:
            selected = _affine_subscripts(factor, space, static_env)
            if selected is None:
                return None
            names, view = selected
        operands.append(
            (factor.base, tuple(space.size(name) for name in names))
        )
        views.append(view)
        subscripts.append("".join(letter(name) for name in names))

    if not operands:
        return None
    reduce_names = {spec.name for spec in expr.indices}
    for name in reduce_names - set(letters):
        # A bound index that never appears multiplies the result by the
        # range size; handle by scaling.
        scalar *= space.size(name)
    output_names = [
        name
        for name in space.order
        if name in letters and name not in reduce_names
    ]
    out_shape = [1] * space.total
    for name in output_names:
        out_shape[space.axis[name]] = space.size(name)
    spec = ",".join(subscripts) + "->" + "".join(
        letter(name) for name in output_names
    )
    return _EinsumPlan(
        spec=spec,
        operands=tuple(operands),
        scalar=scalar,
        out_shape=tuple(out_shape),
        views=tuple(views),
        steps=_contraction_steps(spec, tuple(shape for _, shape in operands)),
    )


def _affine_subscripts(factor, space, static_env):
    """``(index names, (origin, coeffs))`` of the :func:`_affine_view`
    that *factor*'s subscripts select, or None when one is not affine in
    index variables and static names."""
    evaluator = _ExprEvaluator(space, static_env, {}, {})
    parts = []
    for index_expr in factor.indices:
        try:
            part = _affine(evaluator.eval(index_expr))
        except ExecutionError:  # reads run-time data
            return None
        if part is None:
            return None
        parts.append(part)
    axes = sorted({axis for _, coeffs in parts for axis in coeffs})
    return [space.order[axis] for axis in axes], (
        tuple(origin for origin, _ in parts),
        tuple(
            tuple(coeffs.get(axis, 0) for axis in axes) for _, coeffs in parts
        ),
    )


class Points:
    """The true lattice points of one reduction's predicate.

    Points are grouped along the lattice axes the reduction keeps, groups
    in C order and each group's points in C order along the reduced axes:
    what ``np.nonzero`` answers for the mask with the kept axes first.
    :attr:`coords` maps each index variable the reduction's argument reads
    to its value at every point. :attr:`starts` holds each group's first
    offset up to the last non-empty group, so every offset indexes a
    point (``reduceat`` rejects an offset equal to the point count);
    :attr:`empty` lists the empty groups among them, and the groups after
    them are all empty. :attr:`shape` is the reduction's result shape
    with its reduced axes kept as singletons. :attr:`taken` holds the
    argument's param subscripts read at the points, read-only
    (``repro.srdfg.plan.CompressedReduction.taken_nodes``).
    """

    __slots__ = ("coords", "count", "groups", "starts", "empty", "shape", "taken")

    def __init__(self, coords, count, groups, starts, empty, shape, taken=()):
        self.coords = coords
        self.count = count
        self.groups = groups
        self.starts = starts
        self.empty = empty
        self.shape = shape
        self.taken = taken

    def reduce(self, op, values):
        """``min``/``max`` of *values* (one per point, or one for all)
        over each group; an empty group takes the identity. Generated
        kernels call this very method.

        None when *values* are not real floats, or when a group's answer
        is a zero or a NaN: which of ``-0.0``/``+0.0`` or which NaN the
        masked reduction returns depends on the order its loop meets the
        points, so the caller takes those from the lattice. Any other
        answer is the one value the group holds, whatever the order.
        """
        values = np.asarray(values)
        if values.dtype.kind != "f" or values.shape not in ((), (self.count,)):
            return None
        identity = values.dtype.type(_REDUCE_IDENTITY[op])
        if not self.count:
            return np.full(self.shape, identity)
        # An empty group's offset is the next group's: reduceat answers
        # that point, which the identity then replaces.
        reduced = (np.minimum if op == "min" else np.maximum).reduceat(
            np.broadcast_to(values, (self.count,)), self.starts
        )
        reduced[self.empty] = identity
        if reduced.size < self.groups:
            reduced = np.concatenate((reduced, np.full(self.groups - reduced.size, identity)))
        if not (np.abs(reduced) > 0).all():
            return None
        return reduced.reshape(self.shape)


class _ExprEvaluator:
    """Evaluates one statement's expressions over its axis space.

    This class is the only statement of what a PMLang expression means.
    Every numpy application it performs on operand data goes through one
    of the primitives below, so a subclass can stage the evaluation: the
    kernel emitter (:mod:`repro.codegen.emitter`) overrides them to print
    the call when an argument is symbolic and inherits the numpy call
    (static folding) when none is. A new operator or builtin is a table
    entry (``_BINOPS``, ``_UNARYOPS``, ``SCALAR_FUNCTIONS``) and reaches
    both tiers through :meth:`_apply`.
    """

    def __init__(self, space, static_env, var_values, reductions, sub_ranges=None,
                 enable_einsum=True, compressed=()):
        self.space = space
        self.static_env = static_env
        self.var_values = var_values
        self.reductions = reductions
        self.sub_ranges = sub_ranges or {}
        self.enable_einsum = enable_einsum
        #: The statement's reductions that may run on their predicate's
        #: points (``repro.srdfg.plan.CompressedReduction``).
        self.compressed = compressed
        self._index_cache = {}
        #: Stack of active reduction predicates: subscripts at lattice
        #: points a predicate masks out are clamped instead of erroring,
        #: supporting guarded accesses like ``sum[j: i+j < n](x[i+j])``.
        self._mask_stack = []
        #: True while an argument is evaluated at a list of points: index
        #: variables are then coordinate vectors, not lattice axes.
        self._pointwise = False
        #: ``id(node) -> value`` of the subscripts read once with the
        #: points (:attr:`Points.taken`), while they are evaluated at.
        self._taken = {}

    # -- primitives (the staging seam) -------------------------------------

    def _apply(self, func, *args):
        """Apply a ufunc / scalar function / ``np.where``."""
        return func(*args)

    def _to_float(self, value):
        """Integer/bool operands promote to float; float and complex keep
        their kind (sqrt of complex stays complex)."""
        array = np.asarray(value)
        if array.dtype.kind not in ("f", "c"):
            array = array.astype(np.float64)
        return array

    def _operand(self, name):
        """The ndarray bound to variable *name*, or None."""
        value = self.var_values.get(name)
        return None if value is None else np.asarray(value)

    def _scalar(self, value):
        """A single-element operand as a 0-d value."""
        return value.reshape(())

    def _bare_view(self, base, order, absent):
        return _axview(base, order, absent)

    def _subscript(self, expr, dim, value, extent):
        """*value* as the integer array selecting along dimension *dim* of
        *expr*'s base: floats round to the nearest integer, and an entry
        out of range raises unless an active predicate masks it out."""
        array = np.asarray(value)
        if array.dtype.kind == "f":
            array = np.rint(array).astype(np.int64)
        if array.size and (array.min() < 0 or array.max() >= extent):
            array = self._guard_subscript(expr, dim, array, extent)
        return array

    def _gather(self, expr, base):
        """*base* (of rank ``len(expr.indices)``) at *expr*'s subscripts."""
        return base[tuple(np.broadcast_arrays(*self._index_arrays(expr, base)))]

    def _index_arrays(self, expr, base):
        """One integer array per subscript of *expr*, each selecting along
        its dimension of *base* (see :meth:`_subscript`)."""
        return [
            self._subscript(expr, dim, self.eval(index_expr), base.shape[dim])
            for dim, index_expr in enumerate(expr.indices)
        ]

    def _as_mask(self, value):
        """A reduction predicate's value as a boolean mask (nonzero selects)."""
        if np.dtype(getattr(value, "dtype", type(value))) == np.bool_:
            return value
        return self._apply(np.not_equal, value, 0)

    def _broadcast_to(self, value, shape):
        return np.broadcast_to(value, shape)

    def _squeeze(self, value, axes):
        return np.squeeze(value, axis=axes)

    def _reduce(self, op, data, axes, where=None):
        """Builtin reduction over *axes*, reduced axes kept as singletons;
        a *where* mask (``min``/``max`` only) leaves out what it clears."""
        if where is None:
            reduced = GROUP_REDUCTIONS[op][0](data, axes)
        else:
            reduced = getattr(np, op)(data, axis=axes, where=where, initial=_REDUCE_IDENTITY[op])
        return reduced[
            tuple(
                np.newaxis if axis in axes else slice(None)
                for axis in range(self.space.total)
            )
        ]

    def _run_einsum(self, einsum):
        return einsum.run(self.var_values)

    def _fold(self, total, piece):
        """The running total of a folded sum plus its next slice."""
        return self._apply(np.add, total, piece)

    def _unless_nan(self, total, expr, axes):
        """A folded sum's *total*, or the lattice sum when it holds a NaN
        (``min`` propagates a NaN and warns of nothing)."""
        if np.isnan(np.min(total)):
            return self._reduce_lattice(expr, axes)
        return total

    def _concrete(self, value, reason, *args):
        """*value* is about to be inspected (write subscripts, masks excusing
        a stray subscript): a staged evaluator declines
        ``reason.format(*args)`` here when it is not known until run time."""
        return value

    # -- expressions -------------------------------------------------------

    def _index(self, name):
        if name not in self._index_cache:
            self._index_cache[name] = self.space.index_array(
                name, self.sub_ranges.get(name)
            )
        return self._index_cache[name]

    def eval(self, expr):
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Name):
            return self._eval_name(expr)
        if isinstance(expr, ast.Indexed):
            return self._eval_indexed(expr)
        if isinstance(expr, ast.UnaryOp):
            func = _UNARYOPS.get(expr.op)
            if func is None:
                raise ExecutionError(f"unknown unary operator {expr.op!r}")
            return self._apply(func, self.eval(expr.operand))
        if isinstance(expr, ast.BinOp):
            left = self.eval(expr.left)
            right = self.eval(expr.right)
            func = _BINOPS.get(expr.op)
            if func is None:
                raise ExecutionError(f"unknown operator {expr.op!r}")
            if expr.op == "/":
                left = self._to_float(left)
            return self._apply(func, left, right)
        if isinstance(expr, ast.Ternary):
            cond = self.eval(expr.cond)
            then = self.eval(expr.then)
            other = self.eval(expr.other)
            return self._apply(np.where, cond, then, other)
        if isinstance(expr, ast.FuncCall):
            impl = SCALAR_FUNCTIONS[expr.func][0]
            return self._apply(
                impl, *[self._to_float(self.eval(arg)) for arg in expr.args]
            )
        if isinstance(expr, ast.ReductionCall):
            return self._eval_reduction(expr)
        raise ExecutionError(f"cannot evaluate {type(expr).__name__}")

    def _eval_name(self, expr):
        name = expr.id
        if name in self.space.axis:
            return self._index(name)
        if name in self.static_env:
            return self.static_env[name]
        value = self._operand(name)
        if value is None:
            raise ExecutionError(f"unbound name {name!r} during evaluation")
        if value.ndim > 0 and value.size > 1:
            raise ExecutionError(
                f"array variable {name!r} used without subscripts"
            )
        return self._scalar(value) if value.ndim else value

    def _eval_indexed(self, expr):
        if self._pointwise and id(expr) in self._taken:
            return self._taken[id(expr)]
        base = self._operand(expr.base)
        if base is None:
            raise ExecutionError(f"unbound variable {expr.base!r}")
        if len(expr.indices) != base.ndim:
            raise ExecutionError(
                f"{expr.base!r} subscripted with {len(expr.indices)} indices "
                f"but has rank {base.ndim}"
            )
        bare = self._bare_axes(expr, base.shape)
        if bare is not None:
            return self._bare_view(base, *bare)
        return self._gather(expr, base)

    def _guard_subscript(self, expr, dim, array, extent):
        """Clamp out-of-range subscripts that an active predicate masks.

        Raises :class:`ExecutionError` when any *selected* lattice point
        is out of range — only predicate-excluded points may stray.
        """
        violating = (array < 0) | (array >= extent)
        for mask in self._mask_stack:
            if mask is None:
                continue
            selected = self._concrete(
                mask, "subscript {} of {!r} is guarded by a data-dependent "
                "predicate", dim, expr.base,
            )
            try:
                exposed = np.broadcast_arrays(violating, selected)
            except ValueError:
                continue
            if not np.any(exposed[0] & exposed[1]):
                return np.clip(array, 0, extent - 1)
        return _in_range(array, extent, dim, expr.base)  # raises

    def _bare_axes(self, expr, shape):
        """``(order, absent)`` for :func:`_axview` when *expr* is a pure
        axis relabelling, else None.

        That is when every subscript is a distinct bare index variable
        spanning its dimension exactly — no gather is needed.
        """
        if self._pointwise:
            return None
        axes = []
        for dim, index_expr in enumerate(expr.indices):
            if not (
                isinstance(index_expr, ast.Name)
                and index_expr.id in self.space.axis
                and index_expr.id not in self.sub_ranges
            ):
                return None
            name = index_expr.id
            low, high = self.space.index_ranges[name]
            if low != 0 or high != shape[dim] - 1:
                return None
            axes.append(self.space.axis[name])
        if len(set(axes)) != len(axes):
            return None
        order = tuple(sorted(range(len(axes)), key=axes.__getitem__))
        absent = tuple(
            axis for axis in range(self.space.total) if axis not in axes
        )
        return order, absent

    # -- reductions ------------------------------------------------------------

    def _eval_reduction(self, expr):
        axes = tuple(self.space.axis[spec.name] for spec in expr.indices)
        for compressed in self.compressed:
            if compressed.expr is expr and not self.sub_ranges and not self._mask_stack:
                value = self._reduce_points(expr, axes, compressed)
                if value is not None:
                    return value
        if self.enable_einsum and not self.sub_ranges:
            einsum = compile_einsum(expr, self.space, self.static_env)
            fast = None if einsum is None else self._run_einsum(einsum)
            if fast is not None:
                return fast
        if expr.op == "sum":
            folded = self._fold_short_sum(expr, axes)
            if folded is not None:
                return folded
        return self._reduce_lattice(expr, axes)

    def _fold_short_sum(self, expr, axes):
        """``sum[j](arg)`` evaluated one slice of ``j`` at a time, or None.

        The sum folds when it has one index and no predicate, the index's
        extent is 1 to ``SHORT_SUM - 1``, the statement's other axes
        together are larger than that extent, *arg* holds no reduction and
        is float32/float64, and no enclosing predicate masks the lattice.
        Each slice is then *arg* over the rest of the lattice, added into
        a total that starts at +0.0, so the lattice-sized argument with
        the short axis innermost is never built. That total has np.sum's
        bytes: whichever of its loops a layout takes, numpy adds fewer
        than eight elements one after another starting from +0.0, and
        float addition is commutative. A NaN is the exception: its sign
        and payload depend on which operand numpy's add loop hands the
        hardware first, which differs between its vector body, its tail
        and its pairwise reduce; so a total holding a NaN is taken again
        on the lattice (:meth:`_unless_nan`). A slice that raises leaves
        the error to the lattice, whose message names the lattice's
        subscript range.
        """
        if len(expr.indices) != 1 or expr.indices[0].predicate is not None or any(
            mask is not None for mask in self._mask_stack
        ) or any(isinstance(node, ast.ReductionCall) for node in ast.walk_expr(expr.arg)):
            return None
        name = expr.indices[0].name
        ranges = {
            other: self.sub_ranges.get(other, self.space.index_ranges[other])
            for other in self.space.order
        }
        low, high = ranges.pop(name)
        extent = high - low + 1
        others = math.prod(max(0, stop - start + 1) for start, stop in ranges.values())
        if not 0 < extent < SHORT_SUM or others <= extent:
            return None
        saved = self.sub_ranges, self._index_cache
        total = 0.0
        try:
            for point in range(low, high + 1):
                self.sub_ranges = {**saved[0], name: (point, point)}
                self._index_cache = {}
                piece = self.eval(expr.arg)
                if point == low and not (
                    np.ndim(piece) == self.space.total
                    and getattr(piece, "dtype", None) in (np.float32, np.float64)
                ):
                    return None
                total = self._fold(total, piece)
        except ExecutionError:
            return None  # the lattice raises it with the lattice's ranges
        finally:
            self.sub_ranges, self._index_cache = saved
        return self._unless_nan(total, expr, axes)

    def _reduce_points(self, expr, axes, compressed):
        """*expr* reduced over its predicate's true points, or None when
        the lattice must answer: the plan holds no points for these
        operands (:meth:`~repro.srdfg.plan.CompressedReduction.points`),
        the argument raises (the lattice raises it with the lattice's
        ranges), or :meth:`Points.reduce` declines."""
        points = compressed.points(self.var_values)
        if points is None:
            return None
        try:
            values = self._to_float(
                self._at_points(expr.arg, points.coords, compressed.taken(points))
            )
        except ExecutionError:
            return None
        return points.reduce(expr.op, values)

    def _at_points(self, expr, coords, taken=None):
        """*expr* evaluated at a list of points: each index variable is
        its vector of *coords*, so every value is one per point (or one
        for all) and a subscript is a gather, never a relabelling — or,
        for a node in *taken* (``id(node) -> value``), that value."""
        saved = self._index_cache
        self._index_cache, self._pointwise, self._taken = dict(coords), True, taken or {}
        try:
            return self.eval(expr)
        finally:
            self._index_cache, self._pointwise, self._taken = saved, False, {}

    def _select_points(self, expr, axes, names):
        """The :class:`Points` of *expr*'s predicate, carrying the
        coordinates of the index variables *names*, or None when it
        selects more than :data:`POINTS_SHARE` of its lattice.

        ``np.nonzero`` is fast over a flat run of memory and several
        times slower over a strided view, so the true points are found in
        the mask's memory order and then ranked in the order the groups
        need: kept axes first, then the reduced ones.
        """
        mask = self._reduction_mask(expr)
        shape = self._reduce_target_shape((), mask, axes)
        full = np.broadcast_to(mask, shape)
        kept = [axis for axis in range(self.space.total) if axis not in axes]
        order = kept + list(axes)
        memory = sorted(range(len(shape)), key=lambda axis: -abs(full.strides[axis]))
        flat = np.flatnonzero(np.transpose(full, memory))
        if flat.size > POINTS_SHARE * full.size:
            return None
        if memory != order:
            at = np.unravel_index(flat, [shape[axis] for axis in memory])
            flat = np.ravel_multi_index(
                [at[memory.index(axis)] for axis in order], [shape[axis] for axis in order]
            )
            flat.sort()
        found = np.unravel_index(flat, [shape[axis] for axis in order])
        groups = math.prod(shape[axis] for axis in kept)
        sizes = np.bincount(flat // math.prod(shape[axis] for axis in axes), minlength=groups)
        filled = np.flatnonzero(sizes)
        head = filled[-1] + 1 if filled.size else 0
        coords = {}
        for name in names:
            axis = self.space.axis[name]
            coords[name] = found[order.index(axis)] + self.space.index_ranges[name][0]
        return Points(
            coords, flat.size, groups,
            (np.cumsum(sizes) - sizes)[:head],
            np.flatnonzero(sizes[:head] == 0),
            tuple(1 if axis in axes else extent for axis, extent in enumerate(shape)),
        )

    def _reduction_mask(self, expr):
        """The conjunction of *expr*'s predicates, or None without one."""
        mask = None
        for spec in expr.indices:
            if spec.predicate is None:
                continue
            predicate = self._as_mask(self.eval(spec.predicate))
            mask = predicate if mask is None else self._apply(np.logical_and, mask, predicate)
        return mask

    def _reduce_lattice(self, expr, axes):
        """A builtin reduction over its whole lattice argument."""
        mask = self._reduction_mask(expr)
        self._mask_stack.append(mask)
        try:
            arg = self.eval(expr.arg)
        finally:
            self._mask_stack.pop()
        if np.ndim(arg) not in (0, self.space.total):
            # Every non-scalar intermediate carries the statement's full
            # rank by construction (index arrays are reshaped to all axes).
            raise ExecutionError("internal: unexpected intermediate rank")
        target_shape = self._reduce_target_shape(np.shape(arg), mask, axes)
        arg = self._broadcast_to(arg, target_shape)
        if mask is not None:
            mask = self._broadcast_to(mask, target_shape)

        if expr.op in _REDUCE_IDENTITY:
            if mask is not None and expr.op in ("min", "max") and all(
                target_shape[axis] for axis in axes
            ):
                # One masked ufunc reduction over the broadcast argument:
                # no lattice-sized select is materialised. (An empty bound
                # range keeps the select, and numpy's error for it.)
                return self._reduce(expr.op, self._to_float(arg), axes, where=mask)
            if mask is not None:
                arg = self._apply(np.where, mask, arg, _REDUCE_IDENTITY[expr.op])
            return self._reduce(expr.op, self._to_float(arg), axes)
        if expr.op in ("argmax", "argmin"):
            return self._eval_arg_extremum(expr, arg, mask, axes)
        return self._eval_custom_reduction(expr, arg, mask, axes)

    def _reduce_target_shape(self, arg_shape, mask, axes):
        """The lattice a reduction runs over: it must span both the
        argument and the predicate mask (a predicate may reference axes
        the argument does not), with every bound axis at full extent."""
        total = self.space.total
        target_shape = [1] * total
        for shape in (arg_shape, np.shape(mask)):
            if len(shape) == total:
                target_shape = [
                    max(have, got) for have, got in zip(target_shape, shape)
                ]
        for axis in axes:
            name = self.space.order[axis]
            low, high = self.sub_ranges.get(name, self.space.index_ranges[name])
            target_shape[axis] = max(0, high - low + 1)
        return tuple(target_shape)

    def _eval_arg_extremum(self, expr, arg, mask, axes):
        """The first extreme point's bound index; masked-out points never win.
        Compares in ``_to_float``'s kind (complex orders as numpy's does)."""
        if len(axes) != 1:
            raise ExecutionError(f"{expr.op} supports a single index variable")
        name = self.space.order[axes[0]]
        low, _ = self.sub_ranges.get(name, self.space.index_ranges[name])
        data = self._to_float(arg)
        if mask is not None:
            fill = -np.inf if expr.op == "argmax" else np.inf
            data = self._apply(np.where, mask, data, fill)
        return self._apply(np.add, self._reduce(expr.op, data, axes), low)

    def _eval_custom_reduction(self, expr, arg, mask, axes):
        definition = self.reductions.get(expr.op)
        if definition is None:
            raise ExecutionError(f"unknown reduction {expr.op!r}")
        moved = np.moveaxis(arg, axes, range(arg.ndim - len(axes), arg.ndim))
        lead = moved.shape[: arg.ndim - len(axes)]
        flat = moved.reshape(lead + (-1,))
        if mask is not None:
            mask_moved = np.moveaxis(mask, axes, range(arg.ndim - len(axes), arg.ndim))
            mask_flat = mask_moved.reshape(lead + (-1,))
        else:
            mask_flat = np.ones_like(flat, dtype=bool)

        param_a, param_b = definition.params
        acc = np.zeros(lead, dtype=np.float64)
        valid = np.zeros(lead, dtype=bool)
        for position in range(flat.shape[-1]):
            element = np.asarray(flat[..., position], dtype=np.float64)
            selected = mask_flat[..., position]
            combined = _evaluate_combiner(
                definition.expr, {param_a: acc, param_b: element}
            )
            acc = np.where(
                selected & valid, combined, np.where(selected & ~valid, element, acc)
            )
            valid = valid | selected
        result = np.where(valid, acc, 0.0)
        for axis in sorted(axes):
            result = np.expand_dims(result, axis=axis)
        return result

    # -- whole statements ------------------------------------------------------

    def statement_value(self, stmt, einsum=None, chunk_plan=None):
        """The value of *stmt* over its free lattice, ready to store.

        Takes the prebuilt *einsum* dispatch when it applies (a
        contraction einsum can express never materialises the lattice, so
        it is preferred over chunking), else evaluates the lattice —
        chunked under a *chunk_plan* — then squeezes the bound axes and
        broadcasts to the free shape.
        """
        raw = None if einsum is None else self._run_einsum(einsum)
        if raw is None:
            if chunk_plan is not None:
                raw = self._eval_chunked(stmt.value, chunk_plan)
            else:
                raw = self.eval(stmt.value)
        space = self.space
        if space.bound_axes and np.ndim(raw) == space.total:
            # Reduction axes are all size 1 after keepdims-style reduction.
            raw = self._squeeze(raw, space.bound_axes)
        if space.free_count:
            raw = self._broadcast_to(raw, space.free_shape)
        return raw

    def write_subscripts(self, stmt, lhs_shape):
        """One bounds-checked integer array per target subscript of *stmt*,
        over the free axes."""
        space = self.space
        arrays = []
        for dim, index_expr in enumerate(stmt.target_indices):
            value = np.asarray(self._concrete(
                self.eval(index_expr),
                "write subscript {} of {!r} is data-dependent", dim, stmt.target,
            ))
            if value.dtype.kind == "f":
                value = np.rint(value).astype(np.int64)
            if space.bound_axes and value.ndim == space.total:
                value = np.squeeze(value, axis=space.bound_axes)
            extent = lhs_shape[dim]
            if value.size and (value.min() < 0 or value.max() >= extent):
                raise ExecutionError(
                    f"write subscript {dim} of {stmt.target!r} out of range "
                    f"for extent {extent}"
                )
            arrays.append(value)
        return arrays

    def _eval_chunked(self, expr, chunk_plan):
        """Evaluate the over-limit builtin reduction *expr* in slabs along
        the bound axis :func:`_plan_chunks` picked, combining partials."""
        chunk_name, chunk_len, op = chunk_plan
        low, high = self.space.index_ranges[chunk_name]
        combine = {
            "sum": np.add,
            "prod": np.multiply,
            "max": np.maximum,
            "min": np.minimum,
        }[op]
        partial = None
        start = low
        while start <= high:
            stop = min(high, start + chunk_len - 1)
            evaluator = _ExprEvaluator(
                self.space, self.static_env, self.var_values, self.reductions,
                sub_ranges={chunk_name: (start, stop)},
                enable_einsum=self.enable_einsum,
            )
            piece = np.asarray(evaluator.eval(expr))
            partial = piece if partial is None else combine(partial, piece)
            start = stop + 1
        return partial


def _product_factors(expr):
    if isinstance(expr, ast.BinOp) and expr.op == "*":
        left = _product_factors(expr.left)
        right = _product_factors(expr.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(expr, (ast.Indexed, ast.Name, ast.Literal)):
        return [expr]
    return None


def _evaluate_combiner(expr, env):
    """Evaluate a user-defined reduction body over two ndarray operands."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Name):
        return env[expr.id]
    if isinstance(expr, ast.UnaryOp):
        value = _evaluate_combiner(expr.operand, env)
        return np.negative(value) if expr.op == "-" else np.logical_not(value)
    if isinstance(expr, ast.BinOp):
        left = _evaluate_combiner(expr.left, env)
        right = _evaluate_combiner(expr.right, env)
        return _BINOPS[expr.op](left, right)
    if isinstance(expr, ast.Ternary):
        return np.where(
            _evaluate_combiner(expr.cond, env),
            _evaluate_combiner(expr.then, env),
            _evaluate_combiner(expr.other, env),
        )
    if isinstance(expr, ast.FuncCall):
        impl = SCALAR_FUNCTIONS[expr.func][0]
        return impl(*[_evaluate_combiner(arg, env) for arg in expr.args])
    raise ExecutionError(f"invalid reduction body node {type(expr).__name__}")


class Executor:
    """Executes an srDFG functionally via a (lazily built) ExecutionPlan.

    Since the plan/execute split, this class is a thin facade over
    :mod:`repro.srdfg.plan`: construction validates configuration and the
    first :meth:`run` obtains the shared :class:`~repro.srdfg.plan.ExecutionPlan`
    for the graph through :func:`~repro.srdfg.plan.plan_for_graph` (memoised
    per graph instance, so every ``Executor(graph)`` built over the same
    graph reuses one plan). Binding inputs/params/state and stepping the
    prebuilt plan is all that remains on the per-call path.

    Parameters
    ----------
    graph:
        An srDFG from :func:`repro.srdfg.builder.build` (or a lowered
        version of it — lowering preserves compute-node semantics).
    reductions:
        User-defined reduction definitions (name -> ReductionDef).
    precision:
        ``"f64"`` (default) or ``"f32"`` (see :data:`PRECISIONS`).
    enable_einsum:
        Gate the einsum fast path (disabled by tests that pin a statement
        to the lattice or chunked path).
    """

    def __init__(self, graph, reductions=None, precision="f64",
                 enable_einsum=True):
        self.graph = graph
        if reductions is None:
            reductions = getattr(graph, "reductions", None)
        self.reductions = dict(reductions or {})
        if precision not in PRECISIONS:
            raise ExecutionError(
                f"unknown precision {precision!r}; choose from "
                f"{sorted(PRECISIONS)}"
            )
        self.precision = precision
        self.float_dtype = PRECISIONS[precision]
        self.enable_einsum = enable_einsum
        self._plan = None

    @property
    def plan(self):
        """The ExecutionPlan this executor runs; built/shared on first use."""
        if self._plan is None:
            from .plan import PlanConfig, plan_for_graph

            config = PlanConfig(
                precision=self.precision, enable_einsum=self.enable_einsum
            )
            self._plan = plan_for_graph(
                self.graph, reductions=self.reductions, config=config
            )
        return self._plan

    def run(self, inputs=None, params=None, state=None, output_init=None,
            trace=None):
        """Execute one invocation; returns :class:`ExecutionResult`.

        *trace*, when a list, receives one record per executed node:
        ``{"node", "kind", "produced": {name: (shape, dtype)}}`` — a
        lightweight execution trace for debugging graph transformations.
        """
        return self.plan.execute(
            inputs=inputs,
            params=params,
            state=state,
            output_init=output_init,
            trace=trace,
        )


def evaluate_statement(
    stmt,
    index_ranges,
    static_env,
    var_values,
    reductions=None,
    lhs_shape=(),
    dtype="float",
    float_dtype=np.float64,
    enable_einsum=True,
):
    """Evaluate one PMLang assignment; returns the new value of its target.

    Exposed as a function so tests can exercise statement semantics without
    building whole graphs. Builds a throwaway
    :class:`~repro.srdfg.plan.StatementPlan` and executes it once —
    callers that evaluate the same statement repeatedly should hold a
    StatementPlan (or a whole-graph ExecutionPlan) instead.
    """
    from .plan import StatementPlan

    plan = StatementPlan(
        stmt,
        index_ranges,
        static_env,
        lhs_shape=lhs_shape,
        dtype=dtype,
        reductions=reductions,
        float_dtype=float_dtype,
        enable_einsum=enable_einsum,
    )
    return plan.execute(var_values)


def _plan_chunks(stmt, space):
    """Decide whether/how to chunk a big top-level builtin reduction."""
    lattice_limit = DEFAULT_LATTICE_LIMIT
    if space.lattice_size() <= lattice_limit:
        return None
    value = stmt.value
    if not (isinstance(value, ast.ReductionCall) and value.op in _REDUCE_IDENTITY):
        return None
    reduce_names = [spec.name for spec in value.indices]
    if not reduce_names:
        return None
    # Chunk along the largest bound axis.
    chunk_name = max(reduce_names, key=space.size)
    lattice_without = space.lattice_size() // max(1, space.size(chunk_name))
    chunk_len = max(1, lattice_limit // max(1, lattice_without))
    return (chunk_name, chunk_len, value.op)

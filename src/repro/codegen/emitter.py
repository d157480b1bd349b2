"""Lower an :class:`~repro.srdfg.plan.ExecutionPlan` into Python source.

The emitter walks the plan's topological step list and generates one
straight-line Python/numpy function per plan. A variable is one call of
the plan's binder (``_bind``, which the interpreted plan's variable
step calls too): the presence, cast and shape checks and the zero fill
have one encoding for both tiers. The contract is strict
**bit-identity with the interpreter at f64**, and it holds by
construction: a statement is lowered by running the reference
interpreter's own ``_ExprEvaluator`` over it with symbolic operands
(:class:`_StagedEvaluator`). Whatever is derivable from the graph —
index arithmetic, static subscript bounds and clamping, index-only
reduction masks, axis extents, broadcast shapes, dtype casts — the
inherited numpy calls compute at build time; every call that touches
run-time data is printed, so the kernel *is* the interpreter's numpy
operation sequence with the static parts folded to constants. That
includes predicates over data (a printed mask, reduced through
``where=``), argmin/argmax, and subscripts over data (printed rounding,
the interpreter's own ``_in_range`` check and fancy gather). A kernel
is the whole plan or none: a statement the staged evaluator declines (a
custom combiner, a chunked reduction, a data-dependent subscript under a
predicate, a size cap) or that would raise at run time declines the plan
with :class:`Unsupported` naming that statement, and the plan runs
interpreted.

What is the emitter's own preserves bit-identity by argument:

``np.take`` gathers
    A fancy gather ``base[tuple(np.broadcast_arrays(*idx))]`` and
    ``np.take(base.reshape(-1), flat)`` with
    ``flat = ravel_multi_index(broadcast, base.shape)`` select the same
    elements into a fresh C-contiguous array of the same shape, so
    every downstream ufunc/reduction sees identical values in an
    identical layout. At a reduction's points a one-index gather is
    known only at run time; there ``np.take(base, idx)`` and
    ``base[tuple(np.broadcast_arrays(idx))]`` of the 1-D base select
    the same elements the same way.

The value table
    A take of one SSA base through one index constant to one shape is
    printed once, and structurally equal subexpressions of a statement
    outside any predicate mask (where a stray subscript clamps) are
    staged once: a reader gets the bytes a repeat of the same numpy call
    would produce. A take is never ``fresh``, and a staged temp is
    written over only by a ufunc handed its every occurrence.

Slices
    A store writing each cell of a strided window once (the plan's
    :class:`~repro.srdfg.plan.StoreForm`, whose one routine both tiers
    run: the staged store primitives print the calls the interpreted
    plan's make) and a gather whose flat index is a positive-step
    progression move the values the scatter or ``np.take`` would, under
    the same cast. A gathered view keeps the take's element
    order (its strides are the C ones times the step) and is never
    ``fresh``, so it is copied before anything keeps it.

Folded slices
    A slice of a short sum is added into its total and read by nothing
    else, so the next slice's first ufunc of its shape and dtype may
    write over its buffer (``out=_reuse(spare)``), as a ufunc writes over
    a fresh operand. A slice's staged subexpressions and index maps are
    keyed by its sub-range, so no slice reads another's.

Dead results
    A statement result, like a zero-filled local, is an array the kernel
    allocated. Once the kernel is printed, one pass over its lines finds
    the last line naming each local
    (:meth:`KernelEmitter._settle_lifetimes`). A ufunc offered such an
    array of its shape and dtype writes over it (``out=_vN``) when its
    statement names it only as that operand and no later line names it:
    then nothing reads it after the ufunc, no view of it is live, and it
    is no output or state. The ufunc computes the bytes it would into a
    new buffer. A statement whose result the kernel returns takes none:
    what outlives the call is allocated by the statement that computes
    it. The same pass places each ``del`` after the statement of a
    local's last reader: the printed text is the only record of what
    reads what.

Stores over dead locals
    A partial store copies its previous value, then writes its cells. When
    that value is a known array the kernel allocated in the target dtype,
    and the pass above finds it dead once the store's statement reads it —
    named there once, named by no later line, and the store's result no
    output or state — the store binds it and writes its cells in place
    (``_vN = _vM``): no one reads the cells it overwrites, so the result
    holds the bytes the copy would (the conv nets' padded zero fills). A
    copy that stays needs no cast, and prints none.

Points
    A reduction on its predicate's points prints a branch: the memo
    lookup, the argument staged at the points as the interpreter
    evaluates it there, and ``Points.reduce`` — the interpreter's own
    method — or, when either says None, the interpreter's lattice
    reduction. A take printed in the branch is read by nothing after it,
    and no subexpression is shared across its edge.

The index-map memo
    A static gather's flat index is a function of what
    :meth:`_StagedEvaluator._index_map_key` holds, and nothing else, so a
    gather with an equal key prints the constant the first one
    registered — the name ``_const``'s content dedupe would have
    answered — without evaluating, raveling or comparing again.

Window takes
    A contraction operand that is a short-run window view
    (:meth:`KernelEmitter._window_take`, asked by the staged ``_reshape``
    primitive when it meets the view) is read by the contraction only
    through a ``reshape`` that copies it, in C order, into a fresh
    C-ordered matrix. ``np.take`` through the view's flat index fills a
    fresh C-ordered array with the same elements in the same order, so
    the ``reshape`` copies nothing and the matmul reads the same matrix.

Printed contractions
    A contraction is the interpreter's own runner
    (``_ExprEvaluator._run_einsum`` and ``_contract``) over the staged
    primitives: ``c_einsum``, ``reshape``, ``matmul``, ``multiply`` and
    ``transpose`` print on the operands it pops in the same order, each
    step's result an argument of the step that pops it. The same calls on
    the same arrays give the same bytes, and no kernel walks a steps tuple
    at run time.

Known layouts
    A value known to be a C-ordered array of its static shape (``_Val``'s
    ``contiguous``: a ``matmul`` product, a buffer the store allocated, an
    array of at most one axis longer than 1 that a call allocated, a
    ufunc's result written over such a value) loses the wrappers that do
    nothing on it: ``_np.asarray``, a same-shape ``.reshape``,
    ``_np.ascontiguousarray``, and ``_reuse``, whose run-time layout check
    it would pass; reshapes of it compose into one. A 0-d value, and one
    whose layout the build does not know (a bound input, param or state,
    a view, a take), keeps them.
"""

from __future__ import annotations

import math
import re
from collections import Counter, namedtuple

import numpy as np

from ..errors import ExecutionError
from ..pmlang import ast_nodes as ast
from ..pmlang.builtins import GROUP_REDUCTIONS, SCALAR_FUNCTIONS
from ..srdfg.graph import COMPUTE, CONST, VAR
from ..srdfg.interpreter import (
    _REDUCE_IDENTITY,
    _ExprEvaluator,
    _affine,
    _affine_view,
    _literals,
    static_key,
)
from ..srdfg.plan import _cells

__all__ = ["EmitResult", "KernelEmitter", "Unsupported"]

#: Largest precomputed index/mask constant (elements) before the plan
#: stays interpreted instead of bloating the kernel's constant pool.
MAX_INDEX_CONSTANT = 1 << 22

#: Longest inner-loop run (elements) of a window view that a contraction
#: gathers by ``np.take`` instead of letting ``reshape`` copy it
#: (:meth:`KernelEmitter._window_take`): the copy pays a loop call per
#: run, the take a lookup per element. Measured, the take wins about 2x
#: at runs of 3 (3x3 windows) and 1.6x at 4; past 4 its edge narrows and
#: swings with the host while its index costs 8 bytes per element, and
#: it loses on DCT's 8-wide blocks and on 1x1 channel permutations.
WINDOW_RUN = 4

#: About how many elements of an array constant :meth:`KernelEmitter._const`
#: keys its dedupe on, beside its dtype and shape: evenly spaced at an odd
#: stride, so that index maps which differ only in their low bits (FFT's
#: stages) seldom share a key.
_FINGERPRINT = 64

#: Marks the ``out=`` a ufunc is offered over a buffer the kernel
#: allocated (``_vN``), settled once the whole kernel is printed.
_OFFER = "\0"
_OFFERED = re.compile(r", \0(_v\d+)")
#: Marks the previous value a partial store copies when it could write
#: over it instead, settled with the offers.
_OVER = "\1"
_OVERWRITTEN = re.compile(r"_np\.array\(\x01(_v\d+), copy=True\)")
#: What in a printed line names no local: a comment or a string literal,
#: so a PMLang name shaped like one (``# _t7 := ...``, ``'_v1'``) is never
#: taken for it. An f-string's ``f"`` is matched alone: its replacement
#: fields are code.
_UNNAMED = re.compile(r'''#.*|'[^'\n]*'|f"|"[^"\n]*"''')
#: Once :data:`_UNNAMED` is gone, a kernel local (``_vN``/``_tN``: no
#: other name the kernel prints starts so), and one that a line binds.
_LOCAL = re.compile(r"_[vt]\d+")
_BOUND = re.compile(r"(_[vt]\d+) :?= ")

#: Builtin implementation -> the numpy function its shadows go through:
#: the same result dtype, without importing what the implementation
#: calls (``scipy.special``) while the kernel is built.
_STAND_INS = {
    impl: stand_in for impl, _, _, stand_in in SCALAR_FUNCTIONS.values() if stand_in is not None
}


class Unsupported(Exception):
    """The plan cannot be printed as a kernel: it runs interpreted."""


def _bshape(*shapes):
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError as exc:
        # The interpreter raises the same broadcast error at run time.
        raise Unsupported(f"static broadcast mismatch: {exc}") from exc


class _Val:
    """One emitted expression: code text plus static shape/dtype facts.

    ``code`` is always a primary expression (a name, a literal or a
    call), safe to pass as an argument and to suffix. ``shadow`` is a
    zero-dimensional sample (or an actual Python scalar for literals)
    that the staged evaluator pushes through the *same* numpy functions
    it prints, so result dtypes follow the running numpy's promotion
    rules exactly instead of a hand-written approximation. ``fresh``
    says the run-time value is an array this statement's own numpy call
    allocated and that nothing else reads — no operand, constant or take
    shares its memory — so an ``out=`` may write over it and a full-cover
    store may bind it instead of copying it.
    ``unsqueezed`` / ``unbroadcast`` is what a bare ``_np.squeeze`` /
    ``_np.broadcast_to`` wraps: a store's ``.reshape`` / assignment does it.
    ``window`` is the ``(base, view)`` of a contraction operand's
    ``_affine_view``, which its matrix reshape may take instead
    (:meth:`_StagedEvaluator._reshape`).
    ``contiguous`` says the run-time value is known to be a C-ordered
    ndarray of ``shape`` (never a 0-d one), on which ``_np.asarray``,
    ``_np.ascontiguousarray``, ``_reuse`` and a same-shape ``.reshape`` do
    nothing and are not printed; ``unshaped`` is the known value whose
    reshape a value's code is, where a later reshape starts (:func:`_reshape`).
    """

    __slots__ = ("code", "shape", "shadow", "fresh", "unsqueezed", "unbroadcast",
                 "contiguous", "unshaped", "window")

    def __init__(self, code, shape, shadow, fresh=False, unsqueezed=None, unbroadcast=None,
                 contiguous=False, unshaped=None, window=None):
        self.code = code
        self.shape = tuple(shape)
        self.shadow = shadow
        self.fresh = fresh
        self.unsqueezed = unsqueezed
        self.unbroadcast = unbroadcast
        self.contiguous = contiguous and bool(self.shape)
        self.unshaped = unshaped
        self.window = window

    @property
    def dtype(self):
        return np.asarray(self.shadow).dtype

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def size(self):
        return math.prod(self.shape)

    @property
    def is_array(self):
        """True when the run-time value is certainly an ndarray (0-d
        results of ufuncs are numpy scalars, literals Python scalars)."""
        return bool(self.shape) or isinstance(self.shadow, np.ndarray)


def _shadow0(dtype):
    return np.zeros((), dtype=dtype)


def _one_axis(shape):
    """True when an array of *shape* that a numpy call allocates is
    C-ordered however numpy lays it out: at most one axis is longer than 1."""
    return sum(extent > 1 for extent in shape) <= 1


def _out(buffer, known):
    """The ``out=`` of a ufunc offered *buffer*: ``_reuse`` checks its
    layout at run time unless it is *known* C-ordered."""
    return f"out={buffer}" if known else f"out=_reuse({buffer})"


def _reshape(value, shape):
    """*value* reshaped to *shape*. A known value's reshapes compose (C
    order both ways), so it starts from what the value's code reshaped,
    and a same-shape reshape of a known value is that value."""
    shape = tuple(shape)
    source = value.unshaped or (value if value.contiguous else None)
    if source is None:
        return _Val(f"{value.code}.reshape({shape!r})", shape, value.shadow, value.fresh)
    if source.shape == shape:
        return _Val(source.code, shape, value.shadow, value.fresh, contiguous=True)
    return _Val(f"{source.code}.reshape({shape!r})", shape, value.shadow, value.fresh,
                contiguous=True, unshaped=source)


def _index_code(index):
    """Source text of the basic *index*: a tuple of ints, slices and
    ``Ellipsis`` (a :class:`~repro.srdfg.plan.StoreForm`'s)."""
    parts = []
    for part in index:
        if part is Ellipsis:
            parts.append("...")
        elif isinstance(part, slice):
            bounds = [part.start, part.stop] + ([] if part.step is None else [part.step])
            parts.append(":".join("" if bound is None else str(bound) for bound in bounds))
        else:
            parts.append(str(part))
    return ", ".join(parts)


def _slice(origin, step, count):
    """The basic slice selecting *count* cells from *origin* by *step*."""
    return _index_code((_cells(origin, step, count),))


def _result_shadow(*operands):
    """The shadow of a numpy call's result over contraction *operands*."""
    return _shadow0(np.result_type(*[operand.dtype for operand in operands]))


def _matmul_shape(a, b):
    """The shape of ``np.matmul`` of operands of shapes *a* and *b*."""
    if len(a) == 1 or len(b) == 1:
        return (b[:-2] + b[-1:]) if len(b) > 1 else a[:-1]
    return _bshape(a[:-2], b[:-2]) + (a[-2], b[-1])


def _copy_run(shape, strides):
    """The elements numpy's C-order copy of a view of *shape* and
    element *strides* moves per inner-loop call: its last axis of extent
    above 1, merged with each outer axis that continues it."""
    run = inner = None
    for extent, stride in zip(reversed(shape), reversed(strides)):
        if extent == 1:
            continue
        if run is None:
            run, inner = extent, stride
        elif stride == inner * run:
            run *= extent
        else:
            break
    return run or 1


#: What :class:`~repro.codegen.kernel.KernelArtifact` is constructed
#: from, in its constructor's order (after the plan key).
EmitResult = namedtuple("EmitResult", "source constants report")


#: Raised while staging a statement: the emitter cannot print it, or it
#: would raise at run time. Either way the plan stays interpreted.
_DECLINED = (Unsupported, ExecutionError)


class _Unfolded(Exception):
    """A slice of a folded sum reads a subscript known only at run time:
    its range check would name the slice's range, not the lattice's."""


class _StagedEvaluator(_ExprEvaluator):
    """The reference evaluator run over one statement with :class:`_Val`
    operands — the emitter's only reading of PMLang semantics.

    A primitive whose arguments are all concrete runs the inherited
    numpy call: that is static folding, with the interpreter's own rint
    rounding, subscript guards and NEP-50 promotion. A primitive with a
    symbolic argument prints the call into the kernel and pushes the
    shadows through the same function, or through a builtin's numpy
    stand-in (``SCALAR_FUNCTIONS``' fourth column). Values that must be
    inspected at build time (write subscripts, predicate masks excusing a
    stray subscript) decline the statement when they are symbolic.
    """

    def __init__(self, emitter, statement, operands, local):
        super().__init__(
            statement.space, statement.static_env, {}, statement.reductions,
            contractions=statement.contractions, compressed=statement.compressed,
        )
        self.emitter = emitter
        self.statement = statement
        #: operand name -> _Val of the gathered value.
        self.operands = operands
        #: The local the statement's result is bound to.
        self.local = local
        #: True once a sum of the statement was folded slice by slice.
        self.folded = False
        #: Buffers of folded slices already added into their total, which
        #: nothing reads again: a ufunc of their shape and dtype writes
        #: its result over one.
        self._spares = []
        #: id of each subexpression whose ``expr_key`` recurs in the statement
        #: -> that key; key -> its occurrences, and the :func:`_literals` and
        #: temp staged for it; staged temp -> its key's occurrences.
        keys, self._occurrences = {}, {}
        if statement.einsum is None:  # a planned contraction stages none
            ast.expr_key(statement.stmt.value, keys, self._occurrences)
        self._repeated = {node: key for node, key in keys.items() if self._occurrences[key] > 1}
        self._staged, self._uses = {}, {}

    def eval(self, expr):
        """Stage a repeated subexpression once: its first value, bound to
        a temp, answers every later occurrence outside a predicate mask."""
        key = self._repeated.get(id(expr))
        if key is None or self._pointwise or any(mask is not None for mask in self._mask_stack):
            return super().eval(expr)
        # A slice of a folded sum is a lattice of its own.
        key = key, tuple(sorted(self.sub_ranges.items()))
        staged = self._staged.get(key)
        if staged is not None and staged[0] == _literals(expr):
            self.emitter.report["subexpressions_shared"] += 1
            return staged[1]
        value = super().eval(expr)
        if staged is None and isinstance(value, _Val) and value.fresh:
            # Read again later, so never fresh; only this memo hands it
            # out, so _uses counts every reader.
            if not value.code.isidentifier():
                value = self.emitter._let(value.code, value.shape, value.shadow,
                                          contiguous=value.contiguous)
            value = _Val(value.code, value.shape, value.shadow, contiguous=value.contiguous)
            self._staged[key] = _literals(expr), value
            self._uses[value.code] = self._occurrences[key[0]]
        return value

    def lift(self, value):
        """*value* as a :class:`_Val` (build-time values embed)."""
        if isinstance(value, _Val):
            return value
        return self.emitter._static_val(value)

    # -- primitives --------------------------------------------------------

    def _apply(self, func, *args):
        if not any(isinstance(arg, _Val) for arg in args):
            return func(*args)
        vals = [self.lift(arg) for arg in args]
        # Shadows go in raw: a Python-scalar shadow is a NEP-50 weak
        # scalar exactly as the literal is in the printed call.
        with np.errstate(all="ignore"):
            shadow = _STAND_INS.get(func, func)(*[val.shadow for val in vals])
        name = getattr(func, "__name__", "")
        if getattr(np, name, None) is func:
            code = f"_np.{name}"
        else:
            code = self.emitter._const(func)
        shape = _bshape(*[val.shape for val in vals])
        args = [val.code for val in vals]
        # A call allocates its result (or is handed a buffer to put it in,
        # which may make it known).
        contiguous = _one_axis(shape)
        if isinstance(func, np.ufunc) and func.nout == 1 and shape:
            # An elementwise ufunc may overwrite a fresh operand of the
            # result's shape and dtype, or a staged one whose every
            # occurrence it is handed: only this call reads it, and a
            # C-ordered one (_reuse checks, unless it is known) is laid
            # out as the result would be.
            dtype = np.asarray(shadow).dtype
            for position, val in enumerate(vals):
                if (val.fresh or val.code in self._uses and self._uses[val.code] == sum(
                    other.code == val.code for other in vals
                )) and val.shape == shape and val.dtype == dtype:
                    temp = val.code
                    if not temp.isidentifier():
                        temp = self.emitter._temp()
                        args[position] = f"({temp} := {val.code})"
                    args.append(_out(temp, val.contiguous))
                    contiguous = contiguous or val.contiguous
                    break
            else:
                spare = next((val for val in self._spares
                              if val.shape == shape and val.dtype == dtype), None)
                if spare is not None:
                    # A folded slice's buffer, dead once added in.
                    self._spares.remove(spare)
                    args.append(_out(spare.code, spare.contiguous))
                    contiguous = contiguous or spare.contiguous
                else:
                    # An earlier statement's result, if this call is its
                    # last reader (KernelEmitter._settle_lifetimes).
                    dead = next((val.code for val in vals if val.code in self.emitter._owned
                                 and val.shape == shape and val.dtype == dtype), None)
                    if dead is not None:
                        args.append(_OFFER + dead)
        # Ufuncs, np.where and the SCALAR_FUNCTIONS allocate their result
        # (or were just handed a fresh operand to put it in).
        return _Val(f"{code}({', '.join(args)})", shape, shadow, fresh=True, contiguous=contiguous)

    def _to_float(self, value):
        if not isinstance(value, _Val):
            return super()._to_float(value)
        code = value.code if value.is_array else f"_np.asarray({value.code})"
        shadow = np.asarray(value.shadow)
        if shadow.dtype.kind not in ("f", "c"):
            code = f"{code}.astype(_np.float64)"
            shadow = shadow.astype(np.float64)
        return _Val(code, value.shape, shadow, contiguous=value.contiguous and code == value.code,
                    window=value.window)

    def _operand(self, name):
        return self.operands.get(name)

    def _scalar(self, value):
        return _Val(f"{value.code}.reshape(())", (), value.shadow)

    def _bare_view(self, base, order, absent):
        shape = [base.shape[dim] for dim in order]
        # _axview's view, by basic indexing.
        code = base.code if order == tuple(sorted(order)) else f"{base.code}.transpose({order!r})"
        for axis in absent:
            shape.insert(axis, 1)
        if absent:
            index = ("None" if axis in absent else ":" for axis in range(absent[-1] + 1))
            code = f"{code}[{', '.join(index)}]"
        return _Val(code, shape, base.shadow)

    def _subscript(self, expr, dim, value, extent):
        if not isinstance(value, _Val):
            return super()._subscript(expr, dim, value, extent)
        if self._pointwise:
            # Static at the points, and range-checked when they were
            # derived (CompressedReduction.points).
            if value.dtype.kind != "f":
                return value
            return self.emitter._let(
                f"_np.rint({value.code}).astype(_np.int64)", value.shape, _shadow0(np.int64)
            )
        if any(mask is not None for mask in self._mask_stack):
            # Where a predicate masks it, the interpreter clamps a stray
            # subscript instead of raising: that stays interpreted.
            raise Unsupported(f"subscript {dim} of {expr.base!r} is data-dependent "
                              "under a reduction predicate")
        if self.sub_ranges:
            raise _Unfolded
        code = value.code if value.is_array else f"_np.asarray({value.code})"
        shadow = value.shadow  # _gather declines it unless integral
        if value.dtype.kind == "f":
            code, shadow = f"_np.rint({code}).astype(_np.int64)", _shadow0(np.int64)
        return self.emitter._let(
            f"_in_range({code}, {extent}, {dim}, {expr.base!r})", value.shape, shadow
        )

    def _gather(self, expr, base):
        emitter = self.emitter
        key = self._index_map_key(expr, base.shape)
        index_map = emitter._index_maps.get(key)
        if index_map is None:
            index_arrays = self._index_arrays(expr, base)
            for dim, array in enumerate(index_arrays):
                if array.dtype.kind not in ("i", "u"):
                    # Boolean subscripts mean mask indexing —
                    # ravel_multi_index would silently reinterpret them
                    # as 0/1 positions.
                    raise Unsupported(
                        f"subscript {dim} of {expr.base!r} is not integral"
                    )
            if any(isinstance(array, _Val) for array in index_arrays):
                # Known only at run time: the interpreter's own gather,
                # or, of one index at a reduction's points, ``np.take``.
                indices = [self.lift(array) for array in index_arrays]
                if self._pointwise and len(indices) == 1:
                    code = f"_np.take({base.code}, {indices[0].code})"
                else:
                    code = (f"{base.code}[tuple(_np.broadcast_arrays"
                            f"({', '.join(index.code for index in indices)}))]")
                return emitter._let(
                    code, _bshape(*[index.shape for index in indices]),
                    base.shadow, fresh=True,
                )
            index_map = emitter._index_map(base, index_arrays)
            if key is not None:
                emitter._index_maps[key] = index_map
        return emitter._emit_gather(base, index_map)

    def _index_map_key(self, expr, base_shape):
        """Everything a static gather's index map is a function of, or
        None when it may not be static.

        The map is the subscripts evaluated over the lattice, so it is
        fixed by their :func:`~repro.srdfg.interpreter.static_key` and the
        base's shape (the extents it is range-checked against and raveled
        into). None when a subscript reads an operand or holds a
        reduction, or when an active predicate could excuse a stray
        subscript.
        """
        if self._pointwise or any(mask is not None for mask in self._mask_stack):
            return None
        key = static_key(expr.indices, self.space, self.static_env, self.sub_ranges)
        return None if key is None else key + (tuple(base_shape),)

    def _broadcast_to(self, value, shape):
        if not isinstance(value, _Val):
            return super()._broadcast_to(value, shape)
        if value.shape == shape:
            # broadcast_to(x, x.shape) is an identity view.
            return value
        if _bshape(value.shape, shape) != shape:
            raise Unsupported("broadcast mismatch (runtime error)")
        return _Val(
            f"_np.broadcast_to({value.code}, {shape!r})",
            shape,
            np.asarray(value.shadow),
            unbroadcast=value if value.ndim in (0, len(shape)) else None,
        )

    def _squeeze(self, value, axes):
        if not isinstance(value, _Val):
            return super()._squeeze(value, axes)
        if any(value.shape[axis] != 1 for axis in axes):
            raise Unsupported(
                "reduction axis retains extent > 1 at store "
                "(runtime squeeze error)"
            )
        return _Val(
            f"_np.squeeze({value.code}, axis={axes!r})",
            [n for axis, n in enumerate(value.shape) if axis not in axes],
            value.shadow,
            fresh=value.fresh,
            unsqueezed=value,
            contiguous=value.contiguous,
        )

    def _reduce(self, op, data, axes, where=None):
        if not isinstance(data, _Val) and not isinstance(where, _Val):
            return super()._reduce(op, data, axes, where)
        data = self.lift(data)
        if op in _REDUCE_IDENTITY:
            masked = "" if where is None else (
                f", where={self.lift(where).code}, "
                f"initial={self.lift(_REDUCE_IDENTITY[op]).code}"
            )
            call, shadow = f"_np.{op}({data.code}, axis={axes!r}{masked})", data.shadow
        else:  # argmax / argmin: the interpreter's own function
            reduce = self.emitter._const(GROUP_REDUCTIONS[op][0])
            call, shadow = f"{reduce}({data.code}, {axes!r})", _shadow0(np.intp)
        reindex = ", ".join(
            "None" if axis in axes else ":" for axis in range(data.ndim)
        )
        shape = [1 if axis in axes else n for axis, n in enumerate(data.shape)]
        return self.emitter._let(
            f"{call}[{reindex}]", shape, shadow, fresh=True, contiguous=_one_axis(shape)
        )

    # -- contractions (the calls the interpreter makes, printed) -----------

    def _window(self, array, view, shape):
        # The shadow, at the operand's static shape, goes through the
        # function the kernel calls.
        if _affine_view(np.broadcast_to(array.shadow, array.shape), *view, shape) is None:
            return None
        return _Val(f"_affine_view({array.code}, {view[0]!r}, {view[1]!r}, {shape!r})",
                    shape, array.shadow, window=(array, view))

    def _einsum(self, equation, *operands):
        """``c_einsum``, of the shape its output labels take. It allocates
        when it sums a label or reads two operands; a pure relabelling of
        one may answer a view of it."""
        terms, _, out = equation.partition("->")
        sizes = {}
        for term, operand in zip(terms.split(","), operands):
            for label, extent in zip(term, operand.shape):
                if sizes.get(label, 1) == 1:
                    sizes[label] = extent
        shape = tuple(sizes[label] for label in out)
        allocates = len(operands) > 1 or bool(set(terms) - {","} - set(out))
        return _Val(f"c_einsum({equation!r}, {', '.join(operand.code for operand in operands)})",
                    shape, _result_shadow(*operands), contiguous=allocates and _one_axis(shape))

    def _reshape(self, value, shape):
        if value.window is not None:
            # The copy this reshape makes of a window view, as a take.
            taken = self.emitter._window_take(*value.window, value.shape, shape)
            if taken is not None:
                value = self._to_float(taken)
        return _reshape(value, shape)

    def _matmul(self, a, b):
        """A ``matmul`` product is known."""
        return _Val(f"_np.matmul({a.code}, {b.code})", _matmul_shape(a.shape, b.shape),
                    _result_shadow(a, b), contiguous=True)

    def _multiply(self, a, b):
        shape = _bshape(a.shape, b.shape)
        return _Val(f"_np.multiply({a.code}, {b.code})", shape, _result_shadow(a, b),
                    contiguous=_one_axis(shape))

    def _transpose(self, value, axes):
        return _Val(f"{value.code}.transpose({axes!r})",
                    tuple(value.shape[axis] for axis in axes), value.shadow)

    def _contracted(self, value, einsum):
        """The contraction, one expression (a step's result is an argument
        of the step that pops it, so each intermediate lives exactly as
        long as it does in the interpreter), bound before its reshape."""
        shadow = value.shadow
        if einsum.scalar != 1.0:
            with np.errstate(all="ignore"):
                shadow = shadow * einsum.scalar
            value = _Val(f"({value.code} * {self.lift(einsum.scalar).code})", value.shape, shadow)
        self.emitter.report["einsum"] += 1
        # einsum answers a pure relabelling ('ab->ba', 'aa->a') with a
        # view of its operand; summing a label away, or the scalar
        # multiply, allocates.
        operand_labels, _, out_labels = einsum.spec.partition("->")
        summed = set(operand_labels) - {","} - set(out_labels)
        fresh = bool(summed) or einsum.scalar != 1.0
        source = value.unshaped or (value if value.contiguous else None)
        if source is not None:
            # Bound before any reshape: whoever reads it reshapes it from there.
            source = self.emitter._let(source.code, source.shape, shadow, fresh, contiguous=True)
            return _reshape(source, einsum.out_shape)
        # The statement's shape is never 0-d: ``reshape`` makes an ndarray
        # of a numpy scalar too, so nothing wraps the value in ``asarray``.
        return self.emitter._let(
            _reshape(value, einsum.out_shape).code, einsum.out_shape, shadow, fresh
        )

    def _concrete(self, value, reason, *args):
        if isinstance(value, _Val):
            raise Unsupported(reason.format(*args))
        return value

    # -- the store (StatementPlan.write), printed into the statement's local --

    def _allocate(self, shape, dtype, zeros):
        dt = self.emitter._const(np.dtype(dtype))
        return _Val(f"_np.{'zeros' if zeros else 'empty'}({shape!r}, dtype={dt})", shape,
                    _shadow0(dtype), contiguous=True)

    def _copied(self, value, dtype):
        """The copy of *value*; of a known buffer the kernel allocated in
        *dtype*, without a cast and marked so that the store writes over
        it instead once it is dead (:meth:`KernelEmitter._settle_lifetimes`)."""
        dtype = np.dtype(dtype)
        if value.contiguous and value.code in self.emitter._owned and value.dtype == dtype:
            return _Val(f"_np.array({_OVER}{value.code}, copy=True)", value.shape, value.shadow,
                        contiguous=True)
        return _Val(f"_np.array({value.code}, dtype={self.emitter._const(dtype)}, copy=True)",
                    value.shape, _shadow0(dtype), contiguous=_one_axis(value.shape))

    def _write(self, out, index, order, view, raw):
        dest = self.local if view is None else f"{self.local}.reshape({view!r})"
        return self._assign(out, f"{dest}[{_index_code(index)}]", raw, order)

    def _scatter(self, out, subscripts, raw):
        """A fancy write through the subscripts broadcast at build."""
        for value in subscripts:
            if value.size > MAX_INDEX_CONSTANT:
                raise Unsupported("write subscript constant exceeds size cap")
            if value.dtype.kind not in ("i", "u", "b"):
                raise Unsupported("non-integral write subscript")
        try:
            broadcast = np.broadcast_arrays(*subscripts, np.empty(raw.shape, dtype=np.bool_))
        except ValueError as exc:
            raise Unsupported(f"store broadcast mismatch (runtime error): {exc}") from exc
        targets = [self.emitter._const(np.ascontiguousarray(array)) for array in broadcast[:-1]]
        return self._assign(out, f"{self.local}[({', '.join(targets)},)]", raw)

    def _assign(self, out, dest, raw, order=None):
        """Bind the store's buffer *out* to the statement's local, then
        print its write of *raw* through *dest*. Assignment broadcasts
        the payload. A numpy scalar converts as a Python one (a NaN into
        an int raises), not as a 0-d array does."""
        self.emitter._emit(f"{self.local} = {out.code}")
        payload = raw.unbroadcast or raw
        code = payload.code if payload.is_array else f"_np.asarray({payload.code})"
        if order is not None and payload.ndim:
            code = f"{code}.transpose({order!r})"
        self.emitter._emit(f"{dest} = {code}")
        return _Val(self.local, out.shape, out.shadow, contiguous=out.contiguous)

    # -- folded sums ---------------------------------------------------------

    def _fold_short_sum(self, expr, axes):
        """A sum that does not fold prints nothing: a slice is taken back
        when the first shows it is not float data, or when it reads a
        subscript known only at run time (:class:`_Unfolded`). The lattice
        path prints the sum instead, with the bytes a fold would give."""
        mark = self.emitter._mark(), dict(self._staged), dict(self._uses), list(self._spares)
        try:
            total = super()._fold_short_sum(expr, axes)
        except _Unfolded:
            total = None
        if total is None:
            self.emitter._restore(mark[0])
            self._staged, self._uses, self._spares = mark[1:]
        elif isinstance(total, _Val):
            self.folded = True
        return total

    def _fold(self, total, piece):
        spare = None
        if (isinstance(total, _Val) and total.fresh and isinstance(piece, _Val) and piece.fresh
                and piece.shape == total.shape and piece.dtype == total.dtype):
            # The add writes over the total, so the piece is dead after it.
            spare = self.emitter._temp()
            piece = _Val(f"({spare} := {piece.code})", piece.shape, piece.shadow, fresh=True)
        value = super()._fold(total, piece)
        if not isinstance(value, _Val):
            return value
        if spare is not None:
            self._spares.append(_Val(spare, piece.shape, piece.shadow, contiguous=piece.contiguous))
        # One line per slice; the total is fresh, so the next slice's
        # add writes into it.
        return self.emitter._let(value.code, value.shape, value.shadow, fresh=True)

    def _unless_nan(self, total, expr, axes):
        if not isinstance(total, _Val):
            return super()._unless_nan(total, expr, axes)
        exact = self.emitter._const(_LatticeReduction(
            self.statement, expr, axes, tuple(sorted(self.sub_ranges.items()))
        ))
        self.emitter._emit(f"if _np.isnan({total.code}.min()):")
        self.emitter._emit(f"{total.code} = {exact}({self._operand_dict()})", indent=2)
        return total

    def _operand_dict(self):
        """The statement's operands as the dict a constant is called with."""
        return "{" + ", ".join(
            f"{name!r}: {value.code}" for name, value in self.operands.items()
        ) + "}"

    # -- reductions on their predicate's points ----------------------------

    def _reduce_points(self, expr, axes, compressed):
        """Print the memo lookup, the argument staged over the points'
        coordinates and :meth:`~repro.srdfg.interpreter.Points.reduce`;
        the lattice reduction, called as the interpreter runs it, answers
        when either says None. A temp the branch binds is released in it,
        and no later gather reads a take it printed."""
        emitter = self.emitter
        operands = self._operand_dict()
        points = emitter._let(f"{emitter._const(compressed)}.points({operands})", (), None)
        result = emitter._temp()
        emitter._emit(f"if {points.code} is not None:")
        line, serial = len(emitter.lines), emitter._temp_serial
        emitter._indent += 1
        try:
            coords = {
                name: _Val(f"{points.code}.coords[{name!r}]", (compressed.size,),
                           _shadow0(np.int64))
                for name in compressed.names
            }
            # A param's subscripts were read when the points were derived.
            taken = {
                id(node): _Val(f"{points.code}.taken[{position}]", (compressed.size,),
                               self.operands[node.base].shadow)
                for position, node in enumerate(compressed.taken_nodes())
            }
            values = self.lift(self._to_float(self._at_points(expr.arg, coords, taken)))
            emitter._emit(f"{result} = {points.code}.reduce({expr.op!r}, {values.code})")
            temps = [f"_t{n}" for n in range(serial + 1, emitter._temp_serial + 1)]
            if temps:
                emitter._emit(f"del {', '.join(temps)}")
        finally:
            emitter._indent -= 1
        emitter._gathers = {key: e for key, e in emitter._gathers.items() if e[0] < line}
        lattice = emitter._const(_LatticeReduction(self.statement, expr, axes, ()))
        emitter._emit(f"if {points.code} is None or {result} is None:")
        emitter._emit(f"{result} = {lattice}({operands})", indent=2)
        emitter.report["compressed"] += 1
        return _Val(result, compressed.shape, values.shadow, fresh=True)

    # -- reductions the kernel does not print -----------------------------

    def _eval_custom_reduction(self, expr, arg, mask, axes):
        raise Unsupported(f"reduction {expr.op!r} (custom combiner)")

    def _eval_chunked(self, expr, chunk_plan):
        raise Unsupported("chunked reduction (over-limit lattice)")


class _LatticeReduction(namedtuple("_LatticeReduction", "statement expr axes sub_ranges")):
    """One reduction of *statement* over its lattice, as the interpreter
    runs it: what a kernel answers when a folded sum's total holds a NaN,
    or when a reduction has no points or they answer a zero or a NaN —
    whose bytes only numpy's own reduce over the lattice argument
    decides."""

    __slots__ = ()

    def __call__(self, var_values):
        statement = self.statement
        return _ExprEvaluator(
            statement.space, statement.static_env, var_values, statement.reductions,
            sub_ranges=dict(self.sub_ranges), contractions=statement.contractions,
        )._reduce_lattice(self.expr, self.axes)


class KernelEmitter:
    """Emit one specialized kernel function for one ExecutionPlan."""

    def __init__(self, plan):
        self.plan = plan
        self.lines = []
        self.constants = {}
        #: :meth:`_const`'s fingerprint -> the array constants under it.
        self._const_by_content = {}
        #: :meth:`_StagedEvaluator._index_map_key` (or a window's
        #: :meth:`_window_take` key) -> ``(constant, shape)`` of every
        #: static gather index map built so far: a repeat of a map is
        #: neither evaluated, raveled nor compared again.
        self._index_maps = {}
        #: ``(SSA base local, flat index constant, shape)`` -> ``(line, _Val)``
        #: of every take printed so far: a later gather of the same key
        #: reads it instead of taking again.
        self._gathers = {}
        self._temp_serial = 0
        self._locals = {}
        #: The indentation :meth:`_emit` prints at by default: 2 inside
        #: a branch the kernel takes when a reduction has its points.
        self._indent = 1
        self.report = {
            "statements": 0,
            "einsum": 0,
            "gathers": 0,
            "gathers_shared": 0,
            "subexpressions_shared": 0,
            "short_sums": 0,
            "compressed": 0,
            "slice_gathers": 0,
            "slice_stores": 0,
            "scatters": 0,
            "reuses": 0,
            "in_place": 0,
        }
        #: (first line, stop line, result local) of every printed
        #: statement, in order.
        self._fragments = []
        #: The ``_vN`` of every array the kernel allocated so far (each
        #: statement's result, each zero-filled local) -> whether it is
        #: known C-ordered: a later ufunc or partial store may write over
        #: it once it is dead.
        self._owned = {}
        #: value key -> (shape, dtype) of every value the plan produces.
        self._value_facts = {}
        for step in plan.steps:
            if step.kind == VAR:
                facts = (step.shape, np.dtype(step.np_dtype))
            elif step.kind == CONST:
                facts = (tuple(step.value.shape), step.value.dtype)
            elif step.kind == COMPUTE:
                facts = (
                    step.statement.lhs_shape,
                    np.dtype(step.statement.target_dtype),
                )
            else:
                continue
            self._value_facts[step.key] = facts

    # -- small helpers -----------------------------------------------------

    def _temp(self):
        self._temp_serial += 1
        return f"_t{self._temp_serial}"

    def _let(self, code, shape, shadow, fresh=False, contiguous=False):
        """Bind *code* to a new temporary; returns its :class:`_Val`."""
        temp = self._temp()
        self._emit(f"{temp} = {code}")
        return _Val(temp, shape, shadow, fresh, contiguous=contiguous)

    def _const(self, value, prefix="_c"):
        """Register a build-time constant; dedupes ndarrays by content.

        An array is looked up by its dtype, shape and a sample of its
        elements (:data:`_FINGERPRINT`), then compared byte for byte with
        each constant under that key: the name a hash of dtype, shape and
        bytes would answer, without hashing every byte of every constant.
        """
        key = None
        if isinstance(value, np.ndarray) and not value.dtype.hasobject:
            flat = np.ascontiguousarray(value).reshape(-1)
            sample = flat[::flat.size // _FINGERPRINT | 1]
            key = (prefix, str(value.dtype), value.shape, sample.tobytes())
            raw = flat.view(np.uint8)
            for name in self._const_by_content.get(key, ()):
                other = np.ascontiguousarray(self.constants[name]).reshape(-1)
                if np.array_equal(raw, other.view(np.uint8)):
                    return name
        name = f"{prefix}{len(self.constants) + 1}"
        self.constants[name] = value
        if key is not None:
            self._const_by_content.setdefault(key, []).append(name)
        return name

    def _emit(self, line, indent=None):
        self.lines.append("    " * (self._indent if indent is None else indent) + line)

    # -- plan walk ---------------------------------------------------------

    def emit(self):
        plan = self.plan
        if plan._components:
            raise Unsupported(
                "plan invokes component sub-plans (lowered graphs inline "
                "components; source graphs stay interpreted)"
            )
        self._emit("def _kernel(_inputs, _params, _state, _output_init):", indent=0)
        for index, step in enumerate(plan.steps):
            local = f"_v{index}"
            if step.kind == VAR:
                self._emit_var_step(step, local)
            elif step.kind == CONST:
                self._emit_const_step(step, local)
            elif step.kind == COMPUTE:
                self._emit_compute_step(step, local)
            else:
                raise Unsupported(f"unsupported step kind {step.kind!r}")
        self._settle_lifetimes(self._emit_collect())
        return EmitResult("\n".join(self.lines) + "\n", self.constants, self.report)

    def _local(self, key):
        name = self._locals.get(key)
        if name is None:
            raise Unsupported(f"value key {key!r} has no bound local")
        return name

    def _emit_var_step(self, step, local):
        """One ``# var`` comment and one ``_vN = _bind(...)`` line: what
        :func:`~repro.codegen.kernel.timed_statements` and :data:`_BOUND` read."""
        name, modifier, shape = step.name, step.modifier, step.shape
        # The kernel's parameters, in the order of the plan step's.
        source = ("_inputs", "_params", "_state", "_output_init", "{}")[step.source]
        dt = self._const(np.dtype(step.np_dtype))
        self._emit(f"# var {step.node_name}: {modifier} {name!r} {shape!r}")
        self._emit(f"{local} = _bind({source}, {name!r}, {modifier!r}, {shape!r}, {dt})")
        self._locals[step.key] = local
        if source == "{}":
            self._owned[local] = True  # _bind's zero fill

    def _emit_const_step(self, step, local):
        cname = self._const(step.value)
        self._emit(f"{local} = {cname}  # const {step.node_name}")
        self._locals[step.key] = local

    def _emit_compute_step(self, step, local):
        self.report["statements"] += 1
        statement = step.statement
        start = len(self.lines)
        operands = {}
        for key, name in step.gather:
            src = self._local(key)
            shape, dtype = self._value_facts[key]
            operands[name] = _Val(src, shape, _shadow0(dtype),
                                  contiguous=self._owned.get(src, False))
        try:
            known = self._specialize_statement(statement, operands, local)
        except _DECLINED as exc:
            raise Unsupported(f"{statement.label}: {exc}") from exc
        self._fragments.append((start, len(self.lines), local))
        self._locals[step.key] = local
        self._owned[local] = known

    def _mark(self):
        """What :meth:`_restore` takes the emitter back to."""
        return len(self.lines), len(self.constants), dict(self.report), self._temp_serial

    def _restore(self, mark):
        lines, constants, report, self._temp_serial = mark
        self._rollback(lines, constants)
        self.report.clear()
        self.report.update(report)

    def _rollback(self, lines, constants):
        del self.lines[lines:]
        # No later statement may read a take whose line is gone.
        self._gathers = {key: e for key, e in self._gathers.items() if e[0] < lines}
        for name in list(self.constants)[constants:]:
            del self.constants[name]
        self._const_by_content = {
            key: kept for key, names in self._const_by_content.items()
            if (kept := [name for name in names if name in self.constants])
        }
        # A rolled-back constant's name is handed out again: no index
        # map may keep pointing at it.
        self._index_maps = {
            key: index_map for key, index_map in self._index_maps.items()
            if index_map[0] in self.constants
        }

    def _emit_collect(self):
        """Print the return line; answers the locals it names."""
        outputs, state, returned = [], [], set()
        for name, modifier, final in self.plan.collect:
            local = self._local(final)
            returned.add(local)
            (outputs if modifier == "output" else state).append(
                f"{name!r}: {local}"
            )
        self._emit(f"return {{{', '.join(outputs)}}}, {{{', '.join(state)}}}")
        return returned

    def _settle_lifetimes(self, returned):
        """Settle each ``out=`` a ufunc was offered over a buffer the
        kernel allocated, each partial store's copy of one, and each
        ``del``, from the printed lines: the one record of what reads
        what. A statement's lines run from its own first to its last, so
        no variable or constant step lies in one.

        An offer is kept when the ufunc's statement names that local once
        — as the ufunc's operand — and no line after the statement names
        it, return line included; else the ufunc allocates. Named once,
        nothing in the statement reads it after the ufunc or holds a view
        of it, and it is no output or state. A store writes over its
        previous value on the same terms, that value named once, by the
        copy it replaces. A statement whose result the kernel returns
        takes neither: what outlives the call is allocated where its
        statement runs, not in the heap region the step's big
        temporaries come back to next step (a warm MovieL-100K worker
        whose state landed there faulted hundreds of pages a request).

        A local the kernel binds (by assignment or walrus) is released at
        the end of the statement holding the last line that names it,
        unless that line is in no statement (an unread variable or
        constant, or the return line) or a ``del`` (a point branch's)
        released it.
        """
        lines = self.lines
        text = _UNNAMED.sub("", _OFFERED.sub("", "\n".join(lines)))
        bound = set(_BOUND.findall(text))
        found = [_LOCAL.findall(line) for line in text.split("\n")]
        last = {local: number for number, names in enumerate(found) for local in names}
        released = {local for number, line in enumerate(lines)
                    if line.lstrip().startswith("del ") for local in found[number]}
        span_of = {number: span for span in self._fragments for number in range(*span[:2])}
        for number, line in enumerate(lines):
            if _OFFER not in line and _OVER not in line:
                continue
            start, stop, result = span_of[number]
            named = Counter(local for names in found[start:stop] for local in names)

            def free(local):
                return result not in returned and named[local] == 1 and last[local] < stop

            def offer(match):
                local = match.group(1)
                if not free(local):
                    return ""
                self.report["reuses"] += 1
                return ", " + _out(local, self._owned[local])

            def overwrite(match):
                local = match.group(1)
                if not free(local):
                    return f"_np.array({local}, copy=True)"
                self.report["in_place"] += 1
                return local

            lines[number] = _OVERWRITTEN.sub(overwrite, _OFFERED.sub(offer, line))
        dead = {}
        for local in bound - released:
            if last[local] in span_of:
                dead.setdefault(span_of[last[local]][1], []).append(local)
        for stop in sorted(dead, reverse=True):
            lines.insert(stop, f"    del {', '.join(sorted(dead[stop]))}")

    # -- statement specialization ------------------------------------------

    def _specialize_statement(self, statement, operands, local):
        """Print *statement*; answers whether its result is known C-ordered."""
        ev = _StagedEvaluator(self, statement, operands, local)
        self._emit(f"# {statement.label}")
        raw = ev.lift(ev.statement_value(
            statement.stmt, statement.einsum, statement.chunk_plan
        ))
        known = self._emit_store(ev, raw)
        self.report["short_sums"] += ev.folded
        return known

    def _emit_store(self, ev, raw):
        """Print the statement's store: the interpreted plan's own
        (:meth:`~repro.srdfg.plan.StatementPlan.write`) over the staged
        store primitives, but for a cover of a fresh payload, which is
        bound. Answers whether the result is known C-ordered."""
        statement, local = ev.statement, ev.local
        lhs_shape = statement.lhs_shape
        form = statement.store
        if (form is not None and form.cover and raw.fresh and raw.dtype == statement.target_dtype
                and raw.size == math.prod(lhs_shape)):
            # Every cell is written exactly once, so neither the previous
            # value nor a zero fill is observable. A fresh payload holding
            # every cell in the target dtype *is* the result
            # (ascontiguousarray answers a C-ordered array with itself, so
            # a known one is bound as it is); anything else is copied into
            # a new buffer. Either way the result may escape as it is.
            payload = raw.unsqueezed or raw
            if payload.contiguous:
                code = _reshape(payload, lhs_shape).code
            else:
                code = f"_np.ascontiguousarray({payload.code}).reshape({lhs_shape!r})"
            self._emit(f"{local} = {code}")
            return True
        result = statement.write(ev, raw)
        if result.code != local:
            self._emit(f"{local} = {result.code}")
        if form is not None and form.index is None:
            self.report["scatters"] += 1
        elif form is not None and not form.cover:
            self.report["slice_stores"] += 1
        # A store's own buffer, and a copy of at most one axis longer than 1.
        return result.contiguous or _one_axis(lhs_shape)

    # -- constants and gathers ---------------------------------------------

    def _static_val(self, value):
        """Embed a build-time value, preserving its exact type.

        Only plain Python bool/int/finite float embed as source literals
        (they are NEP-50 "weak" scalars whose repr round-trips exactly;
        ``inf``/``nan`` print as names the kernel does not define); numpy
        scalars and arrays become namespace constants so their dtype —
        and therefore downstream promotion — is preserved. A broadcast
        view embeds as its un-broadcast core.
        """
        if isinstance(value, np.ndarray) and value.ndim > 0:
            core = value[tuple(
                slice(0, 1) if stride == 0 else slice(None)
                for stride in value.strides
            )]
            if core.size > MAX_INDEX_CONSTANT:
                raise Unsupported("static constant exceeds size cap")
            core = _Val(self._const(np.ascontiguousarray(core)), core.shape, _shadow0(value.dtype))
            if core.shape == value.shape:
                return core
            code = f"_np.broadcast_to({core.code}, {value.shape!r})"
            return _Val(code, value.shape, core.shadow, unbroadcast=core)
        if type(value) in (bool, int) or (
            type(value) is float and math.isfinite(value)
        ):
            return _Val(repr(value), (), value)
        if isinstance(value, np.ndarray):
            value = value[()]  # 0-d -> numpy scalar, constant below
        return _Val(self._const(value), np.shape(value), value)

    def _index_map(self, base, index_arrays):
        """``(index, shape)`` of the flat index selecting *base* at the
        static *index_arrays*: a slice of the raveled base when it is a
        positive-step progression, else a constant ``np.take`` selects
        through — exactly the elements the interpreter's fancy gather
        ``base[tuple(np.broadcast_arrays(*idx))]`` selects, in the order
        of the broadcast *shape*.
        """
        try:
            broadcast = np.broadcast_arrays(*index_arrays)
        except ValueError as exc:
            raise Unsupported(
                f"subscript broadcast mismatch (runtime error): {exc}"
            ) from exc
        shape = broadcast[0].shape
        size = math.prod(shape)
        if size > MAX_INDEX_CONSTANT:
            raise Unsupported("gather index constant exceeds size cap")
        if size == 0:
            flat = np.zeros(0, dtype=np.intp)
        else:
            flat = np.ravel_multi_index(
                tuple(np.ascontiguousarray(b) for b in broadcast),
                tuple(base.shape),
            ).astype(np.intp, copy=False).reshape(-1)
        step = int(flat[1] - flat[0]) if size > 1 else 1
        if size and step >= 1 and flat[-1] - flat[0] == step * (size - 1) and _affine(flat):
            return _slice(int(flat[0]), step, size), shape
        return self._const(np.ascontiguousarray(flat)), shape

    def _window_take(self, base, view, shape, matrix):
        """The :func:`_affine_view` *view* of *base* at *shape* as a take
        (:meth:`_emit_gather`) through a flat index constant, or None.

        A take when the contraction reshapes the operand to *matrix*
        before anything else reads it (a ``matmul`` side no ``c_einsum``
        rewrites first: :meth:`_StagedEvaluator._reshape`), that
        reshape copies (the view's axes do not merge), and the copy's
        inner loop moves at most :data:`WINDOW_RUN` elements
        (:func:`_copy_run`) — a 3x3 convolution window, not a DCT block
        or a 1x1 channel permutation. The take fills a fresh C-ordered
        array of *shape* in the copy's element order, so ``reshape`` then
        copies nothing and the matmul reads the matrix it read before.
        The index is ``np.arange`` over *base* pushed through the same
        view, built once per base shape, view and shape.
        """
        if math.prod(shape) > MAX_INDEX_CONSTANT:
            return None
        origin, coeffs = view
        key = ("window", base.shape, origin, coeffs, shape, matrix)
        index_map = self._index_maps.get(key)
        if index_map is None:
            base_strides = [math.prod(base.shape[dim + 1:]) for dim in range(base.ndim)]
            strides = [sum(row[axis] * stride for row, stride in zip(coeffs, base_strides))
                       for axis in range(len(shape))]
            if _copy_run(shape, strides) > WINDOW_RUN:
                return None
            flat = np.arange(base.size, dtype=np.intp).reshape(base.shape)
            packed = _affine_view(flat, origin, coeffs, shape).reshape(matrix)
            if np.may_share_memory(packed, flat):
                return None  # reshape answers a view: there is no copy to replace
            index_map = self._index_maps[key] = (self._const(packed.reshape(-1)), shape)
        return self._emit_gather(base, index_map)

    def _emit_gather(self, base, index_map):
        """A strided view, or ``np.take`` through a prebound flat index
        constant, of the map's shape: printed once per base, constant and
        shape (:attr:`_gathers`), and never fresh, so every reader may
        read it."""
        index, shape = index_map
        flat = base.code if base.ndim == 1 else f"{base.code}.reshape(-1)"
        reshape = "" if len(shape) == 1 else f".reshape({shape!r})"
        if ":" in index:
            self.report["slice_gathers"] += 1
            return _Val(f"{flat}[{index}]{reshape}", shape, base.shadow)
        entry = self._gathers.get((base.code, index, shape))
        if entry is not None:
            self.report["gathers_shared"] += 1
            return entry[1]
        self.report["gathers"] += 1
        value = self._let(f"_np.take({flat}, {index}){reshape}", shape, base.shadow)
        self._gathers[base.code, index, shape] = (len(self.lines) - 1, value)
        return value

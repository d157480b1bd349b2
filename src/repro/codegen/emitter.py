"""Lower an :class:`~repro.srdfg.plan.ExecutionPlan` into Python source.

The emitter walks the plan's topological step list and generates one
straight-line Python/numpy function per plan. The contract is strict
**bit-identity with the interpreter at f64**: for every statement it
either

* emits code that replays the *exact* numpy operation sequence the
  interpreter would run — with everything derivable from the graph
  folded to build-time constants: index arithmetic becomes precomputed
  flat gather arrays fed to ``np.take``, einsum subscript strings are
  prebound, axis extents / broadcast shapes / squeeze decisions /
  dtype casts are resolved statically, reduction masks are materialised
  once — or
* falls back to calling that statement's own
  :class:`~repro.srdfg.plan.StatementPlan` (which *is* the
  interpreter), so unsupported constructs are correct by construction
  and runtime error behaviour (out-of-range subscripts, unbound names)
  is preserved verbatim.

Two emitter-only optimisations preserve bit-identity by argument:

``np.take`` gathers
    A fancy gather ``base[tuple(np.broadcast_arrays(*idx))]`` and
    ``np.take(base.reshape(-1), flat)`` with
    ``flat = ravel_multi_index(broadcast, base.shape)`` select the same
    elements into a fresh C-contiguous array of the same shape, so
    every downstream ufunc/reduction sees identical values in an
    identical layout.

Blocked reductions
    A trailing-axes reduction of a product lattice is evaluated in
    slabs along the leading free axis into a preallocated scratch
    chunk. Each output cell's reduction still happens in a single
    ``np.sum``/``np.max``/... call over the same elements in the same
    layout, so the per-cell pairwise summation order is unchanged;
    only *which cells* share one numpy call changes. Factor dtypes
    must all equal the product dtype so the ``out=`` accumulation
    chain selects the same ufunc loops the interpreter's left-deep
    multiply tree would.

Adjacent elementwise statements fuse: a single-consumer, float64,
full-cover elementwise statement is inlined into its consumer as one
expression (its producer statement is dropped from the kernel), which
is sound because elementwise IEEE ops are pointwise deterministic —
evaluating the producer's expression at the consumer's gathered lattice
points yields bitwise the values the materialised array held. A
producer fragment is only dropped when its local is referenced nowhere
in the surviving source.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

from ..pmlang import ast_nodes as ast
from ..pmlang.builtins import SCALAR_FUNCTIONS
from ..srdfg.graph import COMPUTE, CONST, VAR
from ..srdfg.interpreter import (
    _BINOPS,
    _REDUCE_IDENTITY,
    _ExprEvaluator,
    _product_factors,
)

__all__ = ["EmitResult", "KernelEmitter", "Unsupported"]

#: Largest precomputed index/mask constant (elements) before the
#: statement falls back to the interpreter instead of bloating the
#: kernel's constant pool.
MAX_INDEX_CONSTANT = 1 << 22

#: Lattices below this never block (the slab bookkeeping would cost
#: more than the locality buys).
BLOCK_LATTICE_MIN = 1 << 16

#: Target elements per blocked-reduction slab (~256 KiB at f64 — sized
#: to stay cache-resident between the multiply and the reduce).
BLOCK_CHUNK_TARGET = 1 << 15

#: Producer statements bigger than this many AST nodes are not inlined.
MAX_INLINE_NODES = 24

_UFUNC_NAMES = {
    "+": "add",
    "-": "subtract",
    "*": "multiply",
    "%": "mod",
    "^": "power",
    "==": "equal",
    "!=": "not_equal",
    "<": "less",
    ">": "greater",
    "<=": "less_equal",
    ">=": "greater_equal",
    "&&": "logical_and",
    "||": "logical_or",
}

_REDUCE_UFUNC = {"sum": "sum", "prod": "prod", "max": "max", "min": "min"}


class Unsupported(Exception):
    """One statement (or the whole plan) cannot be specialized."""


def _bshape(*shapes):
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError as exc:
        # The interpreter would raise the same broadcast error at run
        # time; statement fallback preserves it.
        raise Unsupported(f"static broadcast mismatch: {exc}") from exc


class _Val:
    """One emitted expression: code text plus static shape/dtype facts.

    ``shadow`` is a zero-dimensional sample (or an actual Python scalar
    for literals) that the emitter pushes through the *same* numpy ops
    it emits, so result dtypes follow the running numpy's promotion
    rules exactly instead of a hand-written approximation.
    """

    __slots__ = ("code", "shape", "shadow", "atom")

    def __init__(self, code, shape, shadow, atom=False):
        self.code = code
        self.shape = tuple(shape)
        self.shadow = shadow
        #: Atomic codes (locals, constants, calls) are safe to suffix
        #: with ``[...]``/``.reshape`` and to re-reference without cost.
        self.atom = atom

    @property
    def dtype(self):
        return np.asarray(self.shadow).dtype

    @property
    def ndim(self):
        return len(self.shape)

    def paren(self):
        return self.code if self.atom else f"({self.code})"


def _shadow0(dtype):
    return np.zeros((), dtype=dtype)


class _SubstEval(_ExprEvaluator):
    """Static evaluator with some index variables bound to arrays.

    Used both for plain static folding (empty substitution: index vars
    evaluate to their own reshaped aranges, exactly as at run time) and
    for fusion, where a producer's index variables are bound to the
    consumer's already-evaluated subscript arrays.
    """

    def __init__(self, space, static_env, reductions, index_env=None):
        super().__init__(space, static_env, {}, reductions)
        self._index_env = index_env or {}

    def _index(self, name):
        if name in self._index_env:
            return self._index_env[name]
        return super()._index(name)


class _InlineDef:
    """A producer statement eligible for elementwise inlining."""

    __slots__ = ("statement", "operands", "local", "refs", "committed")

    def __init__(self, statement, operands, local):
        self.statement = statement
        #: operand name -> _Val of the producer's gathered values.
        self.operands = operands
        #: the local holding the materialised result (fallback target).
        self.local = local
        self.refs = 0
        self.committed = 0


class EmitResult:
    """Everything :class:`~repro.codegen.kernel.KernelArtifact` needs."""

    def __init__(self, source, constants, scratch_specs, report):
        self.source = source
        self.constants = constants
        self.scratch_specs = scratch_specs
        self.report = report


class _StmtCtx:
    """Per-statement emission context."""

    __slots__ = ("emitter", "statement", "operands", "static", "mask_stack")

    def __init__(self, emitter, statement, operands, static=None,
                 mask_stack=None):
        self.emitter = emitter
        self.statement = statement
        self.operands = operands
        self.static = static or _SubstEval(
            statement.space, statement.static_env, statement.reductions
        )
        self.mask_stack = mask_stack if mask_stack is not None else []

    @property
    def space(self):
        return self.statement.space

    def static_eval(self, expr):
        """The expression's value when it is index-only, else None.

        Runs the interpreter's own evaluator with no variable bindings,
        so static values (including rint rounding and NEP-50 promotion)
        are identical to what the interpreter computes at run time.
        """
        try:
            return self.static.eval(expr)
        except Exception:
            return None


class KernelEmitter:
    """Emit one specialized kernel function for one ExecutionPlan."""

    def __init__(self, plan):
        self.plan = plan
        self.config = plan.config
        self.lines = []
        self.constants = {}
        self._const_by_digest = {}
        self._const_serial = 0
        self.scratch_specs = []
        self._temp_serial = 0
        self._locals = {}
        self.report = {
            "statements": 0,
            "specialized": 0,
            "fallback": 0,
            "fused": 0,
            "einsum": 0,
            "blocked": 0,
            "gathers": 0,
            "fallback_reasons": [],
        }
        #: compute-step local -> _InlineDef for fusable producers.
        self._inline = {}
        #: value keys that escape through the collect epilogue.
        self._escapes = {final for _, _, final in plan.collect}
        #: local -> (start, stop) line range of that statement's code.
        self._fragments = {}
        #: locals that may alias preallocated scratch (an escaping
        #: scratchy value must be copied at collect so the caller can
        #: never observe the next execution overwriting it).
        self._scratchy = set()
        #: transient-arena allocation cursor/peak, in float64 elements.
        #: Fragment-local buffers (gathers, blocked-reduction chunks)
        #: are carved from one shared arena whose cursor resets per
        #: statement, so every statement reuses the same cache-hot
        #: memory instead of touching its own cold dedicated slot.
        self._arena_off = 0
        self._arena_peak = 0

    # -- small helpers -----------------------------------------------------

    def _temp(self):
        self._temp_serial += 1
        return f"_t{self._temp_serial}"

    def _const(self, value, prefix="_c"):
        """Register a build-time constant; dedupes ndarrays by content."""
        if isinstance(value, np.ndarray):
            digest = hashlib.sha256()
            digest.update(str(value.dtype).encode())
            digest.update(repr(value.shape).encode())
            digest.update(np.ascontiguousarray(value).tobytes())
            key = (prefix, digest.hexdigest())
            name = self._const_by_digest.get(key)
            if name is not None:
                return name
        else:
            key = None
        self._const_serial += 1
        name = f"{prefix}{self._const_serial}"
        self.constants[name] = value
        if key is not None:
            self._const_by_digest[key] = name
        return name

    def _scratch(self, shape, dtype):
        index = len(self.scratch_specs)
        self.scratch_specs.append((tuple(shape), np.dtype(dtype)))
        return f"_S[{index}]"

    def _transient(self, shape, dtype):
        """Fragment-local scratch carved from the shared f64 arena.

        Only values that are dead by the end of their statement may use
        it (gather buffers, blocked-reduction chunks and accumulators —
        every store path copies, so nothing downstream aliases them).
        Non-f64 transients get a dedicated slot instead.
        """
        shape = tuple(shape)
        if np.dtype(dtype) != np.float64:
            return self._scratch(shape, dtype)
        size = int(np.prod(shape)) if shape else 1
        offset = self._arena_off
        self._arena_off += size
        self._arena_peak = max(self._arena_peak, self._arena_off)
        code = f"_A[{offset}:{offset + size}]"
        if shape != (size,):
            code = f"{code}.reshape({shape!r})"
        return code

    def _emit(self, line, indent=1):
        self.lines.append("    " * indent + line)

    # -- plan walk ---------------------------------------------------------

    def emit(self):
        plan = self.plan
        if plan._components:
            raise Unsupported(
                "plan invokes component sub-plans (lowered graphs inline "
                "components; source graphs stay interpreted)"
            )
        self._emit("def _kernel(_inputs, _params, _state, _output_init, _S):",
                   indent=0)
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
        self._emit_collect()
        source = self._assemble()
        return EmitResult(source, self.constants, self.scratch_specs,
                          self.report)

    def _bind(self, key, local):
        self._locals[key] = local

    def _local(self, key):
        name = self._locals.get(key)
        if name is None:
            raise Unsupported(f"value key {key!r} has no bound local")
        return name

    def _emit_var_step(self, step, local):
        name = step.name
        shape = step.shape
        dt = self._const(np.dtype(step.np_dtype))
        modifier = step.modifier
        self._emit(f"# var {step.node_name}: {modifier} {name!r} {shape!r}")
        if modifier == "input":
            self._emit(f"if {name!r} not in _inputs:")
            self._emit(f"    raise ExecutionError(\"missing input '{name}'\")")
            self._emit(f"{local} = _inputs[{name!r}]")
        elif modifier == "param":
            self._emit(f"if {name!r} not in _params:")
            self._emit(f"    raise ExecutionError(\"missing param '{name}'\")")
            self._emit(f"{local} = _params[{name!r}]")
        elif modifier in ("state", "output"):
            source = "_state" if modifier == "state" else "_output_init"
            self._emit(f"{local} = {source}.get({name!r})")
            self._emit(f"if {local} is None:")
            # np.zeros(shape) then asarray(dtype) casts 0.0 exactly.
            self._emit(f"    {local} = _np.zeros({shape!r}, dtype={dt})")
        else:  # local read-before-write
            self._emit(f"{local} = _np.zeros({shape!r}, dtype={dt})")
        self._emit(f"{local} = _np.asarray({local}, dtype={dt})")
        self._emit(f"if {local}.shape != {shape!r}:")
        self._emit(
            f"    raise ExecutionError("
            f"f\"value for '{name}' has shape "
            f"{{tuple({local}.shape)}}, declared {shape!r}\")"
        )
        self._bind(step.key, local)

    def _emit_const_step(self, step, local):
        cname = self._const(step.value)
        self._emit(f"{local} = {cname}  # const {step.node_name}")
        self._bind(step.key, local)

    def _emit_compute_step(self, step, local):
        self.report["statements"] += 1
        statement = step.statement
        start_line = len(self.lines)
        self._arena_off = 0  # transients from the previous statement died
        operands = {}
        for key, name in step.gather:
            src = self._local(key)
            shape, dtype = self._value_facts[key]
            operands[name] = _Val(src, shape, _shadow0(dtype), atom=True)
        try:
            self._specialize_statement(step, statement, operands, local)
            self.report["specialized"] += 1
            self._register_inline_candidate(step, statement, operands, local)
        except Unsupported as exc:
            del self.lines[start_line:]
            self._emit_statement_fallback(step, statement, operands, local,
                                          reason=str(exc))
            self.report["fallback"] += 1
            self.report["fallback_reasons"].append(
                f"{statement.label}: {exc}"
            )
            if any(op.code in self._scratchy for op in operands.values()):
                # The interpreter may return views of its operands.
                self._scratchy.add(local)
        self._fragments[local] = (start_line, len(self.lines))
        self._bind(step.key, local)

    def _emit_statement_fallback(self, step, statement, operands, local,
                                 reason=""):
        splan = self._const(statement, prefix="_stmt")
        gather = ", ".join(
            f"{name!r}: {value.code}" for name, value in operands.items()
        )
        note = f"  # fallback: {reason}" if reason else ""
        self._emit(f"{local} = {splan}.execute({{{gather}}}){note}")

    def _emit_collect(self):
        outputs, state = [], []
        for name, modifier, final in self.plan.collect:
            local = self._local(final)
            if local in self._scratchy:
                local = f"_np.array({local}, copy=True)"
            entry = f"{name!r}: {local}"
            (outputs if modifier == "output" else state).append(entry)
        self._emit(f"return {{{', '.join(outputs)}}}, {{{', '.join(state)}}}")

    def _assemble(self):
        """Drop fully inlined producer fragments, prune dead scratch.

        A fragment is only dropped when its local is referenced nowhere
        in the surviving source — views, einsum operands, fallback
        gathers, and previous-value reads all keep their producer alive
        regardless of inline bookkeeping.
        """
        for info in self._inline.values():
            if not info.refs or info.refs != info.committed:
                continue
            bounds = self._fragments.get(info.local)
            if bounds is None:
                continue
            drop = set(range(*bounds))
            kept = [
                line for index, line in enumerate(self.lines)
                if index not in drop
            ]
            if re.search(rf"\b{info.local}\b", "\n".join(kept)):
                continue
            self.lines = kept
            self._renumber_fragments(bounds)
            self.report["fused"] += 1
        source = "\n".join(self.lines) + "\n"

        # Prune scratch slots orphaned by dropped fragments or rolled-back
        # speculative emissions, remapping the survivors densely.
        used = sorted({int(m) for m in re.findall(r"_S\[(\d+)\]", source)})
        remap = {old: new for new, old in enumerate(used)}
        source = re.sub(
            r"_S\[(\d+)\]", lambda m: f"_S[{remap[int(m.group(1))]}]", source
        )
        self.scratch_specs = [self.scratch_specs[old] for old in used]
        # Materialise the transient arena as one final scratch slot,
        # bound to _A right after the signature line.
        if self._arena_peak and "_A[" in source:
            arena_index = len(self.scratch_specs)
            self.scratch_specs.append(
                ((self._arena_peak,), np.dtype(np.float64))
            )
            head, _, tail = source.partition("\n")
            source = f"{head}\n    _A = _S[{arena_index}]\n{tail}"
        # Prune constants never referenced by the surviving source.
        referenced = set(re.findall(r"_(?:c|stmt)\d+\b", source))
        self.constants = {
            name: value
            for name, value in self.constants.items()
            if name in referenced
        }
        return source

    def _renumber_fragments(self, dropped_bounds):
        start, stop = dropped_bounds
        width = stop - start
        shifted = {}
        for local, (lo, hi) in self._fragments.items():
            if lo >= stop:
                shifted[local] = (lo - width, hi - width)
            elif hi <= start:
                shifted[local] = (lo, hi)
            # fragments overlapping the dropped range vanish with it
        self._fragments = shifted

    # -- static facts ------------------------------------------------------

    @property
    def _value_facts(self):
        """key -> (shape, dtype) for every produced value, lazily built."""
        cached = getattr(self, "_facts_cache", None)
        if cached is not None:
            return cached
        facts = {}
        for step in self.plan.steps:
            if step.kind == VAR:
                facts[step.key] = (step.shape, np.dtype(step.np_dtype))
            elif step.kind == CONST:
                facts[step.key] = (tuple(step.value.shape), step.value.dtype)
            elif step.kind == COMPUTE:
                statement = step.statement
                facts[step.key] = (
                    statement.lhs_shape,
                    np.dtype(statement.target_dtype),
                )
        self._facts_cache = facts
        return facts

    # -- statement specialization ------------------------------------------

    def _specialize_statement(self, step, statement, operands, local):
        stmt = statement.stmt
        ctx = _StmtCtx(self, statement, operands)

        self._emit(f"# {statement.label}")
        raw = None
        if statement.einsum is not None:
            raw = self._try_emit_einsum_plan(ctx, statement.einsum)
        if raw is None:
            if statement.chunk_plan is not None:
                raise Unsupported("chunked reduction (over-limit lattice)")
            raw = self._eval(ctx, stmt.value)

        raw = self._statement_epilogue(ctx, raw)
        self._emit_store(ctx, step, raw, local)

    def _statement_epilogue(self, ctx, raw):
        """np.asarray + squeeze(reduction axes) + broadcast_to(free_shape)."""
        space = ctx.space
        if raw.ndim == 0 and not isinstance(raw.shadow, np.ndarray):
            raw = _Val(
                f"_np.asarray({raw.paren()})", (), np.asarray(raw.shadow)
            )
        if raw.ndim == space.total and space.total > 0:
            squeeze_axes = tuple(range(space.free_count, space.total))
            if squeeze_axes:
                for axis in squeeze_axes:
                    if raw.shape[axis] != 1:
                        raise Unsupported(
                            "reduction axis retains extent > 1 at store "
                            "(runtime squeeze error)"
                        )
                raw = _Val(
                    f"_np.squeeze({raw.paren()}, axis={squeeze_axes!r})",
                    raw.shape[: space.free_count],
                    raw.shadow,
                )
        free_shape = tuple(
            space.size(name) for name in space.order[: space.free_count]
        )
        if free_shape and raw.shape != free_shape:
            if _bshape(raw.shape, free_shape) != free_shape:
                raise Unsupported("free-shape broadcast mismatch")
            raw = _Val(
                f"_np.broadcast_to({raw.paren()}, {free_shape!r})",
                free_shape,
                raw.shadow,
            )
        # broadcast_to(x, x.shape) is an identity view; skipping it
        # changes no values.
        return raw

    def _emit_store(self, ctx, step, raw, local):
        statement = ctx.statement
        stmt = statement.stmt
        lhs_shape = statement.lhs_shape
        dtype = np.dtype(statement.target_dtype)
        dt = self._const(dtype)
        escapes = step.key in self._escapes

        if not stmt.target_indices:
            if lhs_shape not in ((), (1,)):
                raise Unsupported(
                    "whole-array assignment without subscripts "
                    "(runtime error)"
                )
            # Always copy: the result is at most one element, and a
            # fresh array can never alias transient-arena scratch, an
            # operand, or a kernel constant (same element-wise cast as
            # the interpreter's asarray, so values are identical).
            self._emit(
                f"{local} = _np.array({raw.paren()}, dtype={dt}, "
                f"copy=True).reshape({lhs_shape!r})"
            )
            return

        index_arrays = self._static_target_indices(ctx)
        if self._is_identity_cover(ctx, index_arrays, lhs_shape):
            view = local
        elif self._is_row_major_cover(index_arrays, lhs_shape, raw.shape):
            view = f"{local}.reshape({raw.shape!r})"
        else:
            view = None
        if view is not None:
            # Every cell is written exactly once, so neither the previous
            # value nor a zero fill is observable: a fresh buffer when the
            # value escapes, reusable scratch otherwise.
            if escapes:
                self._emit(f"{local} = _np.empty({lhs_shape!r}, dtype={dt})")
            else:
                buf = self._scratch(lhs_shape, dtype)
                self._emit(f"{local} = {buf}")
                self._scratchy.add(local)
            self._emit(f"{view}[...] = {raw.paren()}")
            return

        # General static scatter: prev-copy or zeros, then a fancy write
        # through precomputed broadcast target indices (the exact
        # interpreter _store sequence, with the subscripts prebound).
        previous = ctx.operands.get(stmt.target)
        if previous is not None and previous.shape == lhs_shape:
            self._emit(
                f"{local} = _np.array({previous.code}, dtype={dt}, copy=True)"
            )
        else:
            self._emit(f"{local} = _np.zeros({lhs_shape!r}, dtype={dt})")
        try:
            broadcast = np.broadcast_arrays(
                *index_arrays, np.empty(raw.shape, dtype=np.bool_)
            )
        except ValueError as exc:
            raise Unsupported(
                f"store broadcast mismatch (runtime error): {exc}"
            ) from exc
        targets = tuple(
            self._const(np.ascontiguousarray(array))
            for array in broadcast[:-1]
        )
        payload_shape = broadcast[-1].shape
        payload = raw.paren()
        if raw.shape != payload_shape:
            payload = f"_np.broadcast_to({payload}, {payload_shape!r})"
        self._emit(f"{local}[({', '.join(targets)},)] = {payload}")

    def _static_target_indices(self, ctx):
        """Precomputed, bounds-checked write subscript arrays."""
        statement = ctx.statement
        stmt = statement.stmt
        space = ctx.space
        lhs_shape = statement.lhs_shape
        arrays = []
        for dim, index_expr in enumerate(stmt.target_indices):
            value = ctx.static_eval(index_expr)
            if value is None:
                raise Unsupported(
                    f"write subscript {dim} of {stmt.target!r} is "
                    "data-dependent"
                )
            value = np.asarray(value)
            if value.dtype.kind == "f":
                value = np.rint(value).astype(np.int64)
            if value.ndim == space.total and space.total > 0:
                squeeze_axes = tuple(range(space.free_count, space.total))
                if squeeze_axes:
                    value = np.squeeze(value, axis=squeeze_axes)
            if value.size > MAX_INDEX_CONSTANT:
                raise Unsupported("write subscript constant exceeds size cap")
            if value.dtype.kind not in ("i", "u", "b"):
                raise Unsupported("non-integral write subscript")
            extent = lhs_shape[dim]
            if value.dtype.kind != "b" and value.size and (
                value.min() < 0 or value.max() >= extent
            ):
                raise Unsupported(
                    f"write subscript {dim} of {stmt.target!r} statically "
                    "out of range (runtime error)"
                )
            arrays.append(value)
        return arrays

    def _is_identity_cover(self, ctx, index_arrays, lhs_shape):
        """True when the write is a full-cover identity assignment.

        Each subscript d must be dimension d's own free index variable
        spanning exactly ``lhs_shape[d]`` — then ``out[idx...] = payload``
        writes every cell exactly once in place, which is the same
        element-wise cast-assignment as ``out[...] = payload``.
        """
        statement = ctx.statement
        stmt = statement.stmt
        space = ctx.space
        if len(stmt.target_indices) != space.free_count:
            return False
        if len(stmt.target_indices) != len(lhs_shape):
            return False
        for dim, index_expr in enumerate(stmt.target_indices):
            if not (
                isinstance(index_expr, ast.Name)
                and index_expr.id in space.axis
                and space.axis[index_expr.id] == dim
            ):
                return False
            low, high = space.index_ranges[index_expr.id]
            if low != 0 or high != lhs_shape[dim] - 1:
                return False
        return True

    def _is_row_major_cover(self, index_arrays, lhs_shape, lattice_shape):
        """True when the write is a full cover that is a reshape view.

        *lattice_shape* is the payload's shape. Dimension d's subscripts
        must vary over their own contiguous run of lattice axes only —
        the runs in dimension order, between them using up the lattice —
        and, flattened, count ``0..lhs_shape[d]-1``. Then lattice point
        ``a`` lands on the cell whose d-th coordinate is the row-major
        rank of ``a`` within run d, which is precisely
        ``out.reshape(lattice_shape)[a]``: a blocked store such as
        ``out[by*8+u][bx*8+v]`` over ``(by, u, bx, v)``. The subscript
        arrays arrive un-broadcast, so the test reads ``sum(lhs_shape)``
        elements, not the lattice.
        """
        if len(index_arrays) != len(lhs_shape):
            return False
        rank = len(lattice_shape)
        axis = 0
        for value, extent in zip(index_arrays, lhs_shape):
            stop, covered = axis, 1
            while stop < rank and covered < extent:
                covered *= lattice_shape[stop]
                stop += 1
            run_shape = (
                (1,) * axis + lattice_shape[axis:stop] + (1,) * (rank - stop)
            )
            if (
                value.dtype.kind not in ("i", "u")
                or value.shape != run_shape
                or not np.array_equal(value.reshape(-1), np.arange(extent))
            ):
                return False
            axis = stop
        return all(size == 1 for size in lattice_shape[axis:])

    # -- expression emission -----------------------------------------------

    def _eval(self, ctx, expr):
        static = ctx.static_eval(expr)
        if static is not None:
            return self._static_val(static)
        if isinstance(expr, ast.Literal):
            return _Val(repr(expr.value), (), expr.value, atom=True)
        if isinstance(expr, ast.Name):
            return self._eval_name(ctx, expr)
        if isinstance(expr, ast.Indexed):
            return self._eval_indexed(ctx, expr)
        if isinstance(expr, ast.UnaryOp):
            if expr.op not in ("-", "!"):
                raise Unsupported(f"unary operator {expr.op!r}")
            operand = self._eval(ctx, expr.operand)
            func = "negative" if expr.op == "-" else "logical_not"
            with np.errstate(all="ignore"):
                shadow = getattr(np, func)(np.asarray(operand.shadow))
            return _Val(f"_np.{func}({operand.code})", operand.shape, shadow)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(ctx, expr)
        if isinstance(expr, ast.Ternary):
            cond = self._eval(ctx, expr.cond)
            then = self._eval(ctx, expr.then)
            other = self._eval(ctx, expr.other)
            shape = _bshape(cond.shape, then.shape, other.shape)
            with np.errstate(all="ignore"):
                shadow = np.where(
                    np.zeros((), dtype=bool), then.shadow, other.shadow
                )
            return _Val(
                f"_np.where({cond.code}, {then.code}, {other.code})",
                shape,
                shadow,
            )
        if isinstance(expr, ast.FuncCall):
            return self._eval_funccall(ctx, expr)
        if isinstance(expr, ast.ReductionCall):
            return self._eval_reduction(ctx, expr)
        raise Unsupported(f"cannot emit {type(expr).__name__}")

    def _static_val(self, value):
        """Embed a build-time value, preserving its exact type.

        Only plain Python bool/int/float embed as source literals (they
        are NEP-50 "weak" scalars whose repr round-trips exactly); numpy
        scalars and arrays become namespace constants so their dtype —
        and therefore downstream promotion — is preserved.
        """
        if isinstance(value, np.ndarray) and value.ndim > 0:
            if value.size > MAX_INDEX_CONSTANT:
                raise Unsupported("static constant exceeds size cap")
            name = self._const(np.ascontiguousarray(value))
            return _Val(name, value.shape, _shadow0(value.dtype), atom=True)
        if type(value) is bool or type(value) is int or type(value) is float:
            return _Val(repr(value), (), value, atom=True)
        if isinstance(value, np.ndarray):
            value = value[()]  # 0-d -> numpy scalar, constant below
        name = self._const(value)
        return _Val(name, np.shape(value), value, atom=True)

    def _eval_name(self, ctx, expr):
        name = expr.id
        value = ctx.operands.get(name)
        if value is None:
            raise Unsupported(f"unbound name {name!r} (runtime error)")
        size = int(np.prod(value.shape)) if value.shape else 1
        if size > 1:
            raise Unsupported(
                f"array variable {name!r} used without subscripts "
                "(runtime error)"
            )
        if value.ndim > 0:
            # The interpreter reshapes single-element arrays to 0-d.
            return _Val(
                f"{value.code}.reshape(())", (), value.shadow, atom=True
            )
        return value

    def _eval_binop(self, ctx, expr):
        left = self._eval(ctx, expr.left)
        right = self._eval(ctx, expr.right)
        if expr.op not in _BINOPS:
            raise Unsupported(f"unknown operator {expr.op!r}")
        shape = _bshape(left.shape, right.shape)
        with np.errstate(all="ignore"):
            if expr.op == "/":
                numerator_code = f"_np.asarray({left.code})"
                numerator_shadow = np.asarray(left.shadow)
                if numerator_shadow.dtype.kind not in ("f", "c"):
                    numerator_code = f"{numerator_code}.astype(_np.float64)"
                    numerator_shadow = numerator_shadow.astype(np.float64)
                shadow = np.divide(numerator_shadow, np.asarray(right.shadow))
                return _Val(
                    f"_np.divide({numerator_code}, {right.code})",
                    shape,
                    shadow,
                )
            func = _UFUNC_NAMES[expr.op]
            shadow = _BINOPS[expr.op](left.shadow, right.shadow)
        return _Val(f"_np.{func}({left.code}, {right.code})", shape, shadow)

    def _eval_funccall(self, ctx, expr):
        if expr.func not in SCALAR_FUNCTIONS:
            raise Unsupported(f"unknown function {expr.func!r}")
        impl = SCALAR_FUNCTIONS[expr.func][0]
        fname = self._const(impl)
        args, shadows, shapes = [], [], []
        for arg in expr.args:
            value = self._eval(ctx, arg)
            code = f"_np.asarray({value.code})"
            shadow = np.asarray(value.shadow)
            if shadow.dtype.kind not in ("f", "c"):
                code = f"{code}.astype(_np.float64)"
                shadow = shadow.astype(np.float64)
            args.append(code)
            shadows.append(shadow)
            shapes.append(value.shape)
        with np.errstate(all="ignore"):
            shadow = impl(*shadows)
        return _Val(
            f"{fname}({', '.join(args)})",
            _bshape(*shapes) if shapes else (),
            shadow,
        )

    # -- indexed access ----------------------------------------------------

    def _eval_indexed(self, ctx, expr):
        base = ctx.operands.get(expr.base)
        if base is None:
            raise Unsupported(
                f"unbound variable {expr.base!r} (runtime error)"
            )
        if len(expr.indices) != len(base.shape):
            raise Unsupported(
                f"{expr.base!r} subscript arity mismatch (runtime error)"
            )
        view = self._bare_subscript_view(ctx, expr, base)
        if view is not None:
            return view
        index_arrays = self._static_subscripts(ctx, expr, base)
        inline = self._inline.get(base.code)
        if inline is not None:
            fused = self._try_inline(ctx, inline, index_arrays)
            if fused is not None:
                return fused
        return self._emit_gather(ctx, base, index_arrays)

    def _bare_subscript_view(self, ctx, expr, base):
        """The interpreter's zero-copy transpose+expand_dims relabelling."""
        space = ctx.space
        # During fusion the producer's target indices are substituted
        # with the consumer's subscript arrays — they are no longer bare.
        bound = getattr(ctx.static, "_index_env", None) or {}
        axes = []
        for dim, index_expr in enumerate(expr.indices):
            if not (
                isinstance(index_expr, ast.Name)
                and index_expr.id in space.axis
                and index_expr.id not in bound
            ):
                return None
            name = index_expr.id
            low, high = space.index_ranges[name]
            if low != 0 or high != base.shape[dim] - 1:
                return None
            axes.append(space.axis[name])
        if len(set(axes)) != len(axes):
            return None
        order = sorted(range(len(axes)), key=lambda position: axes[position])
        present = set(axes)
        absent = tuple(
            axis for axis in range(space.total) if axis not in present
        )
        shape = [1] * space.total
        for dim, axis in enumerate(axes):
            shape[axis] = base.shape[dim]
        code = f"_axview({base.code}, {tuple(order)!r}, {absent!r})"
        return _Val(code, tuple(shape), base.shadow, atom=True)

    def _static_subscripts(self, ctx, expr, base):
        """Precomputed subscript arrays with the interpreter's rint,
        bounds-check, and predicate-excused clamping applied at build."""
        index_arrays = []
        for dim, index_expr in enumerate(expr.indices):
            value = ctx.static_eval(index_expr)
            if value is None:
                raise Unsupported(
                    f"subscript {dim} of {expr.base!r} is data-dependent"
                )
            array = np.asarray(value)
            if array.dtype.kind == "f":
                array = np.rint(array).astype(np.int64)
            if array.dtype.kind not in ("i", "u"):
                # Boolean subscripts mean mask indexing — ravel_multi_index
                # would silently reinterpret them as 0/1 positions.
                raise Unsupported(
                    f"subscript {dim} of {expr.base!r} is not integral"
                )
            extent = base.shape[dim]
            if array.size and (array.min() < 0 or array.max() >= extent):
                array = self._guard_subscript(ctx, expr, dim, array, extent)
            index_arrays.append(array)
        return index_arrays

    def _guard_subscript(self, ctx, expr, dim, array, extent):
        violating = (array < 0) | (array >= extent)
        for mask in ctx.mask_stack:
            if mask is None:
                continue
            selected = np.asarray(mask, dtype=bool)
            try:
                exposed = np.broadcast_arrays(violating, selected)
            except ValueError:
                continue
            if not np.any(exposed[0] & exposed[1]):
                return np.clip(array, 0, extent - 1)
        raise Unsupported(
            f"subscript {dim} of {expr.base!r} statically out of range "
            "(runtime error)"
        )

    def _emit_gather(self, ctx, base, index_arrays):
        """``np.take`` through a prebound flat index constant.

        Selects exactly the elements the interpreter's fancy gather
        ``base[tuple(np.broadcast_arrays(*idx))]`` selects, into a fresh
        C-contiguous buffer of the same shape.
        """
        try:
            broadcast = np.broadcast_arrays(*index_arrays)
        except ValueError as exc:
            raise Unsupported(
                f"subscript broadcast mismatch (runtime error): {exc}"
            ) from exc
        shape = broadcast[0].shape if broadcast else ()
        size = int(np.prod(shape)) if shape else 1
        if size > MAX_INDEX_CONSTANT:
            raise Unsupported("gather index constant exceeds size cap")
        if size == 0:
            flat = np.zeros(0, dtype=np.intp)
        else:
            flat = np.ravel_multi_index(
                tuple(np.ascontiguousarray(b) for b in broadcast),
                tuple(base.shape),
            ).astype(np.intp, copy=False).reshape(-1)
        cname = self._const(np.ascontiguousarray(flat))
        buf = self._transient((flat.size,), base.dtype)
        temp = self._temp()
        self._emit(
            f"{temp} = _np.take({base.code}.reshape(-1), {cname}, "
            f"out={buf}).reshape({shape!r})"
        )
        self.report["gathers"] += 1
        return _Val(temp, shape, base.shadow, atom=True)

    # -- fusion ------------------------------------------------------------

    def _register_inline_candidate(self, step, statement, operands, local):
        """Mark *statement* fusable: single-consumer, float64, full-cover
        elementwise, and its own full-lattice specialization just
        succeeded (so dropping it can never lose a runtime error)."""
        stmt = statement.stmt
        if step.key in self._escapes:
            return
        nodes = 0
        for node in ast.walk_expr(stmt.value):
            nodes += 1
            if isinstance(node, ast.ReductionCall):
                return
        if nodes > MAX_INLINE_NODES:
            return
        if np.dtype(statement.target_dtype) != np.float64:
            return
        try:
            ctx = _StmtCtx(self, statement, operands)
            index_arrays = self._static_target_indices(ctx)
        except Unsupported:
            return
        if not (
            stmt.target_indices
            and self._is_identity_cover(ctx, index_arrays, statement.lhs_shape)
        ):
            return
        consumers = 0
        for other in self.plan.steps:
            if other.kind != COMPUTE:
                continue
            consumers += sum(1 for key, _ in other.gather if key == step.key)
        if consumers != 1:
            return
        self._inline[local] = _InlineDef(statement, dict(operands), local)

    def _try_inline(self, ctx, inline, index_arrays):
        """Substitute the producer's elementwise expression at the
        consumer's gathered lattice points."""
        producer = inline.statement
        stmt = producer.stmt
        inline.refs += 1
        if inline.refs > 2:
            return None
        try:
            broadcast = [
                np.ascontiguousarray(b)
                for b in np.broadcast_arrays(*index_arrays)
            ]
        except ValueError:
            inline.refs -= 1
            return None
        env = {}
        for dim, index_expr in enumerate(stmt.target_indices):
            env[index_expr.id] = broadcast[dim]
        sub_ctx = _StmtCtx(
            self,
            producer,
            inline.operands,
            static=_SubstEval(
                producer.space,
                producer.static_env,
                producer.reductions,
                index_env=env,
            ),
            mask_stack=ctx.mask_stack,
        )
        mark = len(self.lines)
        try:
            value = self._eval(sub_ctx, stmt.value)
        except Unsupported:
            del self.lines[mark:]
            inline.refs -= 1
            return None
        if value.dtype != np.float64:
            del self.lines[mark:]
            inline.refs -= 1
            return None
        inline.committed += 1
        shape = broadcast[0].shape if broadcast else ()
        if value.shape != shape:
            _bshape(value.shape, shape)
            value = _Val(
                f"_np.broadcast_to({value.paren()}, {shape!r})",
                shape,
                value.shadow,
            )
        return value

    # -- reductions --------------------------------------------------------

    def _try_emit_einsum_plan(self, ctx, einsum_plan):
        """Statically replay :class:`_EinsumPlan`'s per-run checks; emit
        on success, return None (lattice path) when they would fail."""
        codes = []
        dtypes = []
        for name, required in einsum_plan.operands:
            operand = ctx.operands.get(name)
            if operand is None or operand.shape != tuple(required):
                return None
            code = operand.code
            dtype = operand.dtype
            if dtype.kind not in ("f", "c"):
                code = f"{code}.astype(_np.float64)"
                dtype = np.dtype(np.float64)
            codes.append(code)
            dtypes.append(dtype)
        out_shape = einsum_plan.out_shape
        expr = (
            f"_np.einsum({einsum_plan.spec!r}, {', '.join(codes)}, "
            f"optimize=True)"
        )
        shadow = _shadow0(np.result_type(*dtypes))
        if einsum_plan.scalar != 1.0:
            expr = f"({expr} * {einsum_plan.scalar!r})"
            with np.errstate(all="ignore"):
                shadow = shadow * einsum_plan.scalar
        temp = self._temp()
        self._emit(f"{temp} = _np.asarray({expr}).reshape({out_shape!r})")
        self.report["einsum"] += 1
        return _Val(temp, tuple(out_shape), shadow, atom=True)

    def _eval_reduction(self, ctx, expr):
        space = ctx.space
        statement = ctx.statement
        for spec in expr.indices:
            if spec.name not in space.axis:
                raise Unsupported(f"unknown reduction index {spec.name!r}")
        axes = tuple(space.axis[spec.name] for spec in expr.indices)

        if statement.enable_einsum:
            fast = self._try_emit_einsum_lattice(ctx, expr)
            if fast is not None:
                return fast

        if expr.op not in _REDUCE_IDENTITY:
            raise Unsupported(
                f"reduction {expr.op!r} (argmax/argmin/custom combiner)"
            )

        mask = None
        for spec in expr.indices:
            if spec.predicate is None:
                continue
            predicate = ctx.static_eval(spec.predicate)
            if predicate is None:
                raise Unsupported("data-dependent reduction predicate")
            predicate = np.asarray(predicate, dtype=bool)
            mask = (
                predicate if mask is None
                else np.logical_and(mask, predicate)
            )

        if (
            mask is None
            and expr is statement.stmt.value
            and expr.op in _REDUCE_UFUNC
        ):
            blocked = self._try_emit_blocked(ctx, expr, axes)
            if blocked is not None:
                return blocked

        ctx.mask_stack.append(mask)
        try:
            arg = self._eval(ctx, expr.arg)
        finally:
            ctx.mask_stack.pop()
        return self._reduce_epilogue(ctx, expr, arg, mask, axes)

    def _reduce_target_shape(self, ctx, arg_shape, mask, axes):
        space = ctx.space
        target_shape = [1] * space.total
        for operand_shape in (
            arg_shape,
            None if mask is None else mask.shape,
        ):
            if operand_shape is not None and len(operand_shape) == space.total:
                target_shape = [
                    max(have, got)
                    for have, got in zip(target_shape, operand_shape)
                ]
        for axis in axes:
            name = space.order[axis]
            low, high = space.index_ranges[name]
            target_shape[axis] = max(0, high - low + 1)
        return tuple(target_shape)

    def _reduce_epilogue(self, ctx, expr, arg, mask, axes):
        """The interpreter's broadcast → mask → reduce → reindex tail."""
        space = ctx.space
        if arg.ndim not in (0, space.total):
            raise Unsupported("unexpected intermediate rank (runtime error)")
        target_shape = self._reduce_target_shape(ctx, arg.shape, mask, axes)
        if arg.shape != target_shape:
            if _bshape(arg.shape, target_shape) != target_shape:
                raise Unsupported("reduction broadcast mismatch")
            arg = _Val(
                f"_np.broadcast_to({arg.paren()}, {target_shape!r})",
                target_shape,
                arg.shadow,
            )
        if mask is not None:
            if int(np.prod(target_shape)) > MAX_INDEX_CONSTANT:
                raise Unsupported("predicate mask exceeds size cap")
            mask_const = self._const(
                np.ascontiguousarray(
                    np.broadcast_to(
                        np.asarray(mask, dtype=bool), target_shape
                    )
                )
            )
            identity = _REDUCE_IDENTITY[expr.op]
            with np.errstate(all="ignore"):
                shadow = np.where(np.zeros((), bool), arg.shadow, identity)
            arg = _Val(
                f"_np.where({mask_const}, {arg.paren()}, {identity!r})",
                target_shape,
                shadow,
            )
        code = arg.paren()
        shadow = np.asarray(arg.shadow)
        if shadow.dtype.kind not in ("f", "c"):
            code = f"_np.asarray({code}).astype(_np.float64)"
            shadow = shadow.astype(np.float64)
        ufunc = _REDUCE_UFUNC[expr.op]
        reindex = ", ".join(
            "None" if axis in axes else ":" for axis in range(space.total)
        )
        temp = self._temp()
        self._emit(f"{temp} = _np.{ufunc}({code}, axis={axes!r})[{reindex}]")
        out_shape = tuple(
            1 if axis in axes else target_shape[axis]
            for axis in range(space.total)
        )
        return _Val(temp, out_shape, shadow, atom=True)

    def _try_emit_einsum_lattice(self, ctx, expr):
        """Replicate ``_ExprEvaluator._try_einsum``'s dynamic decision
        with static shapes (the statement-level einsum plan may be None
        while the dynamic path still fires, e.g. for nested reductions)."""
        space = ctx.space
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

        operand_codes = []
        operand_dtypes = []
        subscripts = []
        scalar = 1.0
        for factor in factors:
            if isinstance(factor, ast.Literal):
                scalar *= factor.value
                continue
            if isinstance(factor, ast.Name):
                if factor.id in ctx.statement.static_env:
                    scalar *= ctx.statement.static_env[factor.id]
                    continue
                return None
            if not isinstance(factor, ast.Indexed):
                return None
            subs = []
            for index_expr in factor.indices:
                if not (
                    isinstance(index_expr, ast.Name)
                    and index_expr.id in space.axis
                ):
                    return None
                name = index_expr.id
                low, high = space.index_ranges[name]
                subs.append((name, low, high))
            operand = ctx.operands.get(factor.base)
            if operand is None or len(operand.shape) != len(subs):
                return None
            for dim, (name, low, high) in enumerate(subs):
                if low != 0 or high != operand.shape[dim] - 1:
                    return None
            code = operand.code
            dtype = operand.dtype
            if dtype.kind not in ("f", "c"):
                code = f"{code}.astype(_np.float64)"
                dtype = np.dtype(np.float64)
            operand_codes.append(code)
            operand_dtypes.append(dtype)
            subscripts.append("".join(letter(name) for name, _, _ in subs))

        if not operand_codes:
            return None
        reduce_names = {spec.name for spec in expr.indices}
        used_names = set(letters)
        for name in reduce_names - used_names:
            scalar *= space.size(name)
        output_names = [
            name
            for name in space.order
            if name in used_names and name not in reduce_names
        ]
        spec = ",".join(subscripts) + "->" + "".join(
            letter(name) for name in output_names
        )
        shape = [1] * space.total
        for name in output_names:
            shape[space.axis[name]] = space.size(name)
        shape = tuple(shape)
        code = (
            f"_np.einsum({spec!r}, {', '.join(operand_codes)}, optimize=True)"
        )
        shadow = _shadow0(np.result_type(*operand_dtypes))
        if scalar != 1.0:
            code = f"({code} * {scalar!r})"
            with np.errstate(all="ignore"):
                shadow = shadow * scalar
        temp = self._temp()
        self._emit(f"{temp} = _np.asarray({code}).reshape({shape!r})")
        self.report["einsum"] += 1
        return _Val(temp, shape, shadow, atom=True)

    def _try_emit_blocked(self, ctx, expr, axes):
        """Cache-blocked trailing-axes product reduction (see module doc).

        Sound only when each output cell's reduction stays inside one
        numpy reduce call: the reduce axes must be exactly the trailing
        (bound) axes, the product lattice must already have the full
        target shape (no zero-stride broadcast feeding the reduce), all
        factor dtypes must equal the product dtype (so ``out=``
        accumulation selects the interpreter's ufunc loops), and
        blocking slices only the leading free axis.

        Evaluates the factors itself (rolling back on decline) so the
        unblocked path never double-emits the argument.
        """
        space = ctx.space
        if space.free_count == 0 or space.total == space.free_count:
            return None
        if set(axes) != set(range(space.free_count, space.total)):
            return None

        mark = len(self.lines)
        scratch_mark = len(self.scratch_specs)
        arena_mark = self._arena_off

        def decline():
            del self.lines[mark:]
            del self.scratch_specs[scratch_mark:]
            self._arena_off = arena_mark
            return None

        factors = self._linear_factors(ctx, expr.arg)
        if factors is None:
            return decline()
        try:
            product_shape = np.broadcast_shapes(
                *[factor.shape for factor in factors]
            )
        except ValueError:
            return decline()
        target_shape = self._reduce_target_shape(
            ctx, product_shape, None, axes
        )
        if product_shape != target_shape:
            return decline()
        lattice = int(np.prod(target_shape)) if target_shape else 1
        if lattice < BLOCK_LATTICE_MIN:
            return decline()
        n0 = target_shape[0]
        if n0 <= 1:
            return decline()

        # Promotion along the interpreter's left-deep multiply tree must
        # be trivial: every factor already carries the final dtype.
        final_dtype = np.result_type(
            *[np.asarray(factor.shadow) for factor in factors]
        )
        if final_dtype.kind not in ("f", "c"):
            return decline()
        for factor in factors:
            if np.asarray(factor.shadow).dtype != final_dtype:
                return decline()
            if factor.shape and factor.shape[0] not in (1, n0):
                return decline()

        row = lattice // n0
        block = max(1, BLOCK_CHUNK_TARGET // max(1, row))
        if block >= n0:
            return decline()

        # Hoist every factor that is not a bare name (views, arena
        # reshapes, axview permutes) to a temp: re-creating the view on
        # each of up to n0 iterations costs real time on big convs.
        names = []
        for factor in factors:
            if factor.atom and re.fullmatch(r"\w+", factor.code):
                names.append(factor)
            else:
                temp = self._temp()
                self._emit(f"{temp} = {factor.code}")
                names.append(
                    _Val(temp, factor.shape, factor.shadow, atom=True)
                )

        out_shape = tuple(target_shape[: space.free_count])
        out = self._transient(out_shape, final_dtype)
        if not re.fullmatch(r"\w+", out):
            self._emit(f"_ob = {out}")
            loop_out = "_ob"
        else:
            loop_out = out
        ufunc = _REDUCE_UFUNC[expr.op]

        def sliced(value):
            if not value.shape or value.shape[0] == 1:
                return value.code
            return f"{value.code}[_i0:_s0]"

        if len(names) > 1:
            chunk = self._transient((block,) + target_shape[1:], final_dtype)
            if not re.fullmatch(r"\w+", chunk):
                self._emit(f"_cb = {chunk}")
                chunk = "_cb"
        self._emit(f"for _i0 in range(0, {n0}, {block}):")
        self._emit(f"    _s0 = min({n0}, _i0 + {block})")
        if len(names) == 1:
            acc = sliced(names[0])
        else:
            self._emit(f"    _cv = {chunk}[: _s0 - _i0]")
            acc = None
            for factor in names:
                if acc is None:
                    acc = sliced(factor)
                else:
                    self._emit(
                        f"    _cv = _np.multiply({acc}, {sliced(factor)}, "
                        f"out=_cv)"
                    )
                    acc = "_cv"
        self._emit(
            f"    _np.{ufunc}({acc}, axis={axes!r}, out={loop_out}[_i0:_s0])"
        )
        self.report["blocked"] += 1
        reduced_shape = out_shape + (1,) * (space.total - space.free_count)
        temp = self._temp()
        self._emit(f"{temp} = {out}.reshape({reduced_shape!r})")
        return _Val(temp, reduced_shape, _shadow0(final_dtype), atom=True)

    def _linear_factors(self, ctx, arg_expr):
        """Emit the left-deep ``*`` chain of *arg_expr* as values.

        Returns None when the chain is not left-deep over atomic refs
        (the interpreter would then associate multiplications
        differently) — blocked evaluation stays off.
        """
        chain = []
        node = arg_expr
        while isinstance(node, ast.BinOp) and node.op == "*":
            if not isinstance(
                node.right, (ast.Indexed, ast.Name, ast.Literal)
            ):
                return None
            chain.append(node.right)
            node = node.left
        if not isinstance(node, (ast.Indexed, ast.Name, ast.Literal)):
            return None
        chain.append(node)
        chain.reverse()
        values = []
        mark = len(self.lines)
        try:
            for factor in chain:
                values.append(self._eval(ctx, factor))
        except Unsupported:
            del self.lines[mark:]
            return None
        return values

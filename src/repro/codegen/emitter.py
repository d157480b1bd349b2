"""Lower an :class:`~repro.srdfg.plan.ExecutionPlan` into Python source.

The emitter walks the plan's topological step list and generates one
straight-line Python/numpy function per plan. The contract is strict
**bit-identity with the interpreter at f64**, and it holds by
construction: a statement is lowered by running the reference
interpreter's own ``_ExprEvaluator`` over it with symbolic operands
(:class:`_StagedEvaluator`). Whatever is derivable from the graph —
index arithmetic, subscript bounds and clamping, reduction masks, axis
extents, broadcast shapes, dtype casts — the inherited numpy calls
compute at build time; every call that touches run-time data is printed,
so the kernel *is* the interpreter's numpy operation sequence with the
static parts folded to constants. A statement the staged evaluator
declines (or that would raise) falls back to calling its own
:class:`~repro.srdfg.plan.StatementPlan`, so unsupported constructs are
correct by construction and runtime error behaviour (out-of-range
subscripts, unbound names) is preserved verbatim.

What is the emitter's own preserves bit-identity by argument:

``np.take`` gathers
    A fancy gather ``base[tuple(np.broadcast_arrays(*idx))]`` and
    ``np.take(base.reshape(-1), flat)`` with
    ``flat = ravel_multi_index(broadcast, base.shape)`` select the same
    elements into a fresh C-contiguous array of the same shape, so
    every downstream ufunc/reduction sees identical values in an
    identical layout.
"""

from __future__ import annotations

import hashlib
import math
from collections import namedtuple

import numpy as np

from ..errors import ExecutionError
from ..pmlang import ast_nodes as ast
from ..srdfg.graph import COMPUTE, CONST, VAR
from ..srdfg.interpreter import (
    _REDUCE_IDENTITY,
    _ExprEvaluator,
    _affine_view,
)

__all__ = ["EmitResult", "KernelEmitter", "Unsupported"]

#: Largest precomputed index/mask constant (elements) before the
#: statement falls back to the interpreter instead of bloating the
#: kernel's constant pool.
MAX_INDEX_CONSTANT = 1 << 22


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

    ``code`` is always a primary expression (a name, a literal or a
    call), safe to pass as an argument and to suffix. ``shadow`` is a
    zero-dimensional sample (or an actual Python scalar for literals)
    that the staged evaluator pushes through the *same* numpy functions
    it prints, so result dtypes follow the running numpy's promotion
    rules exactly instead of a hand-written approximation. ``fresh``
    says the run-time value is an array this statement's own numpy call
    allocated — no operand, constant or scratch buffer shares its memory
    — so a full-cover store may bind it instead of copying it.
    """

    __slots__ = ("code", "shape", "shadow", "fresh")

    def __init__(self, code, shape, shadow, fresh=False):
        self.code = code
        self.shape = tuple(shape)
        self.shadow = shadow
        self.fresh = fresh

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


#: What :class:`~repro.codegen.kernel.KernelArtifact` is constructed
#: from, in its constructor's order (after the plan key).
EmitResult = namedtuple("EmitResult", "source constants scratch_specs report")


#: Raised while staging a statement: the emitter cannot print it, or it
#: would raise at run time. Either way the interpreter keeps it.
_DECLINED = (Unsupported, ExecutionError)


class _StagedEvaluator(_ExprEvaluator):
    """The reference evaluator run over one statement with :class:`_Val`
    operands — the emitter's only reading of PMLang semantics.

    A primitive whose arguments are all concrete runs the inherited
    numpy call: that is static folding, with the interpreter's own rint
    rounding, subscript guards and NEP-50 promotion. A primitive with a
    symbolic argument prints the call into the kernel and pushes the
    shadows through the same function. Values that must be inspected at
    build time (subscripts, predicates) decline the statement when they
    are symbolic.
    """

    def __init__(self, emitter, statement, operands):
        super().__init__(
            statement.space, statement.static_env, {}, statement.reductions,
            enable_einsum=statement.enable_einsum,
        )
        self.emitter = emitter
        self.statement = statement
        #: operand name -> _Val of the gathered value.
        self.operands = operands

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
            shadow = func(*[val.shadow for val in vals])
        name = getattr(func, "__name__", "")
        if getattr(np, name, None) is func:
            code = f"_np.{name}"
        else:
            code = self.emitter._const(func)
        shape = _bshape(*[val.shape for val in vals])
        args = [val.code for val in vals]
        if isinstance(func, np.ufunc) and func.nout == 1 and shape:
            # An elementwise ufunc may overwrite a fresh operand of the
            # result's shape and dtype: only this call reads it, and a
            # C-ordered one (_reuse checks) is laid out as the result
            # would be.
            dtype = np.asarray(shadow).dtype
            for position, val in enumerate(vals):
                if val.fresh and val.shape == shape and val.dtype == dtype:
                    temp = val.code
                    if not temp.isidentifier():
                        temp = self.emitter._temp()
                        args[position] = f"({temp} := {val.code})"
                    args.append(f"out=_reuse({temp})")
                    break
        # Ufuncs, np.where and the SCALAR_FUNCTIONS allocate their result
        # (or were just handed a fresh operand to put it in).
        return _Val(f"{code}({', '.join(args)})", shape, shadow, fresh=True)

    def _to_float(self, value):
        if not isinstance(value, _Val):
            return super()._to_float(value)
        code = value.code if value.is_array else f"_np.asarray({value.code})"
        shadow = np.asarray(value.shadow)
        if shadow.dtype.kind not in ("f", "c"):
            code = f"{code}.astype(_np.float64)"
            shadow = shadow.astype(np.float64)
        return _Val(code, value.shape, shadow)

    def _operand(self, name):
        value = self.operands.get(name)
        if value is not None:
            # Looked up to be printed (or the statement declines).
            self.emitter._named.add(value.code)
        return value

    def _scalar(self, value):
        return _Val(f"{value.code}.reshape(())", (), value.shadow)

    def _bare_view(self, base, order, absent):
        shape = [base.shape[dim] for dim in order]
        for axis in absent:
            shape.insert(axis, 1)
        return _Val(
            f"_axview({base.code}, {order!r}, {absent!r})", shape, base.shadow
        )

    def _gather(self, expr, base, index_arrays):
        for dim, array in enumerate(index_arrays):
            if array.dtype.kind not in ("i", "u"):
                # Boolean subscripts mean mask indexing — ravel_multi_index
                # would silently reinterpret them as 0/1 positions.
                raise Unsupported(
                    f"subscript {dim} of {expr.base!r} is not integral"
                )
        return self.emitter._emit_gather(base, index_arrays)

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
        )

    def _reduce(self, op, data, axes):
        if not isinstance(data, _Val):
            return super()._reduce(op, data, axes)
        reindex = ", ".join(
            "None" if axis in axes else ":" for axis in range(data.ndim)
        )
        return self.emitter._let(
            f"_np.{op}({data.code}, axis={axes!r})[{reindex}]",
            [1 if axis in axes else n for axis, n in enumerate(data.shape)],
            data.shadow,
            fresh=True,
        )

    def _run_einsum(self, einsum):
        """Replay :meth:`_EinsumPlan.run`'s operand checks on the static
        shapes; print the dispatch, or answer None (lattice path) where
        ``run`` would."""
        operands = []
        for (name, shape), view in zip(einsum.operands, einsum.views):
            operand = self._operand(name)
            if operand is None:
                return None
            if view is None:
                if operand.shape != shape:
                    return None
            else:
                # The shadow, at the operand's static shape, goes through
                # the function the kernel calls.
                if _affine_view(
                    np.broadcast_to(operand.shadow, operand.shape),
                    *view, shape,
                ) is None:
                    return None
                operand = _Val(
                    f"_affine_view({operand.code}, {view[0]!r}, "
                    f"{view[1]!r}, {shape!r})",
                    shape,
                    operand.shadow,
                )
            operands.append(self._to_float(operand))
        code = (
            f"_np.einsum({einsum.spec!r}, "
            f"{', '.join(operand.code for operand in operands)}, optimize=True)"
        )
        shadow = _shadow0(np.result_type(*[op.dtype for op in operands]))
        if einsum.scalar != 1.0:
            code = f"({code} * {self.lift(einsum.scalar).code})"
            with np.errstate(all="ignore"):
                shadow = shadow * einsum.scalar
        self.emitter.report["einsum"] += 1
        # einsum answers a pure relabelling ('ab->ba', 'aa->a') with a
        # view of its operand; summing a label away, or the scalar
        # multiply, allocates.
        operand_labels, _, out_labels = einsum.spec.partition("->")
        summed = set(operand_labels) - {","} - set(out_labels)
        return self.emitter._let(
            f"_np.asarray({code}).reshape({einsum.out_shape!r})",
            einsum.out_shape,
            shadow,
            fresh=bool(summed) or einsum.scalar != 1.0,
        )

    def _concrete(self, value, reason, *args):
        if isinstance(value, _Val):
            raise Unsupported(reason.format(*args))
        return value

    # -- reductions: decline early ----------------------------------------

    def _eval_reduction(self, expr):
        if expr.op not in _REDUCE_IDENTITY:
            raise Unsupported(
                f"reduction {expr.op!r} (argmax/argmin/custom combiner)"
            )
        return super()._eval_reduction(expr)

    def _eval_chunked(self, expr, chunk_plan):
        raise Unsupported("chunked reduction (over-limit lattice)")


class KernelEmitter:
    """Emit one specialized kernel function for one ExecutionPlan."""

    def __init__(self, plan):
        self.plan = plan
        self.lines = []
        self.constants = {}
        self._const_by_digest = {}
        self.scratch_specs = []
        self._temp_serial = 0
        self._locals = {}
        self.report = {
            "statements": 0,
            "specialized": 0,
            "fallback": 0,
            "einsum": 0,
            "gathers": 0,
            "fallback_reasons": [],
        }
        #: The ``_vN``/``_tN`` locals the statement being printed names:
        #: its result, the temps it binds, the operands it reads.
        self._named = set()
        #: (stop line, names) of every printed statement, in order.
        self._fragments = []
        #: transient-arena allocation cursor/peak, in float64 elements.
        #: Fragment-local gather buffers are carved from one shared
        #: arena whose cursor resets per statement, so every statement
        #: reuses the same cache-hot memory instead of touching its own
        #: cold dedicated slot.
        self._arena_off = 0
        self._arena_peak = 0
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
        temp = f"_t{self._temp_serial}"
        self._named.add(temp)
        return temp

    def _let(self, code, shape, shadow, fresh=False):
        """Bind *code* to a new temporary; returns its :class:`_Val`."""
        temp = self._temp()
        self._emit(f"{temp} = {code}")
        return _Val(temp, shape, shadow, fresh)

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
        name = f"{prefix}{len(self.constants) + 1}"
        self.constants[name] = value
        if key is not None:
            self._const_by_digest[key] = name
        return name

    def _transient(self, shape, dtype):
        """Fragment-local scratch carved from the shared f64 arena.

        Only values that are dead by the end of their statement may use
        it (gather buffers — a carving is never ``fresh``, so every store
        copies it and nothing downstream aliases it). Non-f64 transients
        get a dedicated ``_S`` slot instead.
        """
        shape = tuple(shape)
        if np.dtype(dtype) != np.float64:
            self.scratch_specs.append((shape, np.dtype(dtype)))
            return f"_S[{len(self.scratch_specs) - 1}]"
        size = int(np.prod(shape)) if shape else 1
        offset = self._arena_off
        self._arena_off += size
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
        returned = self._emit_collect()
        self._release_dead_locals(returned)
        if self._arena_peak:
            # The transient arena is one final scratch slot, bound to _A
            # right after the signature line.
            self.scratch_specs.append(
                ((self._arena_peak,), np.dtype(np.float64))
            )
            self.lines.insert(1, f"    _A = _S[{len(self.scratch_specs) - 1}]")
        return EmitResult("\n".join(self.lines) + "\n", self.constants,
                          self.scratch_specs, self.report)

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
        self._locals[step.key] = local

    def _emit_const_step(self, step, local):
        cname = self._const(step.value)
        self._emit(f"{local} = {cname}  # const {step.node_name}")
        self._locals[step.key] = local

    def _emit_compute_step(self, step, local):
        self.report["statements"] += 1
        statement = step.statement
        # A declined statement leaves no line, constant or scratch slot.
        mark = (len(self.lines), len(self.constants), len(self.scratch_specs))
        self._arena_off = 0  # transients from the previous statement died
        self._named = {local}
        operands = {}
        for key, name in step.gather:
            src = self._local(key)
            shape, dtype = self._value_facts[key]
            operands[name] = _Val(src, shape, _shadow0(dtype))
        try:
            self._specialize_statement(statement, operands, local)
            self.report["specialized"] += 1
            self._arena_peak = max(self._arena_peak, self._arena_off)
        except _DECLINED as exc:
            self._rollback(*mark)
            self._named = {local}
            self._emit_statement_fallback(statement, operands, local,
                                          reason=str(exc))
            self.report["fallback"] += 1
            self.report["fallback_reasons"].append(
                f"{statement.label}: {exc}"
            )
        self._fragments.append((len(self.lines), self._named))
        self._locals[step.key] = local

    def _rollback(self, lines, constants, scratch):
        del self.lines[lines:]
        del self.scratch_specs[scratch:]
        for name in list(self.constants)[constants:]:
            del self.constants[name]
        self._const_by_digest = {
            key: name for key, name in self._const_by_digest.items()
            if name in self.constants
        }

    def _emit_statement_fallback(self, statement, operands, local, reason=""):
        splan = self._const(statement, prefix="_stmt")
        gather = ", ".join(
            f"{name!r}: {value.code}" for name, value in operands.items()
        )
        self._named.update(value.code for value in operands.values())
        note = f"  # fallback: {reason}" if reason else ""
        self._emit(f"{local} = {splan}.execute({{{gather}}}){note}")

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

    def _release_dead_locals(self, returned):
        """``del`` every ``_vN`` / ``_tN`` at the end of the statement
        fragment that names it last, so a kernel holds a statement result
        no longer than its last reader runs. What a fragment names was
        recorded as it was printed; a local the return line names is
        never released.
        """
        last = {}
        for position, (_, named) in enumerate(self._fragments):
            for local in named:
                last[local] = position
        for position in reversed(range(len(self._fragments))):
            stop, named = self._fragments[position]
            dead = sorted(
                local for local in named
                if last[local] == position and local not in returned
            )
            if dead:
                self.lines.insert(stop, f"    del {', '.join(dead)}")

    # -- statement specialization ------------------------------------------

    def _specialize_statement(self, statement, operands, local):
        ev = _StagedEvaluator(self, statement, operands)
        self._emit(f"# {statement.label}")
        raw = ev.lift(ev.statement_value(
            statement.stmt, statement.einsum, statement.chunk_plan
        ))
        self._emit_store(ev, raw, local)

    def _emit_store(self, ev, raw, local):
        statement = ev.statement
        stmt = statement.stmt
        lhs_shape = statement.lhs_shape
        dtype = np.dtype(statement.target_dtype)

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
                f"{local} = _np.array({raw.code}, dtype={self._const(dtype)}, "
                f"copy=True).reshape({lhs_shape!r})"
            )
            return

        index_arrays = self._static_target_indices(ev)
        if self._is_identity_cover(statement):
            view = local
        elif self._is_row_major_cover(index_arrays, lhs_shape, raw.shape):
            view = f"{local}.reshape({raw.shape!r})"
        else:
            view = None
        if view is not None:
            # Every cell is written exactly once, so neither the previous
            # value nor a zero fill is observable. A fresh payload holding
            # every cell in the target dtype *is* the result
            # (ascontiguousarray answers a C-ordered array with itself);
            # anything else is copied into a new buffer. Never scratch
            # either way, so the result may escape as it is.
            if (
                raw.fresh
                and raw.dtype == dtype
                and raw.size == math.prod(lhs_shape)
            ):
                self._emit(
                    f"{local} = _np.ascontiguousarray({raw.code})"
                    f".reshape({lhs_shape!r})"
                )
            else:
                self._emit(
                    f"{local} = _np.empty({lhs_shape!r}, "
                    f"dtype={self._const(dtype)})"
                )
                self._emit(f"{view}[...] = {raw.code}")
            return

        # General static scatter: prev-copy or zeros, then a fancy write
        # through precomputed broadcast target indices (the exact
        # interpreter _store sequence, with the subscripts prebound).
        dt = self._const(dtype)
        previous = ev.operands.get(stmt.target)
        if previous is not None and previous.shape == lhs_shape:
            self._named.add(previous.code)
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
        payload = ev._broadcast_to(raw, broadcast[-1].shape)
        self._emit(f"{local}[({', '.join(targets)},)] = {payload.code}")

    def _static_target_indices(self, ev):
        """The statement's write subscripts, evaluated at build time."""
        statement = ev.statement
        arrays = ev.write_subscripts(statement.stmt, statement.lhs_shape)
        for value in arrays:
            if value.size > MAX_INDEX_CONSTANT:
                raise Unsupported("write subscript constant exceeds size cap")
            if value.dtype.kind not in ("i", "u", "b"):
                raise Unsupported("non-integral write subscript")
        return arrays

    @staticmethod
    def _is_identity_cover(statement):
        """True when the write is a full-cover identity assignment.

        Each subscript d must be dimension d's own free index variable
        spanning exactly ``lhs_shape[d]`` — then ``out[idx...] = payload``
        writes every cell exactly once in place, which is the same
        element-wise cast-assignment as ``out[...] = payload``.
        """
        stmt = statement.stmt
        space = statement.space
        lhs_shape = statement.lhs_shape
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
            code = self._const(np.ascontiguousarray(core))
            if core.shape != value.shape:
                code = f"_np.broadcast_to({code}, {value.shape!r})"
            return _Val(code, value.shape, _shadow0(value.dtype))
        if type(value) in (bool, int) or (
            type(value) is float and math.isfinite(value)
        ):
            return _Val(repr(value), (), value)
        if isinstance(value, np.ndarray):
            value = value[()]  # 0-d -> numpy scalar, constant below
        return _Val(self._const(value), np.shape(value), value)

    def _emit_gather(self, base, index_arrays):
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
        cname = self._const(np.ascontiguousarray(flat))
        buf = self._transient((flat.size,), base.dtype)
        self.report["gathers"] += 1
        return self._let(
            f"_np.take({base.code}.reshape(-1), {cname}, "
            f"out={buf}).reshape({shape!r})",
            shape,
            base.shadow,
        )

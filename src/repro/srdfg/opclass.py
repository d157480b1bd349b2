"""Operation classification for compute (group-op) nodes.

Lowering (Algorithm 1) decides whether a target supports a node by *name*.
A statement such as ``C[j] = sum[i](A[j][i]*B[i])`` must therefore be
recognised as the group operation ``matvec`` so that e.g. ROBOX (which has
a matrix-vector task unit) can accept it wholesale while TABLA (which only
has scalar ALUs plus a sum tree) forces it down to scalar granularity.

Classification also produces the per-statement operation counts (by cost
class) that every hardware model consumes, so cycle/energy numbers derive
from the real structure of the program rather than hard-coded constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..pmlang import ast_nodes as ast
from ..pmlang.builtins import (
    BINOP_COST,
    COST_ALU,
    COST_MUL,
    SCALAR_FUNCTIONS,
    is_builtin_reduction,
)

#: Operator text -> short word used in elementwise op names.
_OP_WORDS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod", "^": "pow"}


@dataclass
class OpDescriptor:
    """Classification result for one compute statement."""

    opname: str
    free_indices: Tuple[str, ...] = ()
    reduce_indices: Tuple[str, ...] = ()
    free_size: int = 1
    reduce_size: int = 1
    fused: bool = False
    has_predicate: bool = False
    op_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total_ops(self):
        """Total scalar operations this statement performs."""
        return sum(self.op_counts.values())

    @property
    def macs(self):
        """Multiply accumulate estimate (used by systolic-array models)."""
        return min(self.op_counts.get(COST_MUL, 0), self.op_counts.get(COST_ALU, 0))

    @property
    def lattice_points(self):
        return self.free_size * self.reduce_size


def _range_size(bounds):
    low, high = bounds
    return max(0, high - low + 1)


def _index_names_in(expr, index_ranges):
    """Index variables referenced anywhere inside *expr*."""
    return tuple(
        sorted(name for name in ast.expr_names(expr) if name in index_ranges)
    )


def _is_bare_index(expr, index_ranges):
    return isinstance(expr, ast.Name) and expr.id in index_ranges


def _indexed_factors(expr):
    """Flatten a multiplication chain into its factors, or None.

    Returns a list of factors when *expr* is a product whose leaves are all
    Indexed/Name/Literal terms; None otherwise.
    """
    if isinstance(expr, ast.BinOp) and expr.op == "*":
        left = _indexed_factors(expr.left)
        right = _indexed_factors(expr.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(expr, (ast.Indexed, ast.Name, ast.Literal)):
        return [expr]
    return None


def _factor_index_signature(factor, index_ranges):
    """Per-factor tuple of ('bare', name) / ('affine', names) per subscript."""
    if not isinstance(factor, ast.Indexed):
        return ()
    signature = []
    for index_expr in factor.indices:
        if _is_bare_index(index_expr, index_ranges):
            signature.append(("bare", index_expr.id))
        else:
            signature.append(("affine", _index_names_in(index_expr, index_ranges)))
    return tuple(signature)


def _classify_sum_product(expr, free, reduce_names, index_ranges):
    """Name the contraction pattern of ``sum[..](product)`` statements."""
    factors = _indexed_factors(expr)
    if factors is None:
        return "reduce_sum", True
    indexed = [factor for factor in factors if isinstance(factor, ast.Indexed)]
    if len(indexed) < 2:
        return "reduce_sum", len(factors) > 1

    signatures = [_factor_index_signature(factor, index_ranges) for factor in indexed]
    any_affine = any(
        kind == "affine" for signature in signatures for kind, _ in signature
    )

    if any_affine:
        # Strided access inside a contraction: convolution-like. conv2d when
        # there are >= 2 reduction axes entering affine subscripts.
        affine_reduce = set()
        for signature in signatures:
            for kind, names in signature:
                if kind == "affine":
                    affine_reduce.update(set(names) & set(reduce_names))
        if len(affine_reduce) >= 2:
            return "conv2d", False
        return "stencil", False

    if len(indexed) == 2:
        sig_a, sig_b = signatures
        dims_a = tuple(name for _, name in sig_a)
        dims_b = tuple(name for _, name in sig_b)
        free_set, reduce_set = set(free), set(reduce_names)
        if len(reduce_set) == 1:
            (red,) = reduce_set
            if not free_set and dims_a == (red,) and dims_b == (red,):
                return "dot", False
            if len(free_set) == 1:
                # matvec: one matrix factor over (free, red) in either order,
                # one vector factor over (red,).
                matrixish = {dims_a, dims_b} - {(red,)}
                if (red,) in (dims_a, dims_b) and len(matrixish) == 1:
                    matrix_dims = next(iter(matrixish))
                    if len(matrix_dims) == 2 and red in matrix_dims:
                        return "matvec", False
            if len(free_set) == 2 and len(dims_a) == 2 and len(dims_b) == 2:
                if red in dims_a and red in dims_b:
                    return "matmul", False
        return "contract", False
    return "contract", False


def _survey(expr, index_ranges, reductions):
    """``(counts, names, calls)`` of *expr* from one walk: the scalar-op
    counts of executing it once, by cost class; the names it reads
    (:func:`~repro.pmlang.ast_nodes.expr_names`); and its reduction calls,
    outermost first (:func:`~repro.pmlang.ast_nodes.walk_expr` order).
    Counts are linear in the times *expr* runs, so a caller scales them."""
    counts, names, calls = {}, set(), []

    def bump(cost_class, amount):
        counts[cost_class] = counts.get(cost_class, 0) + amount

    def visit(expr, multiplier):
        if expr is None or isinstance(expr, ast.Literal):
            return
        if isinstance(expr, ast.Name):
            names.add(expr.id)
        elif isinstance(expr, ast.Indexed):
            names.add(expr.base)
            for index_expr in expr.indices:
                # Address arithmetic for strided subscripts counts.
                visit(index_expr, multiplier)
        elif isinstance(expr, ast.UnaryOp):
            bump(COST_ALU, multiplier)
            visit(expr.operand, multiplier)
        elif isinstance(expr, ast.BinOp):
            bump(BINOP_COST.get(expr.op, COST_ALU), multiplier)
            visit(expr.left, multiplier)
            visit(expr.right, multiplier)
        elif isinstance(expr, ast.Ternary):
            bump(COST_ALU, multiplier)
            for sub in (expr.cond, expr.then, expr.other):
                visit(sub, multiplier)
        elif isinstance(expr, ast.FuncCall):
            bump(SCALAR_FUNCTIONS[expr.func][2], multiplier)
            for arg in expr.args:
                visit(arg, multiplier)
        elif isinstance(expr, ast.ReductionCall):
            calls.append(expr)
            inner = multiplier
            for spec in expr.indices:
                inner *= _range_size(index_ranges[spec.name])
                visit(spec.predicate, multiplier)
            visit(expr.arg, inner)
            # Combining N elements costs N-1 applications of the combiner.
            combos = max(0, inner - multiplier)
            if is_builtin_reduction(expr.op):
                bump(COST_ALU, combos)
            else:
                body = _survey(reductions[expr.op].expr, index_ranges, reductions)[0]
                for cost_class, per_combo in body.items():
                    bump(cost_class, per_combo * combos)
        else:
            raise TypeError(f"unexpected expression node {type(expr).__name__}")

    visit(expr, 1)
    return counts, names, calls


def classify(stmt, index_ranges, reductions=None):
    """Classify an :class:`~repro.pmlang.ast_nodes.Assign` statement.

    *index_ranges* maps every index variable in scope to its resolved
    inclusive ``(low, high)`` bounds; *reductions* maps user-defined
    reduction names to their definitions.
    """
    return classify_reads(stmt, index_ranges, reductions)[0]


def classify_reads(stmt, index_ranges, reductions=None):
    """``(descriptor, reads)``: :func:`classify`'s descriptor, and the
    names the statement's value and then each of its target subscripts
    read (one set each), from one walk of each."""
    reductions = reductions or {}
    value_counts, value_names, reduction_calls = _survey(stmt.value, index_ranges, reductions)
    reads = [value_names]
    counts: Dict[str, int] = dict(value_counts)
    free = []
    for index_expr in stmt.target_indices:
        index_counts, index_names, _ = _survey(index_expr, index_ranges, reductions)
        reads.append(index_names)
        for name in sorted(index_names):
            if name in index_ranges and name not in free:
                free.append(name)
        for cost_class, count in index_counts.items():
            counts[cost_class] = counts.get(cost_class, 0) + count
    free = tuple(free)

    reduce_names = []
    has_predicate = False
    for call in reduction_calls:
        for spec in call.indices:
            if spec.name not in reduce_names:
                reduce_names.append(spec.name)
            if spec.predicate is not None:
                has_predicate = True
    reduce_names = tuple(reduce_names)

    free_size = 1
    for name in free:
        free_size *= _range_size(index_ranges[name])
    reduce_size = 1
    for name in reduce_names:
        reduce_size *= _range_size(index_ranges[name])

    fused = False
    if not reduction_calls:
        value = stmt.value
        if isinstance(value, (ast.Indexed, ast.Name, ast.Literal)):
            opname = "copy"
        elif isinstance(value, ast.FuncCall) and all(
            isinstance(arg, (ast.Indexed, ast.Name, ast.Literal)) for arg in value.args
        ):
            opname = f"map_{value.func}"
        elif isinstance(value, ast.BinOp) and value.op in _OP_WORDS:
            opname = f"elemwise_{_OP_WORDS[value.op]}"
        else:
            opname = "elemwise"
    elif len(reduction_calls) == 1 and reduction_calls[0] is stmt.value:
        call = stmt.value
        if call.op == "sum":
            opname, fused = _classify_sum_product(
                call.arg, free, reduce_names, index_ranges
            )
        elif is_builtin_reduction(call.op):
            opname = f"reduce_{call.op}"
        else:
            opname = f"reduce_{call.op}"
    else:
        # Reduction embedded in a larger expression (e.g. bias add around a
        # matvec): name by the dominant reduction, mark as fused.
        call = reduction_calls[0]
        fused = True
        if call.op == "sum":
            opname, _ = _classify_sum_product(call.arg, free, reduce_names, index_ranges)
        else:
            opname = f"reduce_{call.op}"

    # Each part runs once per free point.
    counts = {cost_class: count * free_size for cost_class, count in counts.items()}

    return OpDescriptor(
        opname=opname,
        free_indices=free,
        reduce_indices=reduce_names,
        free_size=free_size,
        reduce_size=reduce_size,
        fused=fused,
        has_predicate=has_predicate,
        op_counts=counts,
    ), reads

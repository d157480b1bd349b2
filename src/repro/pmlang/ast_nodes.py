"""Abstract syntax tree for PMLang.

The AST mirrors the constructs in §II of the paper: components with typed,
modifier-annotated arguments, index variable declarations, formula-style
assignments, group reductions, component instantiations with domain
annotations, and user-defined reductions. Every node records its source
line so later phases can report precise errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expression nodes."""

    line: int = field(default=0, compare=False)


@dataclass
class Literal(Expr):
    """An integer, float, or string constant."""

    value: object = None


@dataclass
class Name(Expr):
    """A bare identifier: variable, index variable, or dimension symbol."""

    id: str = ""


@dataclass
class Indexed(Expr):
    """Subscripted access ``base[e0][e1]...`` on a multi-dimensional value."""

    base: str = ""
    indices: Tuple[Expr, ...] = ()


@dataclass
class UnaryOp(Expr):
    """Unary ``-`` or ``!`` applied to an operand."""

    op: str = ""
    operand: Expr = None


@dataclass
class BinOp(Expr):
    """A binary arithmetic, comparison, or logical operation."""

    op: str = ""
    left: Expr = None
    right: Expr = None


@dataclass
class Ternary(Expr):
    """Conditional expression ``cond ? then : other``."""

    cond: Expr = None
    then: Expr = None
    other: Expr = None


@dataclass
class FuncCall(Expr):
    """Call to a built-in scalar function, e.g. ``sigmoid(x)``."""

    func: str = ""
    args: Tuple[Expr, ...] = ()


@dataclass
class ReductionIndex:
    """One ``[name]`` or ``[name: predicate]`` group in a reduction call."""

    name: str = ""
    predicate: Optional[Expr] = None


@dataclass
class ReductionCall(Expr):
    """Group reduction, e.g. ``sum[i][j: j != i](A[i][j])``.

    ``op`` is either a built-in reduction (sum/prod/max/min/argmax/argmin)
    or the name of a user-defined ``reduction``.
    """

    op: str = ""
    indices: Tuple[ReductionIndex, ...] = ()
    arg: Expr = None


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for statement nodes."""

    line: int = field(default=0, compare=False)


@dataclass
class IndexSpec:
    """A single declaration ``name[low:high]`` (inclusive bounds)."""

    name: str = ""
    low: Expr = None
    high: Expr = None


@dataclass
class IndexDecl(Stmt):
    """``index i[0:n-1], j[0:m-1];``"""

    specs: Tuple[IndexSpec, ...] = ()


@dataclass
class VarDeclItem:
    """One declarator in a local variable declaration: name plus dims."""

    name: str = ""
    dims: Tuple[Expr, ...] = ()


@dataclass
class VarDecl(Stmt):
    """Local declaration such as ``float P_g[b], H_g[b];``"""

    dtype: str = ""
    items: Tuple[VarDeclItem, ...] = ()


@dataclass
class Assign(Stmt):
    """Formula assignment ``target[...indices] = expr;``"""

    target: str = ""
    target_indices: Tuple[Expr, ...] = ()
    value: Expr = None


@dataclass
class ComponentCall(Stmt):
    """Instantiation ``DOMAIN: name(arg0, arg1, ...);`` (domain optional)."""

    domain: Optional[str] = None
    component: str = ""
    args: Tuple[Expr, ...] = ()


@dataclass
class Unroll(Stmt):
    """Compile-time replication ``unroll s[lo:hi] { ... }``.

    The body is instantiated once per value of ``s`` in [lo, hi] with ``s``
    bound as an integer constant. This is a reproduction extension (see
    DESIGN.md) used to express staged algorithms such as the FFT butterfly.
    """

    var: str = ""
    low: Expr = None
    high: Expr = None
    body: Tuple[Stmt, ...] = ()


# --------------------------------------------------------------------------
# Top level
# --------------------------------------------------------------------------


@dataclass
class ArgDecl:
    """A component argument: modifier, element type, name, and dims."""

    modifier: str = ""
    dtype: str = ""
    name: str = ""
    dims: Tuple[Expr, ...] = ()
    line: int = 0


@dataclass
class Component:
    """A named, reusable execution block (§II-A)."""

    name: str = ""
    args: Tuple[ArgDecl, ...] = ()
    body: Tuple[Stmt, ...] = ()
    line: int = 0


@dataclass
class ReductionDef:
    """User-defined group reduction: ``reduction min(a,b) = a<b ? a : b;``"""

    name: str = ""
    params: Tuple[str, str] = ("a", "b")
    expr: Expr = None
    line: int = 0


@dataclass
class Program:
    """A parsed PMLang translation unit."""

    components: dict = field(default_factory=dict)
    reductions: dict = field(default_factory=dict)

    def component(self, name):
        """Return the component named *name* (KeyError if absent)."""
        return self.components[name]


def walk_expr(expr):
    """Yield *expr* and every sub-expression beneath it, depth-first.

    Preorder, children in source order. An explicit stack rather than
    recursive ``yield from``: every consumer (operation classification,
    axis spaces, the kernel emitter) walks whole statements, and a
    generator frame per node dominated their cost.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        yield node
        # Children go on in reverse so the leftmost is visited next.
        if isinstance(node, (Literal, Name)):
            continue
        if isinstance(node, BinOp):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Indexed):
            stack.extend(reversed(node.indices))
        elif isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, Ternary):
            stack.append(node.other)
            stack.append(node.then)
            stack.append(node.cond)
        elif isinstance(node, FuncCall):
            stack.extend(reversed(node.args))
        elif isinstance(node, ReductionCall):
            stack.append(node.arg)
            stack.extend(spec.predicate for spec in reversed(node.indices))


def expr_key(expr):
    """Hashable structural key of an expression (names stay symbolic).

    Ignores line info. This is the one definition of structural equality:
    CSE's statement keys, non-linear pattern captures and the rewrite
    engine's cycle detection all compare these.
    """
    if expr is None:
        return None
    if isinstance(expr, Literal):
        return ("lit", expr.value)
    if isinstance(expr, Name):
        return ("name", expr.id)
    if isinstance(expr, Indexed):
        return ("idx", expr.base, tuple(expr_key(i) for i in expr.indices))
    if isinstance(expr, UnaryOp):
        return ("un", expr.op, expr_key(expr.operand))
    if isinstance(expr, BinOp):
        return ("bin", expr.op, expr_key(expr.left), expr_key(expr.right))
    if isinstance(expr, Ternary):
        return (
            "tern",
            expr_key(expr.cond),
            expr_key(expr.then),
            expr_key(expr.other),
        )
    if isinstance(expr, FuncCall):
        return ("call", expr.func, tuple(expr_key(a) for a in expr.args))
    if isinstance(expr, ReductionCall):
        return (
            "red",
            expr.op,
            tuple((s.name, expr_key(s.predicate)) for s in expr.indices),
            expr_key(expr.arg),
        )
    return ("other", repr(expr))


def expr_names(expr):
    """Return the set of identifier names referenced anywhere in *expr*."""
    names = set()
    for node in walk_expr(expr):
        if isinstance(node, Name):
            names.add(node.id)
        elif isinstance(node, Indexed):
            names.add(node.base)
    return names

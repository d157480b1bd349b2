"""Declarative pattern AST over PMLang expression trees.

The blueprint is the pattern-matching core of declarative compiler
rewriters ("Pattern Matching in AI Compilers and its Formalization",
PAPERS.md): a pattern is *data* — a small tree of matcher nodes with
op/value predicates and named capture variables — and one generic
``match`` walk interprets it against a candidate expression. Rules are
built from these patterns (see :mod:`repro.rewrite.rules`), and because a
pattern is data, tests derive generators of matching instances from it —
each rule is checked against the semantics of its own pattern.

Pattern features:

* **capture variables** — ``Any("x")`` binds a subtree under a name the
  rule's builder can splice into the replacement;
* **non-linear patterns** — a capture name used twice must bind
  structurally identical subtrees (``Bin("-", Any("x"), Any("x"))``
  matches only ``e - e``);
* **commutative matching** — ``Bin("*", p, q, commutative=True)`` tries
  the operand order as written first, then swapped, so one rule covers
  ``x * 1`` and ``1 * x``;
* **predicates** — every pattern node takes a ``where`` callable over the
  candidate (shape/attr/op checks), keeping rule-specific logic in the
  rule declaration, not in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Tuple

from ..pmlang import ast_nodes as ast

#: Sentinel for "any value" so patterns can distinguish ``value=None``
#: from "no value constraint".
ANY = object()


#: Hashable structural identity of an expression (ignores line info).
#: This is the equality non-linear patterns use — two bindings of one
#: capture name must have identical keys — and it is the statement-key
#: machinery CSE already trusts.
structural_key = ast.expr_key


class Bindings(dict):
    """Capture-name -> subtree map produced by a successful match."""

    def bind(self, name, expr):
        """Bind *name*; non-linear occurrences must agree structurally."""
        if name in self:
            return structural_key(self[name]) == structural_key(expr)
        self[name] = expr
        return True


@dataclass(frozen=True)
class Pattern:
    """Base class: a matcher node with an optional capture and predicate."""

    #: Capture name; the matched subtree lands in the bindings under it.
    name: Optional[str] = None
    #: Extra predicate ``where(expr) -> bool`` evaluated after structure.
    where: Optional[Callable] = None
    #: The AST class a matching expression's root must be an instance of,
    #: or None when any root can match. Rule sets index rules on it so a
    #: position is only offered the rules its root type could satisfy;
    #: a subclass that does not say stays in every bucket.
    root: ClassVar[Optional[type]] = None

    def _accept(self, expr, bindings):
        """Structure-specific test; subclasses override."""
        return True

    def match(self, expr, bindings):
        """Match *expr*, extending *bindings*; returns True on success.

        Bindings may contain partial captures after a failed match — the
        engine always matches into a scratch ``Bindings()`` and discards
        it on failure.
        """
        if not self._accept(expr, bindings):
            return False
        if self.where is not None and not self.where(expr):
            return False
        if self.name is not None and not bindings.bind(self.name, expr):
            return False
        return True


@dataclass(frozen=True)
class Any(Pattern):
    """Matches every expression (the wildcard/capture node)."""


def _op_accepts(spec, op):
    if spec is None:
        return True
    if isinstance(spec, (tuple, frozenset, set, list)):
        return op in spec
    return op == spec


@dataclass(frozen=True)
class Lit(Pattern):
    """Matches :class:`~repro.pmlang.ast_nodes.Literal`.

    *value* constrains the literal's value (``ANY`` = unconstrained);
    *numeric* additionally requires an int/float payload — the guard the
    folding rules need so string literals never enter arithmetic.
    """

    root = ast.Literal

    value: object = ANY
    numeric: bool = False

    def _accept(self, expr, bindings):
        if not isinstance(expr, ast.Literal):
            return False
        if self.numeric and not isinstance(expr.value, (int, float)):
            return False
        return self.value is ANY or expr.value == self.value


@dataclass(frozen=True)
class Ref(Pattern):
    """Matches a bare :class:`~repro.pmlang.ast_nodes.Name` reference."""

    root = ast.Name

    id: object = ANY

    def _accept(self, expr, bindings):
        if not isinstance(expr, ast.Name):
            return False
        return self.id is ANY or expr.id == self.id


@dataclass(frozen=True)
class Un(Pattern):
    """Matches a unary operation; *op* is a name, a collection, or None."""

    root = ast.UnaryOp

    op: object = None
    operand: Optional[Pattern] = None

    def _accept(self, expr, bindings):
        if not isinstance(expr, ast.UnaryOp) or not _op_accepts(self.op, expr.op):
            return False
        return self.operand is None or self.operand.match(expr.operand, bindings)


@dataclass(frozen=True)
class Bin(Pattern):
    """Matches a binary operation, optionally modulo operand order.

    With ``commutative=True`` the as-written operand order is tried first;
    only if it fails (including capture conflicts) is the swapped order
    attempted — so matching stays deterministic.
    """

    root = ast.BinOp

    op: object = None
    left: Optional[Pattern] = None
    right: Optional[Pattern] = None
    commutative: bool = False

    def _try(self, first, second, bindings):
        scratch = Bindings(bindings)
        if (self.left is None or self.left.match(first, scratch)) and (
            self.right is None or self.right.match(second, scratch)
        ):
            bindings.clear()
            bindings.update(scratch)
            return True
        return False

    def _accept(self, expr, bindings):
        if not isinstance(expr, ast.BinOp) or not _op_accepts(self.op, expr.op):
            return False
        if self._try(expr.left, expr.right, bindings):
            return True
        if self.commutative:
            return self._try(expr.right, expr.left, bindings)
        return False


@dataclass(frozen=True)
class Tern(Pattern):
    """Matches a ternary conditional expression."""

    root = ast.Ternary

    cond: Optional[Pattern] = None
    then: Optional[Pattern] = None
    other: Optional[Pattern] = None

    def _accept(self, expr, bindings):
        if not isinstance(expr, ast.Ternary):
            return False
        for pattern, sub in (
            (self.cond, expr.cond),
            (self.then, expr.then),
            (self.other, expr.other),
        ):
            if pattern is not None and not pattern.match(sub, bindings):
                return False
        return True


@dataclass(frozen=True)
class Call(Pattern):
    """Matches a builtin function call; ``args=None`` leaves arity open.

    ``each_arg`` applies one pattern to every argument (used by the
    fold-call rule: *all* arguments must be numeric literals).
    """

    root = ast.FuncCall

    func: object = None
    args: Optional[Tuple[Pattern, ...]] = None
    each_arg: Optional[Pattern] = None

    def _accept(self, expr, bindings):
        if not isinstance(expr, ast.FuncCall) or not _op_accepts(self.func, expr.func):
            return False
        if self.args is not None:
            if len(self.args) != len(expr.args):
                return False
            for pattern, arg in zip(self.args, expr.args):
                if not pattern.match(arg, bindings):
                    return False
        if self.each_arg is not None:
            for arg in expr.args:
                if not self.each_arg.match(arg, bindings):
                    return False
        return True


@dataclass(frozen=True)
class Idx(Pattern):
    """Matches a subscripted reference ``base[i0][i1]...``."""

    root = ast.Indexed

    base: object = ANY
    each_index: Optional[Pattern] = None

    def _accept(self, expr, bindings):
        if not isinstance(expr, ast.Indexed):
            return False
        if self.base is not ANY and expr.base != self.base:
            return False
        if self.each_index is not None:
            for index in expr.indices:
                if not self.each_index.match(index, bindings):
                    return False
        return True


# ---------------------------------------------------------------------------
# Graph-level node patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodePattern:
    """A declarative predicate over one srDFG node.

    Graph rules anchor on a single node (the redex root); *kind* and *op*
    constrain the node's kind and classified operation name, *where* holds
    further ``(graph, node) -> bool`` predicates (attribute checks, edge
    shape, modifier tests). Like expression patterns, the structure is
    data — the engine, not the rule, owns the iteration.
    """

    kind: object = None
    op: object = None
    where: Tuple[Callable, ...] = field(default_factory=tuple)

    def matches(self, graph, node):
        if self.kind is not None and not _op_accepts(self.kind, node.kind):
            return False
        if self.op is not None and not _op_accepts(self.op, node.name):
            return False
        for predicate in self.where:
            if not predicate(graph, node):
                return False
        return True

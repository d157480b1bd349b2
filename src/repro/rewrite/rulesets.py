"""The default optimisation passes, declared as rule sets.

Each of the paper's "traditional passes" (§IV: constant propagation and
folding, algebraic identities, copy propagation, CSE, DCE) plus the
multi-granularity algebraic combination is data here: patterns plus small
builder/rewrite functions, driven by the shared engine. Rule order,
strategies and the literal types builders produce all shape the optimized
graph, and the optimized graph's fingerprint keys the plan cache — so a
change to any of them is a behaviour change, not a refactor.

Every rule carries a proof obligation, checked by ``tests/test_rewrite.py``
on generated instances. An expression rule's replacement, on instances
generated from its own pattern, evaluates equal to the original under the
reference interpreter and strictly lowers (expression size, ``Name``
count). A graph rule's pass leaves generated programs bit-identical at
f64, and each firing strictly lowers its level's (node count, then edge
count): copy propagation, CSE and DCE each delete the node they fire on,
and algebraic combination deletes the producer it inlines. Those two
measures are why every rule set terminates; the engine only bounds each
loop.
"""

from __future__ import annotations

import math

import numpy as np

from ..pmlang import ast_nodes as ast
from ..pmlang.builtins import SCALAR_FUNCTIONS
from ..srdfg.graph import COMPUTE, VAR
from ..srdfg.interpreter import _BINOPS
from ..srdfg.metadata import LOCAL
from .combination import fuse_matvec_producer
from .engine import Pipeline
from .pattern import Any, Bin, Call, Lit, NodePattern, Ref, Tern, Un
from .rules import RESTART, SWEEP, ExprRule, GraphRule, RuleSet

# ---------------------------------------------------------------------------
# constant-folding
# ---------------------------------------------------------------------------


def _propagate_static(expr, bindings, ctx):
    if expr.id in ctx.static_env and expr.id not in ctx.protected:
        return ast.Literal(value=ctx.static_env[expr.id], line=expr.line)
    return None


def _fold_neg(expr, bindings, ctx):
    return ast.Literal(value=-expr.operand.value, line=expr.line)


def _fold_not(expr, bindings, ctx):
    return ast.Literal(value=int(not expr.operand.value), line=expr.line)


def _fold_binop(expr, bindings, ctx):
    """Fold with the interpreter's own numpy operator, so the literal is
    bit for bit what the runtime computes on the unoptimized graph
    (Python's ``**`` and ``np.power`` differ in the last ulp, and Python
    integers do not wrap). Declines where that is no finite number —
    ``x / 0`` stays for the runtime to answer with nan or a signed inf —
    and where numpy refuses (integers to negative integer powers, Python
    integers beyond int64). The engine runs it with numpy's
    floating-point errors ignored."""
    try:
        value = np.asarray(_BINOPS[expr.op](expr.left.value, expr.right.value)).item()
    except (ValueError, OverflowError):
        return None
    if not math.isfinite(value):
        return None
    if isinstance(value, bool):
        value = int(value)
    return ast.Literal(value=value, line=expr.line)


def _select_branch(expr, bindings, ctx):
    return expr.then if expr.cond.value else expr.other


def _fold_call(expr, bindings, ctx):
    """A call over literals as the literal of its value. This runs the real
    implementation, not the kernel emitter's dtype stand-in: the literal
    needs the value, so folding ``sigmoid``/``phi`` imports scipy."""
    impl = SCALAR_FUNCTIONS[expr.func][0]
    # Integer arguments promote to float, as the interpreter promotes them
    # (``pow(2, -1)`` is 0.5 there, an error on numpy integers).
    value = impl(*[float(arg.value) for arg in expr.args])
    return ast.Literal(value=float(value), line=expr.line)


_NUM = Lit(numeric=True)

CONSTANT_FOLDING = RuleSet(
    name="constant-folding",
    expr_rules=(
        ExprRule("propagate-static", Ref(), _propagate_static),
        ExprRule("fold-neg", Un(op="-", operand=_NUM), _fold_neg),
        ExprRule("fold-not", Un(op="!", operand=_NUM), _fold_not),
        ExprRule(
            "fold-binop",
            Bin(op=frozenset(_BINOPS), left=_NUM, right=_NUM),
            _fold_binop,
        ),
        ExprRule("select-branch", Tern(cond=_NUM), _select_branch),
        ExprRule(
            "fold-call",
            Call(each_arg=_NUM, where=lambda e: e.func in SCALAR_FUNCTIONS),
            _fold_call,
        ),
    ),
)


# ---------------------------------------------------------------------------
# algebraic-simplification
# ---------------------------------------------------------------------------


def _keep_x(expr, bindings, ctx):
    return bindings["x"]


def _annihilate(expr, bindings, ctx):
    # An int zero whatever the operand types were. Sound over finite
    # operands only: ``inf * 0`` is nan.
    return ast.Literal(value=0, line=expr.line)


def _unwrap_double_neg(expr, bindings, ctx):
    return expr.operand.operand


_ZERO = Lit(value=0, numeric=True)
_ONE = Lit(value=1, numeric=True)

def _bin(op, left, right, commutative=False):
    return Bin(op=op, left=left, right=right, commutative=commutative)


ALGEBRAIC_SIMPLIFICATION = RuleSet(
    name="algebraic-simplification",
    expr_rules=(
        ExprRule(
            "add-zero", _bin("+", Any(name="x"), _ZERO, commutative=True), _keep_x
        ),
        ExprRule("sub-zero", _bin("-", Any(name="x"), _ZERO), _keep_x),
        # mul-one precedes mul-zero so ``0.0 * 1`` keeps its operand (a
        # float zero) instead of becoming mul-zero's int zero.
        ExprRule(
            "mul-one", _bin("*", Any(name="x"), _ONE, commutative=True), _keep_x
        ),
        ExprRule(
            "mul-zero", _bin("*", Any(), _ZERO, commutative=True), _annihilate
        ),
        ExprRule("div-one", _bin("/", Any(name="x"), _ONE), _keep_x),
        ExprRule("pow-one", _bin("^", Any(name="x"), _ONE), _keep_x),
        ExprRule(
            "neg-neg", Un(op="-", operand=Un(op="-")), _unwrap_double_neg
        ),
    ),
)


# ---------------------------------------------------------------------------
# copy-propagation
# ---------------------------------------------------------------------------


def _not_partial(graph, node):
    return not node.attrs.get("partial_write")


def _is_identity_copy(graph, node):
    """True when the node's statement is ``y[i..] = x[i..]`` over the full
    lattice with identical subscript order on both sides — pure data
    movement, unlike a strided or transposing gather."""
    stmt = node.attrs["stmt"]
    index_ranges = node.attrs.get("index_ranges", {})
    lhs_shape = node.attrs.get("lhs_shape", ())
    value = stmt.value
    if not isinstance(value, ast.Indexed):
        return False
    if len(stmt.target_indices) != len(value.indices):
        return False
    if len(stmt.target_indices) != len(lhs_shape):
        return False
    for dim, (lhs_index, rhs_index) in enumerate(
        zip(stmt.target_indices, value.indices)
    ):
        if not (isinstance(lhs_index, ast.Name) and isinstance(rhs_index, ast.Name)):
            return False
        if lhs_index.id != rhs_index.id:
            return False
        if index_ranges.get(lhs_index.id) != (0, lhs_shape[dim] - 1):
            return False
    return True


def _graph_vars(graph):
    return getattr(graph, "vars", {})


def reroute_consumers(graph, old_node, new_node, rename=None):
    """Point every consumer of *old_node* at *new_node* instead.

    *rename* optionally maps consumer-visible operand names to the names
    under which *new_node* publishes them (recorded as ``src_name``).
    """
    for edge in list(graph.edges):
        if edge.src.uid != old_node.uid or edge.dst.uid == old_node.uid:
            continue
        md = edge.md
        if rename:
            publish = rename.get(md.producer_name)
            if publish is not None:
                md = md.with_src_name(publish)
        graph.remove_edge(edge)
        graph.add_edge(new_node, edge.dst, md)


def _forward_copy(graph, node, ctx):
    """Let the copy's consumers read its source directly.

    Copies that materialise a *boundary* variable (an output or state
    write-back, e.g. the FFT's final ``fr[t] = xr[t]``) are kept — the
    boundary buffer must be produced — but interior hand-off copies, which
    component-by-component translation tends to create, disappear.
    """
    stmt = node.attrs["stmt"]
    source_edges = [
        edge for edge in graph.in_edges(node) if edge.md.name == stmt.value.base
    ]
    if len(source_edges) != 1:
        return False
    source_edge = source_edges[0]
    boundary_consumers = [
        edge
        for edge in graph.out_edges(node)
        if edge.dst.kind == VAR and edge.dst.attrs.get("modifier") != LOCAL
    ]
    info = ctx.get(stmt.target)
    if boundary_consumers or (info is not None and info.modifier != LOCAL):
        return False
    reroute_consumers(
        graph, node, source_edge.src,
        rename={stmt.target: source_edge.md.producer_name},
    )
    graph.remove_node(node)
    return True


COPY_PROPAGATION = RuleSet(
    name="copy-propagation",
    graph_rules=(
        GraphRule(
            "forward-identity-copy",
            NodePattern(
                kind=COMPUTE, op="copy", where=(_not_partial, _is_identity_copy)
            ),
            _forward_copy,
        ),
    ),
    # Rerouting is in place, so one sweep already collapses copy chains;
    # a fixpoint's extra sweeps could only change the optimized graph,
    # and with it every plan cache key.
    strategy=SWEEP,
    prepare=_graph_vars,
)


# ---------------------------------------------------------------------------
# cse
# ---------------------------------------------------------------------------


def _cse_prepare(graph):
    return {"vars": _graph_vars(graph), "seen": {}}


def _statement_key(node, graph):
    stmt = node.attrs["stmt"]
    # Producers keyed by the operand name the statement reads.
    sources = tuple(
        sorted(
            (edge.md.name, edge.src.uid, edge.md.producer_name)
            for edge in graph.in_edges(node)
        )
    )
    ranges = tuple(sorted(node.attrs.get("index_ranges", {}).items()))
    return (
        tuple(ast.expr_key(i) for i in stmt.target_indices),
        ast.expr_key(stmt.value),
        sources,
        ranges,
        tuple(node.attrs.get("lhs_shape", ())),
        node.attrs.get("dtype"),
    )


def _merge_duplicate(graph, node, ctx):
    """Merge a compute node into an earlier one evaluating a structurally
    identical statement over identical producers. Only full writes to
    *local* variables are candidates, so boundary semantics and
    merge-with-previous behaviour are never disturbed."""
    target = node.attrs["stmt"].target
    info = ctx["vars"].get(target)
    if info is None or info.modifier != LOCAL:
        return False
    key = _statement_key(node, graph)
    keeper = ctx["seen"].get(key)
    if keeper is None:
        ctx["seen"][key] = node
        return False
    reroute_consumers(
        graph, node, keeper, rename={target: keeper.attrs["stmt"].target}
    )
    graph.remove_node(node)
    return True


CSE = RuleSet(
    name="cse",
    graph_rules=(
        GraphRule(
            "merge-duplicate-statement",
            NodePattern(kind=COMPUTE, where=(_not_partial,)),
            _merge_duplicate,
        ),
    ),
    # Single sweep with a per-sweep value-number table. Later sweeps
    # could merge newly congruent nodes, which would change optimized
    # graphs and therefore plan cache keys.
    strategy=SWEEP,
    prepare=_cse_prepare,
)


# ---------------------------------------------------------------------------
# dead-code-elimination
# ---------------------------------------------------------------------------


def _live_set(graph):
    """Reverse reachability from output/state boundary variables."""
    live = set()
    worklist = []
    for node in graph.nodes:
        if node.kind == VAR and node.attrs.get("modifier") in ("output", "state"):
            live.add(node.uid)
            worklist.append(node)
    incoming = {}
    for edge in graph.edges:
        if edge.src.uid == edge.dst.uid:
            continue
        incoming.setdefault(edge.dst.uid, []).append(edge.src)
    while worklist:
        node = worklist.pop()
        for src in incoming.get(node.uid, ()):
            if src.uid not in live:
                live.add(src.uid)
                worklist.append(src)
    return live


def _remove_dead(graph, node, ctx):
    if node.uid in ctx:
        return False
    if node.kind == VAR and node.attrs.get("modifier") != LOCAL:
        return False  # the interface is not code
    graph.remove_node(node)
    return True


DEAD_CODE_ELIMINATION = RuleSet(
    name="dead-code-elimination",
    graph_rules=(
        GraphRule("remove-unreachable", NodePattern(), _remove_dead),
    ),
    # Liveness is a closed property: one prepared sweep removes every
    # dead node, the second sweep proves convergence.
    prepare=_live_set,
)


# ---------------------------------------------------------------------------
# algebraic-combination
# ---------------------------------------------------------------------------


ALGEBRAIC_COMBINATION = RuleSet(
    name="algebraic-combination",
    graph_rules=(
        GraphRule(
            "inline-matvec-into-additive-consumer",
            NodePattern(kind=COMPUTE),
            fuse_matvec_producer,
        ),
    ),
    # Rescan from the top after every fusion: a fusion can enable another
    # at an earlier node.
    strategy=RESTART,
)


#: The default pipeline's rule sets, in pipeline order.
DEFAULT_RULESETS = (
    CONSTANT_FOLDING,
    ALGEBRAIC_SIMPLIFICATION,
    COPY_PROPAGATION,
    CSE,
    DEAD_CODE_ELIMINATION,
)

_DEFAULT_PIPELINE = Pipeline(DEFAULT_RULESETS)


def default_pipeline():
    """The stack's standard target-independent pipeline: constant folding,
    algebraic simplification, copy propagation, CSE and DCE, in that
    order. Algebraic combination stays opt-in
    (``Pipeline(DEFAULT_RULESETS + (ALGEBRAIC_COMBINATION,))``)."""
    return _DEFAULT_PIPELINE

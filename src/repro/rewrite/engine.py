"""The fixpoint rewrite driver.

One engine applies every rule set: expression rules run bottom-up inside
each statement with a per-position fixpoint, graph rules run in sweeps
over a node snapshot under the rule set's declared strategy. The engine
— not the rules — owns termination: per-rule trip counts, iteration
budgets, and cycle detection (a rewrite that regenerates an expression
or graph already seen aborts with :class:`~repro.errors.RewriteError`
instead of spinning).

Counters land in the :class:`~repro.obs.Counters` group a caller hands
in as ``stats=`` or, by default, in :data:`REWRITE_STATS` — the
process-default registry's ``rewrite`` group, surfaced by ``repro stats
--json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import RewriteError
from ..obs import DEFAULT_REGISTRY
from ..pmlang import ast_nodes as ast
from ..pmlang.render import render_expr
from ..srdfg import opclass
from .signature import graph_signature
from .pattern import Bindings, structural_key
from .rules import RESTART, SWEEP, ExprContext

#: Rewrites allowed at one expression position before declaring divergence.
POSITION_LIMIT = 64
#: Graph sweeps allowed for one rule set before declaring divergence.
SWEEP_LIMIT = 256
#: Sweep count after which the engine starts recording graph signatures
#: to distinguish slow convergence from a rewrite cycle.
SIGNATURE_AFTER = 8


#: The process-default ``rewrite`` group — open key space (one
#: ``ruleset/rule.matches``/``.rewrites`` pair per rule plus per-rule-set
#: sweep counts), process-scoped because pipelines come from
#: zero-argument factories that have no session to charge.
REWRITE_STATS = DEFAULT_REGISTRY.counters("rewrite")


def per_rule(stats):
    """``{rule: {"matches": n, "rewrites": m}}`` of a rewrite counter group,
    across all rule sets."""
    table: Dict[str, Dict[str, int]] = {}
    for key, value in stats.to_dict().items():
        name, _, counter = key.rpartition(".")
        if counter in ("matches", "rewrites"):
            table.setdefault(name, {"matches": 0, "rewrites": 0})[counter] = value
    return table


@dataclass
class ExplainEntry:
    """One rule firing, for ``repro rewrite --explain``."""

    ruleset: str
    rule: str
    graph: str
    site: str
    detail: str = ""

    def render(self):
        tail = f"  {self.detail}" if self.detail else ""
        return f"{self.ruleset}/{self.rule} @ {self.graph}:{self.site}{tail}"


@dataclass
class ExplainLog:
    """Ordered record of which rules fired where during a pipeline run."""

    entries: List[ExplainEntry] = field(default_factory=list)

    def add(self, ruleset, rule, graph, site, detail=""):
        self.entries.append(
            ExplainEntry(
                ruleset=ruleset, rule=rule, graph=graph, site=site, detail=detail
            )
        )

    def by_rule(self):
        tally: Dict[str, int] = {}
        for entry in self.entries:
            key = f"{entry.ruleset}/{entry.rule}"
            tally[key] = tally.get(key, 0) + 1
        return tally

    def render(self):
        if not self.entries:
            return "no rules fired"
        return "\n".join(entry.render() for entry in self.entries)

    def __len__(self):
        return len(self.entries)


# ---------------------------------------------------------------------------
# Expression rewriting
# ---------------------------------------------------------------------------


def _same(new, old):
    return all(a is b for a, b in zip(new, old))


def _map_predicate(spec, fn):
    if spec.predicate is None:
        return spec
    predicate = fn(spec.predicate)
    if predicate is spec.predicate:
        return spec
    return ast.ReductionIndex(name=spec.name, predicate=predicate)


def map_children(expr, fn):
    """*expr* with *fn* applied to each child expression.

    AST nodes are immutable values: when *fn* returns every child
    unchanged (the same object) the result is *expr* itself, so an
    untouched subtree keeps its identity all the way up to the statement.
    """
    if expr is None or isinstance(expr, (ast.Literal, ast.Name)):
        return expr
    if isinstance(expr, ast.Indexed):
        indices = tuple(fn(index) for index in expr.indices)
        if _same(indices, expr.indices):
            return expr
        return ast.Indexed(base=expr.base, indices=indices, line=expr.line)
    if isinstance(expr, ast.UnaryOp):
        operand = fn(expr.operand)
        if operand is expr.operand:
            return expr
        return ast.UnaryOp(op=expr.op, operand=operand, line=expr.line)
    if isinstance(expr, ast.BinOp):
        left, right = fn(expr.left), fn(expr.right)
        if left is expr.left and right is expr.right:
            return expr
        return ast.BinOp(op=expr.op, left=left, right=right, line=expr.line)
    if isinstance(expr, ast.Ternary):
        cond, then, other = fn(expr.cond), fn(expr.then), fn(expr.other)
        if cond is expr.cond and then is expr.then and other is expr.other:
            return expr
        return ast.Ternary(cond=cond, then=then, other=other, line=expr.line)
    if isinstance(expr, ast.FuncCall):
        args = tuple(fn(arg) for arg in expr.args)
        if _same(args, expr.args):
            return expr
        return ast.FuncCall(func=expr.func, args=args, line=expr.line)
    if isinstance(expr, ast.ReductionCall):
        indices = tuple(_map_predicate(spec, fn) for spec in expr.indices)
        arg = fn(expr.arg)
        if arg is expr.arg and _same(indices, expr.indices):
            return expr
        return ast.ReductionCall(
            op=expr.op, indices=indices, arg=arg, line=expr.line
        )
    return expr


class _ExprDriver:
    """Bottom-up driver for one rule set over one statement."""

    def __init__(self, ruleset, ctx, stats, explain=None, site=""):
        self.ruleset = ruleset
        self.ctx = ctx
        self.stats = stats
        self.explain = explain
        self.site = site

    def rewrite(self, expr):
        if expr is None:
            return None
        expr = map_children(expr, self.rewrite)
        return self._fixpoint(expr)

    def _fixpoint(self, expr):
        """Apply rules at this position until none fires."""
        # Keys of every expression this position has held. Built when the
        # first rule fires: most positions never see one.
        seen = None
        for _ in range(POSITION_LIMIT):
            fired = self._apply_once(expr)
            if fired is None:
                return expr
            replacement, key, before = fired
            if seen is None:
                seen = {before}
            if key in seen:
                raise RewriteError(
                    f"rule set {self.ruleset.name!r} cycles on expression "
                    f"{key!r} at {self.site}"
                )
            seen.add(key)
            # A builder may introduce subexpressions the bottom-up walk
            # has not seen (an inlined body, a folded literal's siblings);
            # re-normalise the children before matching here again.
            expr = map_children(replacement, self.rewrite)
        raise RewriteError(
            f"rule set {self.ruleset.name!r} exceeded {POSITION_LIMIT} "
            f"rewrites at one position ({self.site})"
        )

    def _apply_once(self, expr):
        """Fire the first rule that makes progress on *expr*.

        Returns ``(replacement, its structural key, expr's structural
        key)``, or None when no rule fires. Only the rules indexed under
        the root's type are offered.
        """
        before = None
        for rule in self.ruleset.expr_rules_for(type(expr)):
            bindings = Bindings()
            if not rule.pattern.match(expr, bindings):
                continue
            self.stats.bump(f"{self.ruleset.name}/{rule.name}.matches")
            replacement = rule.build(expr, bindings, self.ctx)
            if replacement is None:
                continue
            if before is None:
                before = structural_key(expr)
            key = structural_key(replacement)
            if key == before:
                continue
            self.stats.bump(f"{self.ruleset.name}/{rule.name}.rewrites")
            if self.explain is not None:
                self.explain.add(
                    self.ruleset.name,
                    rule.name,
                    getattr(self.ctx.graph, "name", "?"),
                    self.site,
                    detail=f"-> {render_expr(replacement)}",
                )
            return replacement, key, before
        return None


def rewrite_statement(graph, node, ruleset, stats=None, explain=None):
    """Apply *ruleset*'s expression rules to one compute node's statement.

    Rewrites the target subscripts and the value. A statement no rule
    changed comes back as the same AST objects and the node is left alone;
    otherwise the new statement is installed and — when the rule set asks
    for it — the node's operation descriptor is reclassified, since
    rewrites can change the op profile. Returns True when the statement
    changed.
    """
    stats = stats or REWRITE_STATS
    stmt = node.attrs["stmt"]
    index_ranges = node.attrs.get("index_ranges", {})
    ctx = ExprContext(
        graph=graph,
        node=node,
        static_env=node.attrs.get("static_env", {}),
        protected=frozenset(index_ranges),
        index_ranges=index_ranges,
    )
    driver = _ExprDriver(
        ruleset, ctx, stats, explain=explain, site=f"{stmt.target}@{node.uid}"
    )
    target_indices = tuple(driver.rewrite(index) for index in stmt.target_indices)
    value = driver.rewrite(stmt.value)
    if value is stmt.value and _same(target_indices, stmt.target_indices):
        return False
    rewritten = ast.Assign(
        target=stmt.target,
        target_indices=target_indices,
        value=value,
        line=stmt.line,
    )
    node.attrs["stmt"] = rewritten
    if ruleset.reclassify:
        reductions = getattr(graph, "reductions", {})
        node.attrs["descriptor"] = opclass.classify(
            rewritten, index_ranges, reductions
        )
        node.name = node.attrs["descriptor"].opname
    return True


# ---------------------------------------------------------------------------
# Graph rewriting
# ---------------------------------------------------------------------------


def _graph_key(graph):
    return hash(graph_signature(graph, recursive=False))


def apply_graph_rules(graph, ruleset, stats=None, explain=None):
    """Drive *ruleset*'s graph rules over one srDFG level.

    Strategy semantics:

    * ``sweep`` — one pass over a snapshot of the node list, even where
      a second would find more (CSE, copy propagation).
    * ``fixpoint`` — sweep until a sweep changes nothing.
    * ``restart`` — restart the sweep after every successful rewrite
      (combination: a fusion can enable another at an earlier node).

    Returns the number of successful rewrites. Raises
    :class:`~repro.errors.RewriteError` when the sweep budget is
    exhausted or a graph state repeats (two rules undoing each other).
    """
    stats = stats or REWRITE_STATS
    total = 0
    sweeps = 0
    signatures = set()
    while True:
        sweeps += 1
        if sweeps > SWEEP_LIMIT:
            raise RewriteError(
                f"rule set {ruleset.name!r} exceeded {SWEEP_LIMIT} sweeps "
                f"on graph {graph.name!r}"
            )
        stats.bump(f"{ruleset.name}.sweeps")
        ctx = ruleset.prepare(graph) if ruleset.prepare is not None else None
        changed = _one_sweep(graph, ruleset, ctx, stats, explain)
        total += changed
        if ruleset.strategy == SWEEP or not changed:
            break
        if sweeps >= SIGNATURE_AFTER:
            key = _graph_key(graph)
            if key in signatures:
                raise RewriteError(
                    f"rule set {ruleset.name!r} cycles on graph "
                    f"{graph.name!r} (state repeated after {sweeps} sweeps)"
                )
            signatures.add(key)
    return total


def _one_sweep(graph, ruleset, ctx, stats, explain):
    changed = 0
    restart = ruleset.strategy == RESTART
    while True:
        fired_this_scan = False
        for node in list(graph.nodes):
            if node.uid not in graph._nodes_by_uid:
                continue  # removed earlier in this sweep
            for rule in ruleset.graph_rules:
                if not rule.pattern.matches(graph, node):
                    continue
                stats.bump(f"{ruleset.name}/{rule.name}.matches")
                if not rule.rewrite(graph, node, ctx):
                    continue
                stats.bump(f"{ruleset.name}/{rule.name}.rewrites")
                changed += 1
                fired_this_scan = True
                if explain is not None:
                    explain.add(
                        ruleset.name,
                        rule.name,
                        graph.name,
                        f"{node.name}@{node.uid}",
                    )
                break  # node may be gone; move on
            if restart and fired_this_scan:
                break
        if not (restart and fired_this_scan):
            return changed


def run_ruleset(graph, ruleset, stats=None, explain=None):
    """Apply one rule set (expression rules, then graph rules) to *graph*.

    Returns True when anything changed. This is the single entry point
    the :class:`~repro.rewrite.rulepass.RulePass` adapter calls per graph
    level.
    """
    stats = stats or REWRITE_STATS
    changed = False
    if ruleset.expr_rules:
        for node in graph.compute_nodes():
            if rewrite_statement(graph, node, ruleset, stats=stats, explain=explain):
                changed = True
    if ruleset.graph_rules:
        if apply_graph_rules(graph, ruleset, stats=stats, explain=explain):
            changed = True
    return changed

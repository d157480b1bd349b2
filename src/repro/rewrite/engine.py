"""The fixpoint rewrite driver.

One engine applies every rule set: expression rules run bottom-up inside
each statement with a per-position fixpoint, graph rules run in sweeps
over a node snapshot under the rule set's declared strategy.

Termination is the rules' own property, not something the engine
detects: every expression rule strictly lowers (expression size, ``Name``
count) at the position it fires, and every graph-rule firing strictly
lowers its rule set's measure of its level — (nodes, then edges) for
:mod:`repro.rewrite.rulesets`, undecided nodes for
:mod:`repro.rewrite.lowering`. Each loop keeps one bound,
:data:`POSITION_LIMIT` or :data:`SWEEP_LIMIT`; reaching it means a rule
set broke its obligation, and raises :class:`~repro.errors.RewriteError`
naming the measure.

Counters land in the :class:`~repro.obs.Counters` group a caller hands
in as ``stats=`` or, by default, in :data:`REWRITE_STATS` — the
process-default registry's ``rewrite`` group, surfaced by ``repro stats
--json``.

A rule whose own code raises surfaces as a :class:`RewriteError` naming
the rule set, the rule and the site; the stack's own errors (lowering's
:class:`~repro.errors.LoweringError`) pass through unchanged. A
:class:`Pipeline` runs rule sets in order over every level, subgraphs
first.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from ..errors import PolyMathError, RewriteError
from ..obs import DEFAULT_REGISTRY, NULL_TRACER
from ..pmlang import ast_nodes as ast
from ..pmlang.render import render_expr
from ..srdfg import opclass
from ..srdfg.graph import COMPONENT
from .pattern import Bindings
from .rules import RESTART, SWEEP, ExprContext, RuleSet

#: Rewrites allowed at one expression position: a rule set that needs
#: more does not strictly lower (expression size, ``Name`` count).
POSITION_LIMIT = 64
#: Graph sweeps allowed for one rule set: a rule set that needs more does
#: not strictly lower (nodes, edges) with every firing.
SWEEP_LIMIT = 256


#: The process-default ``rewrite`` group — open key space (one
#: ``ruleset/rule.matches``/``.rewrites`` pair per rule plus per-rule-set
#: sweep counts), process-scoped because a pipeline is a value shared by
#: every session that runs it, with no session to charge.
REWRITE_STATS = DEFAULT_REGISTRY.counters("rewrite")


def _rule_failed(ruleset, rule, site, exc):
    """The :class:`RewriteError` naming *rule*, whose code raised *exc*."""
    return RewriteError(f"rule {ruleset.name}/{rule.name} failed at {site}: {exc!r}")


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
    """Bottom-up driver for one rule set over one statement. It tallies
    ``matches``/``rewrites`` in :attr:`counts`, which its caller merges
    into the counter group once per statement."""

    def __init__(self, ruleset, ctx, explain=None, site=""):
        self.ruleset = ruleset
        self.ctx = ctx
        self.counts = Counter()
        self.explain = explain
        self.site = site

    def rewrite(self, expr):
        if expr is None:
            return None
        expr = map_children(expr, self.rewrite)
        return self._fixpoint(expr)

    def _fixpoint(self, expr):
        """Apply rules at this position until none fires."""
        for _ in range(POSITION_LIMIT):
            replacement = self._apply_once(expr)
            if replacement is None:
                return expr
            # A builder may introduce subexpressions the bottom-up walk
            # has not seen (an inlined body, a folded literal's siblings);
            # re-normalise the children before matching here again.
            expr = map_children(replacement, self.rewrite)
        raise RewriteError(
            f"rule set {self.ruleset.name!r} exceeded {POSITION_LIMIT} "
            f"rewrites at one position ({self.site}): its expression rules "
            "do not strictly lower (expression size, Name count)"
        )

    def _apply_once(self, expr):
        """The replacement built by the first rule that fires on *expr*,
        or None when none does. Only the rules indexed under the root's
        type are offered.
        """
        for rule in self.ruleset.expr_rules_for(type(expr)):
            bindings = Bindings()
            try:
                if not rule.pattern.match(expr, bindings):
                    continue
                self.counts[f"{self.ruleset.name}/{rule.name}.matches"] += 1
                replacement = rule.build(expr, bindings, self.ctx)
            except PolyMathError:
                raise
            except Exception as exc:
                raise _rule_failed(self.ruleset, rule, self.site, exc) from exc
            if replacement is None:
                continue
            self.counts[f"{self.ruleset.name}/{rule.name}.rewrites"] += 1
            if self.explain is not None:
                self.explain.add(
                    self.ruleset.name,
                    rule.name,
                    getattr(self.ctx.graph, "name", "?"),
                    self.site,
                    detail=f"-> {render_expr(replacement)}",
                )
            return replacement
        return None


def rewrite_statement(graph, node, ruleset, stats=None, explain=None):
    """Apply *ruleset*'s expression rules to one compute node's statement.

    Rewrites the target subscripts and the value. A statement no rule
    changed comes back as the same AST objects and the node is left alone;
    otherwise the new statement is installed and — when the rule set asks
    for it — the node's operation descriptor is reclassified, since
    rewrites can change the op profile. Returns True when the statement
    changed.

    The statement's firings reach *stats* in one merge, also when a rule
    raises. Its rules run with numpy's floating-point errors ignored: a
    folded ``x / 0`` is declined by its rule, not warned about.
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
    driver = _ExprDriver(ruleset, ctx, explain=explain, site=f"{stmt.target}@{node.uid}")
    try:
        with np.errstate(all="ignore"):
            target_indices = tuple(driver.rewrite(index) for index in stmt.target_indices)
            value = driver.rewrite(stmt.value)
    finally:
        if driver.counts:
            stats.merge(driver.counts)
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


def apply_graph_rules(graph, ruleset, stats=None, explain=None):
    """Drive *ruleset*'s graph rules over one srDFG level.

    Strategy semantics:

    * ``sweep`` — one pass over a snapshot of the node list, even where
      a second would find more (CSE, copy propagation).
    * ``fixpoint`` — sweep until a sweep changes nothing.
    * ``restart`` — restart the sweep after every successful rewrite
      (combination: a fusion can enable another at an earlier node).

    Returns the number of successful rewrites. Raises
    :class:`~repro.errors.RewriteError` when the graph still changes after
    :data:`SWEEP_LIMIT` sweeps. Its sweeps and firings reach *stats* in
    one merge, also when a rule raises.
    """
    stats = stats or REWRITE_STATS
    counts, total = Counter(), 0
    try:
        for _ in range(SWEEP_LIMIT):
            counts[f"{ruleset.name}.sweeps"] += 1
            ctx = ruleset.prepare(graph) if ruleset.prepare is not None else None
            changed = _one_sweep(graph, ruleset, ctx, counts, explain)
            total += changed
            if ruleset.strategy == SWEEP or not changed:
                return total
    finally:
        stats.merge(counts)
    raise RewriteError(
        f"rule set {ruleset.name!r} exceeded {SWEEP_LIMIT} sweeps on graph "
        f"{graph.name!r}: its graph rules do not strictly lower (nodes, edges)"
    )


def _one_sweep(graph, ruleset, ctx, counts, explain):
    changed = 0
    restart = ruleset.strategy == RESTART
    while True:
        fired_this_scan = False
        for node in list(graph.nodes):
            if node.uid not in graph._nodes_by_uid:
                continue  # removed earlier in this sweep
            for rule in ruleset.graph_rules:
                try:
                    if not rule.pattern.matches(graph, node):
                        continue
                    counts[f"{ruleset.name}/{rule.name}.matches"] += 1
                    fired = rule.rewrite(graph, node, ctx)
                except PolyMathError:
                    raise
                except Exception as exc:
                    site = f"{graph.name}:{node.name}@{node.uid}"
                    raise _rule_failed(ruleset, rule, site, exc) from exc
                if not fired:
                    continue
                counts[f"{ruleset.name}/{rule.name}.rewrites"] += 1
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
    """Apply one rule set (expression rules, then graph rules) to one
    level of *graph*. Returns True when anything changed."""
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


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


class RulesetReport(NamedTuple):
    """One rule set of a pipeline run: wall time and recursive (every
    nested level) node/edge counts before and after."""

    ruleset: str
    seconds: float
    nodes_before: int
    nodes_after: int
    edges_before: int
    edges_after: int


class PipelineRun(NamedTuple):
    """The optimized graph and one :class:`RulesetReport` per rule set."""

    graph: object
    reports: Tuple[RulesetReport, ...]


def _run_nested(graph, ruleset, stats, explain):
    """*ruleset* over every component subgraph of *graph*, innermost
    first, then over *graph*'s own level."""
    for node in list(graph.nodes):
        if node.kind == COMPONENT and node.subgraph is not None:
            _run_nested(node.subgraph, ruleset, stats, explain)
    run_ruleset(graph, ruleset, stats=stats, explain=explain)


@dataclass(frozen=True)
class Pipeline:
    """The optimise stage as a value: rule sets, run in order.

    ``fingerprint`` (names, strategies and rule names of the rule sets)
    is computed once, so a compile-cache lookup keys on a pipeline
    without rebuilding or rehashing it.
    """

    rulesets: Tuple[RuleSet, ...]
    fingerprint: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rulesets = tuple(self.rulesets)
        identity = repr([
            (ruleset.name, ruleset.strategy, ruleset.reclassify, ruleset.rule_names)
            for ruleset in rulesets
        ])
        object.__setattr__(self, "rulesets", rulesets)
        object.__setattr__(
            self, "fingerprint", hashlib.sha256(identity.encode()).hexdigest()
        )

    def run(self, graph, *, stats=None, explain=None, tracer=None):
        """Apply each rule set to every level of *graph* (in place),
        subgraphs first, validating the graph after each; returns a
        :class:`PipelineRun`.

        Each rule set runs in one ``passes``-category span on *tracer*,
        noted with its node/edge deltas. Any failure is a
        :class:`RewriteError` naming the rule set; the engine's also name
        the rule.
        """
        tracer = tracer or NULL_TRACER
        reports = []
        for ruleset in self.rulesets:
            nodes, edges = graph.total_counts()
            start = time.perf_counter()
            with tracer.span(ruleset.name, category="passes", graph=graph.name) as span:
                try:
                    _run_nested(graph, ruleset, stats, explain)
                    graph.validate()
                except RewriteError:
                    raise
                except Exception as exc:
                    raise RewriteError(f"rule set {ruleset.name!r} failed: {exc!r}") from exc
                seconds = time.perf_counter() - start
                nodes_after, edges_after = graph.total_counts()
                span.note(nodes=f"{nodes}->{nodes_after}", edges=f"{edges}->{edges_after}")
            reports.append(RulesetReport(
                ruleset.name, seconds, nodes, nodes_after, edges, edges_after
            ))
        return PipelineRun(graph, tuple(reports))

"""Rule declarations: rewrite rules as data.

A rule pairs a pattern (what to look for) with a builder/action (what to
do about it). Rules carry no iteration logic — sweeps, fixpoints and trip
counts live in :mod:`repro.rewrite.engine` — so a rule set is an
inspectable table, not a visitor class. What a rule does carry is a
termination obligation: every firing strictly lowers a measure, so the
shared driver needs no cycle detector. This is the split the
declarative-rewriting literature (PAPERS.md) argues for: the *what* is
data, the *how* is one shared driver.

Two rule granularities mirror the two granularities the srDFG exposes:

* :class:`ExprRule` rewrites inside one compute statement's expression
  tree (constant folding, algebraic identities);
* :class:`GraphRule` rewrites the node/edge structure of one srDFG level
  (CSE, copy propagation, DCE, combination, Algorithm 1's lowering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from .pattern import NodePattern, Pattern

#: Sweep strategies for graph rule sets.
SWEEP = "sweep"          #: one pass over a node snapshot
FIXPOINT = "fixpoint"    #: sweep until a sweep changes nothing
RESTART = "restart"      #: restart the sweep after every successful rewrite

_STRATEGIES = (SWEEP, FIXPOINT, RESTART)


@dataclass(frozen=True)
class ExprRule:
    """One expression-level rewrite: pattern in, replacement out.

    ``build(expr, bindings, ctx)`` returns the replacement expression, or
    ``None`` to decline the match (for guards that need the context — the
    static environment, protected names — rather than just the subtree).
    A replacement must be strictly smaller under (expression size, ``Name``
    count); that measure is what makes every expression rule set
    terminate.
    """

    name: str
    pattern: Pattern
    build: Callable


@dataclass(frozen=True)
class GraphRule:
    """One node-anchored structural rewrite.

    ``rewrite(graph, node, ctx)`` performs the transformation in place
    and returns True when it changed the graph; a change must strictly
    lower its rule set's measure of the level — (node count, then edge
    count) for the optimisation rule sets, undecided nodes for lowering —
    which is what makes every graph rule set terminate. ``ctx`` is
    whatever the owning rule set's ``prepare`` produced for the current
    sweep (a live set, a seen-key table, variable metadata) — per-sweep
    analysis results stay out of the rule's own state so rules remain
    reusable values.
    """

    name: str
    pattern: NodePattern
    rewrite: Callable


@dataclass(frozen=True)
class RuleSet:
    """A named collection of rules, driven as one unit by the engine.

    *strategy* governs the graph-rule driver (see the module constants);
    expression rules are always driven bottom-up to a per-position
    fixpoint. *prepare* runs once per sweep and its result is passed to
    every graph rule as ``ctx`` — the declarative home for whole-graph
    analyses (liveness, value numbering) that individual node rewrites
    consult. *reclassify* controls whether statements changed by
    expression rules get their operation descriptors recomputed.

    Expression rules are indexed on the AST class their pattern's root
    can match (:attr:`Pattern.root`): :meth:`expr_rules_for` answers
    "which rules, in declaration order, could fire on a node of this
    type" from a table filled once per type, so positions no rule can
    match cost the driver one lookup.
    """

    name: str
    expr_rules: Tuple[ExprRule, ...] = ()
    graph_rules: Tuple[GraphRule, ...] = ()
    strategy: str = FIXPOINT
    prepare: Optional[Callable] = None
    reclassify: bool = True
    _by_root: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            from ..errors import RewriteError

            raise RewriteError(
                f"rule set {self.name!r}: unknown strategy {self.strategy!r}"
            )

    def expr_rules_for(self, root_type):
        """The expression rules whose pattern can match a *root_type* node."""
        rules = self._by_root.get(root_type)
        if rules is None:
            rules = self._by_root[root_type] = tuple(
                rule
                for rule in self.expr_rules
                if rule.pattern.root is None
                or issubclass(root_type, rule.pattern.root)
            )
        return rules

    @property
    def rule_names(self):
        return tuple(
            rule.name for rule in tuple(self.expr_rules) + tuple(self.graph_rules)
        )


@dataclass
class ExprContext:
    """Per-statement context handed to expression-rule builders."""

    graph: object = None
    node: object = None
    static_env: dict = field(default_factory=dict)
    protected: frozenset = frozenset()
    index_ranges: dict = field(default_factory=dict)

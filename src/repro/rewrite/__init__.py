"""Declarative pattern/match/rewrite engine over srDFGs.

The stack's optimisation passes, restated as data: patterns with
op/attr/shape predicates and capture variables (:mod:`.pattern`), rules
and rule sets (:mod:`.rules`), one fixpoint driver with per-rule trip
counts and one bound per loop (:mod:`.engine`), the rule sets themselves
(:mod:`.rulesets`, with the paper's algebraic combination in
:mod:`.combination`), and adapters into the ``PassManager`` surface
(:mod:`.rulepass`). Termination is the rules' obligation: each firing
strictly lowers a measure, stated in :mod:`.rulesets`. Cost-guided
cross-domain fusion (:mod:`.fusion`) reports through the same counters
and explain log.
"""

from .engine import (
    REWRITE_STATS,
    ExplainEntry,
    ExplainLog,
    apply_graph_rules,
    per_rule,
    rewrite_statement,
    run_ruleset,
)
from .fusion import (
    FusionMove,
    FusionReport,
    fuse_cross_domain,
    modeled_cost,
)
from .pattern import (
    ANY,
    Any,
    Bin,
    Bindings,
    Call,
    Idx,
    Lit,
    NodePattern,
    Pattern,
    Ref,
    Tern,
    Un,
    structural_key,
)
from .rulepass import RulePass, combination_pass, rewrite_pipeline
from .rules import (
    FIXPOINT,
    RESTART,
    SWEEP,
    ExprContext,
    ExprRule,
    GraphRule,
    RuleSet,
)
from .rulesets import (
    ALGEBRAIC_COMBINATION,
    ALGEBRAIC_SIMPLIFICATION,
    CONSTANT_FOLDING,
    COPY_PROPAGATION,
    CSE,
    DEAD_CODE_ELIMINATION,
    DEFAULT_RULESETS,
)

__all__ = [
    "ANY",
    "ALGEBRAIC_COMBINATION",
    "ALGEBRAIC_SIMPLIFICATION",
    "Any",
    "Bin",
    "Bindings",
    "CONSTANT_FOLDING",
    "COPY_PROPAGATION",
    "CSE",
    "Call",
    "DEAD_CODE_ELIMINATION",
    "DEFAULT_RULESETS",
    "FusionMove",
    "FusionReport",
    "ExplainEntry",
    "ExplainLog",
    "ExprContext",
    "ExprRule",
    "FIXPOINT",
    "GraphRule",
    "Idx",
    "Lit",
    "NodePattern",
    "Pattern",
    "REWRITE_STATS",
    "RESTART",
    "Ref",
    "RulePass",
    "RuleSet",
    "SWEEP",
    "Tern",
    "Un",
    "apply_graph_rules",
    "combination_pass",
    "fuse_cross_domain",
    "modeled_cost",
    "per_rule",
    "rewrite_pipeline",
    "rewrite_statement",
    "run_ruleset",
    "structural_key",
]

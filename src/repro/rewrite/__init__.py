"""Declarative pattern/match/rewrite engine over srDFGs.

Every graph transformation from source to translation, restated as data:
patterns with op/attr/shape predicates and capture variables
(:mod:`.pattern`), rules and rule sets (:mod:`.rules`), one fixpoint
driver with per-rule trip counts and one bound per loop, and the
:class:`Pipeline` that runs rule sets as the optimise stage
(:mod:`.engine`), the optimisation rule sets themselves (:mod:`.rulesets`,
with the paper's algebraic combination in :mod:`.combination`), and
Algorithm 1's lowering (:mod:`.lowering`). Termination is the rules'
obligation: each firing strictly lowers a measure, stated in
:mod:`.rulesets` and :mod:`.lowering`. Cost-guided cross-domain fusion
(:mod:`.fusion`) reports through the same counters and explain log.
"""

from .engine import (
    REWRITE_STATS,
    ExplainEntry,
    ExplainLog,
    Pipeline,
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
from .lowering import (
    LOWERING_STATS,
    lower,
    lowering_rules,
    supported_summary,
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
    default_pipeline,
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
    "LOWERING_STATS",
    "Lit",
    "NodePattern",
    "Pattern",
    "Pipeline",
    "REWRITE_STATS",
    "RESTART",
    "Ref",
    "RuleSet",
    "SWEEP",
    "Tern",
    "Un",
    "apply_graph_rules",
    "default_pipeline",
    "fuse_cross_domain",
    "lower",
    "lowering_rules",
    "modeled_cost",
    "per_rule",
    "rewrite_statement",
    "run_ruleset",
    "structural_key",
    "supported_summary",
]

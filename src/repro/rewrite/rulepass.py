"""Adapters that surface rule sets through the existing pass pipeline.

:class:`RulePass` wraps a :class:`~repro.rewrite.rules.RuleSet` as a
:class:`~repro.passes.base.Pass`, so `CompilerSession` pipelines, per-pass
StageRecords, obs spans, and ``PassManager`` hooks all keep working with
zero changes — the pass *name* is the rule set's name, which pipeline
fingerprints and reports key on.
"""

from __future__ import annotations

from ..passes.base import Pass
from .engine import REWRITE_STATS, run_ruleset
from .rulesets import ALGEBRAIC_COMBINATION, DEFAULT_RULESETS


class RulePass(Pass):
    """One rule set, driven by the shared engine, as a pipeline pass."""

    def __init__(self, ruleset, stats=None, explain=None):
        self.ruleset = ruleset
        self.stats = stats or REWRITE_STATS
        self.explain = explain
        self.name = ruleset.name

    def run(self, graph):
        run_ruleset(graph, self.ruleset, stats=self.stats, explain=self.explain)
        return graph

    def __repr__(self):
        return f"<RulePass {self.name} rules={list(self.ruleset.rule_names)}>"


def rewrite_pipeline(validate=True, recursive=True, explain=None, stats=None,
                     combine=False):
    """The standard target-independent pipeline
    (:func:`repro.passes.default_pipeline` with every knob exposed).

    *combine* appends the algebraic-combination rule set, which the
    default pipeline leaves opt-in.
    """
    from ..passes.manager import PassManager

    rulesets = list(DEFAULT_RULESETS)
    if combine:
        rulesets.append(ALGEBRAIC_COMBINATION)
    return PassManager(
        [RulePass(ruleset, stats=stats, explain=explain) for ruleset in rulesets],
        validate=validate,
        recursive=recursive,
    )


def combination_pass(explain=None, stats=None):
    """The paper's multi-granularity fusion pass (§IV-B)."""
    return RulePass(ALGEBRAIC_COMBINATION, stats=stats, explain=explain)

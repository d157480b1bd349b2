"""Modular compilation passes over srDFGs (§IV of the paper).

The pass framework (:class:`Pass`, :class:`PassManager`) and lowering live
here; the target-independent optimisations themselves are declarative
rule sets in :mod:`repro.rewrite`, surfaced as passes through
:class:`~repro.rewrite.rulepass.RulePass`.
"""

from .base import Pass
from .lowering import lower, supported_summary
from .manager import PassManager, PipelineResult

__all__ = [
    "Pass",
    "PassManager",
    "PipelineResult",
    "default_pipeline",
    "lower",
    "supported_summary",
]


def default_pipeline():
    """The stack's standard target-independent pipeline: constant folding,
    algebraic simplification, copy propagation, CSE and DCE, in that
    order, each a :mod:`repro.rewrite` rule set."""
    # Imported lazily: repro.rewrite builds on repro.passes.base.
    from ..rewrite.rulepass import rewrite_pipeline

    return rewrite_pipeline()

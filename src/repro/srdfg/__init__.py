"""srDFG: the simultaneously-recursive dataflow graph IR (§III)."""

from .builder import build, eval_static
from .expand import expand_scalar, scalar_op_histogram
from .graph import COMPONENT, COMPUTE, CONST, SCALAR, VAR, Edge, Node, SrDFG
from .interpreter import (
    ExecutionResult,
    Executor,
    evaluate_statement,
    resolve_dtype,
)
from .metadata import EdgeMeta, VarInfo
from .opclass import OpDescriptor, classify
from .plan import (
    ExecutionPlan,
    PlanConfig,
    StatementPlan,
    build_plan,
    graph_fingerprint,
    plan_cache_key,
    plan_for_graph,
)
from .shapes import BucketPolicy, ShapeBinding

__all__ = [
    "BucketPolicy",
    "ShapeBinding",
    "COMPONENT",
    "COMPUTE",
    "CONST",
    "SCALAR",
    "VAR",
    "Edge",
    "EdgeMeta",
    "ExecutionPlan",
    "ExecutionResult",
    "Executor",
    "Node",
    "OpDescriptor",
    "PlanConfig",
    "SrDFG",
    "StatementPlan",
    "VarInfo",
    "build",
    "build_plan",
    "classify",
    "eval_static",
    "evaluate_statement",
    "expand_scalar",
    "graph_fingerprint",
    "plan_cache_key",
    "plan_for_graph",
    "resolve_dtype",
    "scalar_op_histogram",
]

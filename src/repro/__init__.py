"""PolyMath reproduction: a computational stack for cross-domain
acceleration (HPCA 2021).

Public API quick tour::

    import repro

    # Parse + build the srDFG of a PMLang program
    graph = repro.build(source)

    # Execute it functionally
    result = repro.Executor(graph).run(inputs=..., params=..., state=...)

    # Compile for the Table V accelerators, execute, and price one
    # invocation on the SoC (compute, DMA transfers and spill)
    compiler = repro.PolyMath(repro.default_accelerators())
    app = compiler.compile(source, domain="RBT")
    result, total, per_domain = app.run(inputs=..., params=...)

    # Regenerate the paper's evaluation
    print(repro.full_report())
"""

from .driver import (
    ArtifactCache,
    CompilerSession,
    Diagnostics,
    StageRecord,
)
from .errors import (
    ExecutionError,
    GraphError,
    LoweringError,
    PMLangSemanticError,
    PMLangSyntaxError,
    PolyMathError,
    RuntimeFailure,
    ShapeError,
    TargetError,
    WorkloadError,
)
from .runtime import (
    FaultPlan,
    FaultSpec,
    HostManager,
    RecoveryPolicy,
    RunReport,
)
from .eval import Harness, all_figures, all_tables, full_report
from .hw import SoCRuntime, make_jetson, make_titan_xp, make_xeon
from .pmlang import analyze, parse, tokenize
from .rewrite import Pipeline, default_pipeline, lower
from .srdfg import Executor, SrDFG, build
from .targets import PolyMath, default_accelerators
from .workloads import get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "ArtifactCache",
    "CompilerSession",
    "Diagnostics",
    "ExecutionError",
    "Executor",
    "FaultPlan",
    "FaultSpec",
    "GraphError",
    "Harness",
    "HostManager",
    "LoweringError",
    "PMLangSemanticError",
    "PMLangSyntaxError",
    "Pipeline",
    "PolyMath",
    "PolyMathError",
    "RecoveryPolicy",
    "RunReport",
    "RuntimeFailure",
    "ShapeError",
    "SoCRuntime",
    "SrDFG",
    "StageRecord",
    "TargetError",
    "WorkloadError",
    "all_figures",
    "all_tables",
    "analyze",
    "build",
    "default_accelerators",
    "default_pipeline",
    "full_report",
    "get_workload",
    "lower",
    "make_jetson",
    "make_titan_xp",
    "make_xeon",
    "parse",
    "tokenize",
    "workload_names",
]

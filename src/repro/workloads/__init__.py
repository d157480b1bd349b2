"""Benchmark workloads (Tables III & IV of the paper).

Importing this package registers every workload; use
:func:`get_workload` / :func:`workload_names` to enumerate them.
"""

from . import analytics, deeplearning, dsp, endtoend, extensions, graphs, robotics  # noqa: F401
from .base import (
    CheckResult,
    Trajectory,
    Workload,
    count_loc,
    get_workload,
    register,
    workload_names,
)

#: Table III's fifteen single-domain benchmarks, in the paper's order.
SINGLE_DOMAIN = (
    "MobileRobot",
    "Hexacopter",
    "Twitter-BFS",
    "Wiki-BFS",
    "LiveJourn-SSP",
    "MovieL-20M",
    "MovieL-100K",
    "DigitCluster",
    "ElecUse",
    "FFT-8192",
    "FFT-16384",
    "DCT-1024",
    "DCT-2048",
    "ResNet-18",
    "MobileNet",
)

#: Table IV's end-to-end applications.
END_TO_END = ("BrainStimul", "OptionPricing")

#: Extension workloads beyond the paper's tables (see
#: ``repro.workloads.extensions``): the flagship algorithms of the
#: GRAPHICIONADO and TABLA papers, exercising the stack's extensibility.
EXTENSIONS = ("PageRank", "LogisticRegression")

__all__ = [
    "CheckResult",
    "END_TO_END",
    "EXTENSIONS",
    "SINGLE_DOMAIN",
    "Trajectory",
    "Workload",
    "count_loc",
    "get_workload",
    "register",
    "workload_names",
]

"""Evaluation harness: regenerates every table and figure of the paper."""

from .dse import DesignPoint, explore, pareto
from .figures import FigureData, all_figures
from ..util import geomean
from .harness import BenchmarkRun, Harness
from .optimal import estimate_expert, percent_of_optimal
from .report import full_report
from .tables import TableData, all_tables

__all__ = [
    "BenchmarkRun",
    "DesignPoint",
    "explore",
    "pareto",
    "FigureData",
    "Harness",
    "TableData",
    "all_figures",
    "all_tables",
    "estimate_expert",
    "full_report",
    "geomean",
    "percent_of_optimal",
]

"""repro.fuzz — differential fuzzing of the whole stack.

A seeded random PMLang program generator
(:func:`~repro.fuzz.generator.generate_program`), five differential
oracles checking every execution path against the reference interpreter
(:mod:`repro.fuzz.oracles`), greedy test-case minimization
(:func:`~repro.fuzz.minimize.minimize_program`), and the campaign driver
(:func:`~repro.fuzz.harness.run_fuzz`) behind the ``repro fuzz`` CLI.
See the "Resilience & validation" section of ``docs/ARCHITECTURE.md``.
"""

from .generator import FuzzProgram, GenConfig, generate_program
from .harness import Divergence, FuzzReport, run_fuzz
from .minimize import minimize_program, reproducer_size
from .oracles import (
    ORACLES,
    CheckResult,
    OracleContext,
    fault_campaigns,
    run_program,
    run_reference,
)

__all__ = [
    "CheckResult",
    "Divergence",
    "FuzzProgram",
    "FuzzReport",
    "GenConfig",
    "ORACLES",
    "OracleContext",
    "fault_campaigns",
    "generate_program",
    "minimize_program",
    "reproducer_size",
    "run_fuzz",
    "run_program",
    "run_reference",
]

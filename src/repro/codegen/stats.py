"""The ``codegen`` counter group (build outcomes and execution routing).

Wall-clock assertions flake, counters do not: the contract tests and the
CI codegen smoke step snapshot :data:`CODEGEN_STATS`, run a workload for
N steps, and assert ``kernels_built == 1`` — i.e. one generated kernel
served every step — while ``kernel_executions`` advanced by N.

``kernels_built`` / ``builds_declined`` count whole-plan outcomes: a
declined build (unsupported plan shape, emission failure) is a
*diagnostic*, never an error — the plan keeps executing interpreted.
``kernel_fallbacks`` counts executions that started on the kernel tier
and transparently fell back to the interpreter at run time.
"""

from __future__ import annotations

from ..obs import DEFAULT_REGISTRY

__all__ = ["CODEGEN_STATS"]

#: Process-scoped, because kernels are artifacts shared across sessions
#: (a kernel execution has no session to charge).
CODEGEN_STATS = DEFAULT_REGISTRY.counters("codegen", (
    "kernels_built",
    "builds_declined",
    "build_seconds",
    "kernel_executions",
    "kernel_fallbacks",
    "statements_specialized",
    "statements_fallback",
    "statements_fused",
    "source_bytes",
))

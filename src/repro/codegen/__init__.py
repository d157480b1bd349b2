"""Kernel codegen tier: lower ExecutionPlans into specialized kernels.

The third execution tier (interpreter → plan → kernel, see
ARCHITECTURE.md "Kernel codegen"): :func:`build_kernel` lowers a
compiled :class:`~repro.srdfg.plan.ExecutionPlan` into one straight-line
Python/numpy function via :class:`~repro.codegen.emitter.KernelEmitter`,
compiled and wrapped in a :class:`~repro.codegen.kernel.KernelArtifact`.

Codegen is best-effort by contract: :func:`build_kernel` returns
``None`` on any build failure and counts it as a declined build in
:data:`CODEGEN_STATS` — a diagnostic, never an error. Plans without an
attached kernel simply keep executing interpreted.
"""

from __future__ import annotations

import hashlib
import time

from .emitter import EmitResult, KernelEmitter, Unsupported
from .kernel import CODEGEN_STATS, KernelArtifact

__all__ = [
    "CODEGEN_STATS",
    "KERNEL_ABI",
    "EmitResult",
    "KernelArtifact",
    "KernelEmitter",
    "Unsupported",
    "build_kernel",
    "kernel_cache_key",
]


#: Version of the contract between the source the emitter prints and the
#: :class:`KernelArtifact` that runs it (namespace names, ``_S`` layout,
#: who owns a statement result). It salts :func:`kernel_cache_key`, so a
#: persistent ``--cache-dir`` never replays source printed under another
#: contract: bump it with any such change. 2: results left ``_S``.
#: 3: ``_affine_view`` joined the namespace.
KERNEL_ABI = 3


def kernel_cache_key(plan_key):
    """Cache key of the kernel generated for the plan under *plan_key*.

    A pure derivation of the plan's own cache key (fingerprint +
    PlanConfig) and :data:`KERNEL_ABI`, so the kernel entry is a
    *sibling* of the plan entry: whoever evicts the plan can find and
    evict the kernel without extra bookkeeping.
    """
    return hashlib.sha256(
        f"kernel/{KERNEL_ABI}:{plan_key}".encode()
    ).hexdigest()


def build_kernel(plan, plan_key=None, diagnostics=None):
    """Lower *plan* to a KernelArtifact, or None when codegen declines.

    Never raises: unsupported plan shapes, emission bugs, and compile
    failures all count as ``builds_declined`` (with a diagnostics note
    when a collector is supplied) and leave the plan interpreted.
    """
    start = time.perf_counter()
    key = plan_key or f"{plan.graph_name}:{id(plan):x}"
    try:
        emitted = KernelEmitter(plan).emit()
        artifact = KernelArtifact(key, *emitted)
    except Exception as exc:
        CODEGEN_STATS.bump(
            builds_declined=1,
            build_seconds=time.perf_counter() - start,
        )
        if diagnostics is not None:
            reason = str(exc) or type(exc).__name__
            diagnostics.warning(
                f"codegen declined for {plan.graph_name!r}: {reason}",
                stage="codegen",
            )
        return None
    report = emitted.report
    CODEGEN_STATS.bump(
        kernels_built=1,
        build_seconds=time.perf_counter() - start,
        statements_specialized=report.get("specialized", 0),
        statements_fallback=report.get("fallback", 0),
        statements_fused=report.get("fused", 0),
        source_bytes=len(emitted.source),
    )
    if diagnostics is not None:
        diagnostics.note(
            f"built kernel for {plan.graph_name!r}: "
            f"{report.get('specialized', 0)}/{report.get('statements', 0)} "
            f"statement(s) specialized, {report.get('fused', 0)} fused, "
            f"{len(emitted.source)} source bytes",
            stage="codegen",
        )
    return artifact

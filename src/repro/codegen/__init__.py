"""Kernel codegen tier: lower ExecutionPlans into specialized kernels.

The third execution tier (interpreter → plan → kernel, see
ARCHITECTURE.md "Kernel codegen"): :func:`build_kernel` lowers a
compiled :class:`~repro.srdfg.plan.ExecutionPlan` into one straight-line
Python/numpy function via :class:`~repro.codegen.emitter.KernelEmitter`,
compiled and wrapped in a :class:`~repro.codegen.kernel.KernelArtifact`.

A kernel is the whole plan or none. :func:`build_kernel` returns
``None`` when the emitter raises :class:`Unsupported` — for the plan, or
for one statement it cannot print, named in the reason — and counts it
as a declined build in :data:`CODEGEN_STATS`: a diagnostic, never an
error. The plan keeps executing interpreted and remembers the reason
(``plan.kernel_declined``). Any other exception is an emitter defect and
propagates.
"""

from __future__ import annotations

import hashlib
import time

from .emitter import EmitResult, KernelEmitter, Unsupported
from .kernel import CODEGEN_STATS, KernelArtifact, timed_statements

__all__ = [
    "CODEGEN_STATS",
    "KERNEL_ABI",
    "EmitResult",
    "KernelArtifact",
    "KernelEmitter",
    "Unsupported",
    "build_kernel",
    "kernel_cache_key",
    "timed_statements",
]


#: Version of the contract between the source the emitter prints and the
#: :class:`KernelArtifact` that runs it (namespace names, the kernel's
#: parameters, who owns a statement result). It salts
#: :func:`kernel_cache_key`, so a persistent ``--cache-dir`` never
#: replays source printed under another contract: bump it with any such
#: change. 2: results left ``_S``.
#: 3: ``_affine_view`` joined the namespace. 4: ``_in_range`` joined it,
#: and predicated min/max reduce masked. 5: ``_contract`` joined it, and
#: contractions replay their planned steps instead of ``_np.einsum``.
#: 6: ``_axview`` left it (relabels print as indexing): a record of 5
#: would call a name the namespace no longer binds, so it must miss.
#: 7: the ``_S`` parameter and the scratch pool left (takes allocate): a
#: record of 6 would be called with one argument too many.
#: 8: short sums fold slice by slice, and a folded total holding a NaN
#: calls a lattice-reduction constant.
#: 9: a predicated min/max over a read-only param runs on its points: a
#: constant holding a memo is called for them, and one of 8 would run the
#: masked reduction every step.
#: 10: a point branch reads a param's subscripts from ``Points.taken``,
#: which a runtime of 9 does not set; a record of 9 would copy 3x3
#: windows through ``reshape`` and gather params at the points every step.
#: 11: a matmul einsum would transpose takes its terms swapped; a record
#: of 10 holds einsum's steps, and would compute other bytes than the
#: interpreted plan.
KERNEL_ABI = 11


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

    A plan the emitter raises :class:`Unsupported` for counts as
    ``builds_declined`` (with a diagnostics warning when a collector is
    supplied), keeps the reason as ``plan.kernel_declined`` and stays
    interpreted. Any other exception — an emission bug, printed source
    that does not compile — propagates.
    """
    start = time.perf_counter()
    key = plan_key or f"{plan.graph_name}:{id(plan):x}"
    try:
        emitted = KernelEmitter(plan).emit()
    except Unsupported as exc:
        CODEGEN_STATS.bump(
            builds_declined=1,
            build_seconds=time.perf_counter() - start,
        )
        plan.kernel_declined = str(exc) or type(exc).__name__
        if diagnostics is not None:
            diagnostics.warning(
                f"codegen declined for {plan.graph_name!r}: {plan.kernel_declined}",
                stage="codegen",
            )
        return None
    artifact = KernelArtifact(key, *emitted)
    CODEGEN_STATS.bump(
        kernels_built=1,
        build_seconds=time.perf_counter() - start,
        source_bytes=len(emitted.source),
    )
    if diagnostics is not None:
        diagnostics.note(
            f"built kernel for {plan.graph_name!r}: "
            f"{emitted.report['statements']} statement(s), "
            f"{len(emitted.source)} source bytes",
            stage="codegen",
        )
    return artifact

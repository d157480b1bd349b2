"""Compiled kernel artifact: generated source + code object + runtime.

A :class:`KernelArtifact` wraps one emitted kernel function for one
:class:`~repro.srdfg.plan.ExecutionPlan`. It owns

* the generated source (kept for ``repro codegen --dump-source``, the
  disk cache record, and diagnostics), and
* the exec'd function object bound to its constant namespace, which
  holds the runtime helpers it calls: among them ``_bind``, the plan's
  variable binder, called once per variable, so a kernel checks and
  fills its arguments exactly as the interpreted plan does, and
  ``c_einsum``, numpy's one-operand einsum kernel, which a printed
  contraction calls where the interpreter's contraction primitive does.

A kernel holds no buffer between calls: within a call, a numpy call
allocates its result or writes it over a buffer the same call allocated
and nothing reads again (``out=``: a fresh operand, a folded slice, a dead
statement result; a partial store over a dead local), so concurrent
workers share only the artifact. Reusing allocations step after step is the allocator's job,
not the kernel's: a serving worker's heap keeps the pages a step frees
for the next (:func:`repro.serve.heap.keep_heap`). It holds one derived
value: a reduction running on its predicate's
points keeps them in its statement's memo
(:class:`~repro.srdfg.plan.CompressedReduction`), shared with the
interpreted plan and derived from a read-only param — constant while
that object lives — under a lock, once.

``try_execute`` is the only entry point the plan layer calls: it
returns an :class:`~repro.srdfg.interpreter.ExecutionResult`, and
whatever the kernel raises propagates — a plan with a kernel is never
re-run interpreted. The kernel never mutates the caller's
input/param/state dicts.
"""

from __future__ import annotations

import re
import time

import numpy as np

from ..obs import DEFAULT_REGISTRY
from ..srdfg.interpreter import (
    ExecutionResult, _affine_view, _in_range, c_einsum,
)
from ..srdfg.plan import _bind

__all__ = ["CODEGEN_STATS", "KernelArtifact", "timed_statements"]

#: The ``codegen`` counter group — process-scoped, because kernels are
#: artifacts shared across sessions (an execution has no session to
#: charge). ``kernels_built`` / ``builds_declined`` count whole-plan
#: outcomes (a declined build is a diagnostic, never an error: the plan
#: keeps executing interpreted). No kernel execution re-runs interpreted,
#: so ``kernel_fallbacks`` stays 0; the execute-steady ledger reads it.
CODEGEN_STATS = DEFAULT_REGISTRY.counters("codegen", (
    "kernels_built",
    "builds_declined",
    "build_seconds",
    "kernel_executions",
    "kernel_fallbacks",
    "source_bytes",
))


def _reuse(array):
    """*array* when a ufunc may write its result over it (``out=``),
    else None (the ufunc allocates): only a C-ordered operand is laid out
    as the fresh result would have been."""
    return array if array.flags.c_contiguous else None


class KernelArtifact:
    """One compiled kernel, shareable across threads and sessions."""

    def __init__(self, plan_key, source, constants, report=None):
        self.plan_key = plan_key
        self.source = source
        self.constants = dict(constants)
        self.report = dict(report or {})
        #: What :func:`~repro.codegen.build_kernel` took to emit and
        #: compile it, in seconds; None for a kernel read from a cache.
        self.build_seconds = None
        self.code = compile(source, f"<kernel {plan_key}>", "exec")
        namespace = {
            "_np": np,
            "_bind": _bind,
            "_affine_view": _affine_view,
            "_in_range": _in_range,
            "c_einsum": c_einsum,
            "_reuse": _reuse,
        }
        namespace.update(constants)
        exec(self.code, namespace)
        self._fn = namespace["_kernel"]

    # -- execution ---------------------------------------------------------

    def run(self, inputs=None, params=None, state=None, output_init=None):
        """Raw invocation; returns (outputs, state) dicts. May raise."""
        return self._fn(inputs or {}, params or {}, state or {}, output_init or {})

    def try_execute(self, plan, inputs=None, params=None, state=None,
                    output_init=None):
        """One kernel-tier execution of *plan*, counted on it; returns an
        ExecutionResult. Whatever the kernel raises propagates."""
        outputs, state_out = self.run(inputs, params, state, output_init)
        plan.count_execution()
        CODEGEN_STATS.bump("kernel_executions")
        return ExecutionResult(outputs, state_out, "kernel")


#: The first line of each plan step a kernel prints: the comment opening
#: a variable or a statement, or a constant's binding.
_STEP_START = re.compile(r"    (?:# |_v\d+ = _c\d+  # const )")


def timed_statements(kernel):
    """``(copy, labels, laps)``: a copy of *kernel* that reads the clock
    before each plan step it prints and before it returns.

    After a call of ``copy.run``, ``laps`` holds that call's readings:
    ``labels[n]`` names the statement timed from ``laps[n]`` to
    ``laps[n + 1]``, or is None for a variable or constant step. *kernel*
    itself, cached and served, is left as it is.
    """
    laps, lines, labels = [], [], []
    for line in kernel.source.splitlines():
        start = _STEP_START.match(line)
        if start:
            variable = line.startswith("    # var ") or "  # const " in line
            labels.append(None if variable else line[len("    # "):])
        if start or line.startswith("    return "):
            lines.append("    _lap(_clock())")
        lines.append(line)
    constants = {**kernel.constants, "_lap": laps.append, "_clock": time.perf_counter}
    copy = KernelArtifact(kernel.plan_key, "\n".join(lines) + "\n", constants, kernel.report)
    return copy, labels, laps

"""Compiled kernel artifact: generated source + code object + runtime.

A :class:`KernelArtifact` wraps one emitted kernel function for one
:class:`~repro.srdfg.plan.ExecutionPlan`. It owns

* the generated source (kept for ``repro codegen --dump-source``, the
  disk cache record, and diagnostics),
* the exec'd function object bound to its constant namespace, and
* a free list of scratch-buffer sets (the per-statement transient arena
  and non-f64 transients — statement results never live there), popped
  per execution and pushed back afterwards so concurrent serving workers
  never share a buffer while a single-threaded caller reuses the same
  allocation on every step. A set is only ever allocated for a caller
  that found the list empty, so the list holds as many sets as callers
  have run at once, and none before the first call.

``try_execute`` is the only entry point the plan layer calls: it
returns an :class:`~repro.srdfg.interpreter.ExecutionResult` on
success, lets :class:`~repro.errors.ExecutionError` propagate (those
are semantic errors the interpreter would raise identically), and
converts *any other* failure into a counted fallback by returning
``None`` — the plan then re-executes interpreted. The kernel never
mutates the caller's input/param/state dicts, so re-execution after a
mid-kernel failure is safe.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..errors import ExecutionError
from ..obs import DEFAULT_REGISTRY
from ..srdfg.interpreter import ExecutionResult, _affine_view, _axview

__all__ = ["CODEGEN_STATS", "KernelArtifact"]

#: The ``codegen`` counter group — process-scoped, because kernels are
#: artifacts shared across sessions (an execution has no session to
#: charge). ``kernels_built`` / ``builds_declined`` count whole-plan
#: outcomes (a declined build is a diagnostic, never an error: the plan
#: keeps executing interpreted); ``kernel_fallbacks`` counts executions
#: that started on the kernel and fell back to the interpreter at run time.
CODEGEN_STATS = DEFAULT_REGISTRY.counters("codegen", (
    "kernels_built",
    "builds_declined",
    "build_seconds",
    "kernel_executions",
    "kernel_fallbacks",
    "statements_specialized",
    "statements_fallback",
    "source_bytes",
))


def _reuse(array):
    """*array* when a ufunc may write its result over it (``out=``),
    else None (the ufunc allocates): only a C-ordered operand is laid out
    as the fresh result would have been."""
    return array if array.flags.c_contiguous else None


class KernelArtifact:
    """One compiled kernel, shareable across threads and sessions."""

    def __init__(self, plan_key, source, constants, scratch_specs,
                 report=None):
        self.plan_key = plan_key
        self.source = source
        self.constants = dict(constants)
        self.scratch_specs = tuple(scratch_specs)
        self.report = dict(report or {})
        self.code = compile(source, f"<kernel {plan_key}>", "exec")
        namespace = {
            "_np": np,
            "ExecutionError": ExecutionError,
            "_axview": _axview,
            "_affine_view": _affine_view,
            "_reuse": _reuse,
        }
        namespace.update(constants)
        exec(self.code, namespace)
        self._fn = namespace["_kernel"]
        self._pool = []
        self._pool_lock = threading.Lock()

    # -- execution ---------------------------------------------------------

    def run(self, inputs=None, params=None, state=None, output_init=None):
        """Raw invocation; returns (outputs, state) dicts. May raise."""
        try:
            with self._pool_lock:
                scratch = self._pool.pop()
        except IndexError:
            scratch = [
                np.empty(shape, dtype=dtype)
                for shape, dtype in self.scratch_specs
            ]
        try:
            return self._fn(
                inputs or {}, params or {}, state or {}, output_init or {},
                scratch,
            )
        finally:
            with self._pool_lock:
                self._pool.append(scratch)

    def try_execute(self, plan, inputs=None, params=None, state=None,
                    output_init=None):
        """Kernel-tier execution with transparent interpreter fallback.

        Returns an ExecutionResult, or ``None`` when the kernel declined
        at run time (counted in ``CODEGEN_STATS.kernel_fallbacks``; the
        caller re-runs the interpreted plan). ExecutionError propagates:
        the interpreter would raise the same error, so falling back
        would only mask it more slowly.
        """
        start = time.perf_counter()
        try:
            outputs, state_out = self.run(inputs, params, state, output_init)
        except ExecutionError:
            raise
        except Exception:
            CODEGEN_STATS.bump(kernel_fallbacks=1)
            return None
        seconds = time.perf_counter() - start
        result = ExecutionResult(outputs, state_out, tier="kernel")
        with plan._counters_lock:
            plan.counters.executions += 1
            plan.counters.seconds += seconds
            if plan.counters.first_seconds is None:
                plan.counters.first_seconds = seconds
        CODEGEN_STATS.bump(kernel_executions=1)
        return result

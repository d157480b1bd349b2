"""Compiled kernel artifact: generated source + code object + runtime.

A :class:`KernelArtifact` wraps one emitted kernel function for one
:class:`~repro.srdfg.plan.ExecutionPlan`. It owns

* the generated source (kept for ``repro codegen --dump-source``, the
  disk cache record, and diagnostics),
* the exec'd function object bound to its constant namespace, and
* a pool of preallocated scratch-buffer sets, popped per execution and
  pushed back afterwards so concurrent serving workers never share a
  buffer while a single-threaded caller reuses the same allocation on
  every step.

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

import numpy as np

from ..errors import ExecutionError
from ..srdfg.interpreter import ExecutionResult, _axview
from .stats import CODEGEN_STATS

__all__ = ["KernelArtifact"]


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
        }
        namespace.update(constants)
        exec(self.code, namespace)
        self._fn = namespace["_kernel"]
        self._pool = []
        self._pool_lock = threading.Lock()

    # -- scratch pool ------------------------------------------------------

    def _acquire_scratch(self):
        with self._pool_lock:
            if self._pool:
                return self._pool.pop()
        return [
            np.empty(shape, dtype=dtype)
            for shape, dtype in self.scratch_specs
        ]

    def _release_scratch(self, scratch):
        with self._pool_lock:
            if len(self._pool) < 8:
                self._pool.append(scratch)

    # -- execution ---------------------------------------------------------

    def run(self, inputs=None, params=None, state=None, output_init=None):
        """Raw invocation; returns (outputs, state) dicts. May raise."""
        scratch = self._acquire_scratch()
        try:
            return self._fn(
                inputs or {}, params or {}, state or {}, output_init or {},
                scratch,
            )
        finally:
            self._release_scratch(scratch)

    def try_execute(self, plan, inputs=None, params=None, state=None,
                    output_init=None):
        """Kernel-tier execution with transparent interpreter fallback.

        Returns an ExecutionResult, or ``None`` when the kernel declined
        at run time (counted in ``CODEGEN_STATS.kernel_fallbacks``; the
        caller re-runs the interpreted plan). ExecutionError propagates:
        the interpreter would raise the same error, so falling back
        would only mask it more slowly.
        """
        import time

        start = time.perf_counter()
        try:
            outputs, state_out = self.run(inputs, params, state, output_init)
        except ExecutionError:
            raise
        except Exception:
            CODEGEN_STATS.bump(kernel_fallbacks=1)
            return None
        seconds = time.perf_counter() - start
        result = ExecutionResult()
        result.outputs.update(outputs)
        result.state.update(state_out)
        with plan._counters_lock:
            plan.counters.executions += 1
            plan.counters.seconds += seconds
            if plan.counters.first_seconds is None:
                plan.counters.first_seconds = seconds
        CODEGEN_STATS.bump(kernel_executions=1)
        return result

    def describe(self):
        return {
            "plan_key": self.plan_key,
            "source_bytes": len(self.source),
            "scratch_buffers": len(self.scratch_specs),
            "report": dict(self.report),
        }

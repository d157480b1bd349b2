"""Exception hierarchy for the PolyMath reproduction stack.

Every user-facing error raised by the stack derives from
:class:`PolyMathError` so applications can catch one type. The subclasses
mirror the stack's phases: lexing/parsing, semantic analysis, srDFG
construction, pass execution, lowering, and target compilation/simulation.
"""

from __future__ import annotations


class PolyMathError(Exception):
    """Base class for all errors raised by the repro stack."""


class PMLangSyntaxError(PolyMathError):
    """Lexical or grammatical error in a PMLang source program.

    Carries the source line and column where the problem was detected so
    tooling can point at the offending token.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        #: The bare message, without the location suffix ``str()`` adds —
        #: diagnostics render the location themselves.
        self.message = message
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(f"{message}{location}")


class PMLangSemanticError(PolyMathError):
    """Well-formed program that violates PMLang's static rules.

    Examples: writing to an ``input`` argument, reading an ``output``,
    instantiating an unknown component, or arity mismatches.
    """


class ShapeError(PolyMathError):
    """Shapes could not be bound or unified.

    Raised at srDFG build time when index ranges disagree, and at serving
    admission when a request's dims or input/state arrays do not match
    what the workload declares — *before* a worker is occupied. Carries
    ``name`` (the offending dim or tensor), ``expected``, and ``got`` so
    clients can render "expected (3, 30), got (4, 30)" without parsing
    the message; all three default to ``None`` for build-time raises.
    """

    def __init__(self, message, name=None, expected=None, got=None):
        super().__init__(message)
        self.name = name
        self.expected = tuple(expected) if expected is not None else None
        self.got = tuple(got) if got is not None else None

    @classmethod
    def mismatch(cls, name, expected, got, kind="input"):
        """A descriptive mismatch error for tensor *name*."""
        expected = tuple(expected)
        got = tuple(got)
        return cls(
            f"{kind} {name!r} has shape {got}, expected {expected}",
            name=name,
            expected=expected,
            got=got,
        )


class GraphError(PolyMathError):
    """Structural violation of srDFG invariants (dangling edges, cycles)."""


class ExecutionError(PolyMathError):
    """The srDFG interpreter was given bad values or an unsupported form."""


class RewriteError(PolyMathError):
    """The declarative rewrite engine diverged or a rule misbehaved.

    Raised when a rule set does not reach a fixpoint within the engine's
    bound on rewrites at one position or on sweeps of one graph — which
    means its rules break their termination measure (e.g. two rules that
    undo each other) — when a rule's own code raises, when a pipeline's
    rule set leaves an invalid graph, or when a rule set declares an
    unknown sweep strategy. The message names the rule set, and the rule
    where one is to blame.
    """


class LoweringError(PolyMathError):
    """Algorithm 1 could not reduce a node to target-supported operations."""


class TargetError(PolyMathError):
    """Accelerator translation (Algorithm 2) or simulation failed."""


class WorkloadError(PolyMathError):
    """A workload was misconfigured or asked for an unknown benchmark."""


class ServeError(PolyMathError):
    """The serving layer rejected or failed a request."""


class QueueFullError(ServeError):
    """Admission queue at capacity: explicit backpressure.

    Carries ``retry_after`` (seconds), the server's estimate of when a
    slot frees up (queue depth x recent mean service time / workers), so
    well-behaved clients back off instead of hammering the queue.

    A rejection from a *closed* scheduler sets ``closed=True`` and
    ``retry_after=None``: there is no point retrying — the server is
    shutting down, not momentarily busy. (Historically these carried
    ``retry_after=0.0``, which clients read as "retry immediately" and
    spun against the shutdown.)
    """

    def __init__(self, message, retry_after=0.0, closed=False):
        super().__init__(message)
        self.closed = closed
        self.retry_after = None if closed else retry_after


class DeadlineExceededError(ServeError):
    """A request's deadline passed before it could execute.

    Raised at admission when the deadline is already spent, and used as
    the response's ``error_kind`` when a queued request expires before a
    worker reaches its execute phase. An expired request is *never*
    executed — rejecting late work is the service's deadline contract.
    """


class CircuitOpenError(ServeError):
    """A workload's circuit breaker is open: the request was shed.

    Carries ``retry_after`` (seconds until the breaker's cooldown elapses
    and a half-open probe is admitted).
    """

    def __init__(self, message, retry_after=0.0):
        super().__init__(message)
        self.retry_after = retry_after


class CancelledError(ServeError):
    """The client cancelled the request before it executed."""


class WorkerCrashedError(ServeError):
    """A worker process died mid-request (process pool only).

    The pool respawns the slot, so subsequent requests are unaffected;
    the in-flight request is answered with this error instead of
    hanging, and the crash is counted in ``worker_crashes``.
    """


class RuntimeFailure(PolyMathError):
    """The fault-tolerant runtime exhausted its recovery options.

    Carries the partial :class:`~repro.runtime.report.RunReport` (as
    ``report``) so callers can inspect the event stream leading up to the
    abort.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report

"""repro.serve — the concurrent compile-and-execute service.

Turns the stack into a multi-tenant server: a bounded priority
:class:`Scheduler` with explicit backpressure, a thread-backed
:class:`WorkerPool`, one shared :class:`~repro.driver.CompilerSession`
whose artifact cache and plan tier coalesce identical requests into a
single compile, and per-request :class:`RequestMetrics` rolled up into a
:class:`ServeReport` (throughput, p50/p95/p99 latency, provenance,
counter-based plan-reuse evidence). See the "Serving layer" section of
``docs/ARCHITECTURE.md``.
"""

from ..errors import (
    CancelledError,
    CircuitOpenError,
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ShapeError,
    WorkerCrashedError,
)
from .breaker import BreakerBoard, CircuitBreaker
from .executor import LocalExecutor
from .loadgen import DEFAULT_MIX, replay, run_serial, synth_trace
from .metrics import RequestMetrics, ServeReport, percentile
from .pool import WorkerPool
from .procpool import ProcessWorkerSet
from .session import Session
from .request import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    Outcome,
    Request,
    Response,
    result_signature,
)
from .scheduler import Scheduler
from .server import Server, Ticket

__all__ = [
    "BreakerBoard",
    "CancelledError",
    "CircuitBreaker",
    "CircuitOpenError",
    "DEFAULT_MIX",
    "DeadlineExceededError",
    "LocalExecutor",
    "Outcome",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "ProcessWorkerSet",
    "QueueFullError",
    "Request",
    "RequestMetrics",
    "Response",
    "Scheduler",
    "ServeError",
    "ServeReport",
    "Server",
    "Session",
    "ShapeError",
    "Ticket",
    "WorkerCrashedError",
    "WorkerPool",
    "percentile",
    "replay",
    "result_signature",
    "run_serial",
    "synth_trace",
]

"""Requests and responses of the serving layer.

A :class:`Request` names a workload and a target configuration (precision,
fault-injection plan, recovery budget) plus how many invocations to run;
the :class:`~repro.serve.server.Server` compiles it (coalescing with
identical in-flight requests), plans it, executes it, and answers with a
:class:`Response` carrying the final outputs, a content signature for
cheap bit-identity comparison, and the request's
:class:`~repro.serve.metrics.RequestMetrics`.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

#: Priority levels: lower value dispatches first.
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

PRIORITY_NAMES = {
    PRIORITY_HIGH: "high",
    PRIORITY_NORMAL: "normal",
    PRIORITY_LOW: "low",
}

_REQUEST_IDS = itertools.count(1)


@dataclass
class Request:
    """One unit of service: compile workload X for config Y, run N steps."""

    workload: str
    steps: int = 1
    precision: str = "f64"
    priority: int = PRIORITY_NORMAL
    #: Fault specs (``kind[@domain][:p=][:at=][:n=]`` strings) — when
    #: non-empty the request executes through the fault-tolerant
    #: HostManager instead of the bare execution plan.
    inject: Tuple[str, ...] = ()
    #: Fault-plan RNG seed (only meaningful with ``inject``).
    seed: int = 0
    #: Per-request recovery budget (HostManager policy passthrough).
    retries: int = 3
    host_fallback: bool = True
    #: Seconds from submission until the response is worthless. The
    #: server checks it at admission and again before executing; an
    #: expired request is answered with ``DeadlineExceededError`` and is
    #: never executed. None means no deadline.
    deadline_s: Optional[float] = None
    #: Symbolic-dim overrides (``{"n": 1024}``): the server specializes
    #: the workload at these extents (rounded up by its bucket policy)
    #: and serves the request from the matching shape bucket. Validated
    #: at admission against the workload's declared ``symbolic_dims``.
    dims: Optional[Dict[str, int]] = None
    #: First invocation index passed to ``workload.inputs``: lets a
    #: sequence of one-shot requests replay steps k, k+1, ... of a
    #: stateful trajectory (the bit-identity twin of a session).
    step_offset: int = 0
    #: Client-supplied starting ``state`` arrays (defaults to the
    #: workload's own). Shape-checked at admission.
    initial_state: Optional[Dict] = None
    #: Assigned at submission; unique within one server.
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"request needs >= 1 step, got {self.steps}")
        if self.step_offset < 0:
            raise ValueError(
                f"step_offset must be >= 0, got {self.step_offset}"
            )
        self.inject = tuple(self.inject)
        if self.dims is not None:
            self.dims = dict(self.dims)

    @property
    def priority_name(self):
        return PRIORITY_NAMES.get(self.priority, str(self.priority))

    def describe(self):
        tags = [self.workload, f"x{self.steps}", self.precision,
                self.priority_name]
        if self.dims:
            tags.append(
                ",".join(f"{k}={v}" for k, v in sorted(self.dims.items()))
            )
        if self.inject:
            tags.append("+".join(self.inject))
        if self.deadline_s is not None:
            tags.append(f"dl={self.deadline_s:g}s")
        return " ".join(tags)


def result_signature(outputs):
    """sha256 over the outputs' names, dtypes, shapes, and exact bytes.

    Two runs are bit-identical iff their signatures match — the serve
    tests and the ledger compare concurrent runs against serial
    references this way without shipping arrays around.
    """
    digest = hashlib.sha256()
    for name in sorted(outputs):
        array = np.ascontiguousarray(np.asarray(outputs[name]))
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(repr(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


@dataclass
class Outcome:
    """What one run of the request body produced.

    The one record that crosses from the body to its caller: the thread
    pool applies it directly and a worker child sends it up the pipe
    as-is (everything in it pickles). An error leaves the segments the
    body got through filled in.
    """

    compile_seconds: float = 0.0
    plan_seconds: float = 0.0
    execute_seconds: float = 0.0
    compile_provenance: str = ""
    plan_provenance: str = ""
    kernel_provenance: str = ""
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    state: Dict[str, np.ndarray] = field(default_factory=dict)
    signature: str = ""
    error: Optional[str] = None
    error_kind: Optional[str] = None

    def fail(self, exc):
        """Classify *exc* as this outcome's error; returns self."""
        self.error = str(exc)
        self.error_kind = type(exc).__name__
        return self

    def apply(self, metrics, response):
        """Copy every field onto whichever of *response* (the body) and
        *metrics* (segment seconds and provenances) declares it."""
        for name, value in vars(self).items():
            setattr(response if hasattr(response, name) else metrics, name, value)


@dataclass
class Response:
    """The server's answer to one request."""

    request: Request
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    state: Dict[str, np.ndarray] = field(default_factory=dict)
    #: sha256 of ``outputs`` (see :func:`result_signature`).
    signature: str = ""
    error: Optional[str] = None
    error_kind: Optional[str] = None
    metrics: Optional[object] = None

    @property
    def ok(self):
        return self.error is None

    def to_dict(self):
        payload = {
            "request_id": self.request.request_id,
            "workload": self.request.workload,
            "steps": self.request.steps,
            "precision": self.request.precision,
            "priority": self.request.priority_name,
            "ok": self.ok,
            "signature": self.signature,
        }
        if self.error is not None:
            payload["error"] = self.error
            payload["error_kind"] = self.error_kind
        if self.metrics is not None:
            payload["metrics"] = self.metrics.to_dict()
        return payload

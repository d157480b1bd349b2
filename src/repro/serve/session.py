"""Long-lived stateful serving sessions.

A :class:`Session` is the serving primitive for stateful workloads — an
MPC control loop, a streaming FFT, incremental graph updates. The compile
and plan lookups are not what it saves: every request, one-shot or step,
reads the same bound :class:`~repro.serve.executor.Config`. What a
session adds is the state a session-less server does not keep, which
otherwise forces a stateful client to thread ``state`` itself or
re-submit ever-growing prefixes. A session:

* opens a workload once (optionally at a custom shape binding, rounded
  by the server's bucket policy into a shape bucket) and keeps that
  config,
* retains inter-step ``state`` server-side in one
  :class:`~repro.workloads.Trajectory`, so each step is one plan
  invocation against live state,
* still submits every step through the scheduler, so the existing
  deadline / cancellation / circuit-breaker machinery applies per step,
* tags each step's spans with a per-session ``track``, so the whole
  session renders as a single lane in the Chrome trace regardless of
  which workers executed the steps.

Steps are strictly sequential (state threading requires it): submitting
a step while the previous one is outstanding raises
:class:`~repro.errors.ServeError`. A step that expires, is cancelled, or
fails does **not** advance the session's state or step index — the
client may retry it.

Bit-identity contract: a session run over N steps produces exactly the
outputs of N one-shot requests that thread ``state``/``step_offset``
client-side at the same binding — both run the same request body over
the same config.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional

from ..errors import ServeError
from ..workloads import Trajectory
from .metrics import percentile
from .request import PRIORITY_NORMAL, Request

__all__ = ["Session"]

_SESSION_IDS = itertools.count(1)


class Session:
    """One open stateful workload on a :class:`~repro.serve.server.Server`.

    Created via :meth:`Server.open_session`, not directly. Usable as a
    context manager (``with server.open_session("MobileRobot") as s:``).
    """

    def __init__(
        self,
        server,
        config,
        priority: int = PRIORITY_NORMAL,
        deadline_s: Optional[float] = None,
    ):
        self.server = server
        #: The :class:`~repro.serve.executor.Config` this session was
        #: opened on: the resolved (possibly dim-specialized) workload and,
        #: once any request has bound it, the shared ``(app, plan)``.
        self.config = config
        #: Registry name of the workload.
        self.name = config.key[0]
        self.priority = priority
        #: Default per-step deadline (overridable per step).
        self.deadline_s = deadline_s
        self.session_id = next(_SESSION_IDS)
        #: Export lane: every span of this session lands on this track.
        self.track = f"session {self.session_id} ({self.name})"
        self.opened_at = time.perf_counter()
        self.closed = False

        #: The retained state thread, owned by the worker executing the
        #: current step (steps are sequential, so no two workers touch it
        #: concurrently). It advances only when a step's execution
        #: returns — an expired, cancelled or failed step can be retried.
        self.trajectory = Trajectory(config.workload)
        self.step_seconds: List[float] = []

        self._lock = threading.Lock()
        self._outstanding = None  # the in-flight step's Ticket, if any

    # -- client surface ------------------------------------------------------

    def dims(self) -> Dict[str, int]:
        """The (bucketed) binding this session is specialized at."""
        return self.config.binding.as_dict()

    def submit_step(self, inputs=None, deadline_s="default"):
        """Submit the next step; returns its Ticket (non-blocking).

        *inputs* overrides the workload's own input generator for this
        step; ``Server.submit`` shape-checks it at admission, so a
        mismatch raises :class:`~repro.errors.ShapeError` before any
        worker is occupied. Only one step may be outstanding; a second
        submission before the first finishes raises :class:`ServeError`.
        """
        deadline = self.deadline_s if deadline_s == "default" else deadline_s
        request = Request(
            workload=self.name,
            steps=1,
            precision=self.config.precision,
            priority=self.priority,
            deadline_s=deadline,
            dims=self.dims() or None,
        )
        # Check-then-submit is one critical section: two clients racing
        # here must not both find the slot free. A refused admission
        # raises out with the slot still free.
        with self._lock:
            if self.closed:
                raise ServeError(
                    f"session {self.session_id} ({self.name}) is closed"
                )
            if self._outstanding is not None and not self._outstanding.done():
                raise ServeError(
                    f"session {self.session_id} ({self.name}) already has "
                    "an outstanding step; sessions are sequential"
                )
            self._outstanding = self.server.submit(
                request, _session=self, _inputs=inputs
            )
            return self._outstanding

    def step(self, inputs=None, deadline_s="default", timeout=None):
        """Run one step synchronously; returns its Response."""
        ticket = self.submit_step(inputs=inputs, deadline_s=deadline_s)
        return ticket.wait(timeout=timeout)

    def close(self):
        """Close the session; further steps are refused.

        The retained state stays readable (for summaries and tests);
        returns :meth:`summary`.
        """
        with self._lock:
            self.closed = True
        self.server.tracer.instant(
            "session-close",
            category="serve",
            track=self.track,
            session=self.session_id,
            steps=self.steps_done,
        )
        return self.summary()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    @property
    def steps_done(self):
        """Steps committed so far (the trajectory's next index)."""
        return self.trajectory.index

    # -- reporting -----------------------------------------------------------

    def summary(self):
        binding = self.config.binding
        return {
            "session_id": self.session_id,
            "workload": self.name,
            "precision": self.config.precision,
            "dims": self.dims(),
            "bucket": binding.fingerprint()[:12] if binding else None,
            "steps": self.steps_done,
            "plan_provenance": self.config.plan_provenance,
            "closed": self.closed,
            "step_seconds": {
                "mean": (
                    sum(self.step_seconds) / len(self.step_seconds)
                    if self.step_seconds
                    else 0.0
                ),
                "p50": percentile(self.step_seconds, 0.50),
                "p99": percentile(self.step_seconds, 0.99),
            },
        }

    def __repr__(self):
        return (
            f"Session({self.session_id}, {self.name!r}, "
            f"steps={self.steps_done}, "
            f"{'closed' if self.closed else 'open'})"
        )

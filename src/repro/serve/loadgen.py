"""Synthetic load generation and trace replay for the serving layer.

``synth_trace`` builds a deterministic mixed-workload request trace (the
same seed always yields the same trace, so concurrent runs can be
compared bit-for-bit against serial references); ``replay`` pushes a
trace through a running :class:`~repro.serve.server.Server`, honouring
backpressure by waiting out ``retry_after`` hints; ``run_serial``
executes the same trace one-request-at-a-time on a fresh single-worker
server — the baseline of the bit-identity checks.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional

from ..errors import CircuitOpenError, DeadlineExceededError, QueueFullError
from .request import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    Request,
)

#: The default mixed trace: control (MPC), data analytics (linear
#: regression), and two DSP transforms — four distinct compile+plan
#: configurations with per-invocation costs light enough for CI smoke.
DEFAULT_MIX = ("MobileRobot", "ElecUse", "FFT-8192", "DCT-1024")


def synth_trace(
    requests=32,
    workloads=DEFAULT_MIX,
    seed=0,
    max_steps=4,
    precision="f64",
    deadline_s=None,
    fault_rate=0.0,
    fault_specs=("transient:p=0.5:n=2",),
):
    """A deterministic mixed-workload trace of *requests* requests.

    Workloads round-robin with jitter, step counts and priorities draw
    from a seeded RNG: roughly 70% normal / 15% high / 15% low priority,
    1..*max_steps* invocations each. *deadline_s* stamps every request
    with that deadline; *fault_rate* makes roughly that fraction of
    requests fault-injecting (with *fault_specs* and a per-request seed),
    routing them through the recovering HostManager.
    """
    if not workloads:
        raise ValueError("synth_trace needs at least one workload")
    rng = random.Random(seed)
    # Fault coins and per-request seeds draw from a separate derived
    # stream so the workload/steps/priority sequence for a given seed is
    # identical whether or not fault injection is enabled (and identical
    # to traces generated before these fields existed).
    aux = random.Random((seed << 16) ^ 0xA5A5)
    trace: List[Request] = []
    for index in range(requests):
        draw = rng.random()
        if draw < 0.15:
            priority = PRIORITY_HIGH
        elif draw < 0.30:
            priority = PRIORITY_LOW
        else:
            priority = PRIORITY_NORMAL
        inject = ()
        if fault_rate > 0 and aux.random() < fault_rate:
            inject = tuple(fault_specs)
        trace.append(
            Request(
                workload=workloads[rng.randrange(len(workloads))],
                steps=rng.randint(1, max(1, max_steps)),
                precision=precision,
                priority=priority,
                deadline_s=deadline_s,
                inject=inject,
                seed=aux.randrange(1 << 16),
            )
        )
    return trace


def replay(server, trace, retry=True, timeout=120.0):
    """Replay *trace* on a started *server*; returns (responses, retries).

    Responses come back in trace order. A :class:`QueueFullError` is
    handled the way a well-behaved client would: wait the server's
    ``retry_after`` hint and resubmit (``retry=True``), or give up on
    that request (``retry=False`` — it yields a None response slot). A
    :class:`CircuitOpenError` or admission-time
    :class:`DeadlineExceededError` always yields a None slot (the server
    already counted the request as shed/expired — resubmitting shed load
    is exactly what a breaker exists to stop). A ticket whose ``wait``
    times out is abandoned (so the :class:`ServeReport` counts it as
    ``timed_out``, not silently dropped) and yields a None slot — unless
    the response landed in the race window, in which case it is used.

    A *closed* rejection (``exc.closed`` / ``retry_after=None``) is
    never retried even with ``retry=True``: the server is shutting
    down, and this request — plus everything after it in the trace —
    yields a None slot instead of spinning against the shutdown.
    """
    tickets = []
    backpressure_retries = 0
    for request in trace:
        while True:
            try:
                tickets.append(server.submit(request))
                break
            except QueueFullError as exc:
                if exc.closed or exc.retry_after is None or not retry:
                    tickets.append(None)
                    break
                backpressure_retries += 1
                time.sleep(max(exc.retry_after, 0.001))
            except (CircuitOpenError, DeadlineExceededError):
                tickets.append(None)
                break
    responses = []
    for ticket in tickets:
        if ticket is None:
            responses.append(None)
            continue
        try:
            responses.append(ticket.wait(timeout=timeout))
        except TimeoutError:
            if ticket.abandon():
                responses.append(None)
            else:
                # The response landed between the wait timeout and the
                # abandon — use it rather than discarding real work.
                responses.append(ticket.response)
    return responses, backpressure_retries


def run_serial(trace, session=None, timeout: Optional[float] = 120.0):
    """Execute *trace* strictly one request at a time.

    Uses a fresh single-worker server (same code path as the concurrent
    run, so responses are directly comparable) and waits for each
    response before submitting the next — the definition of a serial
    baseline. Returns ``(responses, report)``.
    """
    from .server import Server

    server = Server(
        session=session,
        workers=1,
        queue_capacity=max(4, len(list(trace))),
    )
    responses = []
    with server:
        for request in trace:
            responses.append(server.request(request, timeout=timeout))
    return responses, server.report()


"""Per-request and aggregate metrics for the serving layer.

Every request's life is measured in four segments — queue wait, compile,
plan, execute — plus provenance for the compile and plan phases (did this
request build, hit the cache, or coalesce onto another request's work?),
the tier that executed it, and the site (parent or child process) its
body ran in.
:class:`ServeReport` folds the finished :class:`RequestMetrics` stream
into the numbers a service operator actually watches: throughput,
p50/p95/p99 latency, queue-wait distribution, hit/coalesce rates, and the
counter-based plan-reuse evidence (``plans_built`` vs distinct
configurations served).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


def percentile(values, fraction):
    """Nearest-rank percentile of *values* (0 < fraction <= 1)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(round(fraction * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class RequestMetrics:
    """Timing and provenance of one request's trip through the server."""

    request_id: int
    workload: str
    priority: str = "normal"
    steps: int = 0
    #: perf_counter timestamps, filled in as the request advances.
    enqueued_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    compile_seconds: float = 0.0
    plan_seconds: float = 0.0
    execute_seconds: float = 0.0
    #: "built" | "cache" | "coalesced" for the lookups of a request that
    #: bound its config; "cache" (a session step: "session") with zero
    #: seconds when it found the config bound (empty when the phase
    #: never ran).
    compile_provenance: str = ""
    plan_provenance: str = ""
    #: The tier that executed it: "kernel" | "interpreted" (the emitter
    #: declined its plan); empty when the request never executed.
    kernel_provenance: str = ""
    #: Minor page faults the executing thread took over the step loop
    #: (its pages faulted in, mostly buffers the allocator had handed
    #: back to the kernel); 0 where the platform does not count them.
    minor_faults: int = 0
    #: Where the body ran: "parent" (thread mode, a session step, or a
    #: process-mode request cheaper than the pipe) | "child" (a worker
    #: process); empty when the request never executed.
    site: str = ""
    worker: str = ""
    ok: bool = True
    #: "completed" | "failed" | "expired" | "cancelled" | "timed_out"
    #: (the server's finish-time classification; empty until finished).
    outcome: str = ""

    @property
    def queue_seconds(self):
        return max(0.0, self.started_at - self.enqueued_at)

    @property
    def service_seconds(self):
        return max(0.0, self.finished_at - self.started_at)

    @property
    def total_seconds(self):
        """Submission-to-response latency (what the client experiences)."""
        return max(0.0, self.finished_at - self.enqueued_at)

    def to_dict(self):
        return {
            "request_id": self.request_id,
            "workload": self.workload,
            "priority": self.priority,
            "steps": self.steps,
            "worker": self.worker,
            "ok": self.ok,
            "outcome": self.outcome,
            "queue_seconds": self.queue_seconds,
            "compile_seconds": self.compile_seconds,
            "plan_seconds": self.plan_seconds,
            "execute_seconds": self.execute_seconds,
            "service_seconds": self.service_seconds,
            "total_seconds": self.total_seconds,
            "compile_provenance": self.compile_provenance,
            "plan_provenance": self.plan_provenance,
            "kernel_provenance": self.kernel_provenance,
            "minor_faults": self.minor_faults,
            "site": self.site,
        }


@dataclass
class ServeReport:
    """Aggregate view of one serving run."""

    workers: int = 0
    #: "thread" or "process": which pool backend ran the request bodies.
    pool: str = "thread"
    #: Worker processes that reported their counters back at retirement
    #: (process mode; 0 in thread mode).
    processes: int = 0
    #: Worker processes that died mid-request and were respawned.
    worker_crashes: int = 0
    queue_capacity: int = 0
    wall_seconds: float = 0.0
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    #: Deadline expirations (at admission or before execute) — an
    #: expired request is never executed.
    expired: int = 0
    #: Client cancellations honoured before execution.
    cancelled: int = 0
    #: Requests shed at admission by an open circuit breaker.
    breaker_rejected: int = 0
    #: Tickets the client abandoned after ``wait`` timed out (the server
    #: still finishes them; they are counted here, not as completed).
    timed_out: int = 0
    #: Requests refused at admission with a ShapeError (bad dims or
    #: mismatched input/state arrays). Never enqueued and never counted
    #: as submitted, so they sit outside the conservation identity.
    invalid: int = 0
    #: Per-session summaries (id, dims, bucket, steps, step latency) for
    #: every session opened on the server.
    sessions: List[dict] = field(default_factory=list)
    #: Per-workload circuit-breaker counters at report time.
    breakers: Dict[str, Dict[str, object]] = field(default_factory=dict)
    queue_peak: int = 0
    #: Counter-based plan-reuse evidence (``plan`` group delta vs expectation).
    plans_built: int = 0
    statements_planned: int = 0
    distinct_configs: int = 0
    expected_plans: int = 0
    expected_statements: int = 0
    provenance: Dict[str, Dict[str, int]] = field(default_factory=dict)
    requests: List[RequestMetrics] = field(default_factory=list)
    #: The shared CompilerSession's stats_dict() (cache + stage report);
    #: its ``plans`` also list each retired worker process's, every plan
    #: tagged with its ``worker`` (``"parent"`` for the session's own).
    session: Optional[dict] = None

    # -- derived -----------------------------------------------------------

    @property
    def total(self):
        return self.completed + self.failed

    @property
    def accounted(self):
        """Every submission lands in exactly one bucket."""
        return (
            self.completed
            + self.failed
            + self.rejected
            + self.expired
            + self.cancelled
            + self.breaker_rejected
            + self.timed_out
        )

    @property
    def conservation_ok(self):
        """True when no request was lost or double-counted."""
        return self.accounted == self.submitted

    @property
    def throughput(self):
        """Completed requests per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    def _latencies(self):
        return [m.total_seconds for m in self.requests if m.ok]

    @property
    def p50_seconds(self):
        return percentile(self._latencies(), 0.50)

    @property
    def p95_seconds(self):
        return percentile(self._latencies(), 0.95)

    @property
    def p99_seconds(self):
        return percentile(self._latencies(), 0.99)

    @property
    def mean_queue_seconds(self):
        waits = [m.queue_seconds for m in self.requests]
        return sum(waits) / len(waits) if waits else 0.0

    @property
    def max_queue_seconds(self):
        waits = [m.queue_seconds for m in self.requests]
        return max(waits) if waits else 0.0

    @property
    def plan_reuse_ok(self):
        """True when nothing was planned beyond the distinct configs served."""
        return (
            self.plans_built == self.expected_plans
            and self.statements_planned == self.expected_statements
        )

    def provenance_counts(self, phase):
        """``{"built": n, "cache": n, "coalesced": n}`` for one phase."""
        return dict(self.provenance.get(phase, {}))

    # -- output ------------------------------------------------------------

    def to_dict(self):
        return {
            "workers": self.workers,
            "pool": self.pool,
            "processes": self.processes,
            "worker_crashes": self.worker_crashes,
            "queue_capacity": self.queue_capacity,
            "wall_seconds": self.wall_seconds,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "expired": self.expired,
            "cancelled": self.cancelled,
            "breaker_rejected": self.breaker_rejected,
            "timed_out": self.timed_out,
            "invalid": self.invalid,
            "conservation_ok": self.conservation_ok,
            "sessions": [dict(summary) for summary in self.sessions],
            "breakers": {
                name: dict(counts)
                for name, counts in sorted(self.breakers.items())
            },
            "queue_peak": self.queue_peak,
            "throughput_rps": self.throughput,
            "latency": {
                "p50_seconds": self.p50_seconds,
                "p95_seconds": self.p95_seconds,
                "p99_seconds": self.p99_seconds,
                "mean_queue_seconds": self.mean_queue_seconds,
                "max_queue_seconds": self.max_queue_seconds,
            },
            "plan_reuse": {
                "plans_built": self.plans_built,
                "statements_planned": self.statements_planned,
                "distinct_configs": self.distinct_configs,
                "expected_plans": self.expected_plans,
                "expected_statements": self.expected_statements,
                "ok": self.plan_reuse_ok,
            },
            "provenance": {
                phase: dict(counts)
                for phase, counts in sorted(self.provenance.items())
            },
            "requests": [m.to_dict() for m in self.requests],
            "session": self.session,
        }

    def render(self):
        lines = [
            f"serve report: {self.completed} completed, {self.failed} "
            f"failed, {self.rejected} rejected "
            f"({self.workers} {self.pool} worker(s), queue capacity "
            f"{self.queue_capacity}, peak depth {self.queue_peak})"
        ]
        if self.pool == "process":
            lines.append(
                f"  processes: {self.processes} reported counters, "
                f"{self.worker_crashes} crash(es) respawned"
            )
        if self.expired or self.cancelled or self.breaker_rejected or self.timed_out:
            lines.append(
                f"  resilience: {self.expired} expired, {self.cancelled} "
                f"cancelled, {self.breaker_rejected} breaker-rejected, "
                f"{self.timed_out} timed out"
            )
        if self.invalid:
            lines.append(
                f"  admission: {self.invalid} refused with ShapeError "
                "(never enqueued)"
            )
        if self.submitted:
            verdict = "ok" if self.conservation_ok else "VIOLATED"
            lines.append(
                f"  accounting {verdict}: {self.accounted} accounted of "
                f"{self.submitted} submitted"
            )
        for name in sorted(self.breakers):
            counts = self.breakers[name]
            if counts.get("opened"):
                lines.append(
                    f"  breaker {name}: {counts['state']}, opened "
                    f"{counts['opened']}x, shed {counts['rejected']}, "
                    f"probes {counts['probes']}"
                )
        lines.append(
            f"  wall {self.wall_seconds:.3f} s, throughput "
            f"{self.throughput:.1f} req/s"
        )
        lines.append(
            f"  latency p50 {self.p50_seconds * 1e3:.1f} ms, "
            f"p95 {self.p95_seconds * 1e3:.1f} ms, "
            f"p99 {self.p99_seconds * 1e3:.1f} ms; queue wait mean "
            f"{self.mean_queue_seconds * 1e3:.1f} ms, max "
            f"{self.max_queue_seconds * 1e3:.1f} ms"
        )
        for phase in ("compile", "plan", "execute", "site"):
            counts = self.provenance_counts(phase)
            if counts:
                rendered = ", ".join(
                    f"{count} {kind}" for kind, count in sorted(counts.items())
                )
                lines.append(f"  {phase}: {rendered}")
        verdict = "ok" if self.plan_reuse_ok else "VIOLATED"
        lines.append(
            f"  plan reuse {verdict}: {self.plans_built} graph plan(s) / "
            f"{self.statements_planned} statement plan(s) built for "
            f"{self.distinct_configs} distinct (workload, config) pair(s) "
            f"(expected {self.expected_plans} / {self.expected_statements})"
        )
        if self.sessions:
            lines.append(f"  sessions: {len(self.sessions)} opened")
            for info in self.sessions:
                dims = ",".join(
                    f"{k}={v}"
                    for k, v in sorted(info.get("dims", {}).items())
                )
                step = info.get("step_seconds", {})
                lines.append(
                    f"    session {info['session_id']} {info['workload']}"
                    + (f" [{dims}]" if dims else "")
                    + f": {info['steps']} step(s), plan "
                    + (info.get("plan_provenance") or "unbound")
                    + f", step p50 {step.get('p50', 0.0) * 1e3:.2f} ms"
                )
        by_workload: Dict[str, List[RequestMetrics]] = {}
        for metric in self.requests:
            by_workload.setdefault(metric.workload, []).append(metric)
        for name in sorted(by_workload):
            group = [m for m in by_workload[name] if m.ok]
            if not group:
                continue
            lines.append(
                f"    {name:15s} {len(group):3d} req  p50 "
                f"{percentile([m.total_seconds for m in group], 0.5) * 1e3:8.1f} ms  "
                f"exec {sum(m.execute_seconds for m in group) * 1e3:8.1f} ms total  "
                f"{sum(m.minor_faults for m in group) / len(group):8.0f} faults/req"
            )
        return "\n".join(lines)

"""The fault-tolerant host manager (§V-A3, made executable).

:class:`HostManager` walks the priced schedule of :mod:`repro.hw.soc` —
the segments :func:`~repro.hw.soc.schedule` orders, each unit costed by
:meth:`~repro.hw.soc.SoCRuntime.priced` — stage by stage as discrete
dispatch events, and adds only what can go wrong: a seeded
:class:`~repro.runtime.faults.FaultPlan` injects stalls, crashes,
transient compute errors, and corrupted or dropped transfers, and a
:class:`~repro.runtime.policy.RecoveryPolicy` recovers from them:

* every dispatch runs under a **watchdog** budget; a stall or a dropped
  DMA burns the budget and is retried;
* failures are retried with bounded **exponential backoff**;
* inter-domain buffers are **checkpointed** in host DRAM as they are
  stored, so a retry (or a host fallback) replays only the failed stage,
  never its upstream producers;
* a domain whose accelerator **crashes** (or exhausts its retries) is
  **degraded** onto the host: its stage is replayed, and the rest of its
  units priced, as ``SoCRuntime.execute`` prices a host-placed domain.

:meth:`SoCRuntime.execute <repro.hw.soc.SoCRuntime.execute>` folds the
same stream, so a fault-free run totals exactly what it reports, on every
placement. The functional plane is shared with every other backend:
outputs come from the same srDFG interpreter regardless of where a stage
ultimately ran, which is why a degraded run's outputs are bit-for-bit
identical to the fault-free run — faults perturb *when and where* work
happens (and its cost), never *what* is computed, because corrupt
transfers are detected by checksum and never published to a consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..driver.diagnostics import Diagnostics
from ..errors import RuntimeFailure
from ..obs import NULL_TRACER
from ..hw.soc import SoCRuntime, charge, schedule
from .faults import CRASH, DMA_CORRUPT, FaultPlan, Site, TIMEOUT_FAULTS
from .policy import RecoveryPolicy
from .report import (
    ABORT,
    BACKOFF,
    CHECKPOINT,
    COMPLETE,
    DISPATCH,
    DMA,
    FALLBACK,
    FAULT,
    REPLAY,
    RETRY,
    RunReport,
    RuntimeEvent,
    WATCHDOG,
)


class HostManager:
    """Drives a :class:`CompiledApplication` as a recoverable process."""

    def __init__(self, accelerators, host=None, policy=None, diagnostics=None,
                 tracer=None):
        self.soc = SoCRuntime(accelerators, host=host)
        self.accelerators = self.soc.accelerators
        self.policy = policy or RecoveryPolicy()
        # An empty sink is falsy (Diagnostics defines __len__) and is
        # still the caller's: test for None, not truth.
        self.diagnostics = Diagnostics() if diagnostics is None else diagnostics
        #: Every RuntimeEvent is mirrored as a ``runtime``-category
        #: instant on this tracer, and each stage runs under a span —
        #: so dispatch/DMA/retry/fallback land on the same timeline as
        #: compile stages and serve requests.
        self.tracer = tracer or NULL_TRACER

    # -- the runtime loop --------------------------------------------------

    def run(
        self,
        compiled,
        inputs=None,
        params=None,
        state=None,
        fault_plan=None,
        hints=None,
        accelerated_domains=None,
        execute=True,
        raise_on_failure=True,
        precision="f64",
        policy=None,
    ):
        """Execute *compiled* under faults; returns :class:`RunReport`.

        *fault_plan* may be a :class:`FaultPlan` (activated fresh, so the
        run is reproducible) or an already-active plan (to thread one
        fault schedule across several invocations). With ``execute=False``
        only the timing/event plane runs (no interpreter execution).
        Raises :class:`~repro.errors.RuntimeFailure` (carrying the partial
        report) when recovery is exhausted, unless *raise_on_failure* is
        False — then the report comes back with ``completed=False``.

        *precision* selects the execution-plan configuration used for the
        functional (host-fallback) execution, so an ``f32``
        application's fallback really runs at f32 — the
        bit-identical recovery guarantee holds at non-default precision,
        not just by coincidence of both paths defaulting to f64. The plan
        itself is shared through the per-graph memo, so retries and
        repeated chaos steps never replan.

        *policy* overrides the manager's :class:`RecoveryPolicy` for this
        run only — the serving layer threads each request's own retry/
        fallback budget through one shared manager without mutating it.
        """
        if accelerated_domains is None:
            accelerated_domains = set(compiled.programs) & set(self.accelerators)
        plan = fault_plan or FaultPlan()
        active = plan if hasattr(plan, "draw") else plan.activate()

        # Per-run cost accounting binds to the compiled application's
        # (hint-bound) accelerator copies, exactly like SoCRuntime would.
        soc = SoCRuntime(compiled.accelerators, host=self.soc.host)
        report = RunReport(fault_plan=active.plan.render())
        report.fault_free = soc.execute(
            compiled, accelerated_domains=accelerated_domains, hints=hints
        ).total

        run_state = _RunState(
            report=report, active=active, soc=soc,
            policy=policy or self.policy,
            accelerated=set(accelerated_domains),
        )
        ok = True
        for stage in schedule(compiled.programs):
            with self.tracer.span(
                f"stage {stage.domain}", category="runtime",
                domain=stage.domain, placement=run_state.where(stage.domain),
            ):
                ok = self._run_stage(compiled.graph, stage, hints, run_state)
            if not ok:
                break

        report.completed = ok
        if ok:
            report.faults_recovered = report.faults_injected
            self._emit(run_state, COMPLETE, domain=None, detail="all stages done")
            if execute:
                from ..srdfg.plan import PlanConfig, plan_for_graph

                plan = plan_for_graph(
                    compiled.graph,
                    config=PlanConfig(precision=precision),
                    tracer=self.tracer,
                )
                report.result = plan.execute(
                    inputs=inputs, params=params, state=state,
                    tracer=self.tracer,
                )
        if not ok and raise_on_failure:
            raise RuntimeFailure(
                f"runtime recovery exhausted: {report.abort_reason}", report=report
            )
        return report

    # -- stages ------------------------------------------------------------

    def _run_stage(self, graph, stage, hints, run_state):
        """Run *stage*'s priced units; on a degrade, re-price and replay."""
        report = run_state.report
        while True:
            where = run_state.where(stage.domain)
            status = "ok"
            for unit, expected in run_state.soc.priced(
                graph, stage.units, run_state.accelerated, hints
            ):
                status = self._run_unit(unit, expected, where, run_state)
                if status != "ok":
                    break
            if status == "ok":
                return True
            if status == "abort":
                return False
            # Graceful degradation: replay this stage (and only this
            # stage) on the host, consuming upstream checkpoints.
            if where == "host":
                self._abort(run_state, stage.domain, "host replay failed")
                return False
            run_state.accelerated.discard(stage.domain)
            if stage.domain not in report.degraded_domains:
                report.degraded_domains.append(stage.domain)
            for unit in stage.units:
                if unit.direction == "store":
                    run_state.checkpoints.pop(unit.moves, None)
            report.retries += 1
            self._emit(
                run_state,
                FALLBACK,
                domain=stage.domain,
                detail="remapped onto host CPU model",
            )
            self._emit(
                run_state,
                REPLAY,
                domain=stage.domain,
                detail="replaying stage from inter-domain checkpoints",
            )
            self.diagnostics.warning(
                f"domain {stage.domain} degraded to host after accelerator failure",
                stage="runtime",
            )

    # -- units -------------------------------------------------------------

    def _run_unit(self, unit, expected, where, run_state):
        report = run_state.report
        policy = run_state.policy
        domain = unit.domain

        if unit.direction == "load":
            # Data-dependency tracking: the schedule dispatches a consumer
            # only after the store it loads from is in host DRAM.
            source = run_state.checkpoints.get(unit.moves)
            assert source is not None, f"{unit.label} dispatched before its store"
            if expected is not None:
                self._emit(
                    run_state,
                    CHECKPOINT,
                    domain=domain,
                    unit=unit.label,
                    detail=f"consuming checkpoint {unit.buffer!r} from {source}",
                )

        if expected is None:
            # Host-to-host crossing: plain memory, nothing can fault.
            if unit.direction == "store":
                run_state.checkpoints[unit.moves] = domain
            self._emit(
                run_state,
                DMA,
                domain=domain,
                unit=unit.label,
                detail="host-local hand-off (no DMA)",
            )
            return "ok"

        budget = policy.watchdog_budget_s(expected.seconds)
        failures = 0
        for attempt in range(1, policy.max_attempts + 1):
            report.attempts[domain] = report.attempts.get(domain, 0) + 1
            if attempt > 1:
                report.retries += 1
                self._emit(
                    run_state,
                    RETRY,
                    domain=domain,
                    unit=unit.label,
                    attempt=attempt,
                )
            site = Site(
                unit="dispatch" if unit.kind == "compute" else unit.kind,
                domain=domain,
                peer=unit.peer,
                label=unit.label,
                placement=where,
            )
            fault = run_state.active.draw(site)
            self._emit(
                run_state,
                DMA if unit.kind == "dma" else DISPATCH,
                domain=domain,
                unit=unit.label,
                attempt=attempt,
                detail=f"expected {expected.seconds * 1e6:.3f} us"
                + (" (host)" if where == "host" else ""),
            )

            if fault is None:
                self._charge(run_state, unit, expected)
                report.useful_seconds += expected.seconds
                if unit.direction == "store":
                    run_state.checkpoints[unit.moves] = domain
                    self._emit(
                        run_state,
                        CHECKPOINT,
                        domain=domain,
                        unit=unit.label,
                        detail=f"checkpointed {unit.buffer!r} "
                        f"({unit.nbytes} B) in host DRAM",
                    )
                return "ok"

            # -- a fault struck this attempt ------------------------------
            failures += 1
            report.faults_injected += 1
            self._emit(
                run_state,
                FAULT,
                domain=domain,
                unit=unit.label,
                attempt=attempt,
                fault=fault.kind,
                detail=f"injected at {site.render()}",
            )
            self.diagnostics.warning(
                f"injected {fault.kind} at {site.render()} (attempt {attempt})",
                stage="runtime",
            )

            if fault.kind in TIMEOUT_FAULTS:
                # No completion signal: the watchdog burns its budget.
                self._charge(
                    run_state,
                    unit,
                    run_state.soc.idle_cost(
                        budget, domain if where == "accel" else None
                    ),
                )
                self._emit(
                    run_state,
                    WATCHDOG,
                    domain=domain,
                    unit=unit.label,
                    attempt=attempt,
                    fault=fault.kind,
                    detail=f"no completion within {budget * 1e6:.3f} us budget",
                )
            else:
                # The work ran (and is paid for) but produced a bad
                # result: transient compute error, or a DMA checksum
                # mismatch — detected, so the buffer is never published.
                self._charge(run_state, unit, expected)
                detected = (
                    "checksum mismatch on transfer"
                    if fault.kind == DMA_CORRUPT
                    else "result failed validation"
                )
                self._emit(
                    run_state,
                    FAULT,
                    domain=domain,
                    unit=unit.label,
                    attempt=attempt,
                    fault=fault.kind,
                    detail=f"{detected}; discarding attempt",
                )

            if fault.kind == CRASH:
                report.unhealthy[domain] = (
                    f"crashed during {unit.label} (attempt {attempt})"
                )
                self.diagnostics.error(
                    f"accelerator for {domain} marked unhealthy: crash",
                    stage="runtime",
                )
                if policy.host_fallback:
                    return "degrade"
                self._abort(
                    run_state,
                    domain,
                    f"accelerator for {domain} crashed and host "
                    "fallback is disabled",
                )
                return "abort"

            if attempt < policy.max_attempts:
                delay = policy.backoff_s(failures)
                self._charge(run_state, unit, run_state.soc.idle_cost(delay))
                self._emit(
                    run_state,
                    BACKOFF,
                    domain=domain,
                    unit=unit.label,
                    attempt=attempt,
                    detail=f"waiting {delay * 1e6:.3f} us before retry",
                )

        # Retries exhausted.
        if unit.kind == "compute" and where == "accel" and policy.host_fallback:
            report.unhealthy.setdefault(
                domain, f"{policy.max_attempts} consecutive failed dispatches"
            )
            return "degrade"
        self._abort(
            run_state,
            domain,
            f"{unit.label} failed {policy.max_attempts} attempt(s)",
        )
        return "abort"

    # -- bookkeeping -------------------------------------------------------

    def _charge(self, run_state, unit, stats):
        charge(run_state.report, unit, stats)
        run_state.clock += stats.seconds

    def _emit(self, run_state, kind, domain, unit="", attempt=None, fault=None,
              detail=""):
        event = RuntimeEvent(
            seq=len(run_state.report.events),
            t_s=run_state.clock,
            kind=kind,
            domain=domain,
            unit=unit,
            attempt=attempt,
            fault=fault,
            detail=detail,
        )
        run_state.report.events.append(event)
        if self.tracer.enabled:
            args = {"detail": detail}
            if domain is not None:
                args["domain"] = domain
            if unit:
                args["unit"] = unit
            if attempt is not None:
                args["attempt"] = attempt
            if fault is not None:
                args["fault"] = fault
            self.tracer.instant(kind, category="runtime", **args)
        return event

    def _abort(self, run_state, domain, reason):
        report = run_state.report
        report.abort_reason = reason
        report.faults_recovered = max(0, report.faults_injected - 1)
        self._emit(run_state, ABORT, domain=domain, detail=reason)
        self.diagnostics.error(f"runtime aborted: {reason}", stage="runtime")


@dataclass
class _RunState:
    """Mutable state threaded through one HostManager.run."""

    report: RunReport
    active: object
    soc: SoCRuntime
    policy: RecoveryPolicy
    #: Domains still on their accelerator; a degrade removes one.
    accelerated: set
    clock: float = 0.0
    #: Inter-domain buffers checkpointed in host DRAM: what each store
    #: moved (``Unit.moves``) -> the domain that published it.
    checkpoints: Dict[tuple, str] = field(default_factory=dict)

    def where(self, domain):
        return "accel" if domain in self.accelerated else "host"


__all__ = ["HostManager"]

"""Experiment harness: compiles, validates, and measures every benchmark.

One :class:`BenchmarkRun` holds everything the figure generators need for
one Table III workload: per-paper-scale-run PerfStats on the accelerator,
the Xeon, both GPUs, and the modelled expert implementation. End-to-end
applications additionally get per-combination SoC runs (Fig 10/11).

Compilation goes through one shared
:class:`~repro.driver.CompilerSession`: each figure that re-requests a
workload is an artifact-cache hit rather than a re-parse, and workload
cost hints are bound onto per-compile accelerator copies (never written
into shared accelerator state, so one workload's hints cannot leak into
another's estimates).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..driver import CompilerSession
from ..hw import SoCRuntime, make_jetson, make_titan_xp, make_xeon
from ..hw.cost import PerfStats
from ..util import geomean
from ..workloads import SINGLE_DOMAIN, get_workload
from .optimal import estimate_expert, percent_of_optimal

__all__ = ["BenchmarkRun", "Harness", "geomean"]


@dataclass
class BenchmarkRun:
    """All measurements for one workload at paper scale."""

    name: str
    domain: str
    accelerator_names: Dict[str, str]
    accel: PerfStats
    expert: PerfStats
    cpu: PerfStats
    titan: PerfStats
    jetson: PerfStats
    functional_ok: Optional[bool] = None
    functional_error: Optional[float] = None
    pmlang_loc: int = 0

    # -- derived metrics (the figures' y-axes) -------------------------------

    @property
    def runtime_vs_cpu(self):
        return self.cpu.seconds / self.accel.seconds

    @property
    def energy_vs_cpu(self):
        return self.cpu.energy_j / self.accel.energy_j

    def runtime_vs(self, other):
        return other.seconds / self.accel.seconds

    def ppw_vs(self, other):
        """Performance-per-watt improvement == energy ratio at equal work."""
        return other.energy_j / self.accel.energy_j

    @property
    def percent_optimal(self):
        return percent_of_optimal(self.accel, self.expert)


class Harness:
    """Compiles and measures workloads through one CompilerSession.

    Compilation caching lives in the session's content-addressed artifact
    cache (not in harness-private dicts); the harness only memoises
    finished *measurements* (:class:`BenchmarkRun` instances), which are
    derived data, not compiler state.
    """

    def __init__(self, validate=False, session=None):
        self.validate = validate
        self.session = session or CompilerSession()
        self._workloads: Dict[str, object] = {}
        self._measurements: Dict[str, BenchmarkRun] = {}

    # -- compilation ----------------------------------------------------------

    def workload(self, name):
        """The (cached) workload instance for *name*."""
        if name not in self._workloads:
            self._workloads[name] = get_workload(name)
        return self._workloads[name]

    def compiled(self, name):
        """(workload, CompiledApplication, accelerators) for *name*.

        The application's accelerators are per-compile copies carrying the
        workload's data hints; the session's shared accelerator state is
        never mutated.
        """
        workload = self.workload(name)
        app, _ = self.session.compile_workload(workload)
        return workload, app, app.accelerators

    # -- single-workload measurement ------------------------------------------------

    def run(self, name):
        """Measure one workload; measurements are memoised."""
        if name in self._measurements:
            return self._measurements[name]
        workload, app, accelerators = self.compiled(name)
        hints = workload.hints()
        iterations = workload.perf_iterations

        accel_once = PerfStats()
        expert_once = PerfStats()
        for domain, program in app.programs.items():
            accelerator = accelerators[domain]
            accel_once.add(accelerator.estimate(program))
            expert_once.add(estimate_expert(accelerator, program))

        cpu_once = make_xeon().estimate_graph(app.graph, hints)
        titan_once = make_titan_xp().estimate_graph(app.graph, hints)
        jetson_once = make_jetson().estimate_graph(app.graph, hints)

        functional_ok = None
        functional_error = None
        if self.validate:
            # Warm the session's plan tier first: every validation step
            # (and any later chaos/simulate path over this graph) then
            # reuses one ExecutionPlan instead of replanning.
            self.session.plan_for(app)
            check = workload.check_functional(graph=app.graph)
            functional_ok = check.ok
            functional_error = check.error

        run = BenchmarkRun(
            name=name,
            domain=workload.domain,
            accelerator_names={
                domain: accelerators[domain].name for domain in app.programs
            },
            accel=accel_once.scaled(iterations),
            expert=expert_once.scaled(iterations),
            cpu=cpu_once.scaled(iterations),
            titan=titan_once.scaled(iterations),
            jetson=jetson_once.scaled(iterations),
            functional_ok=functional_ok,
            functional_error=functional_error,
            pmlang_loc=workload.pmlang_loc,
        )
        self._measurements[name] = run
        return run

    def run_all(self, names=SINGLE_DOMAIN):
        return [self.run(name) for name in names]

    # -- resilience (chaos) measurements ---------------------------------------------

    def resilience(self, name, fault_plan, policy=None, accelerated_domains=None):
        """One timing-plane chaos run of *name* under *fault_plan*.

        Returns the :class:`~repro.runtime.RunReport` (``execute=False``:
        the event/cost plane only, no interpreter execution — cheap enough
        to sweep). Raises :class:`~repro.errors.RuntimeFailure` when the
        plan defeats the recovery policy.
        """
        from ..runtime import HostManager

        workload, app, accelerators = self.compiled(name)
        manager = HostManager(accelerators, policy=policy)
        return manager.run(
            app,
            fault_plan=fault_plan,
            hints=workload.hints(),
            accelerated_domains=accelerated_domains,
            execute=False,
        )

    def resilience_row(self, name, fault_plan, policy=None):
        """Resilience columns for one workload: availability, overhead, recovery.

        The optional companion to :class:`BenchmarkRun`'s performance
        columns; aborted runs come back with ``completed=False`` instead
        of raising, so a sweep over plans always yields a full table.
        """
        from ..errors import RuntimeFailure

        try:
            report = self.resilience(name, fault_plan, policy=policy)
        except RuntimeFailure as exc:
            report = exc.report
        return {
            "name": name,
            "plan": report.fault_plan,
            "completed": report.completed,
            "availability": report.availability,
            "overhead": report.overhead,
            "faults": report.faults_injected,
            "recovered": report.faults_recovered,
            "retries": report.retries,
            "degraded": ",".join(report.degraded_domains) or "-",
        }

    # -- end-to-end combination study (Fig 10/11/12) -----------------------------------

    def end_to_end(self, name):
        """Per-combination SoC measurements for one Table IV application.

        Returns ``(combos, cpu_stats, gpu_stats)`` where *combos* maps a
        tuple of kernel labels (e.g. ("FFT", "MPC")) to the SoCRunReport
        of accelerating exactly those kernels.
        """
        workload, app, accelerators = self.compiled(name)
        hints = workload.hints()
        iterations = workload.perf_iterations
        kernels_by_domain = workload.kernels_by_domain
        domains = list(kernels_by_domain)
        soc = SoCRuntime(accelerators)

        combos = {}
        for size in range(1, len(domains) + 1):
            for subset in itertools.combinations(domains, size):
                report = soc.execute(app, accelerated_domains=subset, hints=hints)
                label = tuple(kernels_by_domain[domain] for domain in subset)
                combos[label] = _ScaledReport(report, iterations)

        cpu = make_xeon().estimate_graph(app.graph, hints).scaled(iterations)
        titan = make_titan_xp().estimate_graph(app.graph, hints).scaled(iterations)
        jetson = make_jetson().estimate_graph(app.graph, hints).scaled(iterations)

        expert = PerfStats()
        for domain, program in app.programs.items():
            expert.add(estimate_expert(accelerators[domain], program))
        # The expert end-to-end implementation still pays cross-domain DMA.
        full = soc.execute(app, hints=hints)
        expert.add(full.communication)
        expert = expert.scaled(iterations)

        return combos, {
            "cpu": cpu,
            "titan": titan,
            "jetson": jetson,
            "expert": expert,
        }


@dataclass
class _ScaledReport:
    """SoCRunReport scaled to paper iterations."""

    total: PerfStats
    communication: PerfStats
    per_domain: Dict[str, PerfStats] = field(default_factory=dict)

    def __init__(self, report, iterations):
        self.total = report.total.scaled(iterations)
        self.communication = report.communication.scaled(iterations)
        self.per_domain = {
            domain: stats.scaled(iterations)
            for domain, stats in report.per_domain.items()
        }

    @property
    def communication_fraction(self):
        if self.total.seconds <= 0:
            return 0.0
        return self.communication.seconds / self.total.seconds

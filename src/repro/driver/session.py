"""The instrumented compilation driver (`CompilerSession`).

The paper presents compilation as a pipeline — parse PMLang, build the
srDFG, run target-independent passes, lower (Algorithm 1), translate per
domain (Algorithm 2) — but the stack previously exposed it only as the
monolithic ``PolyMath.compile``. :class:`CompilerSession` makes the
pipeline explicit: each named stage

    parse -> semantic -> srdfg-build -> optimize -> lower -> translate

is timed and measured (recursive node/edge deltas) into a
:class:`StageRecord` stream, feeds one session-wide
:class:`~repro.driver.diagnostics.Diagnostics` engine, and is backed by a
content-addressed :class:`~repro.driver.cache.ArtifactCache` so repeated
compiles of the same workload under the same accelerator and pipeline
configuration are cache hits rather than re-parses.

Workload ``data_hints`` never enter the cache key and are never written
into shared accelerator instances: they are bound per compile onto
shallow accelerator copies (``Accelerator.bound``), which fixes the
cross-workload hint-leak the old harness had.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

from ..codegen import CODEGEN_STATS, build_kernel, kernel_cache_key
from ..errors import PolyMathError, TargetError
from ..obs import NULL_TRACER, MetricsRegistry
from ..passes import default_pipeline
from ..passes.lowering import lower, supported_summary
from ..pmlang.parser import parse
from ..pmlang.semantic import analyze
from ..rewrite.engine import REWRITE_STATS
from ..rewrite.fusion import FusionConfig, fuse_cross_domain
from ..srdfg.builder import build
from ..srdfg.plan import (
    PLAN_FIELDS,
    PlanConfig,
    SingleFlight,
    graph_fingerprint,
    memoize_plan,
    plan_cache_key,
    plan_for_graph,
)
from ..targets.registry import default_accelerators
from .cache import (
    COMPILE,
    KERNEL,
    PLAN,
    ArtifactCache,
    accelerator_fingerprint,
    fingerprint,
)
from .diagnostics import Diagnostics

#: Canonical stage names, in execution order. Every cold compile runs
#: each of these exactly once; the optional ``fuse`` stage
#: (:data:`FUSE_STAGE`) additionally runs between ``lower`` and
#: ``translate`` when the session enables cost-guided fusion.
STAGES = (
    "parse", "semantic", "srdfg-build", "optimize", "lower", "translate"
)

#: Stage name of the opt-in cost-guided cross-domain fusion stage.
FUSE_STAGE = "fuse"

#: Stage name recorded when a compile is served from the artifact cache.
CACHE_HIT_STAGE = "cache-hit"

#: Stage name recorded when a compile (or plan) awaited an identical
#: in-flight request instead of running itself.
COALESCED_STAGE = "coalesced"

_PROVENANCES = ("built", "cache", "coalesced", "declined")

#: How a lookup in each tier shows up: its span ``(name, category)`` and
#: the stage it records, by provenance. No entry, no record — the stages
#: of a built compile record themselves.
_LOOKUPS = {
    COMPILE: (
        "compile", "session",
        {"cache": CACHE_HIT_STAGE, "coalesced": COALESCED_STAGE},
    ),
    PLAN: ("plan", "plan", dict.fromkeys(_PROVENANCES, "plan")),
    KERNEL: ("codegen", "kernel", dict.fromkeys(_PROVENANCES, "codegen")),
}


@dataclass
class StageRecord:
    """What one compilation stage did: wall time plus graph deltas."""

    stage: str
    seconds: float = 0.0
    nodes_before: int = 0
    nodes_after: int = 0
    edges_before: int = 0
    edges_after: int = 0
    cached: bool = False
    detail: str = ""

    @property
    def node_delta(self):
        return self.nodes_after - self.nodes_before

    @property
    def edge_delta(self):
        return self.edges_after - self.edges_before

    def render(self):
        cells = [f"{self.stage:28s}", f"{self.seconds * 1e3:9.3f} ms"]
        if self.nodes_before or self.nodes_after:
            cells.append(
                f"nodes {self.nodes_before}->{self.nodes_after} "
                f"edges {self.edges_before}->{self.edges_after}"
            )
        if self.cached:
            cells.append("(cached)")
        if self.detail:
            cells.append(self.detail)
        return "  ".join(cells).rstrip()


def _graph_counts(graph):
    """Recursive (nodes, edges) for an srDFG, or zeros for None."""
    if graph is None:
        return 0, 0
    return graph.total_counts()


class CompilerSession:
    """Replayable, cached, instrumented driver for the whole stack.

    One session typically serves many compiles (the evaluation harness
    compiles each workload up to five times across figures); the session
    owns the accelerator configuration, the artifact cache, the stage
    record stream, and the diagnostics engine. ``PolyMath`` is now a thin
    facade over this class.
    """

    def __init__(
        self,
        accelerators=None,
        run_pipeline=True,
        pipeline_factory=None,
        cache=None,
        cache_dir=None,
        diagnostics=None,
        tracer=None,
        fusion=None,
    ):
        self.accelerators = dict(accelerators or {})
        self.run_pipeline = run_pipeline
        self.pipeline_factory: Callable = pipeline_factory or default_pipeline
        #: Cost-guided cross-domain fusion on the lowered graph: ``None``
        #: disables the ``fuse`` stage, ``True`` uses the default
        #: :class:`~repro.rewrite.fusion.FusionConfig`, or pass a config.
        if fusion is True:
            fusion = FusionConfig()
        self.fusion = fusion
        self.cache = cache or ArtifactCache(cache_dir=cache_dir)
        self.diagnostics = diagnostics or Diagnostics()
        #: Observability spine: stage spans (category ``session``), pass
        #: spans (via the pipeline), and plan spans all land here. The
        #: default NULL_TRACER records nothing at near-zero cost.
        self.tracer = tracer or NULL_TRACER
        # Disk-tier degradation (corrupt entries, failed writes) surfaces
        # in this session's diagnostics stream unless the caller wired the
        # cache to its own sink already.
        if self.cache.diagnostics is None:
            self.cache.diagnostics = self.diagnostics
        self.records: List[StageRecord] = []
        #: This session's counter groups: ``plan``, ``cache`` (the cache's
        #: own group) and ``session``. Process-scoped ``rewrite`` and
        #: ``codegen`` live in :data:`~repro.obs.DEFAULT_REGISTRY`.
        self.metrics = MetricsRegistry()
        #: Plan builds this session paid for. Serving's ``plan_reuse_ok``
        #: deltas read this, so two concurrent servers — or sibling worker
        #: processes — never pollute each other's reuse assertion.
        self.plan_stats = self.metrics.counters("plan", PLAN_FIELDS)
        self.metrics.register(
            "cache", self.cache.stats.to_dict, self.cache.stats.reset
        )
        #: ``compiles`` requested, and compiles/plans that ``coalesced``
        #: onto an identical in-flight request.
        self._counts = self.metrics.counters(
            "session", ("compiles", "coalesced")
        )
        self._stage_hooks: List[Callable] = []
        #: ExecutionPlans obtained through :meth:`plan_for`, in order —
        #: kept alive for the session report (plans hold only weak graph
        #: references, so this does not pin compiled graphs).
        self.plans: List[object] = []
        # One session serves many worker threads in the serving layer:
        # the record stream and counters mutate under _state_lock, and
        # identical concurrent lookups of any tier coalesce in _resolve
        # (single-flight: first requester builds, the rest await its
        # value).
        self._state_lock = threading.RLock()
        self._flights = SingleFlight()

    @property
    def compiles(self):
        return self._counts.compiles

    @property
    def coalesced(self):
        return self._counts.coalesced

    # -- hooks ---------------------------------------------------------------

    def add_stage_hook(self, hook):
        """Register ``hook(StageRecord)``, called as each stage finishes."""
        if not callable(hook):
            raise TypeError(f"stage hook {hook!r} is not callable")
        self._stage_hooks.append(hook)
        return self

    def _record(self, record):
        with self._state_lock:
            self.records.append(record)
            hooks = list(self._stage_hooks)
        for hook in hooks:
            hook(record)
        return record

    def _resolve(self, tier, key, build, detail, /, **attrs):
        """The one lookup-or-build: ``(value, provenance)`` of *key* in
        *tier*, *build* having run at most once however many ask.

        Cache get; else in-process single-flight, whose leader builds —
        under the cross-process lease (:meth:`ArtifactCache.build_once`)
        iff the tier has a disk form and the cache a ``cache_dir``, so
        every process sharing the directory builds a key once between
        them — and publishes.
        Provenance is ``cache``, ``built``, ``coalesced`` (awaited another
        thread's or process's build) or ``declined`` (*build* returned
        None; nothing is published, and waiters get None too). One span
        (*attrs* are its attributes) and at most one :class:`StageRecord`
        (``detail(value)`` its detail) per call, both per :data:`_LOOKUPS`.
        """
        name, category, stages = _LOOKUPS[tier]
        start = time.perf_counter()
        with self.tracer.span(name, category=category, **attrs) as span:
            found, how = self._flights.run(
                (tier, key),
                lambda: self.cache.get(tier, key),
                lambda: self.cache.build_once(tier, key, build),
            )
            # A build answers with build_once's (value, provenance) pair;
            # how != provenance means the waiting was on another process.
            value, provenance = (found, how) if how == "cache" else found
            if value is None:
                provenance, text = "declined", f"declined, key {key[:12]}"
            elif "coalesced" in (how, provenance):
                awaited = "in-flight" if how == "coalesced" else "cross-process"
                provenance = "coalesced"
                text = f"awaited {awaited} build, {detail(value)}"
                self._counts.bump(coalesced=1)
            else:
                text = detail(value)
            span.note(provenance=provenance)
        if provenance in stages:
            self._record(
                StageRecord(
                    stage=stages[provenance],
                    seconds=time.perf_counter() - start,
                    cached=provenance in ("cache", "coalesced"),
                    detail=text,
                )
            )
        return value, provenance

    # -- cache key -----------------------------------------------------------

    def _pipeline_fingerprint(self, pipeline):
        if pipeline is None:
            return "no-pipeline"
        return fingerprint(
            tuple(type(p).__name__ for p in pipeline.passes),
            tuple(p.name for p in pipeline.passes),
            pipeline.validate,
            pipeline.recursive,
        )

    def _fusion_fingerprint(self):
        if self.fusion is None:
            return "no-fusion"
        return fingerprint(self.fusion.fingerprint())

    def cache_key(
        self, source, entry, domain, component_domains, accelerators, pipeline
    ):
        """Content-addressed key for one compile request."""
        return fingerprint(
            fingerprint(source),
            entry,
            domain,
            tuple(sorted((component_domains or {}).items())),
            accelerator_fingerprint(accelerators),
            self._pipeline_fingerprint(pipeline),
            self._fusion_fingerprint(),
        )

    # -- stage execution -------------------------------------------------------

    def _run_stage(self, stage, action, graph_before=None, graph_after=None):
        """Time *action*, record a StageRecord, convert errors to diagnostics.

        *graph_after* may be a callable evaluated after the action (when
        the stage produces the graph it is measured on).
        """
        nodes, edges = _graph_counts(graph_before)
        record = StageRecord(
            stage=stage,
            nodes_before=nodes,
            nodes_after=nodes,
            edges_before=edges,
            edges_after=edges,
        )
        start = time.perf_counter()
        try:
            with self.tracer.span(stage, category="session"):
                value = action()
        except PolyMathError as exc:
            line = getattr(exc, "line", None)
            column = getattr(exc, "column", None)
            message = getattr(exc, "message", None) or str(exc)
            self.diagnostics.error(message, stage=stage, line=line, column=column)
            record.seconds = time.perf_counter() - start
            record.detail = "failed"
            self._record(record)
            raise
        record.seconds = time.perf_counter() - start
        measured = graph_after(value) if callable(graph_after) else graph_after
        if measured is not None:
            record.nodes_after, record.edges_after = _graph_counts(measured)
        self._record(record)
        return value, record

    # -- the driver ------------------------------------------------------------

    def compile(
        self,
        source,
        entry="main",
        domain=None,
        component_domains=None,
        accelerators=None,
        data_hints=None,
    ):
        """Compile PMLang *source*; returns a ``CompiledApplication``.

        *accelerators* overrides the session's accelerator configuration
        for this compile only (the cache key covers both). *data_hints*
        are bound onto per-compile accelerator copies — shared accelerator
        instances are never mutated, and hints never alias across cached
        compiles of different workloads.
        """
        app, _ = self.compile_traced(
            source,
            entry=entry,
            domain=domain,
            component_domains=component_domains,
            accelerators=accelerators,
            data_hints=data_hints,
        )
        return app

    def compile_traced(
        self,
        source,
        entry="main",
        domain=None,
        component_domains=None,
        accelerators=None,
        data_hints=None,
    ):
        """:meth:`compile` plus provenance: ``(app, "built"|"cache"|"coalesced")``.

        The serving layer uses the provenance to attribute each request's
        compile cost: ``built`` ran the stages, ``cache`` was an artifact
        cache hit, and ``coalesced`` awaited an identical in-flight
        compile from another worker (single-flight deduplication — the
        second requester never re-parses, it blocks until the first
        requester's artifact is ready and shares it).
        """
        accelerators = (
            dict(accelerators) if accelerators is not None else self.accelerators
        )
        if not accelerators:
            raise TargetError(
                "CompilerSession has no accelerators; pass them at construction "
                "or to compile()"
            )
        pipeline = self.pipeline_factory() if self.run_pipeline else None
        if pipeline is not None:
            # Per-pass spans nest under this compile's span.
            pipeline.tracer = self.tracer
        key = self.cache_key(
            source, entry, domain, component_domains, accelerators, pipeline
        )

        self._counts.bump(compiles=1)
        artifact, provenance = self._resolve(
            COMPILE,
            key,
            lambda: self._compile_stages(
                source, entry, domain, component_domains, accelerators,
                pipeline,
            ),
            lambda artifact: f"key {key[:12]}",
            entry=entry,
            key=key[:12],
        )
        return artifact.with_hints(data_hints), provenance

    def compile_workload(self, workload):
        """:meth:`compile_traced` of a :class:`~repro.workloads.Workload`:
        its source, domains and data hints on its own accelerator set
        (the per-domain defaults under its ``accelerator_overrides``)."""
        return self.compile_traced(
            workload.source(),
            domain=workload.domain,
            component_domains=getattr(workload, "component_domains", None),
            accelerators=default_accelerators(
                getattr(workload, "accelerator_overrides", None)
            ),
            data_hints=workload.hints(),
        )

    def _compile_stages(
        self, source, entry, domain, component_domains, accelerators,
        pipeline,
    ):
        """Run the six stages for one uncached compile; returns the artifact."""
        from ..targets.compiler import (
            CompiledApplication,
            compile_to_targets,
            retag_component_domain,
        )

        # parse: PMLang text -> AST.
        program, parse_record = self._run_stage("parse", lambda: parse(source))
        parse_record.detail = f"{len(program.components)} component(s)"

        # semantic: symbol/modifier/arity checking -> ProgramInfo.
        self._run_stage("semantic", lambda: analyze(program, entry=entry))

        # srdfg-build: AST -> simultaneously-recursive dataflow graph.
        def build_graph():
            graph = build(program, entry=entry, domain=domain)
            for name, tag in (component_domains or {}).items():
                retag_component_domain(graph, name, tag)
            return graph

        graph, _ = self._run_stage(
            "srdfg-build", build_graph, graph_after=lambda g: g
        )

        # optimize: the target-independent pass pipeline, one sub-record
        # per pass fed by the PassManager's stage hooks.
        if pipeline is not None:
            pipeline.add_hook(
                lambda report: self._record(
                    StageRecord(
                        stage=f"optimize/{report.name}",
                        seconds=report.seconds,
                        nodes_before=report.nodes_before,
                        nodes_after=report.nodes_after,
                        edges_before=report.edges_before,
                        edges_after=report.edges_after,
                    )
                )
            )
            result, _ = self._run_stage(
                "optimize",
                lambda: pipeline.run(graph),
                graph_before=graph,
                graph_after=lambda res: res.graph,
            )
            graph = result.graph

        # lower: Algorithm 1 — inline components, match group ops against
        # each target's Om, fall back to scalar DFGs where the ALUs cover.
        om = {name: acc.om_entry() for name, acc in accelerators.items()}
        scalar_om = {name: acc.scalar_entry() for name, acc in accelerators.items()}

        def lower_graph():
            lowered = lower(graph, om, scalar_om)
            lowered.validate()
            return lowered

        lowered, lower_record = self._run_stage(
            "lower", lower_graph, graph_before=graph, graph_after=lambda g: g
        )
        summary = supported_summary(lowered)
        lower_record.detail = " ".join(
            f"{tag}={count}" for tag, count in sorted(summary.items())
        )
        if summary.get("scalar"):
            self.diagnostics.warning(
                f"{summary['scalar']} group op(s) not natively supported; "
                "lowered to scalar DFGs",
                stage="lower",
            )

        # fuse (opt-in): cost-guided cross-domain fusion — retag kernels
        # across domain boundaries where the SoC model says the erased DMA
        # transfers outweigh any compute-cost change.
        fusion_report = None
        if self.fusion is not None:
            fusion_report, fuse_record = self._run_stage(
                FUSE_STAGE,
                lambda: fuse_cross_domain(
                    lowered, accelerators, config=self.fusion
                ),
                graph_before=lowered,
                graph_after=lowered,
            )
            fuse_record.detail = (
                f"{len(fusion_report.moves)} move(s), DMA transfers "
                f"{fusion_report.transfers_before}->"
                f"{fusion_report.transfers_after}"
            )
            if fusion_report.moves:
                self.diagnostics.note(
                    f"fusion removed {fusion_report.transfers_removed} DMA "
                    f"transfer(s) via {len(fusion_report.moves)} move(s)",
                    stage=FUSE_STAGE,
                )

        # translate: Algorithm 2 — per-domain accelerator programs with
        # load/store fragments at domain crossings.
        programs, translate_record = self._run_stage(
            "translate", lambda: compile_to_targets(lowered, accelerators)
        )
        translate_record.detail = (
            f"{sum(len(p) for p in programs.values())} fragment(s) across "
            f"{len(programs)} domain(s)"
        )

        return CompiledApplication(
            graph=lowered,
            programs=programs,
            accelerators=accelerators,
            fusion_report=fusion_report,
            graph_fingerprint=graph_fingerprint(lowered),
        )

    # -- execution plans --------------------------------------------------------

    def plan_for(self, app, precision="f64", lattice_limit=None,
                 enable_einsum=True, codegen=False):
        """The shared :class:`~repro.srdfg.plan.ExecutionPlan` for *app*.

        Backed by the artifact cache's plan tier, keyed on the graph's
        structural fingerprint plus the plan configuration — so a replayed
        compile (even one that rebuilt a structurally identical graph)
        skips planning entirely. Each lookup is recorded as a ``plan``
        stage; hits carry ``cached=True``, like compile cache hits do.

        *codegen=True* additionally lowers the plan to a generated kernel
        (cache-first, recorded as a ``codegen`` stage) and attaches it, so
        ``plan.execute`` runs the kernel tier with transparent interpreter
        fallback. A declined build is a diagnostic, never an error.
        """
        plan, _ = self.plan_for_traced(
            app,
            precision=precision,
            lattice_limit=lattice_limit,
            enable_einsum=enable_einsum,
            codegen=codegen,
        )
        return plan

    def plan_for_traced(self, app, precision="f64", lattice_limit=None,
                        enable_einsum=True, codegen=False):
        """:meth:`plan_for` plus provenance: ``(plan, "built"|"cache"|"coalesced")``.

        Identical concurrent plan requests coalesce exactly like compiles
        do: one worker builds, the rest await the finished plan.
        """
        config = PlanConfig(
            precision=precision,
            lattice_limit=lattice_limit,
            enable_einsum=enable_einsum,
        )
        # The fingerprint a compile stamped on the app; anything else with
        # a ``graph`` (or an artifact pickled before the stamp) is hashed.
        key = plan_cache_key(
            app.graph, config,
            fingerprint=getattr(app, "graph_fingerprint", None),
        )
        plan, provenance = self._resolve(
            PLAN,
            key,
            lambda: plan_for_graph(
                app.graph,
                config=config,
                diagnostics=self.diagnostics,
                tracer=self.tracer,
                stats=self.plan_stats,
            ),
            lambda plan: (
                f"{plan.statement_count} statement plan(s), key {key[:12]}"
            ),
            graph=app.graph.name,
            key=key[:12],
        )
        self._share(app.graph, plan)
        if codegen:
            self._ensure_kernel(plan, key)
        return plan, provenance

    def _share(self, graph, plan):
        """Seed *graph*'s per-instance memo with the tier's *plan*, so
        ``Executor(graph)`` and every other direct consumer reuses it, and
        keep the plan for the session report."""
        memoize_plan(graph, plan)
        with self._state_lock:
            if plan not in self.plans:
                self.plans.append(plan)

    def _ensure_kernel(self, plan, plan_key):
        """Attach a generated kernel to *plan*, cache-first.

        Recorded as a ``codegen`` stage: cache hits carry
        ``cached=True`` like plan hits do, fresh builds carry the
        emitter's specialization summary, and a declined build records
        the decline (the plan keeps executing interpreted — a declined
        build is never an error) and the plan remembers it, so a plan
        the emitter cannot lower costs one attempt per process, not one
        per request. Returns the kernel or None.
        """
        if plan.kernel is not None or plan.kernel_declined:
            return plan.kernel
        key = kernel_cache_key(plan_key)
        artifact, _ = self._resolve(
            KERNEL,
            key,
            lambda: build_kernel(
                plan, plan_key=plan_key, diagnostics=self.diagnostics
            ),
            lambda artifact: (
                f"{artifact.report.get('specialized', 0)}/"
                f"{artifact.report.get('statements', 0)} specialized, "
                f"{len(artifact.source)} bytes, key {key[:12]}"
            ),
            graph=plan.graph_name,
            key=key[:12],
        )
        if artifact is None:
            plan.kernel_declined = True
        else:
            plan.attach_kernel(artifact)
        return artifact

    # -- reporting -------------------------------------------------------------

    def _records_snapshot(self):
        with self._state_lock:
            return list(self.records)

    def _tally(self, measure):
        tally: Dict[str, float] = {}
        for record in self._records_snapshot():
            tally[record.stage] = tally.get(record.stage, 0) + measure(record)
        return tally

    def stage_executions(self, stage=None):
        """``{stage: count}`` of recorded executions, or one stage's count."""
        tally = self._tally(lambda record: 1)
        return tally if stage is None else tally.get(stage, 0)

    def stage_totals(self):
        """``{stage: total seconds}`` across every recorded execution."""
        return self._tally(lambda record: record.seconds)

    def stats_dict(self):
        """Machine-readable session report (the ``--json`` twin of
        :meth:`stats_report`).

        Consumed by ``repro stats --json``, the serve report, and the
        load generator.
        """
        with self._state_lock:
            plans = list(self.plans)
        counts = self.diagnostics.counts()
        return {
            **self._counts.to_dict(),
            "stage_executions": self.stage_executions(),
            "stage_seconds": self.stage_totals(),
            "cache": self.cache.stats.to_dict(),
            "plans": [
                {
                    "graph": plan.graph_name,
                    "config": plan.config.describe(),
                    "build_seconds": plan.counters.build_seconds,
                    "executions": plan.counters.executions,
                    "statement_count": plan.statement_count,
                    "statements": [
                        {
                            "label": label,
                            "path": path,
                            "built": built,
                            "executions": execs,
                            "first_seconds": first,
                            "steady_seconds": steady,
                        }
                        for label, path, built, execs, first, steady
                        in plan.stats_rows()
                    ],
                }
                for plan in plans
            ],
            "diagnostics": dict(counts),
            # Process-wide, not per-session, but surfaced here so ``repro
            # stats --json`` and the serve report expose which rules fired
            # and how the kernel tier behaved for what this process ran.
            "rewrite": REWRITE_STATS.to_dict(),
            "codegen": CODEGEN_STATS.to_dict(),
        }

    def stats_report(self):
        """Human-readable session report: stages, timings, cache, diagnostics."""
        records = self._records_snapshot()
        with self._state_lock:
            plans = list(self.plans)
        tally = self._counts.snapshot()
        header = f"compiler session: {tally.compiles} compile(s)"
        if tally.coalesced:
            header += f" ({tally.coalesced} coalesced)"
        header += f", {len(records)} stage execution(s)"
        lines = [header]
        lines.append(f"cache: {self.cache.stats.render()}")
        lines.append("")
        lines.append(
            f"{'stage':28s} {'time':>12s}  {'executions':>10s}  graph deltas"
        )
        executions = self.stage_executions()
        totals = self.stage_totals()
        # Last execution wins for deltas.
        deltas = {record.stage: record for record in records}
        ordered = []
        # ``fuse`` slots between lower and translate when it ran.
        display_order = (CACHE_HIT_STAGE, COALESCED_STAGE) + STAGES[:-1] + (
            FUSE_STAGE,
        ) + STAGES[-1:]
        for stage in display_order:
            if stage in totals:
                ordered.append(stage)
            sub_prefix = f"{stage}/"
            ordered += [sub for sub in totals if sub.startswith(sub_prefix)]
        ordered += [stage for stage in totals if stage not in ordered]
        for stage in ordered:
            record = deltas[stage]
            delta = ""
            if record.nodes_before or record.nodes_after:
                delta = (
                    f"nodes {record.nodes_before}->{record.nodes_after} "
                    f"({record.node_delta:+d}), "
                    f"edges {record.edges_before}->{record.edges_after} "
                    f"({record.edge_delta:+d})"
                )
            if record.detail:
                delta = f"{delta}  {record.detail}" if delta else record.detail
            lines.append(
                f"{stage:28s} {totals[stage] * 1e3:9.3f} ms  "
                f"{executions[stage]:10d}  {delta}".rstrip()
            )
        for plan in plans:
            lines.append("")
            lines.append(plan.render_stats())
        counts = self.diagnostics.counts()
        lines.append("")
        lines.append(
            f"diagnostics: {counts['error']} error(s), "
            f"{counts['warning']} warning(s), {counts['note']} note(s)"
        )
        for entry in self.diagnostics:
            lines.append(f"  {entry.render()}")
        return "\n".join(lines)

"""Algorithm 2 — ``CompileProgram`` — and the top-level PolyMath driver.

``compile_to_targets`` walks a lowered srDFG in dataflow order, applies
each node's domain-appropriate translation function, accumulates fragments
into per-domain accelerator programs (``pi_d1 ... pi_dn``), and inserts
``load``/``store`` fragments wherever an edge crosses a domain boundary —
that is exactly the loop structure of Algorithm 2 in the paper. Each
crossing fragment is stamped ``moves = (producer uid, producer_name)``, so
a load names the store that feeds it even where a component boundary
renamed the buffer between them.

:class:`PolyMath` is the user-facing compiler: PMLang source in, a
:class:`CompiledApplication` out, with per-domain programs, the lowered
(but still executable) srDFG, and the accelerator set needed to simulate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import TargetError
from ..hw.cost import safe_div
from ..hw.soc import SoCRuntime
from ..rewrite.rulesets import default_pipeline
from ..srdfg.graph import VAR
from .base import Accelerator, AcceleratorProgram, IRFragment


def compile_to_targets(srdfg, accelerators):
    """Algorithm 2: translate a lowered srDFG into per-domain programs.

    *accelerators* maps domain names to :class:`Accelerator` instances
    (the paper's ``AccSpec``). Returns ``{domain: AcceleratorProgram}``.
    """
    programs: Dict[str, AcceleratorProgram] = {}

    def program_for(domain):
        if domain not in programs:
            accelerator = accelerators.get(domain)
            if accelerator is None:
                raise TargetError(
                    f"no accelerator specification for domain {domain!r}"
                )
            programs[domain] = AcceleratorProgram(
                target=accelerator.name, domain=domain
            )
        return programs[domain]

    for node in srdfg.topological_order():
        domain = node.domain or srdfg.domain

        if node.kind == VAR:
            # Boundary data belongs to whoever touches it: ingestion
            # (read_fifo/scratchpad fill) is charged to each consuming
            # kernel's domain, write-back to the producing kernel's.
            touching = set()
            for out_edge in srdfg.out_edges(node):
                if out_edge.dst.kind != VAR:
                    touching.add(out_edge.dst.domain or srdfg.domain)
            for in_edge in srdfg.in_edges(node):
                if in_edge.src.kind != VAR and in_edge.src.uid != node.uid:
                    touching.add(in_edge.src.domain or srdfg.domain)
            if not touching:
                touching = {domain}
            for touch_domain in sorted(touching):
                accelerator = accelerators.get(touch_domain)
                if accelerator is None:
                    raise TargetError(
                        f"no accelerator specification for domain {touch_domain!r}"
                    )
                program_for(touch_domain).append(
                    accelerator.translate_node(srdfg, node)
                )
            continue

        accelerator = accelerators.get(domain)
        if accelerator is None:
            raise TargetError(f"no accelerator specification for domain {domain!r}")
        pi_d = program_for(domain)

        # Loads for operands produced by a *kernel* in another domain.
        # Boundary var nodes are host/DRAM-resident data: reading them is
        # the ordinary FIFO/scratchpad ingestion already modelled by the
        # var fragments, not an accelerator-to-accelerator transfer.
        for in_edge in srdfg.in_edges(node):
            if in_edge.src.kind == VAR:
                continue
            src_domain = in_edge.src.domain or srdfg.domain
            if src_domain != domain:
                pi_d.append(
                    IRFragment(
                        op="load",
                        target=accelerator.name,
                        domain=domain,
                        inputs=((in_edge.md.name, tuple(in_edge.md.shape)),),
                        attrs={
                            "nbytes": in_edge.md.nbytes,
                            "from_domain": src_domain,
                            "crossing": True,
                            "moves": (in_edge.src.uid, in_edge.md.producer_name),
                        },
                    )
                )

        pi_d.append(accelerator.translate_node(srdfg, node))

        # Stores for results consumed by a kernel in another domain.
        # Var nodes never emit transfers themselves (their data is
        # host-resident; ingestion is the consumer-side var fragment).
        stored = set()
        for out_edge in srdfg.out_edges(node):
            if out_edge.dst.kind == VAR or node.kind == VAR:
                continue
            dst_domain = out_edge.dst.domain or srdfg.domain
            if dst_domain != domain and out_edge.md.producer_name not in stored:
                stored.add(out_edge.md.producer_name)
                pi_d.append(
                    IRFragment(
                        op="store",
                        target=accelerator.name,
                        domain=domain,
                        outputs=((out_edge.md.producer_name, tuple(out_edge.md.shape)),),
                        attrs={
                            "nbytes": out_edge.md.nbytes,
                            "to_domain": dst_domain,
                            "crossing": True,
                            "moves": (node.uid, out_edge.md.producer_name),
                        },
                    )
                )

    return programs


@dataclass
class CompiledApplication:
    """Result of compiling one PMLang program for a set of accelerators."""

    graph: object  # lowered srDFG (still executable)
    programs: Dict[str, AcceleratorProgram]
    accelerators: Dict[str, Accelerator]
    #: :class:`~repro.rewrite.fusion.FusionReport` when the session's
    #: ``fuse`` stage ran, else None.
    fusion_report: object = None
    #: :func:`~repro.srdfg.plan.graph_fingerprint` of ``graph``, stamped
    #: at compile time so plan lookups do not rehash the graph; None (an
    #: artifact pickled before the field existed) falls back to hashing.
    graph_fingerprint: Optional[str] = None

    def with_hints(self, data_hints):
        """This application with *data_hints* bound onto accelerator copies.

        The compiled programs do not depend on hints (only cost estimation
        does), so the graph and fragment streams are shared; only the
        accelerator dictionary is replaced with hint-bound shallow copies.
        With no hints the application is returned unchanged — cached
        artifacts stay pristine either way.
        """
        if not data_hints:
            return self
        bound = {
            domain: accelerator.bound(data_hints)
            for domain, accelerator in self.accelerators.items()
        }
        return dataclasses.replace(self, accelerators=bound)

    def execution_plan(self, precision="f64"):
        """The shared :class:`~repro.srdfg.plan.ExecutionPlan` for this app.

        Memoised per graph instance (through
        :func:`~repro.srdfg.plan.plan_for_graph`), so every ``run`` of this
        application — and the HostManager's retry/host-fallback path, and
        hint-bound copies from :meth:`with_hints`, which share the graph —
        reuses one plan per configuration.
        """
        from ..srdfg.plan import PlanConfig, plan_for_graph

        return plan_for_graph(self.graph, config=PlanConfig(precision=precision))

    def run(
        self,
        inputs=None,
        params=None,
        state=None,
        runtime=None,
        policy=None,
        fault_plan=None,
        hints=None,
        accelerated_domains=None,
        precision="f64",
    ):
        """Execute functionally; returns ``(result, total, per_domain)``:
        the ExecutionResult and the SoC walk's PerfStats for one
        invocation (:meth:`~repro.hw.soc.SoCRuntime.execute`: compute,
        host-managed DMA and spill, *accelerated_domains* — default all —
        on their accelerators). Execution reuses the application's shared
        :class:`~repro.srdfg.plan.ExecutionPlan` (see
        :meth:`execution_plan`): the graph is planned once, then every
        step only binds data. *precision* selects the plan configuration
        and is honoured on both execution paths.

        Passing any of *runtime* (a :class:`~repro.runtime.HostManager`),
        *policy* (a :class:`~repro.runtime.RecoveryPolicy`), or
        *fault_plan* (a :class:`~repro.runtime.FaultPlan`) switches to the
        fault-tolerant runtime path instead: the application is driven as
        discrete dispatch events with retries, watchdogs, and host
        fallback, and the return value is a single
        :class:`~repro.runtime.RunReport` (whose ``result`` carries the
        functional outputs).
        """
        if runtime is not None or policy is not None or fault_plan is not None:
            from ..runtime import HostManager

            manager = runtime or HostManager(self.accelerators, policy=policy)
            return manager.run(
                self,
                inputs=inputs,
                params=params,
                state=state,
                fault_plan=fault_plan,
                hints=hints,
                accelerated_domains=accelerated_domains,
                precision=precision,
            )

        plan = self.execution_plan(precision=precision)
        result = plan.execute(inputs=inputs, params=params, state=state)
        report = SoCRuntime(self.accelerators).execute(
            self, accelerated_domains=accelerated_domains, hints=hints
        )
        return result, report.total, report.per_domain

    def profile(self, top=10):
        """Where one fully accelerated invocation spends its time.

        Returns ``(rows, total)``: *total* is the SoC walk's, and each row
        ``(domain, label, seconds, share)``, hottest first, one entry of a
        domain's breakdown — a fragment op, a backend penalty term
        (``rebalance``, ...), ``dma`` or ``spill``.
        """
        report = SoCRuntime(self.accelerators).execute(self)
        total = report.total.seconds
        rows = sorted(
            (
                (domain, label, seconds, safe_div(seconds, total))
                for domain, stats in report.per_domain.items()
                for label, seconds in stats.breakdown.items()
                if seconds > 0
            ),
            key=lambda row: row[2],
            reverse=True,
        )
        return rows[:top], total

    def profile_report(self, top=10):
        """Human-readable rendering of :meth:`profile`."""
        rows, total = self.profile(top=top)
        lines = [f"{'domain':10s} {'cost':28s} {'time':>12s} {'share':>7s}"]
        for domain, label, seconds, share in rows:
            lines.append(
                f"{domain:10s} {label:28s} {seconds * 1e6:9.3f} us {share:6.1%}"
            )
        lines.append(f"total accelerator time: {total * 1e6:.3f} us per invocation")
        return "\n".join(lines)


def retag_component_domain(graph, component_name, domain):
    """Relabel one component instantiation (and everything inside it).

    The paper's domain annotations are per-instantiation; OptionPricing
    additionally assigns two Data-Analytics kernels to *different*
    accelerators (LR on TABLA, Black-Scholes on HyperStreams). Relabelling
    the Black-Scholes instantiation with a private domain tag lets
    Algorithm 1/2 route it to its own AccSpec without changing either
    algorithm.
    """

    def retag(node):
        node.domain = domain
        if node.subgraph is not None:
            node.subgraph.domain = domain
            for sub in node.subgraph.nodes:
                retag(sub)

    for node in graph.nodes:
        if node.kind == "component":
            if node.name == component_name:
                retag(node)
            elif node.subgraph is not None:
                retag_component_domain(node.subgraph, component_name, domain)
    return graph


class PolyMath:
    """The cross-domain compiler: PMLang -> srDFG -> rule sets -> targets.

    A thin facade over :class:`repro.driver.CompilerSession`. Every
    ``PolyMath`` owns a session, so repeated compiles of the same source
    through one compiler instance are artifact-cache hits, and
    ``compiler.session`` exposes stage records, timings, cache counters,
    and diagnostics for inspection.
    """

    def __init__(self, accelerators, pipeline=default_pipeline(), session=None):
        from ..driver import CompilerSession

        self.session = session or CompilerSession(accelerators, pipeline=pipeline)
        self.accelerators = self.session.accelerators

    @property
    def diagnostics(self):
        return self.session.diagnostics

    def compile(
        self,
        source,
        entry="main",
        domain=None,
        component_domains=None,
        data_hints=None,
    ):
        """Compile PMLang *source*; returns :class:`CompiledApplication`.

        *component_domains* optionally remaps named component
        instantiations to custom domain tags (see
        :func:`retag_component_domain`); *data_hints* are bound onto
        per-compile accelerator copies (see
        :meth:`CompiledApplication.with_hints`).
        """
        return self.session.compile(
            source,
            entry=entry,
            domain=domain,
            component_domains=component_domains,
            data_hints=data_hints,
        )

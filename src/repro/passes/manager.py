"""Pipelined application of srDFG passes."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List

from ..errors import PassError
from ..obs import NULL_TRACER
from .base import Pass


@dataclass
class PassReport:
    """What one pass did to the graph (node/edge deltas plus wall time).

    Counts are *recursive* — they include every nested subgraph — so
    passes that rewrite component bodies report their real work.
    """

    name: str
    nodes_before: int
    nodes_after: int
    edges_before: int
    edges_after: int
    seconds: float = 0.0

    @property
    def removed_nodes(self):
        return self.nodes_before - self.nodes_after


@dataclass
class PipelineResult:
    """Aggregated result of running a pass pipeline."""

    graph: object
    reports: List[PassReport] = field(default_factory=list)

    def summary(self):
        lines = []
        for report in self.reports:
            lines.append(
                f"{report.name}: nodes {report.nodes_before}->{report.nodes_after}, "
                f"edges {report.edges_before}->{report.edges_after} "
                f"({report.seconds * 1e3:.3f} ms)"
            )
        return "\n".join(lines)

    @property
    def seconds(self):
        return sum(report.seconds for report in self.reports)


class PassManager:
    """Runs a configurable pipeline of passes with validation in between.

    Passes can be appended programmatically, which is the paper's
    "conveniently enables creation and application of pipelined
    compilation passes on the srDFG". *hooks* are stage callbacks invoked
    with each :class:`PassReport` as it is produced — the compiler
    session uses them to feed per-pass records into its stage stream.
    """

    def __init__(self, passes=(), validate=True, recursive=True, hooks=(),
                 tracer=None, diagnostics=None):
        self.passes: List[Pass] = list(passes)
        self.validate = validate
        self.recursive = recursive
        self.hooks: List[Callable] = list(hooks)
        #: Per-pass spans land here under category ``passes``; the
        #: compiler session rebinds this to its own tracer per compile.
        self.tracer = tracer or NULL_TRACER
        #: Optional :class:`~repro.driver.diagnostics.Diagnostics` sink;
        #: failing passes are recorded here before the PassError is raised.
        self.diagnostics = diagnostics

    def add(self, pass_instance):
        """Append a pass; returns self for chaining."""
        if not isinstance(pass_instance, Pass):
            raise PassError(f"{pass_instance!r} is not a Pass")
        self.passes.append(pass_instance)
        return self

    def add_hook(self, hook):
        """Register ``hook(PassReport)``; returns self for chaining."""
        if not callable(hook):
            raise PassError(f"hook {hook!r} is not callable")
        self.hooks.append(hook)
        return self

    def _counts(self, graph):
        if self.recursive:
            return graph.total_counts()
        return len(graph.nodes), len(graph.edges)

    def _fail(self, pass_instance, exc, phase="run"):
        """Record the failing pass in diagnostics and raise a descriptive
        :class:`~repro.errors.PassError` (the span around the call site
        closes on the way out, carrying the error type).

        ``PassError`` subclasses (``RewriteError``) already name the
        rule/pass that failed and keep their type; anything else —
        including a ``GraphError`` from post-pass validation, which
        previously escaped without ever naming the pass — is wrapped.
        """
        message = f"pass {pass_instance.name!r} failed during {phase}: {exc}"
        if self.diagnostics is not None:
            self.diagnostics.error(message, stage=f"pass/{pass_instance.name}")
        if isinstance(exc, PassError):
            raise exc
        raise PassError(message) from exc

    def run(self, graph):
        """Apply every pass in order; returns :class:`PipelineResult`.

        Every failure path — the pass body, post-pass validation, and the
        stage hooks — surfaces as a :class:`~repro.errors.PassError`
        naming the pass, with the pass's span closed and the failure
        recorded in diagnostics (when a sink is configured).
        """
        result = PipelineResult(graph=graph)
        for pass_instance in self.passes:
            nodes_before, edges_before = self._counts(graph)
            start = time.perf_counter()
            with self.tracer.span(
                pass_instance.name, category="passes", graph=graph.name
            ) as span:
                try:
                    if self.recursive:
                        graph = pass_instance.run_recursive(graph)
                    else:
                        graph = pass_instance.run(graph)
                    if self.validate:
                        graph.validate()
                except Exception as exc:
                    self._fail(pass_instance, exc)
                seconds = time.perf_counter() - start
                nodes_after, edges_after = self._counts(graph)
                span.note(
                    nodes=f"{nodes_before}->{nodes_after}",
                    edges=f"{edges_before}->{edges_after}",
                )
            report = PassReport(
                name=pass_instance.name,
                nodes_before=nodes_before,
                nodes_after=nodes_after,
                edges_before=edges_before,
                edges_after=edges_after,
                seconds=seconds,
            )
            result.reports.append(report)
            for hook in self.hooks:
                try:
                    hook(report)
                except Exception as exc:
                    self._fail(pass_instance, exc, phase="stage hook")
        result.graph = graph
        return result

"""Design-space exploration over accelerator parameters and rule pipelines.

The paper's related work points at Minerva/Aladdin-class DSE toolchains;
with PolyMath's cost models in place, exploring an accelerator's
configuration space for a given workload is a few lines: sweep unit
counts/frequencies, recompile nothing (the program is fixed — only the
hardware model changes), and collect runtime/energy/EDP per point.

``explore`` returns every point; ``pareto`` filters to the
runtime-vs-energy frontier — the view an architect actually reads.

The same machinery searches the *compiler's* configuration space:
:func:`explore_rules` sweeps rule-set orderings and subsets of the
declarative rewrite pipeline (:mod:`repro.rewrite`), compiling the
workload once per candidate and scoring the lowered graph with the SoC
accounting the fusion pass uses. ``pareto`` takes custom objectives, so
the modelled-runtime-vs-compile-effort frontier falls out of the same
dominance filter.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass
from typing import Dict, Tuple

from ..driver import CompilerSession
from ..hw.cost import RooflineModel
from ..workloads import get_workload


@dataclass
class DesignPoint:
    """One hardware configuration and its measured metrics."""

    config: Dict[str, float]
    seconds: float
    energy_j: float

    @property
    def edp(self):
        """Energy-delay product, the classic DSE objective."""
        return self.seconds * self.energy_j


def _configured(accelerator_cls, overrides):
    """Instantiate *accelerator_cls* with HardwareParams overrides.

    ``throughput_scale`` is special-cased: it multiplies every op-class
    throughput (a stand-in for "number of PEs").
    """
    accelerator = accelerator_cls()
    params = accelerator.params
    changes = dict(overrides)
    scale = changes.pop("throughput_scale", None)
    if scale is not None:
        params = dataclasses.replace(
            params,
            throughput={
                cls: rate * scale for cls, rate in params.throughput.items()
            },
        )
    if changes:
        params = dataclasses.replace(params, **changes)
    accelerator.params = params
    accelerator.model = RooflineModel(params)
    return accelerator


def explore(workload_name, accelerator_cls, grid, iterations=None, session=None):
    """Sweep *grid* (name -> list of values) for one workload.

    The program is compiled once through a
    :class:`~repro.driver.CompilerSession` (lowering depends only on the
    accelerator's supported-op sets, which configuration changes do not
    touch); each grid point re-prices the same fragment stream under its
    own hint-bound hardware model. Returns one :class:`DesignPoint` per
    point of the cartesian product.
    """
    workload = get_workload(workload_name)
    iterations = iterations or workload.perf_iterations
    hints = workload.hints()

    session = session or CompilerSession()
    app = session.compile(
        workload.source(),
        domain=workload.domain,
        accelerators={workload.domain: accelerator_cls()},
        data_hints=hints,
    )
    program = app.programs[workload.domain]

    names = sorted(grid)
    points = []
    for values in itertools.product(*(grid[name] for name in names)):
        config = dict(zip(names, values))
        accelerator = _configured(accelerator_cls, config).bound(hints)
        stats = accelerator.estimate(program).scaled(iterations)
        points.append(
            DesignPoint(config=config, seconds=stats.seconds, energy_j=stats.energy_j)
        )
    return points


def pareto(points, objectives=None):
    """Pareto frontier under *objectives* (all minimised).

    Defaults to the runtime-vs-energy pair of :class:`DesignPoint`;
    :func:`explore_rules` reuses the same dominance filter with
    (modelled runtime, optimisation effort) objectives.
    """
    if objectives is None:
        objectives = (lambda p: p.seconds, lambda p: p.energy_j)
    frontier = []
    scored = [(tuple(fn(point) for fn in objectives), point) for point in points]
    for score, candidate in scored:
        dominated = any(
            all(o <= s for o, s in zip(other, score))
            and any(o < s for o, s in zip(other, score))
            for other, _ in scored
        )
        if not dominated:
            frontier.append(candidate)
    frontier.sort(key=lambda point: objectives[0](point))
    return frontier


# ---------------------------------------------------------------------------
# Rule-pipeline search (pass ordering / rule subsets)
# ---------------------------------------------------------------------------


@dataclass
class RulePoint:
    """One rule-set pipeline and its measured effect on a workload."""

    pipeline: Tuple[str, ...]
    nodes: int
    edges: int
    modeled_seconds: float
    dma_transfers: int
    rewrites: int
    compile_seconds: float

    @property
    def label(self):
        return " > ".join(self.pipeline) if self.pipeline else "(no passes)"

    def to_dict(self):
        return {
            "pipeline": list(self.pipeline),
            "nodes": self.nodes,
            "edges": self.edges,
            "modeled_seconds": self.modeled_seconds,
            "dma_transfers": self.dma_transfers,
            "rewrites": self.rewrites,
            "compile_seconds": self.compile_seconds,
        }


def pipeline_candidates(include_combination=True):
    """Candidate rule-set pipelines: the default order, every
    leave-one-out subset, every adjacent-transposition ordering, and
    (optionally) the default plus the algebraic-combination rule set.

    Bounded — 11 or 12 candidates — rather than the 120 full
    permutations; transpositions probe ordering sensitivity where it
    exists (neighbouring passes feeding each other) without a
    combinatorial sweep.
    """
    from ..rewrite import ALGEBRAIC_COMBINATION, DEFAULT_RULESETS

    base = list(DEFAULT_RULESETS)
    candidates = [tuple(base)]
    for index in range(len(base)):
        candidates.append(tuple(base[:index] + base[index + 1:]))
    for index in range(len(base) - 1):
        swapped = list(base)
        swapped[index], swapped[index + 1] = swapped[index + 1], swapped[index]
        candidates.append(tuple(swapped))
    if include_combination:
        candidates.append(tuple(base) + (ALGEBRAIC_COMBINATION,))
    return candidates


def explore_rules(workload_name, candidates=None, include_combination=True):
    """Pass-ordering / rule-subset search for one workload.

    Each candidate pipeline is compiled through its own
    :class:`~repro.driver.CompilerSession` (``pipeline_factory`` wires
    the rule sets straight into the session's ``optimize`` stage, so
    stage records and spans are the real ones) and scored with
    :func:`~repro.rewrite.fusion.modeled_cost` — the same SoC accounting
    the fusion pass and runtime use. Returns one :class:`RulePoint` per
    candidate, in candidate order (the default pipeline first).
    """
    from ..driver import CompilerSession
    from ..obs import Counters
    from ..passes.manager import PassManager
    from ..rewrite.fusion import modeled_cost
    from ..rewrite.rulepass import RulePass

    workload = get_workload(workload_name)
    candidates = candidates or pipeline_candidates(include_combination)
    points = []
    for rulesets in candidates:
        stats = Counters()

        def factory(chosen=rulesets, chosen_stats=stats):
            return PassManager(
                [RulePass(ruleset, stats=chosen_stats) for ruleset in chosen]
            )

        session = CompilerSession(pipeline_factory=factory)
        start = time.perf_counter()
        app, _ = session.compile_workload(workload)
        compile_seconds = time.perf_counter() - start
        cost = modeled_cost(app.graph, app.accelerators)
        counters = stats.to_dict()
        nodes, edges = app.graph.total_counts()
        points.append(
            RulePoint(
                pipeline=tuple(ruleset.name for ruleset in rulesets),
                nodes=nodes,
                edges=edges,
                modeled_seconds=cost.seconds,
                dma_transfers=cost.dma_transfers,
                rewrites=sum(
                    value for key, value in counters.items()
                    if key.endswith(".rewrites")
                ),
                compile_seconds=compile_seconds,
            )
        )
    return points


def render_rules(points, title="rule-pipeline search"):
    """Tabular rendering of rule-search points, fastest modelled first."""
    lines = [title]
    lines.append(
        f"{'modelled':>12s} {'nodes':>6s} {'edges':>6s} {'DMA':>4s} "
        f"{'rewrites':>8s}  pipeline"
    )
    for point in sorted(points, key=lambda p: p.modeled_seconds):
        lines.append(
            f"{point.modeled_seconds * 1e6:9.3f} us {point.nodes:6d} "
            f"{point.edges:6d} {point.dma_transfers:4d} "
            f"{point.rewrites:8d}  {point.label}"
        )
    return "\n".join(lines)


def render(points, title="design space"):
    """Tabular rendering of design points."""
    lines = [title]
    header = None
    for point in sorted(points, key=lambda p: p.edp):
        if header is None:
            header = sorted(point.config)
            lines.append(
                "  ".join(f"{name:>16s}" for name in header)
                + f"  {'runtime':>12s}  {'energy':>12s}  {'EDP':>12s}"
            )
        lines.append(
            "  ".join(f"{point.config[name]:16.3g}" for name in header)
            + f"  {point.seconds * 1e3:9.3f} ms  {point.energy_j * 1e3:9.3f} mJ"
            + f"  {point.edp:12.3e}"
        )
    return "\n".join(lines)

"""Cost-guided cross-domain fusion.

Every edge between kernels in different domains costs a DMA transfer the
host manager must dispatch (§V-A3: load + store fragments, charged to
:meth:`~repro.hw.soc.SoCRuntime.dma_cost`). This pass erases those
boundaries where the SoC cost model says it pays: a *move* retags one
kernel into its neighbour's domain, deleting the crossing — provided the
neighbour's accelerator can actually run the kernel (Algorithm 1's
``Om``/scalar-class check, re-applied against the new target) and the
kernel is not stateful.

Candidates are scored by :meth:`~repro.hw.soc.SoCRuntime.execute` itself,
so a move is applied only when the modelled end-to-end time strictly
improves. Domain tags and ``lowered`` annotations do not feed
the srDFG interpreter, so fused and unfused applications are
bit-identical functionally; only the fragment streams (and their modelled
cost) change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..hw.soc import SoCRuntime
from ..passes.base import Pass
from ..passes.lowering import _scalar_classes
from ..srdfg.graph import COMPUTE, VAR
from .engine import REWRITE_STATS

#: Counter namespace in :data:`~repro.rewrite.engine.REWRITE_STATS`.
RULESET = "fusion"
RULE = "absorb-crossing"


@dataclass(frozen=True)
class FusionConfig:
    """Knobs for the greedy cost-guided fusion driver."""

    #: Maximum number of domain-retag moves applied.
    max_moves: int = 8
    #: A move must improve modelled time by more than this (seconds).
    min_gain_seconds: float = 0.0

    def fingerprint(self):
        return (self.max_moves, self.min_gain_seconds)


@dataclass
class FusionMove:
    """One applied (or considered) retag of a kernel into a new domain."""

    node: str
    node_uid: int
    from_domain: str
    to_domain: str
    lowered: str
    gain_seconds: float
    transfers_delta: int

    def render(self):
        return (
            f"{self.node}@{self.node_uid}: {self.from_domain} -> "
            f"{self.to_domain} ({self.lowered}), "
            f"{self.transfers_delta:+d} DMA transfer(s), "
            f"{self.gain_seconds * 1e6:+.3f} us saved"
        )


@dataclass
class FusionReport:
    """What cost-guided fusion did to one lowered graph."""

    graph: str
    moves: List[FusionMove] = field(default_factory=list)
    candidates_considered: int = 0
    transfers_before: int = 0
    transfers_after: int = 0
    dma_seconds_before: float = 0.0
    dma_seconds_after: float = 0.0
    modeled_seconds_before: float = 0.0
    modeled_seconds_after: float = 0.0

    @property
    def transfers_removed(self):
        return self.transfers_before - self.transfers_after

    def to_dict(self):
        return {
            "graph": self.graph,
            "moves": [
                {
                    "node": move.node,
                    "from_domain": move.from_domain,
                    "to_domain": move.to_domain,
                    "lowered": move.lowered,
                    "gain_seconds": move.gain_seconds,
                    "transfers_delta": move.transfers_delta,
                }
                for move in self.moves
            ],
            "candidates_considered": self.candidates_considered,
            "dma_transfers_before": self.transfers_before,
            "dma_transfers_after": self.transfers_after,
            "dma_seconds_before": self.dma_seconds_before,
            "dma_seconds_after": self.dma_seconds_after,
            "modeled_seconds_before": self.modeled_seconds_before,
            "modeled_seconds_after": self.modeled_seconds_after,
        }

    def render(self):
        lines = [
            f"fusion on {self.graph}: {len(self.moves)} move(s) of "
            f"{self.candidates_considered} candidate(s), DMA transfers "
            f"{self.transfers_before} -> {self.transfers_after}, modelled "
            f"{self.modeled_seconds_before * 1e6:.3f} -> "
            f"{self.modeled_seconds_after * 1e6:.3f} us"
        ]
        lines += [f"  {move.render()}" for move in self.moves]
        return "\n".join(lines)


@dataclass
class ModeledCost:
    """SoC-accounting summary of one lowered graph's fragment streams."""

    seconds: float = 0.0
    dma_seconds: float = 0.0
    dma_transfers: int = 0


def modeled_cost(graph, accelerators):
    """Cost *graph* exactly as the SoC runtime will.

    Runs Algorithm 2 (:func:`~repro.targets.compiler.compile_to_targets`,
    which is read-only on the graph) and prices the programs with
    :meth:`~repro.hw.soc.SoCRuntime.execute`, every domain accelerated.
    """
    from ..targets.compiler import CompiledApplication, compile_to_targets

    programs = compile_to_targets(graph, accelerators)
    report = SoCRuntime(accelerators).execute(
        CompiledApplication(graph, programs, accelerators)
    )
    return ModeledCost(
        seconds=report.total.seconds,
        dma_seconds=report.communication.seconds,
        dma_transfers=sum(
            bool(fragment.attrs.get("crossing"))
            for program in programs.values()
            for fragment in program.fragments
        ),
    )


def _is_stateful(graph, node):
    """A kernel that reads or writes ``state`` (or carries a self-edge)
    must stay where the boundary semantics put it."""
    for edge in graph.in_edges(node):
        if edge.src.uid == node.uid:
            return True
        if edge.src.kind == VAR and edge.src.attrs.get("modifier") == "state":
            return True
    for edge in graph.out_edges(node):
        if edge.dst.uid == node.uid:
            return True
        if edge.dst.kind == VAR and edge.dst.attrs.get("modifier") == "state":
            return True
    return False


def _relower_tag(node, accelerator):
    """Algorithm 1's check against a *new* target: the ``lowered`` tag the
    node would get in *accelerator*'s domain, or None when illegal."""
    if node.name in accelerator.om_entry():
        return "group"
    if _scalar_classes(node) <= accelerator.scalar_entry():
        return "scalar"
    return None


def _crossing_candidates(graph, accelerators):
    """(node, target_domain) moves that would erase a crossing edge."""
    seen = set()
    candidates = []
    for edge in graph.edges:
        if edge.src.kind == VAR or edge.dst.kind == VAR:
            continue
        src_domain = edge.src.domain or graph.domain
        dst_domain = edge.dst.domain or graph.domain
        if src_domain == dst_domain:
            continue
        for node, target in (
            (edge.src, dst_domain),
            (edge.dst, src_domain),
        ):
            key = (node.uid, target)
            if key in seen:
                continue
            seen.add(key)
            if node.kind != COMPUTE:
                continue
            if target not in accelerators:
                continue
            if _is_stateful(graph, node):
                continue
            tag = _relower_tag(node, accelerators[target])
            if tag is None:
                continue
            candidates.append((node, target, tag))
    return candidates


def fuse_cross_domain(graph, accelerators, config=None, stats=None,
                      explain=None):
    """Greedy cost-guided fusion over one lowered srDFG (mutates in place).

    Each round enumerates every legal crossing-erasing move, scores each
    by re-running the SoC accounting with the move applied, and commits
    the best strictly-improving move; stops when no move pays or
    ``config.max_moves`` is reached. Returns a :class:`FusionReport`.
    """
    config = config or FusionConfig()
    stats = stats or REWRITE_STATS
    baseline = modeled_cost(graph, accelerators)
    report = FusionReport(
        graph=graph.name,
        transfers_before=baseline.dma_transfers,
        dma_seconds_before=baseline.dma_seconds,
        modeled_seconds_before=baseline.seconds,
    )
    current = baseline
    for _ in range(config.max_moves):
        best = None
        for node, target, tag in _crossing_candidates(graph, accelerators):
            report.candidates_considered += 1
            stats.bump(f"{RULESET}/{RULE}.matches")
            old_domain = node.domain
            old_tag = node.attrs.get("lowered")
            node.domain = target
            node.attrs["lowered"] = tag
            try:
                scored = modeled_cost(graph, accelerators)
            finally:
                node.domain = old_domain
                if old_tag is None:
                    node.attrs.pop("lowered", None)
                else:
                    node.attrs["lowered"] = old_tag
            gain = current.seconds - scored.seconds
            if gain <= config.min_gain_seconds:
                continue
            if best is None or gain > best[0]:
                best = (gain, node, target, tag, scored)
        if best is None:
            break
        gain, node, target, tag, scored = best
        move = FusionMove(
            node=node.name,
            node_uid=node.uid,
            from_domain=node.domain or graph.domain,
            to_domain=target,
            lowered=tag,
            gain_seconds=gain,
            transfers_delta=scored.dma_transfers - current.dma_transfers,
        )
        node.domain = target
        node.attrs["lowered"] = tag
        current = scored
        report.moves.append(move)
        stats.bump(f"{RULESET}/{RULE}.rewrites")
        if explain is not None:
            explain.add(
                RULESET, RULE, graph.name,
                f"{move.node}@{move.node_uid}",
                detail=move.render(),
            )
    report.transfers_after = current.dma_transfers
    report.dma_seconds_after = current.dma_seconds
    report.modeled_seconds_after = current.seconds
    return report


class CrossDomainFusion(Pass):
    """Pipeline adapter for :func:`fuse_cross_domain`.

    Runs on the *lowered* graph (the compiler session's ``fuse`` stage),
    after Algorithm 1 has inlined components — crossings only exist there.
    Keeps the last :class:`FusionReport` on ``self.report``.
    """

    name = "cross-domain-fusion"

    def __init__(self, accelerators, config=None, stats=None, explain=None):
        self.accelerators = dict(accelerators)
        self.config = config or FusionConfig()
        self.stats = stats
        self.explain = explain
        self.report: Optional[FusionReport] = None

    def run(self, graph):
        self.report = fuse_cross_domain(
            graph,
            self.accelerators,
            config=self.config,
            stats=self.stats,
            explain=self.explain,
        )
        return graph

    def run_recursive(self, graph):
        # Crossings are a top-level property of the lowered graph.
        return self.run(graph)

"""DECO pipeline-stage mapping of scalar DFGs.

DECO (Jain et al., FCCM'16) executes *stage-based* pipelines over chained
DSP blocks and "requires specific topologies for their graph-based IR,
i.e. balanced DFGs" (§V-B1 of the paper). This module makes that concrete:
a statement's scalar DFG is levelised into pipeline stages (ASAP levels),
and the *stage imbalance* — the widest stage relative to the mean — tells
us how much hardware sits idle while the fattest stage streams. The
analytic backend uses fixed penalties; this module computes the factors
from real statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..srdfg.expand import expand_scalar


@dataclass
class StageMap:
    """Levelised pipeline structure of one scalar DFG."""

    #: ops per stage (stage id -> op count), stage 0 first.
    stage_widths: List[int] = field(default_factory=list)
    #: op name histogram per stage.
    stage_ops: List[Dict[str, int]] = field(default_factory=list)

    @property
    def depth(self):
        return len(self.stage_widths)

    @property
    def total_ops(self):
        return sum(self.stage_widths)

    @property
    def imbalance(self):
        """Widest stage over mean stage width (1.0 = perfectly balanced)."""
        if not self.stage_widths:
            return 1.0
        mean = self.total_ops / self.depth
        return max(self.stage_widths) / mean if mean else 1.0

    def rebalance_factor(self, dsp_blocks):
        """Throughput slowdown on a *dsp_blocks*-wide overlay.

        A stage-pipelined overlay streams one lattice wavefront per cycle
        when every stage fits in its block budget; a stage wider than its
        share of blocks must time-multiplex. The slowdown is the widest
        stage's overflow of its fair share, floored at 1.
        """
        if not self.stage_widths:
            return 1.0
        fair_share = max(1.0, dsp_blocks / self.depth)
        return max(1.0, max(self.stage_widths) / fair_share)


def levelize(graph):
    """ASAP level per non-leaf scalar node (leaves are operand routing)."""
    op_nodes = [node for node in graph.nodes if not node.attrs.get("leaf")]
    op_ids = {node.uid for node in op_nodes}
    preds = {node.uid: [] for node in op_nodes}
    for edge in graph.edges:
        if edge.src.uid in op_ids and edge.dst.uid in op_ids:
            preds[edge.dst.uid].append(edge.src.uid)

    level: Dict[int, int] = {}

    def compute(uid):
        if uid in level:
            return level[uid]
        above = max((compute(p) for p in preds[uid]), default=-1)
        level[uid] = above + 1
        return level[uid]

    for node in op_nodes:
        compute(node.uid)
    return {node: level[node.uid] for node in op_nodes}


def map_stages(graph):
    """Build the :class:`StageMap` of a scalar srDFG."""
    levels = levelize(graph)
    if not levels:
        return StageMap()
    depth = max(levels.values()) + 1
    widths = [0] * depth
    ops: List[Dict[str, int]] = [dict() for _ in range(depth)]
    for node, stage in levels.items():
        widths[stage] += 1
        ops[stage][node.name] = ops[stage].get(node.name, 0) + 1
    return StageMap(stage_widths=widths, stage_ops=ops)


def map_statement(compute_node, limit=20000):
    """Scalar-expand a compute node and map it onto pipeline stages."""
    graph = compute_node.subgraph or expand_scalar(compute_node, limit=limit)
    return map_stages(graph)

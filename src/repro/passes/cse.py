"""Common-subexpression elimination for compute nodes.

Two compute nodes are merged when they evaluate structurally identical
statements over identical producers. The rewrite is conservative: only
full (non-partial) writes to *local* variables are candidates, so boundary
semantics and merge-with-previous behaviour are never disturbed.
"""

from __future__ import annotations

from ..pmlang.ast_nodes import expr_key  # shared with the rewrite engine
from ..srdfg.metadata import LOCAL
from .base import Pass, reroute_consumers


def _statement_key(node, graph):
    stmt = node.attrs["stmt"]
    # Producers keyed by the operand name the statement reads.
    sources = tuple(
        sorted(
            (edge.md.name, edge.src.uid, edge.md.producer_name)
            for edge in graph.in_edges(node)
        )
    )
    ranges = tuple(sorted(node.attrs.get("index_ranges", {}).items()))
    return (
        tuple(expr_key(i) for i in stmt.target_indices),
        expr_key(stmt.value),
        sources,
        ranges,
        tuple(node.attrs.get("lhs_shape", ())),
        node.attrs.get("dtype"),
    )


class CommonSubexpressionElimination(Pass):
    """Merge duplicate compute nodes producing local values."""

    name = "cse"

    def run(self, graph):
        vars_by_name = getattr(graph, "vars", {})
        seen = {}
        for node in list(graph.compute_nodes()):
            target = node.attrs["stmt"].target
            info = vars_by_name.get(target)
            if info is None or info.modifier != LOCAL:
                continue
            if node.attrs.get("partial_write"):
                continue
            key = _statement_key(node, graph)
            keeper = seen.get(key)
            if keeper is None:
                seen[key] = node
                continue
            keeper_target = keeper.attrs["stmt"].target
            reroute_consumers(
                graph, node, keeper, rename={target: keeper_target}
            )
            graph.remove_node(node)
        return graph

"""A uid-free structural signature of an srDFG.

:func:`graph_signature` is a deterministic fingerprint of a graph's
structure — statements via :func:`~repro.pmlang.ast_nodes.expr_key`,
edges via position-normalised endpoints. Node uids are process-global and
never repeat, so they are replaced by list positions: two graphs that
went through the same transformations have equal signatures even when
built separately. The rewrite engine hashes it to tell slow convergence
from a rewrite cycle, and tests use it to compare optimized graphs.
"""

from __future__ import annotations

from ..pmlang.ast_nodes import expr_key

#: Node attrs that are part of a node's structural identity. Descriptors
#: are derived from ``stmt`` + ``index_ranges`` (and surface in
#: ``node.name``), so they are deliberately not double-counted.
_ATTR_KEYS = (
    "modifier",
    "dtype",
    "shape",
    "lhs_shape",
    "partial_write",
    "lowered",
    "value",
    "reads",
    "writes",
)


def _freeze(value):
    """Hashable, deterministic stand-in for an attr value."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(val)) for key, val in value.items()))
    if isinstance(value, set):
        return tuple(sorted(_freeze(item) for item in value))
    if hasattr(value, "tobytes") and hasattr(value, "shape"):  # ndarray
        return ("ndarray", tuple(value.shape), str(value.dtype), value.tobytes())
    return value


def _stmt_key(stmt):
    if stmt is None:
        return None
    return (
        stmt.target,
        tuple(expr_key(index) for index in stmt.target_indices),
        expr_key(stmt.value),
    )


def _node_signature(node, position, recursive):
    attrs = node.attrs
    extras = tuple(
        (key, _freeze(attrs[key])) for key in _ATTR_KEYS if key in attrs
    )
    sub = None
    if recursive and node.subgraph is not None:
        sub = graph_signature(node.subgraph, recursive=True)
    return (
        position,
        node.kind,
        node.name,
        node.domain,
        _stmt_key(attrs.get("stmt")),
        tuple(sorted(attrs.get("index_ranges", {}).items())),
        tuple(sorted((k, _freeze(v)) for k, v in attrs.get("static_env", {}).items())),
        extras,
        sub,
    )


def graph_signature(graph, recursive=True):
    """Deterministic structural fingerprint of *graph* (uid-free).

    Node uids are replaced by positions in the node list — rewrites
    preserve insertion order for surviving nodes, and independently built
    graphs construct nodes in source order, so positions line up wherever
    structures match. Edges are sorted (their list order is a
    transformation implementation detail), with endpoints expressed as
    node positions.
    """
    index = {node.uid: position for position, node in enumerate(graph.nodes)}
    nodes = tuple(
        _node_signature(node, position, recursive)
        for position, node in enumerate(graph.nodes)
    )
    edges = tuple(
        sorted(
            (
                index[edge.src.uid],
                index[edge.dst.uid],
                edge.md.name,
                edge.md.src_name,
                edge.md.modifier,
                edge.md.dtype,
                tuple(edge.md.shape),
            )
            for edge in graph.edges
        )
    )
    return (graph.name, graph.domain, nodes, edges)

"""The paper's *algebraic combination* rewrite (§IV-B).

Simultaneous access to all granularities lets PolyMath find
simplifications "which span multiple levels of granularity": the worked
example is two matrix-vector products whose results are added — they can
be fused into a single operation by concatenating their inputs.
:func:`fuse_matvec_producer` is that rewrite on srDFGs: an ``Indexed``
reference whose producer is a single-consumer ``matvec``-class node is
replaced by the producer's reduction expression inline, collapsing two
nodes (two granularities) into one fused compute node.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from ..pmlang import ast_nodes as ast
from ..srdfg import opclass
from ..srdfg.graph import COMPUTE
from .engine import map_children

#: Producer op names eligible for inlining into an additive consumer.
_FUSABLE_PRODUCERS = ("matvec", "dot", "contract")


def _rename_indices(expr, mapping):
    """*expr* with index-variable Names (and reduction binders) renamed
    per *mapping*."""
    if isinstance(expr, ast.Name):
        if expr.id in mapping:
            return ast.Name(id=mapping[expr.id], line=expr.line)
        return expr
    if isinstance(expr, ast.ReductionCall):
        return ast.ReductionCall(
            op=expr.op,
            indices=tuple(
                ast.ReductionIndex(
                    name=mapping.get(spec.name, spec.name),
                    predicate=_rename_indices(spec.predicate, mapping),
                )
                for spec in expr.indices
            ),
            arg=_rename_indices(expr.arg, mapping),
            line=expr.line,
        )
    return map_children(expr, lambda sub: _rename_indices(sub, mapping))


def _rename_vars(expr, mapping):
    """*expr* with variable references (Indexed bases and bare Names)
    renamed per *mapping*; index variables are renamed by
    ``_rename_indices`` and must not appear in *mapping*."""
    if isinstance(expr, ast.Name):
        if expr.id in mapping:
            return ast.Name(id=mapping[expr.id], line=expr.line)
        return expr
    if isinstance(expr, ast.Indexed):
        return ast.Indexed(
            base=mapping.get(expr.base, expr.base),
            indices=tuple(_rename_vars(i, mapping) for i in expr.indices),
            line=expr.line,
        )
    return map_children(expr, lambda sub: _rename_vars(sub, mapping))


def _fresh_name(base, used):
    for counter in itertools.count():
        candidate = f"{base}_f{counter}"
        if candidate not in used:
            return candidate


def _substitute(expr, reference, replacement):
    """*expr* with the *reference* node (by identity, reachable through
    BinOps only) replaced."""
    if expr is reference:
        return replacement
    if isinstance(expr, ast.BinOp):
        return ast.BinOp(
            op=expr.op,
            left=_substitute(expr.left, reference, replacement),
            right=_substitute(expr.right, reference, replacement),
            line=expr.line,
        )
    return expr


def _fusable_reference(graph, node):
    """The first ``(Indexed reference, producer node)`` of *node*'s
    statement eligible for inlining, or None."""
    stmt = node.attrs["stmt"]
    producers = {edge.md.name: edge.src for edge in graph.in_edges(node)}
    consumer_ranges = node.attrs.get("index_ranges", {})

    def eligible(sub):
        producer = producers.get(sub.base)
        if producer is None or producer.kind != COMPUTE:
            return None
        if producer.attrs.get("partial_write"):
            return None
        descriptor = producer.attrs.get("descriptor")
        if descriptor is None or descriptor.opname not in _FUSABLE_PRODUCERS:
            return None
        if descriptor.fused or descriptor.has_predicate:
            return None
        # The edge's metadata already links the producer's publish name
        # (possibly a formal after inlining) to ``sub.base``, so no name
        # equality is required here.
        if len(sub.indices) != len(descriptor.free_indices):
            return None
        if not all(isinstance(i, ast.Name) for i in sub.indices):
            return None
        if not all(
            isinstance(i, ast.Name)
            for i in producer.attrs["stmt"].target_indices
        ):
            return None
        if any(edge.dst.uid != node.uid for edge in graph.out_edges(producer)):
            return None  # another consumer still needs the producer
        # Free-index extents must line up with the consumer's subscript
        # ranges for the inlined expression to be equivalent.
        producer_ranges = producer.attrs.get("index_ranges", {})
        for free_name, subscript in zip(descriptor.free_indices, sub.indices):
            if consumer_ranges.get(subscript.id) != producer_ranges.get(free_name):
                return None
        # The producer's value must be referenced exactly once in the
        # consumer, otherwise inlining would duplicate work and leave a
        # dangling reference.
        references = sum(
            1
            for n in ast.walk_expr(stmt.value)
            if isinstance(n, ast.Indexed) and n.base == sub.base
        )
        if references != 1:
            return None
        return producer

    def visit(sub):
        """Depth-first, left to right, through additive BinOps only."""
        if isinstance(sub, ast.BinOp):
            if sub.op not in ("+", "-"):
                return None
            return visit(sub.left) or visit(sub.right)
        if isinstance(sub, ast.Indexed):
            producer = eligible(sub)
            if producer is not None:
                return sub, producer
        return None

    return visit(stmt.value)


def fuse_matvec_producer(graph, node, ctx):
    """Inline one single-consumer matvec producer into *node*.

    For a consumer statement whose value contains ``t[k]`` in additive
    position, where ``t`` is produced by a non-partial single-consumer
    ``matvec``-class node, the producer's reduction expression is
    substituted in place of ``t[k]`` (with its free index renamed to
    ``k`` and its bound indices freshened), its input edges are rerouted
    to the consumer, and the producer node is deleted. The result is the
    paper's concatenated-input matrix-vector operation expressed as one
    fused node. Returns True when a fusion happened (the
    :class:`~repro.rewrite.rules.GraphRule` rewrite contract).
    """
    found = _fusable_reference(graph, node)
    if found is None:
        return False
    reference, producer = found
    stmt = node.attrs["stmt"]

    # Build the renaming: producer free index -> consumer subscript
    # name; producer bound indices -> fresh names.
    consumer_ranges = dict(node.attrs.get("index_ranges", {}))
    producer_ranges = producer.attrs.get("index_ranges", {})
    descriptor = producer.attrs["descriptor"]
    mapping = {}
    used = set(consumer_ranges) | set(producer_ranges)
    for free_name, subscript in zip(descriptor.free_indices, reference.indices):
        mapping[free_name] = subscript.id
    for bound_name in descriptor.reduce_indices:
        fresh = _fresh_name(bound_name, used)
        used.add(fresh)
        mapping[bound_name] = fresh
        consumer_ranges[fresh] = producer_ranges[bound_name]

    inlined = _rename_indices(producer.attrs["stmt"].value, mapping)

    # Freshen the producer's operand names that would collide with names
    # already visible in the consumer (e.g. two inlined ``mvmul`` bodies
    # both read an ``A``): consumer-side edge names and the inlined
    # expression are renamed together.
    consumer_names = set(ast.expr_names(stmt.value)) | {stmt.target}
    for index_expr in stmt.target_indices:
        consumer_names |= ast.expr_names(index_expr)
    consumer_names |= set(node.attrs.get("static_env", {}))
    consumer_names |= set(consumer_ranges)
    var_rename = {}
    producer_edges = list(graph.in_edges(producer))
    for edge in producer_edges:
        operand = edge.md.name
        if operand in consumer_names and operand not in var_rename:
            var_rename[operand] = _fresh_name(
                operand, consumer_names | set(var_rename.values())
            )
    if var_rename:
        inlined = _rename_vars(inlined, var_rename)

    new_stmt = ast.Assign(
        target=stmt.target,
        target_indices=stmt.target_indices,
        value=_substitute(stmt.value, reference, inlined),
        line=stmt.line,
    )

    merged_static = dict(producer.attrs.get("static_env", {}))
    merged_static.update(node.attrs.get("static_env", {}))
    node.attrs["stmt"] = new_stmt
    node.attrs["index_ranges"] = consumer_ranges
    node.attrs["static_env"] = merged_static
    node.attrs["descriptor"] = opclass.classify(
        new_stmt, consumer_ranges, getattr(graph, "reductions", {})
    )
    node.name = node.attrs["descriptor"].opname
    reads = set(node.attrs.get("reads", ())) - {reference.base}
    for edge in producer_edges:
        reads.add(var_rename.get(edge.md.name, edge.md.name))
    node.attrs["reads"] = tuple(sorted(reads))

    # Reroute the producer's inputs to the fused node (renamed where
    # needed), then delete the producer.
    for edge in producer_edges:
        md = edge.md
        if md.name in var_rename:
            md = replace(md, name=var_rename[md.name], src_name=md.producer_name)
        graph.add_edge(edge.src, node, md)
    graph.remove_node(producer)
    return True

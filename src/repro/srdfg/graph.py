"""The simultaneously-recursive dataflow graph (srDFG), §III of the paper.

An srDFG is a pair ``(N, E)``. A node is ``(name, srdfg)``: the name of an
operation plus its own lower-granularity srDFG. An edge is
``(src, dst, md)`` where ``md`` is :class:`~repro.srdfg.metadata.EdgeMeta`.
The recursion is what gives *simultaneous* access to every granularity:
component nodes contain statement-granularity graphs, and statement
(compute) nodes can be expanded to scalar-granularity graphs on demand.

Node kinds used in this implementation:

``var``
    A boundary variable of the component instance (its ``attrs['modifier']``
    is input/output/state/param). Source and/or sink of dataflow.
``const``
    A compile-time constant (e.g. a literal bound to a ``param`` formal).
``compute``
    One PMLang formula statement: a *group operation*. ``attrs['stmt']``
    holds the AST, ``attrs['opname']`` the classified operation name that
    lowering matches against target-supported operation sets.
``component``
    A component instantiation whose ``subgraph`` is the callee body built
    with concrete shape bindings (each instantiation gets its own graph,
    exactly as §III-B describes for ``mvmul``).
``scalar``
    A single scalar operation inside an expanded compute node.

State variables form the paper's ``src == dst`` cycles: the ``var`` node for
a state argument is both read at the start of an invocation and written at
the end, and carries a self-edge tagged with the ``state`` modifier.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import GraphError
from .metadata import EdgeMeta

VAR = "var"
CONST = "const"
COMPUTE = "compute"
COMPONENT = "component"
SCALAR = "scalar"

NODE_KINDS = (VAR, CONST, COMPUTE, COMPONENT, SCALAR)

_uid_counter = itertools.count(1)


def _next_uid():
    return next(_uid_counter)


@dataclass
class Node:
    """One srDFG node: an operation name plus its own sub-srDFG."""

    name: str
    kind: str
    subgraph: Optional["SrDFG"] = None
    domain: Optional[str] = None
    attrs: dict = field(default_factory=dict)
    uid: int = field(default_factory=_next_uid)

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise GraphError(f"unknown node kind {self.kind!r}")

    @property
    def srdfg(self):
        """Paper-style accessor: ``n.srdfg`` is the node's sub-graph."""
        return self.subgraph

    def __hash__(self):
        return self.uid

    def __eq__(self, other):
        return isinstance(other, Node) and other.uid == self.uid

    def __repr__(self):
        return f"Node({self.name!r}, kind={self.kind}, uid={self.uid})"


@dataclass(frozen=True)
class Edge:
    """A directed operand edge ``(src, dst, md)``."""

    src: Node
    dst: Node
    md: EdgeMeta

    def describe(self):
        return f"{self.src.name} -[{self.md.describe()}]-> {self.dst.name}"


class SrDFG:
    """A dataflow graph whose nodes are themselves srDFGs."""

    def __init__(self, name, domain=None):
        self.name = name
        self.domain = domain
        self.nodes: List[Node] = []
        self.edges: List[Edge] = []
        self._nodes_by_uid: Dict[int, Node] = {}
        #: The adjacency index: node uid -> the non-self edges arriving
        #: at / leaving it, in insertion order. ``nodes`` and ``edges``
        #: change only through the three mutators below, which keep it
        #: in step, so an edge query costs the node's degree.
        self._in: Dict[int, List[Edge]] = {}
        self._out: Dict[int, List[Edge]] = {}

    def __getstate__(self):
        # The index is derived: it is rebuilt on load, not pickled.
        state = dict(self.__dict__)
        del state["_in"], state["_out"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._in = {node.uid: [] for node in self.nodes}
        self._out = {node.uid: [] for node in self.nodes}
        for edge in self.edges:
            self._index(edge)

    def _index(self, edge):
        if edge.src.uid != edge.dst.uid:
            self._out[edge.src.uid].append(edge)
            self._in[edge.dst.uid].append(edge)

    # -- construction --------------------------------------------------------

    def add_node(self, node):
        """Insert *node*; returns it for chaining."""
        if node.uid in self._nodes_by_uid:
            raise GraphError(f"node {node!r} already in graph {self.name!r}")
        self.nodes.append(node)
        self._nodes_by_uid[node.uid] = node
        self._in[node.uid] = []
        self._out[node.uid] = []
        return node

    def add_edge(self, src, dst, md):
        """Insert an edge; both endpoints must already be graph members."""
        for endpoint in (src, dst):
            if endpoint.uid not in self._nodes_by_uid:
                raise GraphError(
                    f"edge endpoint {endpoint!r} not in graph {self.name!r}"
                )
        edge = Edge(src=src, dst=dst, md=md)
        self.edges.append(edge)
        self._index(edge)
        return edge

    def remove_node(self, node):
        """Remove *node* and every edge touching it."""
        uid = node.uid
        if uid not in self._nodes_by_uid:
            raise GraphError(f"node {node!r} not in graph {self.name!r}")
        del self._nodes_by_uid[uid]
        for edge in self._in.pop(uid):
            _discard(self._out[edge.src.uid], edge)
        for edge in self._out.pop(uid):
            _discard(self._in[edge.dst.uid], edge)
        self.nodes = [candidate for candidate in self.nodes if candidate.uid != uid]
        self.edges = [
            edge
            for edge in self.edges
            if edge.src.uid != uid and edge.dst.uid != uid
        ]

    def remove_edge(self, edge):
        """Remove *edge* (by identity); a no-op when it is not here."""
        self.edges = [candidate for candidate in self.edges if candidate is not edge]
        if edge.src.uid != edge.dst.uid:
            _discard(self._out.get(edge.src.uid, []), edge)
            _discard(self._in.get(edge.dst.uid, []), edge)

    # -- queries ----------------------------------------------------------------

    def node_by_uid(self, uid):
        return self._nodes_by_uid[uid]

    def in_edges(self, node):
        """Edges arriving at *node*, excluding state self-edges, in
        insertion order."""
        return list(self._in.get(node.uid, ()))

    def out_edges(self, node):
        """Edges leaving *node*, excluding state self-edges, in insertion
        order."""
        return list(self._out.get(node.uid, ()))

    def var_nodes(self, modifier=None):
        """Boundary variable nodes, optionally filtered by modifier."""
        selected = [node for node in self.nodes if node.kind == VAR]
        if modifier is not None:
            selected = [
                node for node in selected if node.attrs.get("modifier") == modifier
            ]
        return selected

    def compute_nodes(self):
        return [node for node in self.nodes if node.kind == COMPUTE]

    def component_nodes(self):
        return [node for node in self.nodes if node.kind == COMPONENT]

    def topological_order(self):
        """Kahn topological sort over the ordering edges, in O(N+E).

        Two edge families do not order execution: state self-edges
        (``src == dst``, the paper's state marker, which the adjacency
        index leaves out) and *write-back* edges whose destination is a
        boundary ``var`` node. A var node is read at the start of an
        invocation and its final value is resolved after execution, so the
        producer -> var edge carries the result out without sequencing
        anything; keeping it as an ordering edge would make every
        read-then-write variable (state, outputs) a false cycle.
        """
        indegree = {
            node.uid: 0 if node.kind == VAR else len(self._in[node.uid])
            for node in self.nodes
        }
        # Seed with zero-indegree nodes in insertion order for determinism.
        ready = deque(node for node in self.nodes if not indegree[node.uid])
        order = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for edge in self._out[node.uid]:
                dst = edge.dst
                if dst.kind == VAR:
                    continue
                indegree[dst.uid] -= 1
                if not indegree[dst.uid]:
                    ready.append(dst)
        if len(order) != len(self.nodes):
            raise GraphError(
                f"srDFG {self.name!r} contains a non-state cycle "
                f"({len(order)}/{len(self.nodes)} nodes ordered)"
            )
        return order

    # -- recursion ---------------------------------------------------------------

    def walk(self, max_depth=None, _depth=0):
        """Yield ``(depth, node)`` over every node at every recursion level."""
        for node in self.nodes:
            yield _depth, node
            if node.subgraph is not None and (
                max_depth is None or _depth + 1 <= max_depth
            ):
                yield from node.subgraph.walk(max_depth=max_depth, _depth=_depth + 1)

    def total_counts(self):
        """Recursive ``(nodes, edges)`` including every nested subgraph.

        Pass and stage instrumentation uses this so transformations that
        rewrite *nested* srDFGs (the common case for recursive passes)
        report real deltas instead of zeros.
        """
        nodes = len(self.nodes)
        edges = len(self.edges)
        for node in self.nodes:
            if node.subgraph is not None:
                sub_nodes, sub_edges = node.subgraph.total_counts()
                nodes += sub_nodes
                edges += sub_edges
        return nodes, edges

    def depth(self):
        """Maximum recursion depth beneath this graph (0 when flat)."""
        deepest = 0
        for node in self.nodes:
            if node.subgraph is not None:
                deepest = max(deepest, 1 + node.subgraph.depth())
        return deepest

    # -- integrity -----------------------------------------------------------------

    def validate(self):
        """Check structural invariants; raises :class:`GraphError`.

        * every edge endpoint is a member node;
        * no dangling compute nodes (a compute node must produce something);
        * the graph is acyclic modulo state self-edges;
        * metadata modifiers on var-node edges agree with the var node.
        """
        for edge in self.edges:
            for endpoint in (edge.src, edge.dst):
                if endpoint.uid not in self._nodes_by_uid:
                    raise GraphError(
                        f"dangling edge endpoint {endpoint!r} in {self.name!r}"
                    )
        for node in self.nodes:
            if node.kind in (COMPUTE, COMPONENT) and not self.out_edges(node):
                # A compute/component node with no consumers must at least
                # write a boundary variable through an edge; otherwise it is
                # dead and should have been removed by DCE, not left dangling.
                produced = node.attrs.get("writes", ())
                if not produced:
                    raise GraphError(
                        f"{node.kind} node {node.name!r} in {self.name!r} "
                        "produces nothing"
                    )
        self.topological_order()
        for node in self.nodes:
            if node.subgraph is not None:
                node.subgraph.validate()
        return True

    # -- misc -------------------------------------------------------------------------

    def stats(self):
        """Counts of nodes by kind at this level plus recursive totals."""
        by_kind = {}
        for node in self.nodes:
            by_kind[node.kind] = by_kind.get(node.kind, 0) + 1
        total = sum(1 for _ in self.walk())
        return {"by_kind": by_kind, "level_nodes": len(self.nodes), "all_nodes": total}

    def state_edges(self):
        """The ``src == dst`` edges that represent state persistence."""
        return [edge for edge in self.edges if edge.src.uid == edge.dst.uid]

    def __repr__(self):
        return (
            f"SrDFG({self.name!r}, domain={self.domain}, nodes={len(self.nodes)}, "
            f"edges={len(self.edges)})"
        )


def _discard(edges, edge):
    """Drop *edge* from the index list *edges* by identity: equal edges
    (same endpoints and metadata) are distinct edges."""
    for position, candidate in enumerate(edges):
        if candidate is edge:
            del edges[position]
            return

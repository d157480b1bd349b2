"""Unit tests for the srDFG data structure itself."""

import copy
import pickle

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    rule,
)

from repro.errors import GraphError
from repro.srdfg.graph import COMPUTE, VAR, Node, SrDFG
from repro.srdfg.metadata import EdgeMeta, VarInfo


def make_node(name, kind=COMPUTE, **attrs):
    base_attrs = {"writes": (name,)} if kind == COMPUTE else {}
    base_attrs.update(attrs)
    return Node(name=name, kind=kind, attrs=base_attrs)


def meta(name, **kwargs):
    return EdgeMeta(name=name, **kwargs)


class TestConstruction:
    def test_add_and_lookup(self):
        graph = SrDFG("g")
        node = graph.add_node(make_node("a"))
        assert graph.node_by_uid(node.uid) is node

    def test_duplicate_node_rejected(self):
        graph = SrDFG("g")
        node = graph.add_node(make_node("a"))
        with pytest.raises(GraphError):
            graph.add_node(node)

    def test_edge_requires_membership(self):
        graph = SrDFG("g")
        inside = graph.add_node(make_node("a"))
        outside = make_node("b")
        with pytest.raises(GraphError):
            graph.add_edge(inside, outside, meta("v"))

    def test_remove_node_removes_edges(self):
        graph = SrDFG("g")
        a = graph.add_node(make_node("a"))
        b = graph.add_node(make_node("b"))
        graph.add_edge(a, b, meta("v"))
        graph.remove_node(a)
        assert graph.edges == []
        assert [node.name for node in graph.nodes] == ["b"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError):
            Node(name="x", kind="bogus")


class TestTopologicalOrder:
    def test_respects_edges(self):
        graph = SrDFG("g")
        a = graph.add_node(make_node("a"))
        b = graph.add_node(make_node("b"))
        c = graph.add_node(make_node("c"))
        graph.add_edge(a, b, meta("v"))
        graph.add_edge(b, c, meta("w"))
        order = [node.name for node in graph.topological_order()]
        assert order.index("a") < order.index("b") < order.index("c")

    def test_cycle_detected(self):
        graph = SrDFG("g")
        a = graph.add_node(make_node("a"))
        b = graph.add_node(make_node("b"))
        graph.add_edge(a, b, meta("v"))
        graph.add_edge(b, a, meta("w"))
        with pytest.raises(GraphError, match="cycle"):
            graph.topological_order()

    def test_state_self_edge_not_a_cycle(self):
        graph = SrDFG("g")
        state = graph.add_node(
            Node(name="s", kind=VAR, attrs={"modifier": "state"})
        )
        graph.add_edge(state, state, meta("s", modifier="state"))
        assert graph.topological_order() == [state]

    def test_writeback_to_var_not_a_cycle(self):
        # reader <- var, writer -> var must not deadlock ordering.
        graph = SrDFG("g")
        var = graph.add_node(Node(name="v", kind=VAR, attrs={"modifier": "output"}))
        reader = graph.add_node(make_node("reader"))
        writer = graph.add_node(make_node("writer"))
        graph.add_edge(var, reader, meta("v"))
        graph.add_edge(reader, writer, meta("t"))
        graph.add_edge(writer, var, meta("v", modifier="output"))
        order = [node.name for node in graph.topological_order()]
        assert order.index("reader") < order.index("writer")


class TestRecursionHelpers:
    def test_walk_yields_all_levels(self):
        inner = SrDFG("inner")
        inner.add_node(make_node("leaf"))
        graph = SrDFG("outer")
        graph.add_node(
            Node(name="comp", kind="component", subgraph=inner, attrs={"writes": ("x",)})
        )
        entries = list(graph.walk())
        assert [(depth, node.name) for depth, node in entries] == [
            (0, "comp"),
            (1, "leaf"),
        ]

    def test_depth(self):
        level2 = SrDFG("l2")
        level2.add_node(make_node("x"))
        level1 = SrDFG("l1")
        level1.add_node(
            Node(name="c2", kind="component", subgraph=level2, attrs={"writes": ("x",)})
        )
        top = SrDFG("l0")
        top.add_node(
            Node(name="c1", kind="component", subgraph=level1, attrs={"writes": ("x",)})
        )
        assert top.depth() == 2

    def test_stats_counts(self):
        graph = SrDFG("g")
        graph.add_node(make_node("a"))
        graph.add_node(Node(name="v", kind=VAR, attrs={"modifier": "input"}))
        stats = graph.stats()
        assert stats["by_kind"] == {"compute": 1, "var": 1}
        assert stats["all_nodes"] == 2


class TestValidation:
    def test_dangling_compute_rejected(self):
        graph = SrDFG("g")
        graph.add_node(Node(name="dead", kind=COMPUTE, attrs={}))
        with pytest.raises(GraphError, match="produces nothing"):
            graph.validate()

    def test_valid_graph_passes(self):
        graph = SrDFG("g")
        var = graph.add_node(Node(name="y", kind=VAR, attrs={"modifier": "output"}))
        node = graph.add_node(make_node("op"))
        graph.add_edge(node, var, meta("y", modifier="output"))
        assert graph.validate()


class TestEdgeMeta:
    def test_nbytes(self):
        assert meta("x", dtype="float", shape=(4, 4)).nbytes == 64
        assert meta("x", dtype="complex", shape=(2,)).nbytes == 16

    def test_invalid_modifier_rejected(self):
        with pytest.raises(ValueError):
            EdgeMeta(name="x", modifier="bogus")

    def test_producer_name_defaults_to_name(self):
        m = meta("x")
        assert m.producer_name == "x"
        assert m.with_src_name("y").producer_name == "y"

    def test_describe(self):
        m = meta("w", dtype="float", modifier="state", shape=(3, 2))
        assert m.describe() == "state float w[3][2]"

    def test_varinfo_meta(self):
        info = VarInfo(name="v", dtype="int", modifier="param", shape=(5,))
        assert info.meta().modifier == "param"
        assert info.meta("local").modifier == "local"


def _scan_in_edges(graph, node):
    """The adjacency index's definition: a scan over every edge."""
    return [
        edge for edge in graph.edges
        if edge.dst.uid == node.uid and edge.src.uid != node.uid
    ]


def _scan_out_edges(graph, node):
    return [
        edge for edge in graph.edges
        if edge.src.uid == node.uid and edge.dst.uid != node.uid
    ]


def _reference_order(graph):
    """Kahn over ``graph.edges``: self-edges and edges into a var node do
    not order; ready nodes leave first-in first-out."""
    def ordering(edge):
        return edge.src.uid != edge.dst.uid and edge.dst.kind != VAR

    indegree = {node.uid: 0 for node in graph.nodes}
    for edge in graph.edges:
        if ordering(edge):
            indegree[edge.dst.uid] += 1
    ready = [node for node in graph.nodes if indegree[node.uid] == 0]
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for edge in _scan_out_edges(graph, node):
            if ordering(edge):
                indegree[edge.dst.uid] -= 1
                if indegree[edge.dst.uid] == 0:
                    ready.append(edge.dst)
    return order if len(order) == len(graph.nodes) else None


def _assert_index_matches_scan(graph):
    for node in graph.nodes:
        assert graph.in_edges(node) == _scan_in_edges(graph, node)
        assert graph.out_edges(node) == _scan_out_edges(graph, node)
        # Element-wise identity, not just equality: equal edges are
        # distinct edges.
        assert all(
            a is b for a, b in zip(graph.in_edges(node), _scan_in_edges(graph, node))
        )
    expected = _reference_order(graph)
    if expected is None:
        with pytest.raises(GraphError, match="non-state cycle"):
            graph.topological_order()
    else:
        assert [node.uid for node in graph.topological_order()] == [
            node.uid for node in expected
        ]


class AdjacencyIndexMachine(RuleBasedStateMachine):
    """Random mutation sequences keep the adjacency index equal to the
    full-scan definition it replaced."""

    nodes = Bundle("nodes")
    edges = Bundle("edges")

    def __init__(self):
        super().__init__()
        self.graph = SrDFG("g")
        self.serial = 0

    @rule(target=nodes, kind=st.sampled_from([COMPUTE, COMPUTE, VAR]))
    def add_node(self, kind):
        self.serial += 1
        return self.graph.add_node(make_node(f"n{self.serial}", kind=kind))

    @rule(target=edges, src=nodes, dst=nodes, name=st.sampled_from("vw"))
    def add_edge(self, src, dst, name):
        # Self-edges and repeated equal edges are both legal.
        return self.graph.add_edge(src, dst, meta(name))

    @rule(edge=consumes(edges))
    def remove_edge(self, edge):
        # The edge may already have gone with one of its endpoints.
        self.graph.remove_edge(edge)

    @rule(node=consumes(nodes))
    def remove_node(self, node):
        self.graph.remove_node(node)

    @invariant()
    def index_matches_scan(self):
        _assert_index_matches_scan(self.graph)

    @invariant()
    def index_survives_pickle_and_deepcopy(self):
        for clone in (
            pickle.loads(pickle.dumps(self.graph)),
            copy.deepcopy(self.graph),
        ):
            _assert_index_matches_scan(clone)
            assert [e.describe() for e in clone.edges] == [
                e.describe() for e in self.graph.edges
            ]


TestAdjacencyIndex = AdjacencyIndexMachine.TestCase
TestAdjacencyIndex.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)


class TestAdjacencyIndexCases:
    def test_equal_edges_are_removed_by_identity(self):
        graph = SrDFG("g")
        a = graph.add_node(make_node("a"))
        b = graph.add_node(make_node("b"))
        first = graph.add_edge(a, b, meta("v"))
        second = graph.add_edge(a, b, meta("v"))
        assert first == second and first is not second
        graph.remove_edge(second)
        [kept] = graph.out_edges(a)
        assert kept is first
        assert graph.in_edges(b)[0] is first

    def test_queries_return_copies(self):
        graph = SrDFG("g")
        a = graph.add_node(make_node("a"))
        b = graph.add_node(make_node("b"))
        edge = graph.add_edge(a, b, meta("v"))
        for out in graph.out_edges(a):
            graph.remove_edge(out)
        assert graph.out_edges(a) == [] and graph.in_edges(b) == []
        assert graph.edges == []
        graph.remove_edge(edge)  # no longer here: a no-op

    def test_self_edge_is_not_indexed(self):
        graph = SrDFG("g")
        var = graph.add_node(Node(name="s", kind=VAR, attrs={"modifier": "state"}))
        edge = graph.add_edge(var, var, meta("s", modifier="state"))
        assert graph.in_edges(var) == [] and graph.out_edges(var) == []
        assert graph.state_edges() == [edge]
        graph.remove_node(var)
        assert graph.edges == []

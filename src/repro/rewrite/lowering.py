"""srDFG lowering — Algorithm 1 of the paper, as a rule set.

``Lower(srdfg, Om)`` walks the graph with a per-domain map of supported
operation names ``Om``. A node whose name the target supports is kept at
its current granularity (``macro`` component, ``group`` compute node);
otherwise it is refined:

* a **component** node is recursively lowered and then *inlined* — its
  sub-srDFG's nodes replace it at the caller level, with edges rewired
  through the formal/actual bindings (the edge metadata's ``src_name``
  lets values published under a formal's name reach consumers that read
  the actual's name, and vice versa);
* a **compute** (group-op) node is annotated ``lowered="scalar"`` when
  the domain's scalar operation classes cover every scalar op its
  statement performs — the target then emits scalar-granularity IR for it
  (TABLA and DECO take this path) — and otherwise compilation for that
  accelerator fails, exactly as §III-C prescribes.

Each decision is one :class:`~repro.rewrite.rules.GraphRule` of the rule
set :func:`lowering_rules` builds from one compile's target maps, driven
by the shared engine in one ``sweep`` over each level's node snapshot —
the paper's loop order, so node order and uids are the loop's. Every
firing decides one node of its level that no rule had decided: that is
the rule set's termination measure, :func:`lowering_measure`, checked
like every other rule set's in ``tests/test_rewrite.py``. Firings count
into :data:`LOWERING_STATS`, apart from the optimiser's ``rewrite`` group.
"""

from __future__ import annotations

from collections import Counter

from ..errors import LoweringError
from ..obs import DEFAULT_REGISTRY
from ..srdfg.graph import COMPONENT, COMPUTE, VAR, Node
from ..srdfg.metadata import LOCAL, VarInfo
from .engine import apply_graph_rules
from .pattern import NodePattern
from .rules import SWEEP, GraphRule, RuleSet

#: The process-default ``lowering`` group: ``lowering/<rule>.matches`` and
#: ``.rewrites`` per rule, plus ``lowering.sweeps`` (one per level).
LOWERING_STATS = DEFAULT_REGISTRY.counters("lowering")


def _inline_component(graph, node):
    """Replace a component *node* with the nodes of its sub-srDFG."""
    sub = node.subgraph
    bindings = {binding.formal: binding for binding in node.attrs["bindings"]}

    # Where does each actual's current value come from at the call site?
    caller_source = {
        edge.md.name: (edge.src, edge.md.producer_name)
        for edge in graph.in_edges(node)
    }

    def source_for_actual(actual, declared_shape, dtype):
        if actual in caller_source:
            return caller_source[actual]
        for existing in graph.nodes:
            if existing.kind == VAR and existing.name == actual:
                return (existing, actual)
        info = getattr(graph, "vars", {}).get(actual) or VarInfo(
            name=actual, dtype=dtype, modifier=LOCAL, shape=declared_shape
        )
        fresh = Node(
            name=actual, kind=VAR, domain=graph.domain,
            attrs={"modifier": LOCAL, "dtype": info.dtype, "shape": info.shape},
        )
        graph.add_node(fresh)
        return (fresh, actual)

    # 1. Move every interior (non-boundary) node up into the caller graph.
    boundary = {}
    for sub_node in sub.nodes:
        if sub_node.kind == VAR and sub_node.name in bindings:
            boundary[sub_node.uid] = sub_node
            continue
        graph.add_node(sub_node)

    # 2. Re-create interior edges; translate edges that touch a boundary
    # variable through the call-site bindings.
    #    Also collect the final interior producer of each written formal.
    final_producer = {}
    for edge in sub.edges:
        src_boundary = edge.src.uid in boundary
        dst_boundary = edge.dst.uid in boundary
        if src_boundary and dst_boundary:
            continue  # state self-edge on a bound formal
        if not src_boundary and not dst_boundary:
            graph.add_edge(edge.src, edge.dst, edge.md)
            continue
        if src_boundary:
            # Interior reader of a bound formal: feed it from the caller.
            formal = edge.src.name
            binding = bindings[formal]
            if binding.kind == "const":
                # Consts were folded into static envs at build time; a var
                # node for them never exists, so this cannot happen.
                raise LoweringError(
                    f"const-bound formal {formal!r} has a var node"
                )
            declared = edge.src.attrs.get("shape", ())
            dtype = edge.src.attrs.get("dtype", "float")
            src, publish = source_for_actual(binding.actual, declared, dtype)
            graph.add_edge(src, edge.dst, edge.md.with_src_name(publish))
        else:
            # Interior writer finishing a bound output/state formal.
            formal = edge.dst.name
            final_producer[formal] = (edge.src, edge.md.producer_name)

    # 3. Reconnect the call site's consumers to the interior producers.
    for edge in list(graph.out_edges(node)):
        actual = edge.md.producer_name
        formal = next(
            (
                binding.formal for binding in node.attrs["bindings"]
                if binding.kind == "var" and binding.actual == actual
                and binding.modifier in ("output", "state")
            ),
            None,
        )
        if formal is None:
            raise LoweringError(
                f"component {node.name!r} publishes {actual!r} without an "
                "output/state binding"
            )
        if formal in final_producer:
            src, publish = final_producer[formal]
        else:
            # Never written inside: pass the initial value through.
            sub_var = next(
                boundary[uid] for uid in boundary if boundary[uid].name == formal
            )
            src, publish = source_for_actual(
                actual, sub_var.attrs.get("shape", ()), sub_var.attrs.get("dtype", "float")
            )
        graph.remove_edge(edge)
        graph.add_edge(src, edge.dst, edge.md.with_src_name(publish))

    graph.remove_node(node)


def scalar_classes(node):
    """Scalar operation classes a compute node needs (alu/mul/div/...)."""
    descriptor = node.attrs.get("descriptor")
    counts = () if descriptor is None else descriptor.op_counts.items()
    return {name for name, count in counts if count > 0}


def _undecided(graph, node):
    return "lowered" not in node.attrs


def lowering_measure(graph):
    """Component and compute nodes of one level no lowering rule has
    decided yet. Each firing lowers it by one: the annotating rules decide
    their node, and the inline rule swaps its undecided component for the
    nodes of a level already lowered."""
    return sum(
        node.kind in (COMPONENT, COMPUTE) and _undecided(graph, node)
        for node in graph.nodes
    )


def lowering_rules(om, scalar_om=None, *, explain=None):
    """Algorithm 1 for one compile's target maps, as a rule set.

    *om* is ``{domain: set(operation names)}`` — the paper's ``Om`` map;
    *scalar_om* is ``{domain: set(cost classes)}``, the scalar op classes
    each domain's ALUs implement. The inline rule lowers its component's
    level (into :data:`LOWERING_STATS` and *explain*) before moving it up.
    """
    scalar_om = scalar_om or {}

    def supported(graph, node):
        return node.name in om.get(node.domain or graph.domain, ())

    def annotate(tag):
        def rewrite(graph, node, ctx):
            node.attrs["lowered"] = tag
            return True

        return rewrite

    def inline(graph, node, ctx):
        apply_graph_rules(
            node.subgraph, ruleset, stats=LOWERING_STATS, explain=explain
        )
        _inline_component(graph, node)
        return True

    def decompose(graph, node, ctx):
        domain = node.domain or graph.domain
        needed = scalar_classes(node)
        available = scalar_om.get(domain, set())
        if not needed <= available:
            raise LoweringError(
                f"node {node.name!r} (domain {domain}) is not supported as a "
                f"group op and needs scalar classes {sorted(needed - available)} "
                "the target lacks; compilation fails for this accelerator"
            )
        node.attrs["lowered"] = "scalar"
        return True

    def rule(name, kind, rewrite, *where):
        return GraphRule(name, NodePattern(kind=kind, where=(_undecided, *where)), rewrite)

    ruleset = RuleSet(
        name="lowering",
        graph_rules=(
            rule("keep-macro", COMPONENT, annotate("macro"), supported),
            rule("inline-component", COMPONENT, inline),
            rule("keep-group", COMPUTE, annotate("group"), supported),
            rule("decompose-scalar", COMPUTE, decompose),
        ),
        strategy=SWEEP,
    )
    return ruleset


def lower(graph, om, scalar_om=None, *, explain=None):
    """Algorithm 1: lower *graph* in place (and return it) until every node
    is target-supported, logging firings into *explain* when given. A
    compute node that neither the group ops nor the scalar classes of its
    domain cover raises :class:`~repro.errors.LoweringError`."""
    ruleset = lowering_rules(om, scalar_om, explain=explain)
    apply_graph_rules(graph, ruleset, stats=LOWERING_STATS, explain=explain)
    return graph


def supported_summary(graph):
    """Count nodes by their ``lowered`` annotation (for reports/tests)."""
    return dict(Counter(tag for _, node in graph.walk() if (tag := node.attrs.get("lowered"))))

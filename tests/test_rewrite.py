"""Tests for the declarative rewrite engine (``repro.rewrite``).

Covers the pattern matcher (commutativity, capture binding, non-linear
patterns), the fixpoint driver (trip counts, the one bound per loop), the
per-rule proof obligations — every rule checked against the reference
interpreter and its termination measure on generated instances, Algorithm
1's lowering rules included — cost-guided cross-domain fusion (legality
around stateful nodes, strictly improving moves, bit-identical fused vs
unfused outputs), and how a pipeline reports a failing rule.
"""

import collections
import dataclasses
import functools
import importlib.util
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.rewrite
from repro.driver import CompilerSession
from repro.driver.diagnostics import Diagnostics
from repro.errors import LoweringError, RewriteError
from repro.fuzz import generate_program, run_reference
from repro.obs import Counters
from repro.pmlang import ast_nodes as ast
from repro.pmlang.builtins import SCALAR_FUNCTIONS
from repro.pmlang.parser import parse
from repro.rewrite import (
    ALGEBRAIC_COMBINATION,
    ALGEBRAIC_SIMPLIFICATION,
    ANY,
    CONSTANT_FOLDING,
    DEFAULT_RULESETS,
    Any,
    Bin,
    Bindings,
    Call,
    ExplainLog,
    ExprContext,
    ExprRule,
    GraphRule,
    Lit,
    NodePattern,
    Pattern,
    Pipeline,
    Ref,
    RuleSet,
    SWEEP,
    Tern,
    Un,
    apply_graph_rules,
    default_pipeline,
    lowering_rules,
    rewrite_statement,
    run_ruleset,
)
from repro.rewrite.engine import POSITION_LIMIT, REWRITE_STATS, SWEEP_LIMIT, per_rule
from repro.rewrite.lowering import _inline_component, lowering_measure
from repro.rewrite.fusion import (
    _crossing_candidates,
    _is_stateful,
    _relower_tag,
    fuse_cross_domain,
    modeled_cost,
)
from repro.serve.request import result_signature
from repro.srdfg import Executor, build, evaluate_statement
from repro.srdfg.graph import COMPUTE, CONST, Node
from repro.srdfg.interpreter import _BINOPS
from repro.srdfg.plan import PlanConfig, plan_for_graph
from repro.targets import default_accelerators, retag_component_domain
from repro.workloads import END_TO_END, SINGLE_DOMAIN, get_workload


def _expr(source):
    """Parse one expression: the RHS of ``out = <source>;``."""
    program = parse(
        "main(input float x, input float y, input float z,"
        f" output float out) {{ out = {source}; }}"
    )
    return program.components["main"].body[0].value


def _flip(op):
    return lambda expr, bindings, ctx: ast.BinOp(
        op=op, left=expr.left, right=expr.right
    )


#: Two rules that undo each other: neither lowers (expression size, Name
#: count), so the set breaks the expression obligation.
_PING_PONG = RuleSet(
    name="ping-pong",
    expr_rules=(
        ExprRule("to-minus", Bin(op="+"), _flip("-")),
        ExprRule("to-plus", Bin(op="-"), _flip("+")),
    ),
)


#: rule -> (matches, rewrites) of the default pipeline over three paper
#: programs. Deterministic; a change here is a change in what the
#: optimizer does, not in how fast it does it.
_TRIP_COUNTS = {
    "MobileRobot": {
        "constant-folding/fold-binop": (1, 1),
        "constant-folding/propagate-static": (31, 2),
        "cse/merge-duplicate-statement": (7, 0),
        "dead-code-elimination/remove-unreachable": (44, 0),
    },
    "FFT-8192": {
        "algebraic-simplification/mul-one": (4, 4),
        "constant-folding/fold-binop": (572, 572),
        "constant-folding/fold-neg": (26, 26),
        "constant-folding/propagate-static": (761, 364),
        "copy-propagation/forward-identity-copy": (28, 26),
        "cse/merge-duplicate-statement": (30, 0),
        "dead-code-elimination/remove-unreachable": (36, 0),
    },
    "ResNet-18": {
        "algebraic-simplification/mul-one": (28, 28),
        "constant-folding/propagate-static": (506, 41),
        "cse/merge-duplicate-statement": (39, 0),
        "dead-code-elimination/remove-unreachable": (299, 0),
    },
}


# ---------------------------------------------------------------------------
# Pattern matcher
# ---------------------------------------------------------------------------


class TestPatternMatcher:
    def test_capture_binding(self):
        pattern = Bin(op="+", left=Any(name="a"), right=Any(name="b"))
        bindings = Bindings()
        assert pattern.match(_expr("x + 2"), bindings)
        assert isinstance(bindings["a"], ast.Name) and bindings["a"].id == "x"
        assert isinstance(bindings["b"], ast.Literal) and bindings["b"].value == 2

    def test_commutative_matches_swapped_operands(self):
        pattern = Bin(
            op="*", left=Any(name="e"), right=Lit(value=1), commutative=True
        )
        bindings = Bindings()
        assert pattern.match(_expr("1 * y"), bindings)
        assert bindings["e"].id == "y"

    def test_as_written_order_tried_first(self):
        # 1 * 1 matches either way; the as-written binding must win.
        pattern = Bin(
            op="*", left=Any(name="e"), right=Lit(value=1), commutative=True
        )
        expr = _expr("x * 1")
        bindings = Bindings()
        assert pattern.match(expr, bindings)
        assert bindings["e"] is expr.left

    def test_non_commutative_requires_order(self):
        pattern = Bin(op="*", left=Any(name="e"), right=Lit(value=1))
        assert not pattern.match(_expr("1 * y"), Bindings())
        assert pattern.match(_expr("y * 1"), Bindings())

    def test_non_linear_pattern_requires_equal_subtrees(self):
        pattern = Bin(op="-", left=Any(name="e"), right=Any(name="e"))
        assert pattern.match(_expr("(x + y) - (x + y)"), Bindings())
        assert not pattern.match(_expr("(x + y) - (x + z)"), Bindings())

    def test_commutative_retry_discards_partial_captures(self):
        # As-written order binds e := 1 then fails on the right side;
        # the swapped retry must start from clean bindings.
        pattern = Bin(
            op="+", left=Any(name="e"), right=Lit(value=1), commutative=True
        )
        bindings = Bindings()
        assert pattern.match(_expr("1 + x"), bindings)
        assert bindings["e"].id == "x"

    def test_numeric_literal_guard(self):
        assert Lit(numeric=True).match(_expr("3"), Bindings())
        assert not Lit(numeric=True).match(_expr('"s"'), Bindings())

    def test_op_collections(self):
        pattern = Bin(op=frozenset({"+", "-"}))
        assert pattern.match(_expr("x + y"), Bindings())
        assert pattern.match(_expr("x - y"), Bindings())
        assert not pattern.match(_expr("x * y"), Bindings())

    def test_where_predicate(self):
        pattern = Lit(numeric=True, where=lambda e: e.value > 10)
        assert pattern.match(_expr("11"), Bindings())
        assert not pattern.match(_expr("9"), Bindings())

    def test_node_pattern(self):
        graph = build(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[i] * 2.0; }"
        )
        [compute] = graph.compute_nodes()
        var = graph.var_nodes()[0]
        assert NodePattern(kind="compute").matches(graph, compute)
        assert not NodePattern(kind="compute").matches(graph, var)
        assert NodePattern(op=compute.name).matches(graph, compute)
        assert not NodePattern(op="no-such-op").matches(graph, compute)
        rejected = NodePattern(where=(lambda g, n: False,))
        assert not rejected.matches(graph, compute)


# ---------------------------------------------------------------------------
# Engine: trip counts, explain log, the one bound per loop
# ---------------------------------------------------------------------------


class TestEngine:
    def test_per_rule_trip_counts(self):
        stats = Counters()
        graph = build(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[i] * 1.0 + (2 + 3); }"
        )
        default_pipeline().run(graph, stats=stats)
        counters = stats.to_dict()
        assert counters["constant-folding/fold-binop.rewrites"] == 1
        assert counters["algebraic-simplification/mul-one.rewrites"] == 1
        # Matches dominate rewrites (a match may decline to fire).
        for rule, counts in per_rule(stats).items():
            assert counts["matches"] >= counts["rewrites"], rule

    def test_explain_log_records_sites(self):
        explain = ExplainLog()
        graph = build(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[i] * 1.0; }"
        )
        default_pipeline().run(graph, explain=explain)
        assert len(explain) >= 1
        fired = explain.by_rule()
        assert fired.get("algebraic-simplification/mul-one") == 1
        rendered = explain.render()
        assert "algebraic-simplification/mul-one" in rendered
        assert "y@" in rendered  # the statement site

    def test_explain_line_keeps_a_reduction_predicate(self):
        # ``--explain`` prints with PMLang's own renderer: a second,
        # lossy printer in the engine showed this firing as
        # ``-> sum[i](x[i])``, as if the rewrite had dropped ``i < 2``.
        explain = ExplainLog()
        graph = build(
            "main(input float x[4], output float y) {"
            " index i[0:3]; y = sum[i: i < 2](x[i]) * 1.0; }"
        )
        default_pipeline().run(graph, explain=explain)
        assert explain.render().endswith("-> sum[i: i < 2](x[i])")

    def test_operand_swap_hits_the_position_limit(self):
        # A rule that swaps operands forever lowers no measure: the engine
        # stops at its bound and names the broken obligation.
        swapping = RuleSet(
            name="swap",
            expr_rules=(
                ExprRule(
                    name="swap",
                    pattern=Bin(op="+"),
                    build=lambda expr, bindings, ctx: ast.BinOp(
                        op="+", left=expr.right, right=expr.left
                    ),
                ),
            ),
        )
        graph = build(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[i] + 1.0; }"
        )
        [node] = graph.compute_nodes()
        with pytest.raises(RewriteError, match="expression size, Name count"):
            rewrite_statement(graph, node, swapping)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(RewriteError, match="strategy"):
            RuleSet(name="bad", strategy="shuffle")

    def test_untouched_statement_keeps_its_objects(self):
        graph = build(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[i] * 3.0 + exp(x[i]); }"
        )
        [node] = graph.compute_nodes()
        stmt, descriptor, name = node.attrs["stmt"], node.attrs["descriptor"], node.name
        for ruleset in (CONSTANT_FOLDING, ALGEBRAIC_SIMPLIFICATION):
            assert run_ruleset(graph, ruleset, stats=Counters()) is False
        assert node.attrs["stmt"] is stmt
        assert node.attrs["descriptor"] is descriptor
        assert node.name == name

    def test_rewritten_statement_shares_untouched_subtrees(self):
        graph = build(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = exp(x[i]) + x[i] * 1.0; }"
        )
        [node] = graph.compute_nodes()
        before = node.attrs["stmt"]
        assert rewrite_statement(graph, node, ALGEBRAIC_SIMPLIFICATION)
        after = node.attrs["stmt"]
        assert after is not before
        assert after.value.left is before.value.left  # exp(x[i])
        assert after.value.right is before.value.right.left  # x[i]
        assert after.target_indices[0] is before.target_indices[0]

    def test_two_rule_ping_pong_hits_the_position_limit(self):
        graph = build(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[i] + 1.0; }"
        )
        [node] = graph.compute_nodes()
        stats = Counters()
        with pytest.raises(RewriteError, match=f"exceeded {POSITION_LIMIT}"):
            rewrite_statement(graph, node, _PING_PONG, stats=stats)
        # + -> - and - -> + alternate until the bound.
        half = {"matches": POSITION_LIMIT // 2, "rewrites": POSITION_LIMIT // 2}
        assert per_rule(stats) == {
            "ping-pong/to-minus": half,
            "ping-pong/to-plus": half,
        }

    def test_graph_rule_that_never_settles_hits_the_sweep_limit(self):
        def touch(graph, node, ctx):
            node.attrs["touched"] = node.attrs.get("touched", 0) + 1
            return True

        restless = RuleSet(
            name="restless",
            graph_rules=(GraphRule("touch", NodePattern(kind=COMPUTE), touch),),
        )
        graph = _small_graph()
        stats = Counters()
        with pytest.raises(RewriteError, match=r"\(nodes, edges\)"):
            apply_graph_rules(graph, restless, stats=stats)
        assert stats.to_dict()["restless.sweeps"] == SWEEP_LIMIT

    def test_position_limit_on_non_repeating_chain(self):
        counting = RuleSet(
            name="counting",
            expr_rules=(
                ExprRule(
                    "increment",
                    Lit(numeric=True),
                    lambda expr, bindings, ctx: ast.Literal(value=expr.value + 1),
                ),
            ),
        )
        graph = build(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[i] + 1.0; }"
        )
        [node] = graph.compute_nodes()
        stats = Counters()
        with pytest.raises(RewriteError, match=f"exceeded {POSITION_LIMIT}"):
            rewrite_statement(graph, node, counting, stats=stats)
        assert stats.to_dict()["counting/increment.rewrites"] == POSITION_LIMIT

    def test_a_raising_rule_keeps_its_statements_earlier_matches(self):
        """A statement's firings reach the counters in one merge, also
        when a rule raises partway through it."""
        offered = []

        def fail_third(expr, bindings, ctx):
            offered.append(expr)
            if len(offered) == 3:
                raise ValueError("third literal")
            return None

        failing = RuleSet(
            name="failing",
            expr_rules=(ExprRule("third-fails", Lit(numeric=True), fail_third),),
        )
        graph = build(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[i] * 2.0 + 3.0 - 4.0; }"
        )
        [node] = graph.compute_nodes()
        stats = Counters()
        with pytest.raises(RewriteError, match="failing/third-fails"):
            rewrite_statement(graph, node, failing, stats=stats)
        assert stats.to_dict() == {"failing/third-fails.matches": 3}

    def test_concurrent_compiles_add_up_in_the_process_counters(self):
        """Two threads compiling different paper programs at once leave
        ``REWRITE_STATS`` at the sum of what each compile adds alone."""
        names = ("MobileRobot", "BrainStimul")

        def compile_one(name, barrier=None):
            if barrier is not None:
                barrier.wait(timeout=30)
            CompilerSession().compile_workload(get_workload(name))

        def added(run):
            before = REWRITE_STATS.to_dict()
            run()
            return collections.Counter(
                {key: value - before.get(key, 0) for key, value in REWRITE_STATS.to_dict().items()}
            )

        alone = sum((added(functools.partial(compile_one, name)) for name in names),
                    collections.Counter())
        assert alone

        def both():
            barrier = threading.Barrier(len(names))
            threads = [threading.Thread(target=compile_one, args=(name, barrier))
                       for name in names]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

        assert added(both) == alone

    def test_wildcard_and_unknown_patterns_offered_everywhere(self):
        class Recording(Pattern):
            """A pattern subclass the engine knows nothing about."""

            def _accept(self, expr, bindings):
                return True

        def decline(expr, bindings, ctx):
            return None

        everywhere = RuleSet(
            name="everywhere",
            expr_rules=(
                ExprRule("wildcard", Any(), decline),
                ExprRule("test-local", Recording(), decline),
                ExprRule("binops-only", Bin(), decline),
            ),
        )
        graph = build(
            "main(input float x[4], input float k, output float y[4]) {"
            " index i[0:3]; y[i] = -x[i] * 2.0 + (k > 0 ? exp(k) : sum[i](x[i])); }"
        )
        [node] = graph.compute_nodes()
        stmt = node.attrs["stmt"]
        positions = [
            expr
            for root in stmt.target_indices + (stmt.value,)
            for expr in ast.walk_expr(root)
        ]
        assert {type(expr) for expr in positions} == {
            ast.Literal, ast.Name, ast.Indexed, ast.UnaryOp, ast.BinOp,
            ast.Ternary, ast.FuncCall, ast.ReductionCall,
        }
        stats = Counters()
        assert not rewrite_statement(graph, node, everywhere, stats=stats)
        counters = stats.to_dict()
        assert counters["everywhere/wildcard.matches"] == len(positions)
        assert counters["everywhere/test-local.matches"] == len(positions)
        assert counters["everywhere/binops-only.matches"] == sum(
            isinstance(expr, ast.BinOp) for expr in positions
        )

    @pytest.mark.parametrize("workload, expected", sorted(_TRIP_COUNTS.items()))
    def test_paper_program_trip_counts(self, workload, expected):
        """Per-rule matches/rewrites, captured before the driver indexed
        rules by root type: dispatch may skip work, never a match."""
        program = get_workload(workload)
        stats = Counters()
        default_pipeline().run(
            build(program.source(), domain=program.domain), stats=stats
        )
        assert {
            rule: (counts["matches"], counts["rewrites"])
            for rule, counts in per_rule(stats).items()
        } == expected


# ---------------------------------------------------------------------------
# Per-rule proof obligations
# ---------------------------------------------------------------------------
#
# Each rule is checked against the semantics of its own pattern rather than
# against a second implementation ("Pattern Matching in AI Compilers and
# its Formalization", PAPERS.md). A strategy derived from an ExprRule's
# pattern AST generates matching instances; on each, the rule must fire,
# its replacement must evaluate equal to the original under the reference
# interpreter, and (expression size, Name count) must strictly decrease —
# the measure under which every expression rule set terminates. A graph
# rule runs over generated programs: each firing must strictly lower its
# level's (nodes, edges), the graph rule sets' measure, and each program
# must stay bit-identical.
#
# Domain, stated once: every operand is finite and small — names and
# literals lie in [-8, 8], and wildcard subtrees combine them with + - *
# only. Finiteness is what makes mul-zero sound (``inf * 0`` is nan).
# Zeros and units are drawn often: that is where folds and identities
# have their corner cases.

_NAMES = ("a", "b", "c")
_numbers = st.one_of(
    st.sampled_from((0, 0.0, 1, -1)),
    st.integers(min_value=-8, max_value=8),
    st.floats(min_value=-8, max_value=8, allow_nan=False),
)
_envs = st.fixed_dictionaries({name: _numbers for name in _NAMES})
_leaves = st.one_of(
    _numbers.map(lambda value: ast.Literal(value=value)),
    st.sampled_from(_NAMES).map(lambda name: ast.Name(id=name)),
)
_total_exprs = st.recursive(
    _leaves,
    lambda inner: st.builds(
        lambda op, left, right: ast.BinOp(op=op, left=left, right=right),
        st.sampled_from("+-*"), inner, inner,
    ),
    max_leaves=4,
)


def _ops(spec, universe):
    if spec is None:
        return st.sampled_from(sorted(universe))
    if isinstance(spec, str):
        return st.just(spec)
    return st.sampled_from(sorted(spec))


def _call_instances(pattern):
    def args_for(func):
        if pattern.args is not None:
            return st.tuples(*map(instances, pattern.args))
        arity = SCALAR_FUNCTIONS[func][1]
        return st.tuples(*[instances(pattern.each_arg)] * arity)

    return _ops(pattern.func, SCALAR_FUNCTIONS).flatmap(
        lambda func: args_for(func).map(
            lambda args: ast.FuncCall(func=func, args=args)
        )
    )


def instances(pattern):
    """Strategy generating expressions *pattern* matches, read off the
    pattern AST. An unknown pattern class has no generator — a rule built
    on one fails here until its obligation can be stated."""
    if pattern is None or type(pattern) is Any:
        found = _total_exprs
    elif isinstance(pattern, Lit):
        if pattern.value is ANY:
            values = _numbers
        elif pattern.numeric:  # ``0`` and ``0.0`` both match Lit(value=0)
            values = st.sampled_from((int(pattern.value), float(pattern.value)))
        else:
            values = st.just(pattern.value)
        found = values.map(lambda value: ast.Literal(value=value))
    elif isinstance(pattern, Ref):
        names = st.sampled_from(_NAMES) if pattern.id is ANY else st.just(pattern.id)
        found = names.map(lambda name: ast.Name(id=name))
    elif isinstance(pattern, Un):
        found = st.builds(
            lambda op, operand: ast.UnaryOp(op=op, operand=operand),
            _ops(pattern.op, "-!"), instances(pattern.operand),
        )
    elif isinstance(pattern, Bin):
        swapped = st.booleans() if pattern.commutative else st.just(False)
        found = st.builds(
            lambda op, left, right, swap: ast.BinOp(
                op=op, left=right if swap else left, right=left if swap else right
            ),
            _ops(pattern.op, _BINOPS),
            instances(pattern.left), instances(pattern.right), swapped,
        )
    elif isinstance(pattern, Tern):
        found = st.builds(
            lambda cond, then, other: ast.Ternary(cond=cond, then=then, other=other),
            instances(pattern.cond), instances(pattern.then), instances(pattern.other),
        )
    elif isinstance(pattern, Call):
        found = _call_instances(pattern)
    else:
        raise NotImplementedError(
            f"no instance generator for pattern {type(pattern).__name__}"
        )
    return found if pattern is None or pattern.where is None else found.filter(pattern.where)


def _evaluate(expr, env):
    """The reference interpreter's value of scalar *expr* under *env*."""
    stmt = ast.Assign(target="out", target_indices=(), value=expr)
    with np.errstate(all="ignore"):
        return evaluate_statement(stmt, {}, env, {})


def _measure(expr):
    nodes = list(ast.walk_expr(expr))
    return len(nodes), sum(isinstance(node, ast.Name) for node in nodes)


def _check_expr_obligation(rule):
    """On instances of *rule*'s pattern: it fires, its replacement is
    smaller under :func:`_measure` and evaluates equal."""

    @given(expr=instances(rule.pattern), env=_envs)
    @settings(max_examples=150, deadline=None, database=None)
    def check(expr, env):
        bindings = Bindings()
        assert rule.pattern.match(expr, bindings)
        with np.errstate(all="ignore"):
            replacement = rule.build(expr, bindings, ExprContext(static_env=env))
        # None is the builder's "no rewrite" verdict (fold-binop on
        # ``x / 0``); hypothesis fails the test if it is the rule.
        assume(replacement is not None)
        assert _measure(replacement) < _measure(expr), "measure did not fall"
        np.testing.assert_array_equal(
            _evaluate(replacement, env), _evaluate(expr, env)
        )

    check()


def _level_size(graph):
    """The optimisation graph rules' measure: (nodes, edges) of a level."""
    return len(graph.nodes), len(graph.edges)


def _measured(ruleset, firings, measure=_level_size):
    """*ruleset* with each graph rule recording ``(rule, measure before,
    after)`` of its level into *firings* whenever it fires."""

    def wrap(rule):
        def rewrite(graph, node, ctx):
            before = measure(graph)
            fired = rule.rewrite(graph, node, ctx)
            if fired:
                firings.append((rule.name, before, measure(graph)))
            return fired

        return dataclasses.replace(rule, rewrite=rewrite)

    return dataclasses.replace(
        ruleset, graph_rules=tuple(map(wrap, ruleset.graph_rules))
    )


def _check_graph_obligation(ruleset, seeds):
    """Run *ruleset* alone over the generated programs of *seeds*: every
    firing strictly lowers (nodes, edges), and every program stays
    bit-identical at f64. Returns the rule set's per-rule counts."""
    stats = Counters()
    for seed in seeds:
        program = generate_program(seed)
        firings = []
        optimized = Pipeline((_measured(ruleset, firings),)).run(
            build(program.render(), domain="DA"), stats=stats
        ).graph
        for rule, before, after in firings:
            assert after < before, (
                f"{ruleset.name}/{rule}, seed {seed}: (nodes, edges) {before} -> {after}"
            )
        reference, candidate = (
            [result_signature(step) for step in run_reference(program, "f64", graph)]
            for graph in (None, optimized)  # None: the raw graph
        )
        assert candidate == reference, f"seed {seed}"
    return per_rule(stats)


_EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "custom_pass_and_target.py"


def _example_ruleset():
    """The extension example's ``STRENGTH_REDUCTION`` rule set."""
    spec = importlib.util.spec_from_file_location("custom_pass_and_target", _EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STRENGTH_REDUCTION


def _target_maps(accelerators):
    """``(om, scalar_om)`` of an accelerator set, as a compile builds them."""
    return (
        {domain: acc.om_entry() for domain, acc in accelerators.items()},
        {domain: acc.scalar_entry() for domain, acc in accelerators.items()},
    )


def _lowering_corpus():
    """``(label, optimized graph, om, scalar_om, program)``: the 17 paper
    programs on their own accelerators, the generated programs of seeds
    10-39 that call a component in another domain (*program* set, for the
    bit-identity check), and MPC with its three components kept."""
    for name in SINGLE_DOMAIN + END_TO_END:
        workload = get_workload(name)
        graph = build(workload.source(), domain=workload.domain)
        retags = getattr(workload, "component_domains", None) or {}
        for component, tag in retags.items():
            retag_component_domain(graph, component, tag)
        accelerators = default_accelerators(workload.accelerator_overrides)
        graph = default_pipeline().run(graph).graph
        yield (name, graph, *_target_maps(accelerators), None)
    for seed in range(10, 40):
        program = generate_program(seed)
        if any(stmt.kind == "call" for stmt in program.statements):
            graph = default_pipeline().run(build(program.render(), domain="DA")).graph
            yield (f"seed {seed}", graph, *_target_maps(default_accelerators()), program)
    mpc = get_workload("MobileRobot")
    kept = {"predict_trajectory", "compute_ctrl_grad", "update_ctrl_model"}
    yield (
        "MobileRobot, components kept", build(mpc.source(), domain=mpc.domain),
        {"RBT": kept}, {"RBT": {"alu", "mul", "div", "nonlinear"}}, None,
    )


#: Every RuleSet the package exports: a rule added to any of them is
#: enumerated below without further registration.
_RULESETS = [
    exported
    for exported in (getattr(repro.rewrite, name) for name in repro.rewrite.__all__)
    if isinstance(exported, RuleSet)
]


class TestRuleObligations:
    def test_pipeline_rulesets_are_enumerated(self):
        enumerated = {ruleset.name for ruleset in _RULESETS}
        pipeline = DEFAULT_RULESETS + (ALGEBRAIC_COMBINATION,)
        assert {ruleset.name for ruleset in pipeline} <= enumerated

    @pytest.mark.parametrize(
        "rule",
        [
            pytest.param(rule, id=f"{ruleset.name}/{rule.name}")
            for ruleset in _RULESETS
            for rule in ruleset.expr_rules
        ],
    )
    def test_expr_rule_preserves_value_and_shrinks(self, rule):
        _check_expr_obligation(rule)

    @pytest.mark.parametrize(
        "rule", [pytest.param(rule, id=rule.name) for rule in _PING_PONG.expr_rules]
    )
    def test_ping_pong_rules_fail_the_obligation(self, rule):
        with pytest.raises(AssertionError, match="measure did not fall"):
            _check_expr_obligation(rule)

    @pytest.mark.parametrize(
        "ruleset",
        [pytest.param(r, id=r.name) for r in _RULESETS if r.graph_rules],
    )
    def test_graph_rules_leave_generated_programs_bit_identical(self, ruleset):
        """Each rule set alone keeps generated programs bit-identical at
        f64, and every firing strictly lowers (nodes, edges). Seed 38 is
        where the matvec inlining fires."""
        fired = _check_graph_obligation(ruleset, range(10, 40))
        for rule in ruleset.graph_rules:
            assert fired[f"{ruleset.name}/{rule.name}"]["rewrites"] > 0

    def test_graph_rule_that_adds_a_node_fails_the_obligation(self):
        def add_constant(graph, node, ctx):
            graph.add_node(Node(name="zero", kind=CONST, attrs={"value": 0.0}))
            return True

        growing = RuleSet(
            name="growing",
            graph_rules=(
                GraphRule("add-constant", NodePattern(kind=COMPUTE), add_constant),
            ),
            strategy=SWEEP,
        )
        with pytest.raises(AssertionError, match=r"\(nodes, edges\)"):
            _check_graph_obligation(growing, range(10, 11))

    @pytest.mark.parametrize(
        "expr",
        [
            "(0-1)/0", "0/0", "5.5 % 0", "(0-8)^(1/3)", "2 ^ (0-1)",
            "0.0 ^ (0-1)", "20 ^ 20", "pow(2, 0-1)",
        ],
    )
    def test_folding_leaves_numpy_corner_cases_to_the_runtime(self, expr):
        """Where Python arithmetic and the interpreter's numpy operators
        disagree the fold declines: values (nan, signed inf, wrapped
        int64) or the exception type match the unoptimized graph's."""
        source = (
            "main(input float x[2], output float y[2]) {"
            f" index i[0:1]; y[i] = x[i] + {expr}; }}"
        )

        def outcome(graph):
            try:
                with np.errstate(all="ignore"):
                    return Executor(graph).run(inputs={"x": np.zeros(2)}).outputs["y"]
            except Exception as exc:  # noqa: BLE001 — the type is the outcome
                return type(exc)

        raw = outcome(build(source))
        optimized = outcome(default_pipeline().run(build(source)).graph)
        if isinstance(raw, type):
            assert optimized is raw
        else:
            np.testing.assert_array_equal(optimized, raw)

    def test_default_pipeline_is_the_default_rulesets(self):
        assert default_pipeline().rulesets == DEFAULT_RULESETS

    @pytest.mark.parametrize(
        "rule",
        [pytest.param(rule, id=rule.name) for rule in _example_ruleset().expr_rules],
    )
    def test_example_rule_preserves_value_and_shrinks(self, rule):
        """The extension example's strength reduction is held to the same
        obligation as the shipped rules."""
        _check_expr_obligation(rule)

    def test_lowering_rules_decide_one_node_per_firing(self):
        """Algorithm 1 on the 17 paper programs, generated cross-domain
        programs, and MPC with its components kept: each firing lowers
        :func:`lowering_measure` at its level, every generated program
        stays bit-identical at f64, and every rule fires somewhere."""
        stats = Counters()
        for label, graph, om, scalar_om, program in _lowering_corpus():
            firings = []
            ruleset = _measured(lowering_rules(om, scalar_om), firings, lowering_measure)
            apply_graph_rules(graph, ruleset, stats=stats)
            for rule, before, after in firings:
                assert after < before, f"lowering/{rule}, {label}: {before} -> {after}"
            assert lowering_measure(graph) == 0, label
            if program is not None:
                reference, candidate = (
                    [result_signature(step) for step in run_reference(program, "f64", lowered)]
                    for lowered in (None, graph)  # None: the raw graph
                )
                assert candidate == reference, label
        fired = per_rule(stats)
        names = lowering_rules({}).rule_names
        assert sorted(fired) == sorted(f"lowering/{rule}" for rule in names)
        assert all(counts["rewrites"] > 0 for counts in fired.values()), fired

    def test_inline_that_skips_the_callee_fails_the_obligation(self):
        """Mutation: inlining a component whose level was not lowered
        first moves undecided nodes up, so the measure does not fall."""
        _, graph, om, scalar_om, _ = next(_lowering_corpus())  # MobileRobot

        def inline_unlowered(graph, node, ctx):
            _inline_component(graph, node)
            return True

        rules = lowering_rules(om, scalar_om)
        broken = dataclasses.replace(
            rules,
            graph_rules=tuple(
                dataclasses.replace(rule, rewrite=inline_unlowered)
                if rule.name == "inline-component" else rule
                for rule in rules.graph_rules
            ),
        )
        firings = []
        apply_graph_rules(
            graph, _measured(broken, firings, lowering_measure), stats=Counters()
        )
        assert any(
            rule == "inline-component" and after >= before
            for rule, before, after in firings
        )


# ---------------------------------------------------------------------------
# Cost-guided cross-domain fusion
# ---------------------------------------------------------------------------

#: Two-domain program where every kernel touches the state variable:
#: the DSP producer reads ``s``, the DA consumers read or write it, so
#: no legal fusion move exists even though a domain crossing does.
_STATEFUL_CROSSING = (
    "prod(input float s[4], input float x[4], output float t[4]) {"
    " index i[0:3]; t[i] = s[i] * 2.0 + x[i]; }\n"
    "cons(input float t[4], input float sin[4],"
    " output float sout[4], output float y[4]) {"
    " index i[0:3]; sout[i] = sin[i] + t[i]; y[i] = sout[i] * 0.5; }\n"
    "main(input float x[4], state float s[4], output float y[4]) {"
    " float t[4];"
    " DSP: prod(s, x, t);"
    " DA: cons(t, s, s, y);"
    "}"
)


def _compiled(name, fusion=False):
    from repro.targets import default_accelerators
    from repro.workloads import get_workload

    workload = get_workload(name)
    session = CompilerSession(fusion=fusion)
    app = session.compile(
        workload.source(),
        domain=workload.domain,
        component_domains=getattr(workload, "component_domains", None),
        accelerators=default_accelerators(
            getattr(workload, "accelerator_overrides", None)
        ),
        data_hints=workload.hints(),
    )
    return workload, app


class TestFusion:
    def test_stateful_nodes_detected(self):
        _, app = _compiled("BrainStimul")
        graph = app.graph
        stateful = [
            node for node in graph.compute_nodes() if _is_stateful(graph, node)
        ]
        assert stateful, "BrainStimul's MPC updates state in place"

    def test_crossing_candidates_are_legal(self):
        _, app = _compiled("BrainStimul")
        graph = app.graph
        candidates = _crossing_candidates(graph, app.accelerators)
        assert candidates, "BrainStimul has cross-domain kernel edges"
        for node, target, tag in candidates:
            assert not _is_stateful(graph, node)
            assert _relower_tag(node, app.accelerators[target]) == tag

    def test_no_fusion_across_stateful_nodes(self):
        from repro.targets import default_accelerators

        session = CompilerSession()
        app = session.compile(
            _STATEFUL_CROSSING,
            domain="DSP",
            accelerators=default_accelerators(),
        )
        graph = app.graph
        stateful = [
            node for node in graph.compute_nodes() if _is_stateful(graph, node)
        ]
        assert stateful, "the crossing kernels all touch state"
        report = fuse_cross_domain(graph, app.accelerators)
        assert report.transfers_before > 0, "a domain crossing exists"
        assert report.moves == [], "stateful kernels must not be retagged"
        assert report.transfers_after == report.transfers_before

    def test_fusion_reduces_transfers_outputs_bit_identical(self):
        for name in ("OptionPricing", "BrainStimul"):
            workload, plain = _compiled(name)
            _, fused = _compiled(name, fusion=True)
            report = fused.fusion_report
            assert report is not None and report.moves
            assert report.transfers_after < report.transfers_before
            assert report.modeled_seconds_after < report.modeled_seconds_before

            inputs = workload.inputs(0, None)
            params = workload.params()
            config = PlanConfig(precision="f64")
            results = [
                plan_for_graph(app.graph, config=config).execute(
                    inputs=inputs,
                    params=params,
                    state={
                        key: np.asarray(value)
                        for key, value in workload.initial_state().items()
                    },
                )
                for app in (plain, fused)
            ]
            assert sorted(results[0].outputs) == sorted(results[1].outputs)
            for key in results[0].outputs:
                assert np.array_equal(
                    results[0].outputs[key], results[1].outputs[key]
                ), f"{name}:{key}"

    @pytest.mark.parametrize(
        "name, transfers, moves",
        [
            pytest.param("BrainStimul", (6, 2), 2, id="BrainStimul"),
            pytest.param("OptionPricing", (2, 0), 1, id="OptionPricing"),
        ],
    )
    def test_every_move_strictly_lowers_modeled_seconds(self, name, transfers, moves):
        """The greedy loop stops by measure: each committed move has a
        positive gain, and modelled seconds fall by exactly that gain."""
        _, plain = _compiled(name)
        graph, accelerators = plain.graph, plain.accelerators
        report = fuse_cross_domain(graph, accelerators)
        assert (report.transfers_before, report.transfers_after) == transfers
        assert len(report.moves) == moves
        seconds = report.modeled_seconds_before
        for move in report.moves:
            assert move.gain_seconds > 0
            seconds -= move.gain_seconds
        assert seconds == pytest.approx(report.modeled_seconds_after, rel=1e-12)
        assert report.modeled_seconds_after == modeled_cost(graph, accelerators).seconds

    def test_session_fuse_stage_recorded(self):
        _, fused = _compiled("OptionPricing", fusion=True)
        assert fused.fusion_report.transfers_removed > 0


def test_combination_shrinks_mobile_robot_on_robox():
    """Algebraic combination (§IV-B) on the MobileRobot MPC, lowered for
    ROBOX: fusing matvec chains leaves fewer fragments and a lower
    modelled time."""
    from repro.rewrite import DEAD_CODE_ELIMINATION, lower
    from repro.targets import Robox, compile_to_targets

    source = get_workload("MobileRobot").source()

    def compiled(combine):
        graph = build(source, domain="RBT")
        lower(graph, {"RBT": Robox.spec.supported_ops},
              {"RBT": {"alu", "mul", "div", "nonlinear"}})
        if combine:
            Pipeline((ALGEBRAIC_COMBINATION, DEAD_CODE_ELIMINATION)).run(graph)
        accelerator = Robox()
        program = compile_to_targets(graph, {"RBT": accelerator})["RBT"]
        return len(program), accelerator.estimate(program).seconds

    plain_fragments, plain_seconds = compiled(False)
    combined_fragments, combined_seconds = compiled(True)
    assert combined_fragments < plain_fragments
    assert combined_seconds < plain_seconds


# ---------------------------------------------------------------------------
# Pipeline failure handling
# ---------------------------------------------------------------------------


def _one_rule(name, rewrite):
    return RuleSet(
        name=name,
        graph_rules=(GraphRule(name, NodePattern(kind=COMPUTE), rewrite),),
        strategy=SWEEP,
    )


def _explode(graph, node, ctx):
    raise ValueError("internal rule failure")


def _corrupt(graph, node, ctx):
    # Drop a node while leaving its edges dangling: validation after the
    # rule set must catch this and name it.
    graph.nodes = [n for n in graph.nodes if n.uid != node.uid]
    del graph._nodes_by_uid[node.uid]
    return True


_SMALL = (
    "main(input float x[4], output float y[4]) {"
    " index i[0:3]; y[i] = x[i] * 2.0; }"
)


def _small_graph():
    return build(_SMALL)


class TestPipelineFailures:
    def test_rule_exception_names_ruleset_and_rule(self):
        pipeline = Pipeline((_one_rule("exploding", _explode),))
        with pytest.raises(
            RewriteError,
            match=r"exploding/exploding failed at main:.*internal rule failure",
        ) as caught:
            pipeline.run(_small_graph())
        assert isinstance(caught.value.__cause__, ValueError)

    def test_session_records_the_failure(self):
        diagnostics = Diagnostics()
        session = CompilerSession(
            default_accelerators(),
            pipeline=Pipeline((_one_rule("exploding", _explode),)),
            diagnostics=diagnostics,
        )
        with pytest.raises(RewriteError, match="exploding"):
            session.compile(_SMALL, domain="DA")
        [entry] = diagnostics.errors
        assert entry.stage == "optimize"
        assert "internal rule failure" in entry.message

    def test_validation_failure_names_ruleset(self):
        with pytest.raises(RewriteError, match="graph-corruptor"):
            Pipeline((_one_rule("graph-corruptor", _corrupt),)).run(_small_graph())

    def test_rewrite_error_keeps_its_message(self):
        def raising(graph, node, ctx):
            raise RewriteError("rule set 'x' cycles")

        with pytest.raises(RewriteError, match="^rule set 'x' cycles$"):
            Pipeline((_one_rule("raising", raising),)).run(_small_graph())

    def test_lowering_error_passes_the_engine_unchanged(self):
        graph = build(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = sigmoid(x[i]); }",
            domain="DA",
        )
        with pytest.raises(LoweringError) as caught:
            apply_graph_rules(
                graph,
                lowering_rules({"DA": set()}, {"DA": {"alu", "mul"}}),
                stats=Counters(),
            )
        assert str(caught.value) == (
            "node 'map_sigmoid' (domain DA) is not supported as a group op and "
            "needs scalar classes ['nonlinear'] the target lacks; compilation "
            "fails for this accelerator"
        )

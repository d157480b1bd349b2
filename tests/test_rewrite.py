"""Tests for the declarative rewrite engine (``repro.rewrite``).

Covers the pattern matcher (commutativity, capture binding, non-linear
patterns), the fixpoint driver (trip counts, cycle detection), the
per-rule proof obligations — every rule checked against the reference
interpreter on instances generated from its own pattern — and cost-guided
cross-domain fusion (legality around stateful nodes, bit-identical fused
vs unfused outputs).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.rewrite
from repro.driver import CompilerSession
from repro.driver.diagnostics import Diagnostics
from repro.errors import PassError, RewriteError
from repro.fuzz import generate_program, run_reference
from repro.obs import Counters
from repro.passes import PassManager, default_pipeline
from repro.passes.base import Pass
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
    Lit,
    NodePattern,
    Pattern,
    Ref,
    RulePass,
    RuleSet,
    Tern,
    Un,
    rewrite_pipeline,
    rewrite_statement,
    run_ruleset,
)
from repro.rewrite.engine import POSITION_LIMIT, per_rule
from repro.rewrite.fusion import (
    FusionConfig,
    _crossing_candidates,
    _is_stateful,
    _relower_tag,
    fuse_cross_domain,
)
from repro.serve.request import result_signature
from repro.srdfg import Executor, build, evaluate_statement
from repro.srdfg.interpreter import _BINOPS
from repro.srdfg.plan import PlanConfig, plan_for_graph


def _expr(source):
    """Parse one expression: the RHS of ``out = <source>;``."""
    program = parse(
        "main(input float x, input float y, input float z,"
        f" output float out) {{ out = {source}; }}"
    )
    return program.components["main"].body[0].value


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
# Engine: trip counts, explain log, cycle detection
# ---------------------------------------------------------------------------


class TestEngine:
    def test_per_rule_trip_counts(self):
        stats = Counters()
        graph = build(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[i] * 1.0 + (2 + 3); }"
        )
        rewrite_pipeline(stats=stats).run(graph)
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
        rewrite_pipeline(explain=explain).run(graph)
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
        rewrite_pipeline(explain=explain).run(graph)
        assert explain.render().endswith("-> sum[i: i < 2](x[i])")

    def test_expression_cycle_detection(self):
        # A rule that swaps operands forever: the engine must detect the
        # regenerated expression and abort instead of spinning.
        ping_pong = RuleSet(
            name="ping-pong",
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
        with pytest.raises(RewriteError, match="cycles"):
            rewrite_statement(graph, node, ping_pong)

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

    def test_two_rule_ping_pong_detected(self):
        def flip(op):
            return lambda expr, bindings, ctx: ast.BinOp(
                op=op, left=expr.left, right=expr.right
            )

        ping_pong = RuleSet(
            name="ping-pong",
            expr_rules=(
                ExprRule("to-minus", Bin(op="+"), flip("-")),
                ExprRule("to-plus", Bin(op="-"), flip("+")),
            ),
        )
        graph = build(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[i] + 1.0; }"
        )
        [node] = graph.compute_nodes()
        stats = Counters()
        with pytest.raises(RewriteError, match="cycles"):
            rewrite_statement(graph, node, ping_pong, stats=stats)
        # + -> - fired, - -> + regenerated the first expression.
        assert per_rule(stats) == {
            "ping-pong/to-minus": {"matches": 1, "rewrites": 1},
            "ping-pong/to-plus": {"matches": 1, "rewrites": 1},
        }

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
        from repro.workloads import get_workload

        program = get_workload(workload)
        stats = Counters()
        rewrite_pipeline(stats=stats).run(
            build(program.source(), domain=program.domain)
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
# the measure under which every expression rule set terminates.
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
        @given(expr=instances(rule.pattern), env=_envs)
        @settings(max_examples=150, deadline=None)
        def check(expr, env):
            bindings = Bindings()
            assert rule.pattern.match(expr, bindings)
            with np.errstate(all="ignore"):
                replacement = rule.build(expr, bindings, ExprContext(static_env=env))
            # None is the builder's "no rewrite" verdict (fold-binop on
            # ``x / 0``); hypothesis fails the test if it is the rule.
            assume(replacement is not None)
            assert _measure(replacement) < _measure(expr)
            np.testing.assert_array_equal(
                _evaluate(replacement, env), _evaluate(expr, env)
            )

        check()

    @pytest.mark.parametrize(
        "ruleset",
        [pytest.param(r, id=r.name) for r in _RULESETS if r.graph_rules],
    )
    def test_graph_rules_leave_generated_programs_bit_identical(self, ruleset):
        stats = Counters()
        for seed in range(10, 40):  # 38 is where the matvec inlining fires
            program = generate_program(seed)
            optimized = PassManager([RulePass(ruleset, stats=stats)]).run(
                build(program.render(), domain="DA")
            ).graph
            reference, candidate = (
                [result_signature(step) for step in run_reference(program, "f64", graph)]
                for graph in (None, optimized)  # None: the raw graph
            )
            assert candidate == reference, f"seed {seed}"
        fired = per_rule(stats)
        for rule in ruleset.graph_rules:
            assert fired[f"{ruleset.name}/{rule.name}"]["rewrites"] > 0

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

    def test_default_pipeline_is_rule_engine(self):
        pipeline = default_pipeline()
        assert all(isinstance(p, RulePass) for p in pipeline.passes)


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


def _compiled(name, fusion=None):
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
            _, fused = _compiled(name, fusion=FusionConfig())
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

    def test_max_moves_respected(self):
        _, fused = _compiled("BrainStimul", fusion=FusionConfig(max_moves=1))
        assert len(fused.fusion_report.moves) <= 1

    def test_session_fuse_stage_recorded(self):
        _, fused = _compiled("OptionPricing", fusion=FusionConfig())
        assert fused.fusion_report.transfers_removed > 0


# ---------------------------------------------------------------------------
# PassManager failure handling
# ---------------------------------------------------------------------------


class _ExplodingPass(Pass):
    name = "exploding-rewrite"

    def run(self, graph):
        raise ValueError("internal rule failure")


class _CorruptingPass(Pass):
    name = "graph-corruptor"

    def run(self, graph):
        # Drop a node while leaving its edges dangling: post-pass
        # validation must catch this and name the pass.
        victim = graph.compute_nodes()[0]
        graph.nodes = [n for n in graph.nodes if n.uid != victim.uid]
        del graph._nodes_by_uid[victim.uid]
        return graph


def _small_graph():
    return build(
        "main(input float x[4], output float y[4]) {"
        " index i[0:3]; y[i] = x[i] * 2.0; }"
    )


class TestPassManagerFailures:
    def test_pass_exception_wrapped_and_recorded(self):
        diagnostics = Diagnostics()
        manager = PassManager([_ExplodingPass()], diagnostics=diagnostics)
        with pytest.raises(PassError, match="exploding-rewrite.*failed during run"):
            manager.run(_small_graph())
        [entry] = diagnostics.errors
        assert entry.stage == "pass/exploding-rewrite"
        assert "internal rule failure" in entry.message

    def test_validation_failure_names_pass(self):
        manager = PassManager([_CorruptingPass()])
        with pytest.raises(PassError, match="graph-corruptor"):
            manager.run(_small_graph())

    def test_hook_failure_names_pass_and_phase(self):
        def bad_hook(report):
            raise RuntimeError("hook exploded")

        diagnostics = Diagnostics()
        manager = PassManager(
            [RulePass(RuleSet(name="noop"))],
            hooks=[bad_hook],
            diagnostics=diagnostics,
        )
        with pytest.raises(PassError, match="stage hook"):
            manager.run(_small_graph())
        [entry] = diagnostics.errors
        assert "stage hook" in entry.message

    def test_rewrite_error_keeps_type(self):
        class _RaisingRulePass(Pass):
            name = "raising"

            def run(self, graph):
                raise RewriteError("rule set 'x' cycles")

        with pytest.raises(RewriteError, match="cycles"):
            PassManager([_RaisingRulePass()]).run(_small_graph())

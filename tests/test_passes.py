"""Unit tests for the pass framework and individual passes."""

import numpy as np
import pytest

from repro.errors import PassError
from repro.passes import PassManager, default_pipeline, lower
from repro.pmlang import ast_nodes as ast
from repro.rewrite import (
    ALGEBRAIC_SIMPLIFICATION,
    CONSTANT_FOLDING,
    COPY_PROPAGATION,
    CSE,
    DEAD_CODE_ELIMINATION,
    RulePass,
    combination_pass,
)
from repro.srdfg import Executor, build


def execute(graph, **kwargs):
    return Executor(graph).run(**kwargs)


class TestConstantFolding:
    def test_fold_literal_arithmetic(self, rewrite_expr):
        expr = rewrite_expr(
            CONSTANT_FOLDING,
            ast.BinOp(op="+", left=ast.Literal(value=2), right=ast.Literal(value=3)),
        )
        assert isinstance(expr, ast.Literal) and expr.value == 5

    def test_propagates_static_names(self, rewrite_expr):
        expr = rewrite_expr(CONSTANT_FOLDING, ast.Name(id="h"), {"h": 10})
        assert isinstance(expr, ast.Literal) and expr.value == 10

    def test_protected_names_stay_symbolic(self, rewrite_expr):
        expr = rewrite_expr(CONSTANT_FOLDING, ast.Name(id="i"), {"i": 10}, {"i"})
        assert isinstance(expr, ast.Name)

    def test_folds_functions_of_constants(self, rewrite_expr):
        expr = rewrite_expr(
            CONSTANT_FOLDING, ast.FuncCall(func="sqrt", args=(ast.Literal(value=9.0),))
        )
        assert isinstance(expr, ast.Literal)
        assert expr.value == pytest.approx(3.0)

    def test_ternary_constant_condition_selects_branch(self, rewrite_expr):
        expr = rewrite_expr(
            CONSTANT_FOLDING,
            ast.Ternary(
                cond=ast.Literal(value=1),
                then=ast.Name(id="a"),
                other=ast.Name(id="b"),
            ),
        )
        assert isinstance(expr, ast.Name) and expr.id == "a"

    def test_pass_preserves_execution(self):
        source = (
            "main(input float x[4], output float y[4]) {"
            " index i[0:3];"
            " unroll s[2:2] { y[i] = x[i] * s + (3 - 3); } }"
        )
        inputs = {"x": np.arange(4.0)}
        graph = build(source)
        expected = execute(graph, inputs=inputs).outputs["y"]
        folded = PassManager([RulePass(CONSTANT_FOLDING)]).run(build(source)).graph
        got = execute(folded, inputs=inputs).outputs["y"]
        assert np.allclose(got, expected)
        # The unroll binder and literal zero must have been folded away.
        [node] = folded.compute_nodes()
        names = ast.expr_names(node.attrs["stmt"].value)
        assert "s" not in names


class TestAlgebraicSimplification:
    @pytest.mark.parametrize(
        "before, after",
        [
            ("x[i] * 1.0", "x[i]"),
            ("1.0 * x[i]", "x[i]"),
            ("x[i] + 0.0", "x[i]"),
            ("x[i] - 0.0", "x[i]"),
            ("x[i] / 1.0", "x[i]"),
        ],
    )
    def test_identities(self, before, after):
        source = (
            f"main(input float x[4], output float y[4]) {{"
            f" index i[0:3]; y[i] = {before}; }}"
        )
        graph = PassManager([RulePass(ALGEBRAIC_SIMPLIFICATION)]).run(build(source)).graph
        [node] = graph.compute_nodes()
        assert isinstance(node.attrs["stmt"].value, ast.Indexed)

    def test_multiply_by_zero_annihilates(self, rewrite_expr):
        expr = rewrite_expr(
            ALGEBRAIC_SIMPLIFICATION,
            ast.BinOp(op="*", left=ast.Indexed(base="x", indices=(ast.Name(id="i"),)),
                      right=ast.Literal(value=0)),
        )
        assert isinstance(expr, ast.Literal) and expr.value == 0

    def test_double_negation(self, rewrite_expr):
        expr = rewrite_expr(
            ALGEBRAIC_SIMPLIFICATION,
            ast.UnaryOp(op="-", operand=ast.UnaryOp(op="-", operand=ast.Name(id="a"))),
        )
        assert isinstance(expr, ast.Name)


class TestDeadCode:
    def test_removes_unused_compute(self):
        source = (
            "main(input float x[4], output float y[4]) {"
            " index i[0:3];"
            " float dead[4];"
            " dead[i] = x[i] * 3.0;"
            " y[i] = x[i] + 1.0; }"
        )
        graph = build(source)
        assert len(graph.compute_nodes()) == 2
        graph = PassManager([RulePass(DEAD_CODE_ELIMINATION)]).run(graph).graph
        assert len(graph.compute_nodes()) == 1
        assert graph.compute_nodes()[0].attrs["stmt"].target == "y"

    def test_keeps_interface_vars(self):
        source = (
            "main(input float unused[4], input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[i]; }"
        )
        graph = PassManager([RulePass(DEAD_CODE_ELIMINATION)]).run(build(source)).graph
        assert {node.name for node in graph.var_nodes()} >= {"unused", "x", "y"}

    def test_state_writers_are_live(self):
        source = (
            "main(input float x, state float acc) { acc = acc + x; }"
        )
        graph = PassManager([RulePass(DEAD_CODE_ELIMINATION)]).run(build(source)).graph
        assert len(graph.compute_nodes()) == 1


class TestCse:
    def test_merges_identical_local_computations(self):
        source = (
            "main(input float x[4], output float y[4]) {"
            " index i[0:3];"
            " float a[4], b[4];"
            " a[i] = x[i] * 2.0;"
            " b[i] = x[i] * 2.0;"
            " y[i] = a[i] + b[i]; }"
        )
        inputs = {"x": np.arange(4.0)}
        graph = build(source)
        expected = execute(graph, inputs=inputs).outputs["y"]
        deduped = PassManager(
            [RulePass(CSE), RulePass(DEAD_CODE_ELIMINATION)]
        ).run(build(source)).graph
        assert len(deduped.compute_nodes()) == 2  # one mul + the add
        got = execute(deduped, inputs=inputs).outputs["y"]
        assert np.allclose(got, expected)

    def test_does_not_merge_different_expressions(self):
        source = (
            "main(input float x[4], output float y[4]) {"
            " index i[0:3];"
            " float a[4], b[4];"
            " a[i] = x[i] * 2.0;"
            " b[i] = x[i] * 3.0;"
            " y[i] = a[i] + b[i]; }"
        )
        graph = PassManager([RulePass(CSE)]).run(build(source)).graph
        assert len(graph.compute_nodes()) == 3

    def test_skips_boundary_targets(self):
        source = (
            "main(input float x[4], output float y[4], output float z[4]) {"
            " index i[0:3];"
            " y[i] = x[i] * 2.0;"
            " z[i] = x[i] * 2.0; }"
        )
        graph = PassManager([RulePass(CSE)]).run(build(source)).graph
        assert len(graph.compute_nodes()) == 2


class TestAlgebraicCombination:
    def test_fuses_matvec_chain(self, mpc_source, mpc_data, mpc_reference_result):
        graph = build(mpc_source, domain="RBT")
        lower(graph, {"RBT": set()}, {"RBT": {"alu", "mul", "div", "nonlinear"}})
        before = len(graph.compute_nodes())
        fused = PassManager([combination_pass()]).run(graph).graph
        assert len(fused.compute_nodes()) < before
        assert any(
            node.attrs["descriptor"].fused for node in fused.compute_nodes()
        )
        result = execute(fused, **mpc_data)
        assert np.allclose(
            result.outputs["ctrl_sgnl"], mpc_reference_result["ctrl_sgnl"]
        )
        assert np.allclose(
            result.state["ctrl_mdl"], mpc_reference_result["ctrl_mdl"]
        )

    def test_no_fusion_for_multi_consumer_producer(self):
        source = (
            "main(input float A[4][4], input float x[4], output float y[4],"
            " output float z[4]) {"
            " index i[0:3], j[0:3];"
            " float t[4];"
            " t[j] = sum[i](A[j][i]*x[i]);"
            " y[j] = t[j] + 1.0;"
            " z[j] = t[j] + 2.0; }"
        )
        graph = build(source)
        fused = PassManager([combination_pass()]).run(graph).graph
        assert len(fused.compute_nodes()) == 3


class TestPassManager:
    def test_reports_deltas(self, mpc_source):
        result = default_pipeline().run(build(mpc_source, domain="RBT"))
        assert len(result.reports) == 5
        assert "constant-folding" in result.summary()

    def test_rejects_non_pass(self):
        with pytest.raises(PassError):
            PassManager().add(object())

    def test_reports_are_timed(self, mpc_source):
        result = default_pipeline().run(build(mpc_source, domain="RBT"))
        assert all(report.seconds >= 0.0 for report in result.reports)
        assert result.seconds == sum(r.seconds for r in result.reports)
        assert "ms" in result.summary()

    def test_counts_include_nested_graphs(self, mpc_source):
        graph = build(mpc_source, domain="RBT")
        top_level = len(graph.nodes)
        total_nodes, total_edges = graph.total_counts()
        assert total_nodes > top_level  # the MPC program nests components

        recursive = PassManager(recursive=True).run(graph)
        assert recursive.reports == []  # no passes, but counting still works

        result = default_pipeline().run(build(mpc_source, domain="RBT"))
        assert result.reports[0].nodes_before == total_nodes

    def test_flat_counting_opt_out(self, mpc_source):
        graph = build(mpc_source, domain="RBT")
        flat = PassManager([RulePass(CONSTANT_FOLDING)], recursive=False).run(graph)
        assert flat.reports[0].nodes_before == len(graph.nodes)

    def test_hooks_observe_each_pass(self, mpc_source):
        seen = []
        pipeline = default_pipeline()
        pipeline.add_hook(seen.append)
        result = pipeline.run(build(mpc_source, domain="RBT"))
        assert [r.name for r in seen] == [r.name for r in result.reports]
        with pytest.raises(PassError):
            pipeline.add_hook("nope")

    def test_default_pipeline_preserves_execution(
        self, mpc_source, mpc_data, mpc_reference_result
    ):
        graph = default_pipeline().run(build(mpc_source, domain="RBT")).graph
        result = execute(graph, **mpc_data)
        assert np.allclose(
            result.outputs["ctrl_sgnl"], mpc_reference_result["ctrl_sgnl"]
        )


class TestCopyPropagation:
    def test_interior_copy_removed(self):
        source = (
            "main(input float x[4], output float y[4]) {"
            " index i[0:3];"
            " float t[4];"
            " t[i] = x[i];"
            " y[i] = t[i] + 1.0; }"
        )
        inputs = {"x": np.arange(4.0)}
        expected = execute(build(source), inputs=inputs).outputs["y"]
        graph = PassManager(
            [RulePass(COPY_PROPAGATION), RulePass(DEAD_CODE_ELIMINATION)]
        ).run(
            build(source)
        ).graph
        assert len(graph.compute_nodes()) == 1
        got = execute(graph, inputs=inputs).outputs["y"]
        assert np.allclose(got, expected)

    def test_boundary_copy_kept(self):
        # A copy producing an output variable must survive.
        source = (
            "main(input float x[4], output float y[4]) {"
            " index i[0:3];"
            " y[i] = x[i]; }"
        )
        graph = PassManager([RulePass(COPY_PROPAGATION)]).run(build(source)).graph
        assert len(graph.compute_nodes()) == 1

    def test_strided_copy_kept(self):
        # Gather copies are real data movement, not identities.
        source = (
            "main(input float x[8], output float y[4]) {"
            " index i[0:3];"
            " float t[4];"
            " t[i] = x[2*i];"
            " y[i] = t[i]; }"
        )
        graph = PassManager([RulePass(COPY_PROPAGATION)]).run(build(source)).graph
        names = [node.name for node in graph.compute_nodes()]
        assert names.count("copy") == 2

    def test_default_pipeline_includes_copy_propagation(
        self, mpc_source, mpc_data, mpc_reference_result
    ):
        graph = default_pipeline().run(build(mpc_source, domain="RBT")).graph
        result = execute(graph, **mpc_data)
        assert np.allclose(
            result.outputs["ctrl_sgnl"], mpc_reference_result["ctrl_sgnl"]
        )
        assert np.allclose(
            result.state["ctrl_mdl"], mpc_reference_result["ctrl_mdl"]
        )

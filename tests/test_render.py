"""Tests for the PMLang renderer (AST -> source) and graph decompiler."""

import numpy as np
import pytest

from repro.pmlang.parser import parse
from repro.pmlang.render import (
    decompile_graph,
    render_expr,
    render_program,
    render_stmt,
)
from repro.rewrite import lower
from repro.srdfg import Executor, build


class TestExprRendering:
    def component_expr(self, text):
        source = (
            "main(input float a, input float b, input float c,"
            f" output float y) {{ y = {text}; }}"
        )
        return parse(source).components["main"].body[0].value

    @pytest.mark.parametrize(
        "text",
        [
            "a + b * c",
            "(a + b) * c",
            "a - b - c",
            "a - (b - c)",
            "a / b / c",
            "a < b ? a : b",
            "-a * b",
            "a ^ 2",
            "sigmoid(a + b)",
            "fmax(a, b) + c",
        ],
    )
    def test_round_trip_preserves_semantics(self, text):
        original = self.component_expr(text)
        rendered = render_expr(original)
        reparsed = self.component_expr(rendered)
        # Compare by rendering again: fixed point after one pass.
        assert render_expr(reparsed) == rendered

    def test_left_associativity_preserved(self):
        # a - (b - c) must keep its parentheses.
        expr = self.component_expr("a - (b - c)")
        assert render_expr(expr) == "a - (b - c)"
        flat = self.component_expr("a - b - c")
        assert render_expr(flat) == "a - b - c"

    def test_reduction_with_predicate(self):
        source = (
            "main(input float A[3][3], output float r) {"
            " index i[0:2], j[0:2]; r = sum[i][j: j != i](A[i][j]); }"
        )
        stmt = parse(source).components["main"].body[1]
        assert render_stmt(stmt).strip() == "r = sum[i][j: j != i](A[i][j]);"


class TestProgramRoundTrip:
    def test_mpc_round_trips_functionally(self, mpc_source, mpc_data,
                                          mpc_reference_result):
        program = parse(mpc_source)
        rendered = render_program(program)
        graph = build(rendered, domain="RBT")
        result = Executor(graph).run(**mpc_data)
        assert np.allclose(
            result.outputs["ctrl_sgnl"], mpc_reference_result["ctrl_sgnl"]
        )
        assert np.allclose(
            result.state["ctrl_mdl"], mpc_reference_result["ctrl_mdl"]
        )

    def test_rendered_source_is_fixed_point(self, mpc_source):
        once = render_program(parse(mpc_source))
        twice = render_program(parse(once))
        assert once == twice

    def test_unroll_and_reduction_round_trip(self):
        source = (
            "reduction rmin(a,b) = a < b ? a : b;\n"
            "main(input float x[8], output float y[8], output float r) {\n"
            "  index i[0:7];\n"
            "  y[i] = x[i];\n"
            "  unroll s[1:2] { y[i] = y[i] * s; }\n"
            "  r = rmin[i](y[i]);\n"
            "}"
        )
        rendered = render_program(parse(source))
        rng = np.random.default_rng(1)
        x = rng.normal(size=8)
        a = Executor(build(source)).run(inputs={"x": x})
        b = Executor(build(rendered)).run(inputs={"x": x})
        assert np.allclose(a.outputs["y"], b.outputs["y"])
        assert np.allclose(a.outputs["r"], b.outputs["r"])

    def test_workload_sources_round_trip(self):
        # Every Table III source survives parse -> render -> parse.
        from repro.workloads import get_workload

        for name in ("MobileRobot", "Twitter-BFS", "FFT-8192", "DCT-1024"):
            workload = get_workload(name)
            rendered = render_program(parse(workload.source()))
            assert render_program(parse(rendered)) == rendered, name


class TestDecompile:
    def test_flat_graph_decompiles_and_rebuilds(self, mpc_source, mpc_data,
                                                mpc_reference_result):
        graph = build(mpc_source, domain="RBT")
        lower(graph, {"RBT": set()},
              {"RBT": {"alu", "mul", "div", "nonlinear"}})
        # Decompilation of a lowered graph is readable PMLang...
        source = decompile_graph(graph)
        assert "index" in source and "sum[" in source
        # ...but inlined formals may collide, so we only require the text
        # to show every boundary variable.
        for name in ("pos", "ctrl_mdl", "ctrl_sgnl", "P", "HQ_g"):
            assert name in source

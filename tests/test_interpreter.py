"""Unit tests for the vectorised srDFG interpreter."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.srdfg import Executor, build


def run(source, inputs=None, params=None, state=None, **kwargs):
    graph = build(source)
    return Executor(graph, **kwargs).run(inputs=inputs, params=params, state=state)


class TestBasicStatements:
    def test_elementwise_add(self):
        result = run(
            "main(input float a[4], input float b[4], output float y[4]) {"
            " index i[0:3]; y[i] = a[i] + b[i]; }",
            inputs={"a": np.arange(4.0), "b": np.ones(4)},
        )
        assert np.allclose(result.outputs["y"], [1, 2, 3, 4])

    def test_scalar_assignment(self):
        result = run(
            "main(input float x[3], output float r) {"
            " index i[0:2]; r = sum[i](x[i]); }",
            inputs={"x": np.array([1.0, 2.0, 3.0])},
        )
        assert float(result.outputs["r"]) == 6.0

    def test_literal_broadcast(self):
        result = run(
            "main(output float y[5]) { index i[0:4]; y[i] = 2.5; }"
        )
        assert np.allclose(result.outputs["y"], 2.5)

    def test_builtin_functions(self):
        result = run(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = sigmoid(x[i]); }",
            inputs={"x": np.array([-2.0, 0.0, 1.0, 5.0])},
        )
        expected = 1.0 / (1.0 + np.exp(-np.array([-2.0, 0.0, 1.0, 5.0])))
        assert np.allclose(result.outputs["y"], expected)

    def test_ternary(self):
        result = run(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[i] > 0.0 ? x[i] : 0.0 - x[i]; }",
            inputs={"x": np.array([-1.0, 2.0, -3.0, 4.0])},
        )
        assert np.allclose(result.outputs["y"], [1, 2, 3, 4])

    def test_int_dtype_preserved(self):
        result = run(
            "main(input int x[4], output int y[4]) {"
            " index i[0:3]; y[i] = x[i] + 1; }",
            inputs={"x": np.arange(4)},
        )
        assert result.outputs["y"].dtype == np.int64


class TestIndexing:
    def test_strided_read(self):
        result = run(
            "main(input float x[8], output float y[4]) {"
            " index i[0:3]; y[i] = x[2*i]; }",
            inputs={"x": np.arange(8.0)},
        )
        assert np.allclose(result.outputs["y"], [0, 2, 4, 6])

    def test_strided_write_merges_previous(self):
        result = run(
            "main(input float x[4], output float y[8]) {"
            " index i[0:7], j[0:3];"
            " y[i] = 1.0;"
            " y[2*j] = x[j]; }",
            inputs={"x": np.array([10.0, 20.0, 30.0, 40.0])},
        )
        assert np.allclose(result.outputs["y"], [10, 1, 20, 1, 30, 1, 40, 1])

    def test_gather_via_index_array(self):
        result = run(
            "main(input float x[4], param int p[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[p[i]]; }",
            inputs={"x": np.array([5.0, 6.0, 7.0, 8.0])},
            params={"p": np.array([3, 2, 1, 0])},
        )
        assert np.allclose(result.outputs["y"], [8, 7, 6, 5])

    def test_out_of_range_read_raises(self):
        with pytest.raises(ExecutionError, match="out of range"):
            run(
                "main(input float x[4], output float y[4]) {"
                " index i[0:3]; y[i] = x[i+1]; }",
                inputs={"x": np.zeros(4)},
            )

    def test_out_of_range_write_raises(self):
        with pytest.raises(ExecutionError, match="out of range"):
            run(
                "main(input float x[4], output float y[4]) {"
                " index i[0:3]; y[i+1] = x[i]; }",
                inputs={"x": np.zeros(4)},
            )

    def test_transposed_access(self):
        a = np.arange(6.0).reshape(2, 3)
        result = run(
            "main(input float a[2][3], output float y[3][2]) {"
            " index i[0:1], j[0:2]; y[j][i] = a[i][j]; }",
            inputs={"a": a},
        )
        assert np.allclose(result.outputs["y"], a.T)


class TestReductions:
    def test_matvec_matches_numpy(self):
        rng = np.random.default_rng(1)
        a, x = rng.normal(size=(5, 7)), rng.normal(size=7)
        result = run(
            "main(input float A[5][7], input float x[7], output float y[5]) {"
            " index i[0:6], j[0:4]; y[j] = sum[i](A[j][i]*x[i]); }",
            inputs={"A": a, "x": x},
        )
        assert np.allclose(result.outputs["y"], a @ x)

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 5))
        result = run(
            "main(input float A[4][6], input float B[6][5], output float C[4][5]) {"
            " index i[0:3], j[0:4], k[0:5]; C[i][j] = sum[k](A[i][k]*B[k][j]); }",
            inputs={"A": a, "B": b},
        )
        assert np.allclose(result.outputs["C"], a @ b)

    def test_predicate_masks_elements(self):
        result = run(
            "main(input float A[3][3], output float r) {"
            " index i[0:2], j[0:2]; r = sum[i][j: j != i](A[i][j]); }",
            inputs={"A": np.ones((3, 3))},
        )
        assert float(result.outputs["r"]) == 6.0

    def test_min_with_predicate_identity(self):
        # All-masked lanes fall back to +inf for min.
        result = run(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3], v[0:3];"
            " y[v] = min[i: i > 5](x[i]); }",
            inputs={"x": np.arange(4.0)},
        )
        assert np.all(np.isinf(result.outputs["y"]))

    def test_prod(self):
        result = run(
            "main(input float x[4], output float r) {"
            " index i[0:3]; r = prod[i](x[i]); }",
            inputs={"x": np.array([1.0, 2.0, 3.0, 4.0])},
        )
        assert float(result.outputs["r"]) == 24.0

    def test_argmax_returns_position(self):
        result = run(
            "main(input float x[5], output float r) {"
            " index i[0:4]; r = argmax[i](x[i]); }",
            inputs={"x": np.array([1.0, 9.0, 3.0, 9.5, 0.0])},
        )
        assert int(result.outputs["r"]) == 3

    def test_argmin_per_row(self):
        a = np.array([[3.0, 1.0, 2.0], [0.5, 4.0, 0.1]])
        result = run(
            "main(input float A[2][3], output float y[2]) {"
            " index r[0:1], c[0:2]; y[r] = argmin[c](A[r][c]); }",
            inputs={"A": a},
        )
        assert np.allclose(result.outputs["y"], [1, 2])

    def test_custom_reduction(self):
        result = run(
            "reduction rmax(a,b) = a > b ? a : b;\n"
            "main(input float x[5], output float r) {"
            " index i[0:4]; r = rmax[i](x[i]); }",
            inputs={"x": np.array([3.0, -1.0, 7.0, 2.0, 5.0])},
        )
        assert float(result.outputs["r"]) == 7.0

    def test_custom_reduction_with_predicate(self):
        result = run(
            "reduction rmin(a,b) = a < b ? a : b;\n"
            "main(input float x[6], output float r) {"
            " index i[0:5]; r = rmin[i: i % 2 == 0](x[i]); }",
            inputs={"x": np.array([9.0, 0.0, 4.0, 0.0, 6.0, 0.0])},
        )
        assert float(result.outputs["r"]) == 4.0

    def test_reduction_of_unreferenced_index_scales(self):
        # sum over i of a constant multiplies by the range size.
        result = run(
            "main(input float c, output float r) {"
            " index i[0:9]; r = sum[i](c); }",
            inputs={"c": 2.0},
        )
        assert float(result.outputs["r"]) == 20.0

    def test_fused_reduction_expression(self):
        rng = np.random.default_rng(3)
        a, x, b = rng.normal(size=(4, 4)), rng.normal(size=4), rng.normal(size=4)
        result = run(
            "main(input float A[4][4], input float x[4], input float b[4],"
            " output float y[4]) {"
            " index i[0:3], j[0:3]; y[j] = sum[i](A[j][i]*x[i]) + b[j]; }",
            inputs={"A": a, "x": x, "b": b},
        )
        assert np.allclose(result.outputs["y"], a @ x + b)

    def test_chunked_reduction_equals_unchunked(self):
        rng = np.random.default_rng(4)
        a, x = rng.normal(size=(16, 64)), rng.normal(size=64)
        source = (
            "main(input float A[16][64], input float x[64], output float y[16]) {"
            " index i[0:63], j[0:15];"
            " y[j] = sum[i](A[j][i]*x[i+0-0]*1.0); }"
        )
        # The odd subscript defeats the einsum fast path so the general
        # (and, with a tiny limit, chunked) evaluator runs.
        big = run(source, inputs={"A": a, "x": x})
        small = run(source, inputs={"A": a, "x": x}, lattice_limit=64)
        assert np.allclose(big.outputs["y"], small.outputs["y"])
        assert np.allclose(big.outputs["y"], a @ x)


class TestCompileEinsum:
    """The one einsum dispatcher: eligibility is decided statically, the
    operand checks the dynamic dispatch used to make live in ``run``."""

    @staticmethod
    def _compile(value, ranges="i[0:3], j[0:2]"):
        from repro.pmlang.parser import parse
        from repro.srdfg.interpreter import _AxisSpace, compile_einsum

        program = parse(
            "main(input float A[4][3], input float x[3], input int idx[3],"
            " param float c,"
            f" output float y[4]) {{ index {ranges}; y[i] = {value}; }}"
        )
        stmt = program.components["main"].body[-1]
        index_ranges = {
            spec.name: (spec.low.value, spec.high.value)
            for decl in program.components["main"].body[:-1]
            for spec in decl.specs
        }
        space = _AxisSpace(stmt, index_ranges)
        return compile_einsum(stmt.value, space, {"two": 2.0})

    def test_sum_of_products_compiles(self):
        einsum = self._compile("sum[j](A[i][j] * x[j] * two * 3)")
        assert einsum.spec == "ab,b->a"
        assert einsum.operands == (("A", (4, 3)), ("x", (3,)))
        assert einsum.scalar == 6.0
        assert einsum.out_shape == (4, 1)
        A, x = np.arange(12.0).reshape(4, 3), np.array([1.0, -1.0, 2.0])
        assert np.array_equal(
            einsum.run({"A": A, "x": x}), (6.0 * (A @ x)).reshape(4, 1)
        )

    @pytest.mark.parametrize("value, ranges, operands, views", [
        # Ineligible while subscripts had to be bare zero-based names; an
        # affine subscript now selects a strided view of its operand.
        # A non-zero lower bound: both operands start at origin 1.
        ("sum[j](A[i][j] * x[j])", "i[0:3], j[1:2]",
         (("A", (4, 2)), ("x", (2,))),
         (((0, 1), ((1, 0), (0, 1))), ((1,), ((1,),)))),
        # Only the operand with a non-bare subscript is viewed.
        ("sum[j](A[i][j] * x[j + 0])", "i[0:3], j[0:2]",
         (("A", (4, 3)), ("x", (3,))),
         (None, ((0,), ((1,),)))),
    ])
    def test_affine_subscripts_compile_to_views(self, value, ranges,
                                                operands, views):
        einsum = self._compile(value, ranges)
        assert einsum.spec == "ab,b->a"
        assert einsum.operands == operands
        assert einsum.views == views
        A, x = np.arange(12.0).reshape(4, 3), np.array([1.0, -1.0, 2.0])
        low = views[1][0][0]
        assert np.array_equal(
            einsum.run({"A": A, "x": x}),
            (A[:, low:] @ x[low:]).reshape(4, 1),
        )

    @pytest.mark.parametrize("value, ranges", [
        # a predicate
        ("sum[j: j < 2](A[i][j] * x[j])", "i[0:3], j[0:2]"),
        # not a product of affinely subscripted variables
        ("sum[j](A[i][j] + x[j])", "i[0:3], j[0:2]"),
        ("sum[j](A[i][j] * x[(j + 1) % 3])", "i[0:3], j[0:2]"),
        ("sum[j](A[i][j] * x[idx[j]])", "i[0:3], j[0:2]"),
        ("sum[j](A[i][j] * x[j > 0])", "i[0:3], j[0:2]"),
        ("sum[j](A[i][j] * c)", "i[0:3], j[0:2]"),
        # not a sum, not a reduction
        ("max[j](A[i][j] * x[j])", "i[0:3], j[0:2]"),
        ("A[i][0] * x[0]", "i[0:3], j[0:2]"),
    ])
    def test_ineligible_expressions_compile_to_none(self, value, ranges):
        assert self._compile(value, ranges) is None

    @pytest.mark.parametrize("values", [
        {"A": np.ones((4, 3))},  # missing operand
        {"A": np.ones((4, 3)), "x": np.ones((3, 1))},  # wrong rank
        {"A": np.ones((4, 4)), "x": np.ones(3)},  # wrong extent
    ])
    def test_run_declines_mismatched_operands(self, values):
        einsum = self._compile("sum[j](A[i][j] * x[j])")
        assert einsum.run(values) is None


class TestAffineView:
    """Contractions over affine subscripts: einsum over ``_affine_view``
    must equal lattice evaluation, interpreted and as a kernel."""

    @staticmethod
    def _tiers(source, inputs):
        """Outputs of *source* on the lattice path, the einsum path and
        the generated kernel, after checking the dispatch was taken."""
        from repro.driver import CompilerSession
        from repro.targets import default_accelerators

        session = CompilerSession(default_accelerators())
        plan = session.plan_for(
            session.compile(source, domain="DA"), codegen=True
        )
        statements = [statement for _, statement in plan.iter_statements()]
        assert all(statement.einsum is not None for statement in statements)
        assert all(
            any(view is not None for view in statement.einsum.views)
            for statement in statements
        )
        assert plan.kernel.report["einsum"] == len(statements)
        assert plan.kernel.report["fallback"] == 0
        lattice = Executor(build(source), enable_einsum=False).run(inputs=inputs)
        interpreted = plan._execute(inputs, {}, {}, {}, None)
        kernel, _ = plan.kernel.run(inputs)
        return lattice.outputs, interpreted.outputs, kernel

    @pytest.mark.parametrize("body, shapes", [
        # negative coefficient
        ("index i[0:3], p[0:4]; y[i] = sum[p](M[i][4-p] * v[p]);",
         {"M": (4, 5), "v": (5,)}),
        # diagonal, from origin (1, 1): one index walks two dimensions
        ("index i[0:3], p[1:4]; y[i] = sum[p](M[p][p] * N[i][p]);",
         {"M": (5, 5), "N": (4, 5)}),
        # an extent-1 axis has no coefficient to read off
        ("index i[0:3], p[0:0]; y[i] = sum[p](M[i][p+2] * v[i+p]);",
         {"M": (4, 5), "v": (5,)}),
        # strided window
        ("index i[0:3], p[0:2]; y[i] = sum[p](v[p+6] * v[i*2+p]);",
         {"v": (9,)}),
    ])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
    def test_view_equals_lattice_on_both_tiers(self, body, shapes, layout):
        rng = np.random.default_rng(5)
        inputs = {}
        for name, shape in shapes.items():
            if layout == "transposed":
                inputs[name] = rng.normal(size=shape[::-1]).T
            elif layout == "strided":
                inputs[name] = rng.normal(
                    size=(2 * shape[0],) + shape[1:]
                )[::2]
            else:
                inputs[name] = rng.normal(size=shape)
        declared = ", ".join(
            f"input float {name}" + "".join(f"[{n}]" for n in shape)
            for name, shape in shapes.items()
        )
        source = f"main({declared}, output float y[4]) {{ {body} }}"
        lattice, interpreted, kernel = self._tiers(source, inputs)
        # The interpreter oracle's f64 tolerance (repro.fuzz.oracles).
        assert np.allclose(interpreted["y"], lattice["y"], rtol=1e-9, atol=1e-12)
        assert np.array_equal(kernel["y"], interpreted["y"])

    def test_out_of_range_subscript_raises_the_lattice_error(self):
        from repro.driver import CompilerSession
        from repro.targets import default_accelerators

        source = (
            "main(input float w[3], input float a[8], output float y[8]) {"
            " index i[0:7], k[0:2]; y[i] = sum[k](w[k] * a[i + k]); }"
        )
        inputs = {"w": np.ones(3), "a": np.arange(8.0)}
        message = r"subscript 0 of 'a' out of range \[0, 9\] for extent 8"
        for enable_einsum in (False, True):
            with pytest.raises(ExecutionError, match=message):
                run(source, inputs=inputs, enable_einsum=enable_einsum)
        session = CompilerSession(default_accelerators())
        plan = session.plan_for(
            session.compile(source, domain="DA"), codegen=True
        )
        with pytest.raises(ExecutionError, match=message):
            plan.kernel.run(inputs)

    def test_view_is_read_only_and_checked(self):
        from repro.srdfg.interpreter import _affine_view

        base = np.arange(10.0)
        view = _affine_view(base, (1,), ((2, 1),), (4, 2))
        assert np.array_equal(view, [[1, 2], [3, 4], [5, 6], [7, 8]])
        assert np.shares_memory(view, base) and not view.flags.writeable
        # one step past either end, or another rank: no view
        assert _affine_view(base, (1,), ((2, 1),), (5, 2)) is None
        assert _affine_view(base, (3,), ((-2, 1),), (3, 1)) is None
        assert _affine_view(base.reshape(2, 5), (1,), ((2, 1),), (4, 2)) is None


class TestStateAndAliasing:
    def test_state_threads_across_invocations(self):
        graph = build(
            "main(input float x, state float acc, output float y) {"
            " acc = acc + x; y = acc; }"
        )
        executor = Executor(graph)
        state = {}
        values = []
        for step in range(3):
            result = executor.run(inputs={"x": 1.0}, state=state)
            state = result.state
            values.append(float(result.outputs["y"]))
        assert values == [1.0, 2.0, 3.0]

    def test_output_aliasing_preserves_unwritten_elements(self, mpc_source,
                                                          mpc_data,
                                                          mpc_reference_result):
        graph = build(mpc_source, domain="RBT")
        result = Executor(graph).run(**mpc_data)
        assert np.allclose(result.outputs["ctrl_sgnl"],
                           mpc_reference_result["ctrl_sgnl"])
        assert np.allclose(result.state["ctrl_mdl"],
                           mpc_reference_result["ctrl_mdl"])

    def test_missing_input_raises(self):
        with pytest.raises(ExecutionError, match="missing input"):
            run("main(input float x, output float y) { y = x; }")

    def test_shape_mismatch_raises(self):
        with pytest.raises(ExecutionError, match="shape"):
            run(
                "main(input float x[4], output float y[4]) {"
                " index i[0:3]; y[i] = x[i]; }",
                inputs={"x": np.zeros(5)},
            )

    def test_unwritten_output_defaults_to_zero(self):
        result = run(
            "main(input float x, output float y[3]) { }",
            inputs={"x": 1.0},
        )
        assert np.allclose(result.outputs["y"], 0.0)


class TestUnrollSemantics:
    def test_unroll_accumulates(self):
        result = run(
            "main(input float x[4], output float y[4]) {"
            " index i[0:3];"
            " y[i] = x[i];"
            " unroll s[1:3] { y[i] = y[i] * 2.0; } }",
            inputs={"x": np.ones(4)},
        )
        assert np.allclose(result.outputs["y"], 8.0)

    def test_unroll_binder_value_visible(self):
        result = run(
            "main(output float y[3]) {"
            " unroll s[0:2] { y[s] = s * 10.0; } }"
        )
        assert np.allclose(result.outputs["y"], [0, 10, 20])


class TestGuardedAccess:
    def test_predicate_guards_out_of_range_reads(self):
        # The guarded-stencil idiom: sum[j: i+j < n](x[i+j]).
        result = run(
            "main(input float x[8], param float w[3], output float y[8]) {"
            " index i[0:7], j[0:2];"
            " y[i] = sum[j: i + j < 8](w[j] * x[i + j]); }",
            inputs={"x": np.arange(8.0)},
            params={"w": np.array([1.0, 1.0, 1.0])},
        )
        expected = np.array(
            [sum(i + j for j in range(3) if i + j < 8) for i in range(8)],
            dtype=float,
        )
        assert np.allclose(result.outputs["y"], expected)

    def test_unguarded_out_of_range_still_raises(self):
        # The predicate does not cover the violation -> hard error.
        with pytest.raises(ExecutionError, match="out of range"):
            run(
                "main(input float x[8], output float y[8]) {"
                " index i[0:7], j[0:2];"
                " y[i] = sum[j: j >= 0](x[i + j]); }",
                inputs={"x": np.arange(8.0)},
            )


class TestRenderBars:
    def test_bar_chart_renders(self):
        from repro.eval.figures import FigureData

        data = FigureData(
            figure="Fig T",
            caption="test",
            columns=("name", "value"),
            rows=[("a", 1.0), ("bb", 4.0)],
        )
        chart = data.render_bars()
        assert "Fig T" in chart
        assert chart.count("#") > 10
        assert "4.00" in chart


class TestComplexDtype:
    def test_complex_elementwise(self):
        z = np.array([1 + 2j, 3 - 1j, -2 + 0.5j])
        w = np.array([2 + 0j, 1 + 1j, 0 - 1j])
        result = run(
            "main(input complex a[3], input complex b[3],"
            " output complex y[3]) {"
            " index i[0:2]; y[i] = a[i] * b[i] + a[i]; }",
            inputs={"a": z, "b": w},
        )
        assert result.outputs["y"].dtype == np.complex128
        assert np.allclose(result.outputs["y"], z * w + z)

    def test_complex_dft_via_reduction(self):
        # Direct DFT with a complex twiddle matrix equals np.fft.fft.
        n = 16
        k = np.arange(n)
        twiddle = np.exp(-2j * np.pi * np.outer(k, k) / n)
        signal = np.random.default_rng(0).normal(size=n) + 0j
        result = run(
            f"main(input complex W[{n}][{n}], input complex x[{n}],"
            f" output complex X[{n}]) {{"
            f" index i[0:{n-1}], j[0:{n-1}];"
            " X[j] = sum[i](W[j][i]*x[i]); }",
            inputs={"W": twiddle, "x": signal},
        )
        assert np.allclose(result.outputs["X"], np.fft.fft(signal.real))

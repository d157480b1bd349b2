"""Unit tests for the vectorised srDFG interpreter."""

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.srdfg import Executor, build


def _evaluator(var_values=None):
    """An evaluator over no lattice: what a contraction runs on, with the
    numpy primitives."""
    from repro.srdfg.interpreter import _ExprEvaluator

    return _ExprEvaluator(None, {}, var_values or {}, {})


def _contract(steps, arrays):
    return _evaluator()._contract(steps, arrays)


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

    def test_chunked_reduction_equals_unchunked(self, monkeypatch):
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
        monkeypatch.setattr("repro.srdfg.interpreter.DEFAULT_LATTICE_LIMIT", 64)
        small = run(source, inputs={"A": a, "x": x})
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
            _evaluator({"A": A, "x": x})._run_einsum(einsum), (6.0 * (A @ x)).reshape(4, 1)
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
            _evaluator({"A": A, "x": x})._run_einsum(einsum),
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
        assert _evaluator(values)._run_einsum(einsum) is None


#: Labels and extents of generated contractions; extents 0 and 1 are the
#: edges numpy's matmul lowering treats apart.
_LABELS = "abcdef"
_DTYPES = (np.float32, np.float64, np.complex128)


@st.composite
def _contraction(draw):
    """``(spec, arrays)``: 1-4 operands whose terms mix batch, contracted,
    kept and summed-away labels, a label repeated within one term
    (``aa``), mixed dtypes, and at most one strided ``_affine_view`` — or
    a batched matmul whose output follows its terms' order, which einsum
    lowers to a transposed product and the plan swaps."""
    from repro.srdfg.interpreter import _affine_view

    extent = {
        label: draw(st.sampled_from((0, 1, 2, 2, 3, 3, 4, 4)))
        for label in _LABELS
    }
    if draw(st.booleans()):
        terms = draw(st.lists(
            st.text(_LABELS, min_size=1, max_size=3), min_size=1, max_size=4
        ))
        used = sorted(set("".join(terms)))
        out = draw(st.permutations(used).flatmap(
            lambda order: st.integers(0, len(order)).map(lambda n: order[:n])
        ))
    else:
        order = draw(st.permutations(_LABELS))
        batch, kept_a, summed, kept_b = (
            order[:1], order[1:2], order[2:4], order[4:]
        )
        term_a = draw(st.permutations(batch + kept_a + summed))
        term_b = draw(st.permutations(batch + summed + kept_b))
        terms = ["".join(term_a), "".join(term_b)]
        out = (
            [label for label in term_a if label in batch + kept_a]
            + [label for label in term_b if label in kept_b]
        )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    strided = draw(st.integers(-1, len(terms) - 1))
    arrays = []
    for position, term in enumerate(terms):
        shape = tuple(extent[label] for label in term)
        dtype = draw(st.sampled_from(_DTYPES))
        if position == strided and 0 not in shape:
            # Every other element of a larger base, from origin 1.
            base = rng.normal(size=tuple(2 * n + 1 for n in shape))
            array = _affine_view(
                base, (1,) * len(shape),
                tuple(tuple(2 * (row == col) for col in range(len(shape)))
                      for row in range(len(shape))),
                shape,
            ).astype(dtype, copy=False)
        else:
            array = rng.normal(size=shape).astype(dtype)
        if array.dtype.kind == "c":
            array = array + 1j * rng.normal(size=shape)
        arrays.append(array)
    return ",".join(terms) + "->" + "".join(out), arrays


def _planned_form(spec, arrays):
    """``(result, swapped)``: *spec* over *arrays* in the form the plan
    states, through numpy's own calls — einsum's greedy path, each
    pairwise step numpy's ``bmm_einsum`` — except that a step whose matmul
    einsum would transpose runs its two terms swapped when that matmul
    writes the product in output order. *swapped* counts those steps."""
    from numpy._core.einsumfunc import _parse_eq_to_batch_matmul, bmm_einsum, c_einsum

    _, path = np.einsum_path(spec, *arrays, optimize=True, einsum_call=True)
    operands, swapped = list(arrays), 0
    for positions, equation, _ in path:
        picked = [operands.pop(position) for position in positions]
        if len(picked) != 2:
            operands.append(c_einsum(equation, *picked))
            continue
        a, b = picked
        terms, _, out = equation.partition("->")
        term_a, term_b = terms.split(",")
        turned = f"{term_b},{term_a}->{out}"
        other = _parse_eq_to_batch_matmul(turned, b.shape, a.shape)
        if (_parse_eq_to_batch_matmul(equation, a.shape, b.shape)[5] is not None
                and other[5] is None and not other[6]):
            operands.append(bmm_einsum(turned, b, a))
            swapped += 1
        else:
            operands.append(bmm_einsum(equation, a, b))
    return np.asarray(operands[0]), swapped


class TestContract:
    """A contraction's bytes are those of the form the plan chose: einsum's
    own calls, but for a matmul einsum would transpose, which takes its
    terms swapped. Where nothing swaps the replay is byte-identical to
    ``np.einsum(optimize=True)``; a numpy whose einsum lowers differently
    fails here instead of drifting."""

    def test_replay_is_byte_identical_to_the_planned_form(self):
        import pickle

        from repro.srdfg.interpreter import _contraction_steps

        swaps = []

        @given(_contraction())
        @settings(max_examples=300, deadline=None)
        def check(contraction):
            spec, arrays = contraction
            steps = _contraction_steps(spec, tuple(array.shape for array in arrays))
            assert pickle.loads(pickle.dumps(steps)) == steps
            einsum = np.asarray(np.einsum(spec, *arrays, optimize=True))
            want, swapped = _planned_form(spec, arrays)
            got = np.asarray(_contract(steps, arrays))
            assert (got.dtype, got.shape) == (want.dtype, want.shape) == (
                einsum.dtype, einsum.shape
            )
            assert got.tobytes() == want.tobytes()
            swaps.append(swapped)
            if not swapped:
                assert got.tobytes() == einsum.tobytes()
                return
            # Both sum the same products: a dot product's rounding is
            # bounded by the sum of its terms' magnitudes.
            scale = np.einsum(spec, *map(np.abs, arrays), optimize=True)
            rel = 1e-5 if got.dtype == np.float32 else 1e-12
            assert (np.abs(got - einsum) <= rel * scale).all()

        check()
        assert sum(swaps) > 0

    def test_pairwise_steps_carry_the_matmul_lowering(self):
        from repro.srdfg.interpreter import _contraction_steps

        [(positions, equation, lowering)] = _contraction_steps(
            "ab,bc->ac", ((4, 3), (3, 5))
        )
        assert (positions, equation) == ((0, 0), "ab,bc->ac")
        # matmul yields (a, c): the product is already in output order.
        assert lowering[5] is None
        result = _contract(
            ((positions, equation, lowering),), (np.ones((4, 3)), np.ones((3, 5)))
        )
        assert result.shape == (4, 5) and result.flags.c_contiguous

    def test_swapped_pops_take_the_same_operands(self):
        """A swapped step pops its terms in the other order: einsum's
        second step pops ``(1, 0)`` (``db`` then ``ab``), the plan's
        ``(0, 0)`` (``ab``, then ``db`` shifted down)."""
        from repro.srdfg.interpreter import _contraction_steps

        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=shape) for shape in ((5, 6), (6, 7), (7, 4))]
        steps = _contraction_steps("ab,bc,cd->ad", tuple(a.shape for a in arrays))
        assert [step[:2] for step in steps] == [
            ((2, 1), "cd,bc->db"), ((0, 0), "ab,db->ad"),
        ]
        assert [lowering[5] for _, _, lowering in steps] == [None, None]
        want, swapped = _planned_form("ab,bc,cd->ad", arrays)
        assert swapped == 1
        assert _contract(steps, arrays).tobytes() == want.tobytes()

    def test_contract_is_the_plan_form_not_einsum(self):
        """MovieL-100K's ``pred``: 943 users x 10 factors times 10 x 1682
        items. The plan's ``U @ V`` rounds otherwise than einsum's
        ``(V.T @ U.T).T``; the plan's form is the contract."""
        from repro.srdfg.interpreter import _contraction_steps

        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(943, 10)), rng.normal(size=(10, 1682))
        steps = _contraction_steps("ab,bc->ac", (u.shape, v.shape))
        got = _contract(steps, (u, v))
        assert got.tobytes() == np.matmul(u, v).tobytes()
        einsum = np.einsum("ab,bc->ac", u, v, optimize=True)
        assert got.tobytes() != einsum.tobytes()
        assert (np.abs(got - einsum) <= 1e-12 * (np.abs(u) @ np.abs(v))).all()


#: Bodies of the short sums :class:`TestShortSum` draws, over ``x`` in
#: lattice order (the free axes, then ``j``) and ``w`` along ``j``: numpy
#: building the lattice argument the way the evaluator's lattice path does.
_SHORT_SUM_BODIES = {
    "{x}": lambda x, w: x,
    "{x} + w[j]": np.add,
    "({x} - w[j]) * ({x} - w[j])": lambda x, w: np.multiply(
        np.subtract(x, w), np.subtract(x, w)
    ),
}


@st.composite
def _short_sum(draw):
    """``(source, einsum, precision, inputs, want)``: ``y`` over one or two
    free axes is a sum over ``j`` of extent 1-7, which subscripts any
    dimension of ``x``; *want* is np.sum over the lattice argument. The
    data mixes signed zeros, infinities, NaNs and subnormals."""
    from hypothesis.extra.numpy import arrays

    dtype = draw(st.sampled_from((np.float32, np.float64)))
    extent = draw(st.integers(1, 7))
    free = draw(st.lists(st.integers(1, 9), min_size=1, max_size=2).filter(
        lambda sizes: int(np.prod(sizes)) > extent
    ))
    names = "ab"[: len(free)]
    position = draw(st.integers(0, len(free)))
    subscripts = list(names)
    subscripts.insert(position, "j")
    shape = list(free)
    shape.insert(position, extent)
    body = draw(st.sampled_from(sorted(_SHORT_SUM_BODIES)))
    info = np.finfo(dtype)
    bits = np.array([0x7FC00001, 0xFFC00002], dtype=np.uint32)
    if dtype == np.float64:
        bits = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64)
    elements = st.floats(width=info.bits) | st.sampled_from([
        0.0, -0.0, np.inf, -np.inf, *bits.view(dtype), info.smallest_subnormal,
    ])
    x = draw(arrays(dtype, tuple(shape), elements=elements))
    w = draw(arrays(dtype, (extent,), elements=elements))
    lattice = np.moveaxis(x, position, -1)
    with np.errstate(all="ignore"):
        arg = _SHORT_SUM_BODIES[body](lattice, w.reshape((1,) * len(free) + (extent,)))
        want = np.sum(arg, axis=-1)
    declared = "".join(f"[{n}]" for n in shape)
    out = "".join(f"[{n}]" for n in free)
    source = (
        f"main(input float x{declared}, input float w[{extent}], output float y{out}) {{"
        f" index {', '.join(f'{n}[0:{size - 1}]' for n, size in zip(names, free))},"
        f" j[0:{extent - 1}];"
        f" y{''.join(f'[{n}]' for n in names)} = sum[j]("
        + body.format(x="x" + "".join(f"[{n}]" for n in subscripts)) + "); }"
    )
    precision = "f32" if dtype == np.float32 else "f64"
    # A bare operand is an einsum; the lattice path is what folds.
    return source, body != "{x}", precision, {"x": x, "w": w}, want


@functools.lru_cache(maxsize=None)
def _short_sum_plan(source, einsum, precision):
    from repro.codegen import build_kernel
    from repro.driver import CompilerSession
    from repro.srdfg.plan import PlanConfig, build_plan
    from repro.targets import default_accelerators

    app = CompilerSession(default_accelerators()).compile(source, domain="DA")
    plan = build_plan(
        app.graph, config=PlanConfig(precision=precision, enable_einsum=einsum)
    )
    return plan.attach_kernel(build_kernel(plan))


class TestShortSum:
    """A sum over fewer than eight elements folds slice by slice on both
    tiers, byte-identical to ``np.sum`` over the lattice argument: numpy
    adds so few elements one after another from +0.0, and a total holding
    a NaN is taken again on the lattice. A numpy that sums differently
    fails here instead of drifting."""

    @given(_short_sum())
    @settings(max_examples=300, deadline=None)
    def test_fold_is_byte_identical_to_np_sum(self, case):
        source, einsum, precision, inputs, want = case
        plan = _short_sum_plan(source, einsum, precision)
        assert plan.kernel.report["short_sums"] == 1
        with np.errstate(all="ignore"):
            interpreted = plan._execute(inputs, {}, {}, {}, None).outputs["y"]
            kernel, _ = plan.kernel.run(inputs)
        for got in (interpreted, kernel["y"]):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    def test_a_nan_total_is_taken_on_the_lattice(self):
        """Two NaNs of opposite sign meet where numpy's add loop and its
        pairwise reduce hand the hardware their operands in different
        orders: the total would keep the other NaN than np.sum does."""
        source = (
            "main(input float x[9][2], input float w[2], output float y[9]) {"
            " index a[0:8], j[0:1]; y[a] = sum[j](x[a][j] + w[j]); }"
        )
        nan = np.float64(np.nan)
        x = np.zeros((9, 2))
        x[:, 0], x[:, 1] = nan, -nan
        inputs = {"x": x, "w": np.zeros(2)}
        want = np.sum(x + np.zeros(2), axis=1)
        plan = _short_sum_plan(source, True, "f64")
        assert "if _np.isnan(" in plan.kernel.source
        with np.errstate(all="ignore"):
            interpreted = plan._execute(inputs, {}, {}, {}, None).outputs["y"]
            kernel, _ = plan.kernel.run(inputs)
        assert interpreted.tobytes() == want.tobytes()
        assert kernel["y"].tobytes() == want.tobytes()

    @pytest.mark.parametrize("declared, body", [
        # extent 8: numpy's pairwise summation unrolls from there
        ("input float x[16][8], input float w[8]", "sum[j](x[a][j] + w[j])"),
        # a predicate
        ("input float x[16][4], input float w[4]", "sum[j: j != 1](x[a][j] + w[j])"),
        # int, bool and complex operands
        ("input int x[16][4], input float w[4]", "sum[j](x[a][j] + 1)"),
        ("input float x[16][4], input float w[4]", "sum[j](x[a][j] > w[j])"),
        ("input complex x[16][4], input float w[4]", "sum[j](x[a][j] + w[j])"),
        # the reduced axis longer than the rest
        ("input float x[3][4], input float w[4]", "sum[j](x[a][j] + w[j])"),
    ])
    def test_what_does_not_fold_keeps_np_sum(self, declared, body):
        rows, extent = _rows_and_extent(declared)
        source = (
            f"main({declared}, output float y[{rows}]) {{"
            f" index a[0:{rows - 1}], j[0:{extent - 1}]; y[a] = {body}; }}"
        )
        plan = _short_sum_plan(source, True, "f64")
        kernel = plan.kernel
        assert kernel.report["short_sums"] == 0
        assert "_np.sum(" in kernel.source
        # A fold taken back on its first slice leaves no line behind.
        assert "_np.add(0.0" not in kernel.source
        assert "if _np.isnan(" not in kernel.source


def _rows_and_extent(declared):
    """The two extents of ``x`` in a declaration list."""
    dims = declared.split("x[", 1)[1].split(",")[0]
    return tuple(int(n) for n in dims.rstrip("]").split("]["))


#: Where ``e`` puts the reduced index ``b``: first (the graph programs'
#: ``adj[u][v]``, whose mask is a transposed view of ``e``), second, or
#: alone under a scalar target (one group).
_EDGE_LAYOUTS = {"first": "e[b][a]", "second": "e[a][b]", "alone": "e[b]"}


def _read_only(value):
    value = np.array(value)
    value.flags.writeable = False
    return value


@st.composite
def _edge_reduce(draw):
    """``(source, precision, params, inputs, mask)``: a min or max over
    ``b`` under ``e[..] == 1`` with ``e`` a bin param, on data mixing
    signed zeros, infinities and NaNs of both signs. *mask* is the
    predicate over the ``(a, b)`` lattice: a density either side of
    ``POINTS_SHARE``, with the first or last group emptied or one group
    filled on request."""
    from hypothesis.extra.numpy import arrays

    precision = draw(st.sampled_from(("f32", "f64")))
    dtype = np.float32 if precision == "f32" else np.float64
    op = draw(st.sampled_from(("min", "max")))
    layout = draw(st.sampled_from(sorted(_EDGE_LAYOUTS)))
    groups = 1 if layout == "alone" else draw(st.integers(1, 6))
    extent = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.0, 0.1, 0.5, 0.7, 0.8, 1.0)))
    mask = rng.random((groups, extent)) < density
    for row, value in ((0, False), (-1, False), (draw(st.integers(0, groups - 1)), True)):
        if draw(st.booleans()):
            mask[row] = value
    edges = {"first": mask.T, "second": mask, "alone": mask[0]}[layout]
    bits = np.array([0x7FC00001, 0xFFC00002], dtype=np.uint32)
    if dtype == np.float64:
        bits = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64)
    elements = st.sampled_from([0.0, -0.0, 1.0, 2.0, np.inf, -np.inf, *bits.view(dtype)])
    if layout == "alone" or draw(st.booleans()):
        x, arg, declared = draw(arrays(dtype, (extent,), elements=elements)), "x[b]", f"x[{extent}]"
    else:
        x = draw(arrays(dtype, (groups, extent), elements=elements))
        arg, declared = "x[a][b] + x[a][b]", f"x[{groups}][{extent}]"
    target, free = ("y", "") if layout == "alone" else (f"y[{groups}]", f"a[0:{groups - 1}], ")
    source = (
        f"main(param bin e{''.join(f'[{n}]' for n in edges.shape)}, input float {declared},"
        f" output float {target}) {{ index {free}b[0:{extent - 1}];"
        f" {target.split('[')[0]}{'' if layout == 'alone' else '[a]'} ="
        f" {op}[b: {_EDGE_LAYOUTS[layout]} == 1]({arg}); }}"
    )
    return source, precision, {"e": np.ascontiguousarray(edges, dtype=np.int8)}, {"x": x}, mask


class TestCompressedReduction:
    """A predicated min/max over a read-only param runs on its true
    points, byte-identical on both tiers to the masked reduction over the
    lattice that a writeable param keeps: a group answering a zero or a
    NaN is taken again on the lattice, where numpy's loop order picks
    which one; every other answer is the one value the group holds."""

    @given(_edge_reduce())
    @settings(max_examples=300, deadline=None)
    def test_points_are_byte_identical_to_the_lattice(self, case):
        from repro.srdfg.interpreter import POINTS_SHARE

        source, precision, params, inputs, mask = case
        plan = _short_sum_plan(source, True, precision)
        [statement] = plan.statements.values()
        assert statement.path() == "compressed"
        assert plan.kernel.report["compressed"] == 1
        memo = statement.compressed[0]._memo
        with np.errstate(all="ignore"):
            want = plan._execute(inputs, params, {}, {}, None).outputs["y"]
            assert statement.compressed[0]._memo is memo  # writeable: the lattice
            frozen = {name: _read_only(value) for name, value in params.items()}
            interpreted = plan._execute(inputs, frozen, {}, {}, None).outputs["y"]
            kernel, _ = plan.kernel.run(inputs, frozen)
        points = statement.compressed[0]._memo[2]
        assert (points is not None) == (mask.sum() <= POINTS_SHARE * mask.size)
        for got in (interpreted, kernel["y"]):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


#: A BFS relaxation over six vertices, as the graph programs write it.
_RELAX = (
    "main(param bin adj[6][6], input float x[6], output float y[6]) {"
    " index u[0:5], v[0:5]; y[v] = min[u: adj[u][v] == 1](x[u] + 1.0); }"
)


def _relax(adj, x):
    return np.min(np.where(adj.T == 1, x[None, :] + 1.0, np.inf), axis=1)


class TestCompressedSoundness:
    """Points are derived only from read-only params, once per object."""

    X = np.arange(6.0)

    @staticmethod
    def _edges(*pairs):
        adj = np.zeros((6, 6), dtype=np.int8)
        for u, v in pairs:
            adj[u, v] = 1
        return adj

    def _run(self, plan, adj):
        interpreted = plan._execute({"x": self.X}, {"adj": adj}, {}, {}, None).outputs["y"]
        kernel, _ = plan.kernel.run({"x": self.X}, {"adj": adj})
        assert interpreted.tobytes() == kernel["y"].tobytes()
        return interpreted

    def test_a_writeable_param_builds_no_memo_and_edits_show(self):
        plan = _short_sum_plan(_RELAX, True, "f64")
        [statement] = plan.statements.values()
        memo = statement.compressed[0]._memo
        adj = self._edges((0, 1), (1, 2))
        first = self._run(plan, adj)
        adj[0, 2] = 1
        second = self._run(plan, adj)
        assert statement.compressed[0]._memo is memo
        assert first.tobytes() == _relax(self._edges((0, 1), (1, 2)), self.X).tobytes()
        assert second.tobytes() == _relax(adj, self.X).tobytes()
        assert second[2] != first[2]
        # A read-only view of a writeable array is written through it.
        view = adj.view()
        view.flags.writeable = False
        self._run(plan, view)
        assert statement.compressed[0]._memo is memo

    def test_a_new_read_only_object_derives_again(self):
        from repro.srdfg.plan import POINTS_STATS

        plan = _short_sum_plan(_RELAX, True, "f64")
        [statement] = plan.statements.values()
        before = POINTS_STATS.snapshot().built
        first = _read_only(self._edges((0, 1), (1, 2)))
        second = _read_only(self._edges((0, 1), (1, 2), (3, 2)))
        for adj in (first, first, second, second):
            assert self._run(plan, adj).tobytes() == _relax(adj, self.X).tobytes()
            assert statement.compressed[0]._memo[0][0]() is adj
        assert POINTS_STATS.snapshot().built - before == 2

    @pytest.mark.parametrize("name, param", [
        ("Twitter-BFS", "adj"), ("Wiki-BFS", "adj"),
        ("LiveJourn-SSP", "adj"), ("LiveJourn-SSP", "w"),
    ])
    def test_graph_params_are_read_only(self, name, param):
        from repro.workloads import get_workload

        params = get_workload(name).params()
        with pytest.raises(ValueError):
            params[param][0, 0] = 1

    def test_subscripts_stray_only_where_the_lattice_lets_them(self):
        """``x[u + 1]`` leaves ``x`` at ``u == 5``: where no edge leaves
        vertex 5 the lattice clamps it and the points never reach it;
        where one does, both tiers raise the lattice's own error."""
        plan = _short_sum_plan(_RELAX.replace("x[u] + 1.0", "x[u + 1]"), True, "f64")
        x = np.arange(6.0)
        clear = self._edges((0, 1), (4, 2))
        want = plan._execute({"x": x}, {"adj": clear}, {}, {}, None).outputs["y"]
        frozen = _read_only(clear)
        got = plan._execute({"x": x}, {"adj": frozen}, {}, {}, None).outputs["y"]
        kernel, _ = plan.kernel.run({"x": x}, {"adj": frozen})
        assert want.tobytes() == got.tobytes() == kernel["y"].tobytes()
        errors = []
        for adj in (self._edges((5, 2)), _read_only(self._edges((5, 2)))):
            for run in (
                lambda: plan._execute({"x": x}, {"adj": adj}, {}, {}, None),
                lambda: plan.kernel.run({"x": x}, {"adj": adj}),
            ):
                with pytest.raises(ExecutionError) as raised:
                    run()
                errors.append(str(raised.value))
        assert len(set(errors)) == 1
        assert errors[0] == "subscript 0 of 'x' out of range [1, 6] for extent 6"

    def test_threads_first_touching_one_plan_agree(self):
        """Eight threads on both tiers meet an empty memo at once: one
        derives the points, every one answers the lattice's bytes."""
        import sys
        import threading

        from repro.srdfg.plan import POINTS_STATS

        plan = _short_sum_plan(_RELAX, True, "f64")
        adj = _read_only(self._edges((0, 1), (1, 2), (2, 3), (5, 4)))
        before = POINTS_STATS.snapshot().built
        barrier = threading.Barrier(8)
        results = []

        def touch(run):
            barrier.wait(timeout=30)
            results.append(run())

        runs = [
            lambda: plan._execute({"x": self.X}, {"adj": adj}, {}, {}, None).outputs["y"],
            lambda: plan.kernel.run({"x": self.X}, {"adj": adj})[0]["y"],
        ] * 4
        threads = [threading.Thread(target=touch, args=(run,)) for run in runs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert {result.tobytes() for result in results} == {_relax(adj, self.X).tobytes()}
        assert POINTS_STATS.snapshot().built - before == 1


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
        # A statement that would raise declines the kernel with its error,
        # and the interpreted plan raises it.
        assert plan.kernel is None
        assert re.search(message, plan.kernel_declined)
        with pytest.raises(ExecutionError, match=message):
            plan.execute(inputs)

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

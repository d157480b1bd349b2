"""Property-based tests (hypothesis) for core invariants.

Four deep properties:

1. statement evaluation equals a naive per-lattice-point loop interpreter
   for randomly generated formula statements, and the generated kernel of
   the same one-statement program equals the interpreter bit for bit;
2. constant folding preserves the value of random constant expressions;
3. the lexer/parser round-trips randomly rendered expressions;
4. pass pipelines preserve functional semantics on random elementwise
   pipelines of statements.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.driver import CompilerSession
from repro.pmlang import ast_nodes as ast
from repro.pmlang.parser import parse
from repro.rewrite import CONSTANT_FOLDING
from repro.srdfg import Executor, build, evaluate_statement
from repro.srdfg.builder import eval_static
from repro.targets import default_accelerators

# ---------------------------------------------------------------------------
# 1. Statement evaluation vs naive loop reference
# ---------------------------------------------------------------------------

_SIZES = st.integers(min_value=1, max_value=5)


@st.composite
def random_statement(draw):
    """A random assignment over a 1-D/2-D lattice with strided reads."""
    n = draw(_SIZES)
    m = draw(_SIZES)
    # Choose a RHS template mixing reads, arithmetic, and reductions.
    template = draw(
        st.sampled_from(
            [
                "y[i] = a[i] + b[i] * c;",
                "y[i] = a[i] - 2.0 * b[i];",
                "y[i] = a[i] > b[i] ? a[i] : b[i];",
                "y[i] = sum[j](A[i][j] * b2[j]);",
                "y[i] = sum[j](A[i][j]) + a[i];",
                "y[i] = max[j](A[i][j]);",
                "y[i] = min[j: j != 0](A[i][j] + 1.0);",
                "r = sum[i][j](A[i][j]);",
                "y[i] = abs(a[i]) + sqrt(abs(b[i]));",
            ]
        )
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    values = {
        "a": rng.normal(size=n),
        "b": rng.normal(size=n),
        "b2": rng.normal(size=m),
        "A": rng.normal(size=(n, m)),
        "c": np.asarray(1.5),
        "y": np.zeros(n),
        "r": np.zeros(()),
    }
    return template, n, m, values


def _naive_eval(template, n, m, values):
    """Brute-force per-point Python evaluation of the templates above."""
    a, b, b2, A, c = values["a"], values["b"], values["b2"], values["A"], 1.5
    if template == "y[i] = a[i] + b[i] * c;":
        return np.array([a[i] + b[i] * c for i in range(n)])
    if template == "y[i] = a[i] - 2.0 * b[i];":
        return np.array([a[i] - 2.0 * b[i] for i in range(n)])
    if template == "y[i] = a[i] > b[i] ? a[i] : b[i];":
        return np.array([a[i] if a[i] > b[i] else b[i] for i in range(n)])
    if template == "y[i] = sum[j](A[i][j] * b2[j]);":
        return np.array(
            [sum(A[i][j] * b2[j] for j in range(m)) for i in range(n)]
        )
    if template == "y[i] = sum[j](A[i][j]) + a[i];":
        return np.array([sum(A[i][j] for j in range(m)) + a[i] for i in range(n)])
    if template == "y[i] = max[j](A[i][j]);":
        return np.array([max(A[i][j] for j in range(m)) for i in range(n)])
    if template == "y[i] = min[j: j != 0](A[i][j] + 1.0);":
        return np.array(
            [
                min((A[i][j] + 1.0 for j in range(m) if j != 0), default=np.inf)
                for i in range(n)
            ]
        )
    if template == "r = sum[i][j](A[i][j]);":
        return np.asarray(sum(A[i][j] for i in range(n) for j in range(m)))
    if template == "y[i] = abs(a[i]) + sqrt(abs(b[i]));":
        return np.array([abs(a[i]) + np.sqrt(abs(b[i])) for i in range(n)])
    raise AssertionError(template)


@given(random_statement())
@settings(max_examples=60, deadline=None)
def test_statement_evaluation_matches_naive_loops(case):
    template, n, m, values = case
    source = (
        "main(input float a[N], input float b[N], input float b2[M],"
        " input float A[N][M], input float c,"
        " output float y[N], output float r) {"
        " index i[0:N-1], j[0:M-1];"
        f" {template} }}".replace("N", str(n)).replace("M", str(m))
    )
    program = parse(source)
    stmt = program.components["main"].body[-1]
    result = evaluate_statement(
        stmt,
        {"i": (0, n - 1), "j": (0, m - 1)},
        {},
        values,
        lhs_shape=(n,) if stmt.target == "y" else (),
        dtype="float",
    )
    expected = _naive_eval(template, n, m, values)
    assert np.allclose(np.asarray(result).ravel(), np.asarray(expected).ravel())

    # The kernel tier is the same evaluator, staged: bit-identical at
    # f64, and ``run`` (no interpreter fallback behind it) must not raise.
    session = CompilerSession(default_accelerators())
    plan = session.plan_for(session.compile(source, domain="DA"), codegen=True)
    inputs = {name: values[name] for name in ("a", "b", "b2", "A", "c")}
    interpreted = plan._execute(inputs, {}, {}, {}, None)
    outputs, _ = plan.kernel.run(inputs)
    assert np.array_equal(
        outputs[stmt.target], interpreted.outputs[stmt.target], equal_nan=True
    )
    assert np.array_equal(
        np.asarray(interpreted.outputs[stmt.target]).ravel(),
        np.asarray(result).ravel(),
        equal_nan=True,
    )


# ---------------------------------------------------------------------------
# 2. Constant folding preserves static value
# ---------------------------------------------------------------------------

_const_expr = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=-20, max_value=20).map(lambda v: ast.Literal(value=v)),
        st.tuples(
            st.sampled_from(["+", "-", "*"]), _const_expr, _const_expr
        ).map(lambda t: ast.BinOp(op=t[0], left=t[1], right=t[2])),
        st.tuples(_const_expr, _const_expr, _const_expr).map(
            lambda t: ast.Ternary(cond=t[0], then=t[1], other=t[2])
        ),
    )
)


@given(_const_expr)
@settings(max_examples=80, deadline=None)
def test_fold_expr_preserves_static_value(rewrite_expr, expr):
    folded = rewrite_expr(CONSTANT_FOLDING, expr)
    assert isinstance(folded, ast.Literal)
    assert folded.value == eval_static(expr, {})


# ---------------------------------------------------------------------------
# 3. Expression rendering round-trips through the parser
# ---------------------------------------------------------------------------


def _render(expr):
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.BinOp):
        return f"({_render(expr.left)} {expr.op} {_render(expr.right)})"
    if isinstance(expr, ast.UnaryOp):
        return f"(-{_render(expr.operand)})" if expr.op == "-" else f"(!{_render(expr.operand)})"
    if isinstance(expr, ast.Ternary):
        return f"({_render(expr.cond)} ? {_render(expr.then)} : {_render(expr.other)})"
    raise AssertionError(type(expr))


_names = st.sampled_from(["x", "zed", "var_1"])

_rt_expr = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=0, max_value=99).map(lambda v: ast.Literal(value=v)),
        _names.map(lambda n: ast.Name(id=n)),
        st.tuples(
            st.sampled_from(["+", "-", "*", "/", "<", ">", "==" ]), _rt_expr, _rt_expr
        ).map(lambda t: ast.BinOp(op=t[0], left=t[1], right=t[2])),
        _rt_expr.map(lambda e: ast.UnaryOp(op="-", operand=e)),
        st.tuples(_rt_expr, _rt_expr, _rt_expr).map(
            lambda t: ast.Ternary(cond=t[0], then=t[1], other=t[2])
        ),
    )
)


def _structurally_equal(left, right):
    if type(left) is not type(right):
        return False
    if isinstance(left, ast.Literal):
        return left.value == right.value
    if isinstance(left, ast.Name):
        return left.id == right.id
    if isinstance(left, ast.UnaryOp):
        return left.op == right.op and _structurally_equal(left.operand, right.operand)
    if isinstance(left, ast.BinOp):
        return (
            left.op == right.op
            and _structurally_equal(left.left, right.left)
            and _structurally_equal(left.right, right.right)
        )
    if isinstance(left, ast.Ternary):
        return all(
            _structurally_equal(getattr(left, field), getattr(right, field))
            for field in ("cond", "then", "other")
        )
    return False


@given(_rt_expr)
@settings(max_examples=80, deadline=None)
def test_expressions_round_trip_through_parser(expr):
    source = (
        "main(input float x, input float zed, input float var_1,"
        f" output float out) {{ out = {_render(expr)}; }}"
    )
    parsed = parse(source).components["main"].body[0].value
    assert _structurally_equal(parsed, expr)


# ---------------------------------------------------------------------------
# 4. Pass pipeline preserves semantics of random elementwise pipelines
# ---------------------------------------------------------------------------


@st.composite
def random_pipeline(draw):
    """A chain of elementwise statements threading locals."""
    depth = draw(st.integers(min_value=1, max_value=5))
    size = draw(st.integers(min_value=1, max_value=6))
    operators = [draw(st.sampled_from(["+", "-", "*"])) for _ in range(depth)]
    constants = [draw(st.integers(min_value=0, max_value=3)) for _ in range(depth)]
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return depth, size, operators, constants, seed


@given(random_pipeline())
@settings(max_examples=40, deadline=None)
def test_default_pipeline_preserves_random_programs(case):
    from repro.rewrite import default_pipeline

    depth, size, operators, constants, seed = case
    lines = [f"  float t0[{size}];", f"  index i[0:{size - 1}];",
             "  t0[i] = x[i];"]
    previous = "t0"
    for level, (op, const) in enumerate(zip(operators, constants), start=1):
        name = f"t{level}"
        lines.insert(0, f"  float {name}[{size}];")
        lines.append(f"  {name}[i] = {previous}[i] {op} {const};")
        previous = name
    lines.append(f"  y[i] = {previous}[i];")
    source = (
        f"main(input float x[{size}], output float y[{size}]) {{\n"
        + "\n".join(lines)
        + "\n}"
    )
    rng = np.random.default_rng(seed)
    x = rng.normal(size=size)

    plain = Executor(build(source)).run(inputs={"x": x}).outputs["y"]
    optimised_graph = default_pipeline().run(build(source)).graph
    optimised = Executor(optimised_graph).run(inputs={"x": x}).outputs["y"]
    assert np.allclose(plain, optimised)

    expected = x.copy()
    for op, const in zip(operators, constants):
        if op == "+":
            expected = expected + const
        elif op == "-":
            expected = expected - const
        else:
            expected = expected * const
    assert np.allclose(plain, expected)


# ---------------------------------------------------------------------------
# 5. Analytic op counting agrees with scalar expansion
# ---------------------------------------------------------------------------


@st.composite
def countable_statement(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    template = draw(
        st.sampled_from(
            [
                "y[i] = a[i] + b[i];",
                "y[i] = a[i] * b[i] + 1.0;",
                "y[i] = sum[j](A[i][j]);",
                "y[i] = sum[j](A[i][j] * b2[j]);",
                "r = sum[i][j](A[i][j]);",
                "y[i] = sigmoid(a[i]);",
            ]
        )
    )
    return template, n, m


@given(countable_statement())
@settings(max_examples=50, deadline=None)
def test_opclass_counts_match_scalar_expansion(case):
    """The analytic scalar-op count (opclass) and the materialised scalar
    graph (expand) are independent implementations of the same quantity."""
    from repro.srdfg import build, expand_scalar
    from repro.srdfg.expand import scalar_op_histogram

    template, n, m = case
    source = (
        "main(input float a[N], input float b[N], input float b2[M],"
        " input float A[N][M], output float y[N], output float r) {"
        " index i[0:N-1], j[0:M-1];"
        f" {template} }}".replace("N", str(n)).replace("M", str(m))
    )
    graph = build(source)
    [node] = graph.compute_nodes()
    analytic = node.attrs["descriptor"].total_ops
    histogram = scalar_op_histogram(expand_scalar(node))
    materialised = sum(histogram.values())
    assert analytic == materialised, (template, n, m, histogram)


# ---------------------------------------------------------------------------
# 6. Lowering (component inlining) preserves semantics
# ---------------------------------------------------------------------------


@st.composite
def nested_program(draw):
    """A random two-level component program over a small vector."""
    size = draw(st.integers(min_value=1, max_value=6))
    inner_op = draw(st.sampled_from(["+", "*", "-"]))
    inner_const = draw(st.integers(min_value=1, max_value=4))
    outer_uses_state = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return size, inner_op, inner_const, outer_uses_state, seed


@given(nested_program())
@settings(max_examples=30, deadline=None)
def test_lowering_preserves_semantics_on_random_programs(case):
    from repro.rewrite import lower

    size, inner_op, inner_const, outer_uses_state, seed = case
    state_decl = "state float acc[N]," if outer_uses_state else ""
    state_stmt = "acc[i] = acc[i] + t[i];" if outer_uses_state else ""
    source = (
        f"inner(input float a[n], output float b[n]) {{"
        f" index i[0:n-1]; b[i] = a[i] {inner_op} {inner_const}; }}\n"
        f"main(input float x[N], {state_decl} output float y[N]) {{"
        f" index i[0:N-1];"
        f" float t[N];"
        f" inner(x, t);"
        f" {state_stmt}"
        f" y[i] = t[i] * 2.0; }}"
    ).replace("N", str(size))

    rng = np.random.default_rng(seed)
    x = rng.normal(size=size)
    state = {"acc": rng.normal(size=size)} if outer_uses_state else {}

    plain = Executor(build(source)).run(inputs={"x": x}, state=dict(state))
    lowered_graph = build(source)
    lower(lowered_graph, {"DA": set()}, {"DA": {"alu", "mul", "div", "nonlinear"}})
    lowered = Executor(lowered_graph).run(inputs={"x": x}, state=dict(state))

    assert np.allclose(plain.outputs["y"], lowered.outputs["y"])
    if outer_uses_state:
        assert np.allclose(plain.state["acc"], lowered.state["acc"])

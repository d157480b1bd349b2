"""Unit tests for the PMLang parser."""

import pytest

from repro.errors import PMLangSyntaxError
from repro.pmlang import ast_nodes as ast
from repro.pmlang.parser import parse


def parse_component(body, args="input float x[4], output float y[4]"):
    program = parse(f"main({args}) {{ {body} }}")
    return program.components["main"]


def first_stmt(body, **kwargs):
    return parse_component(body, **kwargs).body[0]


class TestComponents:
    def test_component_signature(self, mpc_source):
        program = parse(mpc_source)
        assert set(program.components) == {
            "predict_trajectory",
            "update_ctrl_model",
            "mvmul",
            "compute_ctrl_grad",
            "main",
        }
        mvmul = program.components["mvmul"]
        assert [arg.modifier for arg in mvmul.args] == ["input", "input", "output"]
        assert mvmul.args[0].dtype == "float"
        assert len(mvmul.args[0].dims) == 2

    def test_empty_component_body(self):
        component = parse_component("")
        assert component.body == ()

    def test_duplicate_component_rejected(self):
        with pytest.raises(PMLangSyntaxError):
            parse("a(input float x) { }\na(input float x) { }")

    def test_missing_close_brace(self):
        with pytest.raises(PMLangSyntaxError):
            parse("main(input float x) { x = 1;")

    def test_arg_requires_modifier(self):
        with pytest.raises(PMLangSyntaxError):
            parse("main(float x) { }")


class TestStatements:
    def test_index_declaration(self):
        stmt = first_stmt("index i[0:3], j[1:2*4];")
        assert isinstance(stmt, ast.IndexDecl)
        assert [spec.name for spec in stmt.specs] == ["i", "j"]
        assert isinstance(stmt.specs[1].high, ast.BinOp)

    def test_local_declaration_multiple(self):
        stmt = first_stmt("float a[4], b[2][2], c;")
        assert isinstance(stmt, ast.VarDecl)
        assert [item.name for item in stmt.items] == ["a", "b", "c"]
        assert len(stmt.items[1].dims) == 2
        assert stmt.items[2].dims == ()

    def test_assignment_with_indices(self):
        first_stmt("index i[0:3]; y[i] = x[i] + 1;")
        component = parse_component("index i[0:3]; y[i] = x[i] + 1;")
        assign = component.body[1]
        assert isinstance(assign, ast.Assign)
        assert assign.target == "y"
        assert isinstance(assign.target_indices[0], ast.Name)

    def test_component_call_with_domain(self):
        program = parse(
            "f(input float a[2], output float b[2]) { index i[0:1]; b[i]=a[i]; }\n"
            "main(input float x[2], output float y[2]) { RBT: f(x, y); }"
        )
        call = program.components["main"].body[0]
        assert isinstance(call, ast.ComponentCall)
        assert call.domain == "RBT"
        assert call.component == "f"

    def test_component_call_without_domain(self):
        program = parse(
            "f(input float a[2], output float b[2]) { index i[0:1]; b[i]=a[i]; }\n"
            "main(input float x[2], output float y[2]) { f(x, y); }"
        )
        assert program.components["main"].body[0].domain is None

    def test_unroll_block(self):
        stmt = first_stmt("unroll s[0:3] { y[0] = x[0]; }")
        assert isinstance(stmt, ast.Unroll)
        assert stmt.var == "s"
        assert len(stmt.body) == 1

    def test_missing_semicolon(self):
        with pytest.raises(PMLangSyntaxError):
            parse_component("y[0] = x[0]")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        stmt = first_stmt("y[0] = x[0] + x[1] * x[2];")
        assert stmt.value.op == "+"
        assert stmt.value.right.op == "*"

    def test_comparison_in_ternary(self):
        stmt = first_stmt("y[0] = x[0] < x[1] ? 1.0 : 0.0;")
        assert isinstance(stmt.value, ast.Ternary)
        assert stmt.value.cond.op == "<"

    def test_nested_ternary_right_associative(self):
        stmt = first_stmt("y[0] = x[0] ? 1 : x[1] ? 2 : 3;")
        assert isinstance(stmt.value.other, ast.Ternary)

    def test_logical_operators(self):
        stmt = first_stmt("y[0] = (x[0] > 0 && x[1] > 0) || x[2] > 0 ? 1 : 0;")
        assert stmt.value.cond.op == "||"

    def test_unary_minus_binds_tighter_than_mul(self):
        stmt = first_stmt("y[0] = -x[0] * x[1];")
        assert stmt.value.op == "*"
        assert isinstance(stmt.value.left, ast.UnaryOp)

    def test_power_operator(self):
        stmt = first_stmt("y[0] = 2 ^ 3;")
        assert stmt.value.op == "^"

    def test_function_call(self):
        stmt = first_stmt("y[0] = sigmoid(x[0]);")
        assert isinstance(stmt.value, ast.FuncCall)
        assert stmt.value.func == "sigmoid"

    def test_two_argument_function(self):
        stmt = first_stmt("y[0] = fmax(x[0], x[1]);")
        assert len(stmt.value.args) == 2

    def test_parenthesised_expression(self):
        stmt = first_stmt("y[0] = (x[0] + x[1]) * x[2];")
        assert stmt.value.op == "*"
        assert stmt.value.left.op == "+"


class TestReductions:
    def test_builtin_sum(self):
        component = parse_component("index i[0:3]; y[0] = sum[i](x[i]);")
        value = component.body[1].value
        assert isinstance(value, ast.ReductionCall)
        assert value.op == "sum"
        assert value.indices[0].name == "i"
        assert value.indices[0].predicate is None

    def test_predicate(self):
        component = parse_component(
            "index i[0:3]; y[0] = sum[i: i != 2](x[i]);"
        )
        value = component.body[1].value
        assert value.indices[0].predicate is not None
        assert value.indices[0].predicate.op == "!="

    def test_multi_index_reduction(self):
        source = (
            "main(input float A[3][3], output float r) {"
            " index i[0:2], j[0:2];"
            " r = sum[i][j: j != i](A[i][j]); }"
        )
        value = parse(source).components["main"].body[1].value
        assert [spec.name for spec in value.indices] == ["i", "j"]
        assert value.indices[1].predicate is not None

    def test_custom_reduction_definition(self):
        program = parse(
            "reduction mymin(a,b) = a < b ? a : b;\n"
            "main(input float x[4], output float r) {"
            " index i[0:3]; r = mymin[i](x[i]); }"
        )
        assert "mymin" in program.reductions
        value = program.components["main"].body[1].value
        assert isinstance(value, ast.ReductionCall)
        assert value.op == "mymin"

    def test_reduction_name_as_variable_subscript(self):
        # ``max`` used with expression subscripts must parse as indexed
        # access, not a reduction (backtracking test).
        source = (
            "main(input float max[4], output float y[4]) {"
            " index i[0:3]; y[i] = max[i+1-1]; }"
        )
        stmt = parse(source).components["main"].body[1]
        assert isinstance(stmt.value, ast.Indexed)
        assert stmt.value.base == "max"

    def test_duplicate_reduction_rejected(self):
        with pytest.raises(PMLangSyntaxError):
            parse("reduction f(a,b) = a; reduction f(a,b) = b;")


class TestWalkers:
    def test_expr_names_collects_bases_and_names(self):
        component = parse_component(
            "index i[0:3]; y[i] = sum[i: i != k](A[i] * b) + c;",
            args="input float A[4], input float b, input float c, "
            "input float k, output float y[4]",
        )
        names = ast.expr_names(component.body[1].value)
        assert {"A", "b", "c", "i", "k"} <= names

    def test_walk_order_matches_recursive_definition(self):
        from repro.fuzz import generate_program

        sources = [generate_program(seed).render() for seed in range(40)]
        sources.append(
            "main(input float A[4][4], input float k, output float y[4]) {"
            " index i[0:3], j[0:3];"
            " y[i] = sum[j: j != i][i: i < k](A[i][j] > 0 ? -A[i][j] :"
            " exp(A[j][i], 2)) + max[j](A[i][j+1-1]); }"
        )
        walked = 0
        for source in sources:
            for expr in _program_exprs(parse(source)):
                reference = [id(node) for node in _walk_expr_recursive(expr)]
                assert [id(node) for node in ast.walk_expr(expr)] == reference
                walked += len(reference)
        assert walked > 1000
        assert list(ast.walk_expr(None)) == []


def _program_exprs(program):
    """Every top-level expression of every statement in *program*."""

    def from_body(body):
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                yield from stmt.target_indices
                yield stmt.value
            elif isinstance(stmt, ast.ComponentCall):
                yield from stmt.args
            elif isinstance(stmt, ast.Unroll):
                yield from from_body(stmt.body)

    for component in program.components.values():
        yield from from_body(component.body)
    for reduction in program.reductions.values():
        yield reduction.expr


def _walk_expr_recursive(expr):
    """``walk_expr`` as it was first written: the order of record."""
    if expr is None:
        return
    yield expr
    if isinstance(expr, ast.UnaryOp):
        yield from _walk_expr_recursive(expr.operand)
    elif isinstance(expr, ast.BinOp):
        yield from _walk_expr_recursive(expr.left)
        yield from _walk_expr_recursive(expr.right)
    elif isinstance(expr, ast.Ternary):
        yield from _walk_expr_recursive(expr.cond)
        yield from _walk_expr_recursive(expr.then)
        yield from _walk_expr_recursive(expr.other)
    elif isinstance(expr, ast.FuncCall):
        for arg in expr.args:
            yield from _walk_expr_recursive(arg)
    elif isinstance(expr, ast.ReductionCall):
        for spec in expr.indices:
            if spec.predicate is not None:
                yield from _walk_expr_recursive(spec.predicate)
        yield from _walk_expr_recursive(expr.arg)
    elif isinstance(expr, ast.Indexed):
        for index in expr.indices:
            yield from _walk_expr_recursive(index)

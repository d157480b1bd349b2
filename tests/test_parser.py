"""Unit tests for the PMLang parser."""

import hashlib

import pytest

from repro.errors import PMLangSyntaxError
from repro.pmlang import ast_nodes as ast
from repro.pmlang.parser import parse
from repro.pmlang.render import render_program
from repro.workloads import END_TO_END, SINGLE_DOMAIN, get_workload


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


#: sha256 of each ledger program's AST, rendered back to PMLang and as
#: its ``repr`` (which carries every node's line) — literals of the
#: commit before the parser's token plumbing was rewritten.
AST_DIGESTS = {
    "MobileRobot": (
        "a4257020ef15be6edd6a2ef49b423d70de0cd8f4c40eb1953971aa4cde777b30",
        "65ab46d3da74d9a8e9aea7e2ec05f46620861e102d19f5ec8ab8c030a3b52e78",
    ),
    "Hexacopter": (
        "701ba11050359278022524de78573404ea40e2ecafc6b9a2889e58aafbe10395",
        "efe07007592671c5e2d656b563cd9a16487586a8eb826fd8bcd99afe06e03c58",
    ),
    "Twitter-BFS": (
        "fd207516b6e9020deeff0eaed822c441f4c8e1ba3223164e4a2b876273779a9d",
        "384e225f1db12f22eee985dd5afef6b0e87928c706cd85d992d678bb6847bb5e",
    ),
    "Wiki-BFS": (
        "9198623ce5e6134c775d36c083dfe4b76bbeb0029179ce6c85605153063169e3",
        "dfb05eb2ac269e9d21afd6a9bca46f73ccf6c3ad513f387b39c18b5821beb9ed",
    ),
    "LiveJourn-SSP": (
        "b39251e904d0774c1a1f72541cfa4966b4dba0ab14b1682224a1f922fdfa0224",
        "5101ff3613aeee353fc71d8a9a06425c52a556af2430548b095c6290885dbd35",
    ),
    "MovieL-20M": (
        "220b21deb068f6c903bd8596b2d5a370431c625bfacd0cddf70064e5a8e93d10",
        "5adf92931f84fc431e123a37373e860a404aeb83a644bab54bb3cfb40404227a",
    ),
    "MovieL-100K": (
        "882a7ed49fefd6796f237449632f17ae1a8dc8d5cda7fa29e5555639e494d638",
        "afa01242d41f731652746833c4d54a7f3cbc42eea9f5804eaf6339dc3c95e644",
    ),
    "DigitCluster": (
        "5536b5094c8012dcbf2b2002fb2a9a70093f33e86a7904e88198ada1848fe71f",
        "cacd4c9eb014a17c75809ceae9f81ffb961bee441f1775a326e60872e4464ad6",
    ),
    "ElecUse": (
        "f84a223a68b85112d64bc129ad4124d0c75dc54a98d8886f1e6ac1c435457dc9",
        "f0d95f725c2c55beb1a3c6a0b127426fa5d2aef712ad42cb246abd4a5c1ba63e",
    ),
    "FFT-8192": (
        "4598a7165015a2381fb86f0266d3a910d13c21c55908256865bb7549c1aaa4c1",
        "d5f3e7bec993faf4cf09c1d17ce83bc861de6046b75eda41f910032a509c4744",
    ),
    "FFT-16384": (
        "5a15280f01e3d83c9e3f9574d52acde2481a84cbafe0ba64c03d3bf5e29f8486",
        "a351ef31f9159d185d3922da96ba42e6f3b410d5612d77156f102a4239b46585",
    ),
    "DCT-1024": (
        "668a93794708f103eda6e6197e6cc8a8aa628bb0e0ac943281dcb6c42715b82c",
        "00011ca94e839a2806898408f3cba095d13ae2d5b26317a4b96451093755080d",
    ),
    "DCT-2048": (
        "68726e3b2f91db51fc4a98d9e97d461fa0acd00481d0dac2b19a28c19a7af189",
        "0974995223eadb00ea55470602d828cca3dbec2b8ae3e10b6a3b261100ca09e5",
    ),
    "ResNet-18": (
        "fadc55d8d8d7c753baeb0c7b5e8ed5a02f6d5974587127af0b9a9f8f619051e3",
        "6183a9e21e2e4af714352f7c34956cbe0beb2c6289816b4a3086ec2b0f179df9",
    ),
    "MobileNet": (
        "d6ebc1a17177ef6554d652b376b3a8fe4ccda53bfaa0f4c35d307108ca3a515f",
        "4e063635cbd912aeb0ba444e9322e06215c49c167de879d835784b16bc7dd641",
    ),
    "BrainStimul": (
        "6191d405b40a0d000df141b801c3ce8f948fabc81cc1787013929fc4d040e188",
        "66182701fa1a98386d957ec13d3f05b9aeda12253af978874bb52ef931614372",
    ),
    "OptionPricing": (
        "e59aba00512d96dae13e6bff0f2f8ae29874bafbebec5c740606f47580156150",
        "7515fc909d745b3ee18b4a20f7f25d3f15b6eabd621406f8cfc54fad3c64a71d",
    ),
}


class TestWorkloadAsts:
    def test_every_workload_is_pinned(self):
        assert set(AST_DIGESTS) == set(SINGLE_DOMAIN + END_TO_END)

    @pytest.mark.parametrize("name", sorted(AST_DIGESTS))
    def test_ast_unchanged(self, name):
        program = parse(get_workload(name).source())
        digests = tuple(
            hashlib.sha256(text.encode()).hexdigest()
            for text in (render_program(program), repr(program))
        )
        assert digests == AST_DIGESTS[name]

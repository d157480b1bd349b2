"""Recursive-descent parser for PMLang.

Grammar (reconstructed from Fig 4 and §II of the paper; ``unroll`` is a
reproduction extension documented in DESIGN.md)::

    program        := (component | reduction_def)*
    reduction_def  := 'reduction' NAME '(' NAME ',' NAME ')' '=' expr ';'
    component      := NAME '(' arg (',' arg)* ')' '{' stmt* '}'
    arg            := modifier type NAME ('[' expr ']')*
    stmt           := index_decl | var_decl | assign | component_call | unroll
    index_decl     := 'index' index_spec (',' index_spec)* ';'
    index_spec     := NAME '[' expr ':' expr ']'
    var_decl       := type declarator (',' declarator)* ';'
    declarator     := NAME ('[' expr ']')*
    assign         := NAME ('[' expr ']')* '=' expr ';'
    component_call := (DOMAIN ':')? NAME '(' expr (',' expr)* ')' ';'
    unroll         := 'unroll' NAME '[' expr ':' expr ']' '{' stmt* '}'

    expr           := ternary
    ternary        := logic_or ('?' expr ':' expr)?
    logic_or       := logic_and ('||' logic_and)*
    logic_and      := comparison ('&&' comparison)*
    comparison     := additive (('=='|'!='|'<'|'>'|'<='|'>=') additive)?
    additive       := multiplicative (('+'|'-') multiplicative)*
    multiplicative := unary (('*'|'/'|'%') unary)*
    unary          := ('-'|'!') unary | power
    power          := primary ('^' unary)?
    primary        := literal | '(' expr ')' | reduction_call
                    | NAME '(' expr_list ')'          -- built-in function
                    | NAME ('[' expr ']')*            -- (indexed) variable
    reduction_call := NAME ('[' NAME (':' expr)? ']')+ '(' expr ')'

Reduction calls are disambiguated from indexed accesses by tentative
parsing with backtracking: ``sum[i](...)`` has a parenthesised argument
after its bracket groups while ``A[i]`` does not.
"""

from __future__ import annotations

from ..errors import PMLangSyntaxError
from . import ast_nodes as ast
from .lexer import tokenize
from .tokens import (
    DOMAINS,
    ELEMENT_TYPES,
    EOF,
    FLOAT,
    INT,
    KEYWORD,
    NAME,
    OP,
    STRING,
    TYPE_MODIFIERS,
)

#: Reduction operators always recognised by the parser. User-defined
#: reductions are additionally registered as they are parsed.
BUILTIN_REDUCTIONS = ("sum", "prod", "max", "min", "argmax", "argmin")

_COMPARISONS = frozenset(("==", "!=", "<=", ">=", "<", ">"))


class _Parser:
    """Stateful cursor over the token list with one-token lookahead.

    ``current`` is the token under the cursor and ``op`` its text when it
    is an operator or punctuation token (None otherwise): the grammar
    asks "is the next token this operator?" at nearly every step, and
    that is one comparison.
    """

    def __init__(self, source):
        self.tokens = tokenize(source)
        self.reduction_names = set(BUILTIN_REDUCTIONS)
        self.seek(0)

    # -- token plumbing ----------------------------------------------------

    def seek(self, pos):
        """Move the cursor to token *pos* (backtracking uses it too)."""
        self.pos = pos
        self.current = token = self.tokens[pos]
        self.op = token.text if token.kind == OP else None

    def peek(self, offset=1):
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self):
        token = self.current
        if token.kind != EOF:
            self.seek(self.pos + 1)
        return token

    def error(self, message, token=None):
        token = token or self.current
        raise PMLangSyntaxError(message, line=token.line, column=token.column)

    def expect_op(self, text):
        if self.op != text:
            self.error(f"expected {text!r}, found {self.current.text!r}")
        return self.advance()

    def expect_name(self):
        if self.current.kind != NAME:
            self.error(f"expected identifier, found {self.current.text!r}")
        return self.advance()

    def accept_op(self, text):
        if self.op == text:
            self.advance()
            return True
        return False

    # -- top level ----------------------------------------------------------

    def parse_program(self):
        program = ast.Program()
        while self.current.kind != EOF:
            if self.current.is_keyword("reduction"):
                definition = self.parse_reduction_def()
                if definition.name in program.reductions:
                    self.error(f"duplicate reduction {definition.name!r}")
                program.reductions[definition.name] = definition
            elif self.current.kind == NAME:
                component = self.parse_component()
                if component.name in program.components:
                    self.error(f"duplicate component {component.name!r}")
                program.components[component.name] = component
            else:
                self.error(
                    f"expected component or reduction definition, found {self.current.text!r}"
                )
        return program

    def parse_reduction_def(self):
        start = self.advance()  # 'reduction'
        name = self.expect_name().text
        self.expect_op("(")
        first = self.expect_name().text
        self.expect_op(",")
        second = self.expect_name().text
        self.expect_op(")")
        self.expect_op("=")
        expr = self.parse_expr()
        self.expect_op(";")
        self.reduction_names.add(name)
        return ast.ReductionDef(name=name, params=(first, second), expr=expr, line=start.line)

    def parse_component(self):
        name_token = self.expect_name()
        self.expect_op("(")
        args = []
        if self.op != ")":
            args.append(self.parse_arg_decl())
            while self.accept_op(","):
                args.append(self.parse_arg_decl())
        self.expect_op(")")
        self.expect_op("{")
        body = []
        while self.op != "}":
            if self.current.kind == EOF:
                self.error("unterminated component body (missing '}')")
            body.append(self.parse_stmt())
        self.expect_op("}")
        return ast.Component(
            name=name_token.text, args=tuple(args), body=tuple(body), line=name_token.line
        )

    def parse_arg_decl(self):
        token = self.current
        if not (token.kind == KEYWORD and token.text in TYPE_MODIFIERS):
            self.error(f"expected type modifier, found {token.text!r}")
        modifier = self.advance().text
        dtype = self.parse_element_type()
        name = self.expect_name()
        dims = self.parse_dims()
        return ast.ArgDecl(
            modifier=modifier, dtype=dtype, name=name.text, dims=dims, line=token.line
        )

    def parse_element_type(self):
        token = self.current
        if not (token.kind == KEYWORD and token.text in ELEMENT_TYPES):
            self.error(f"expected element type, found {token.text!r}")
        return self.advance().text

    def parse_dims(self):
        dims = []
        while self.op == "[":
            self.advance()
            dims.append(self.parse_expr())
            self.expect_op("]")
        return tuple(dims)

    # -- statements ----------------------------------------------------------

    def parse_stmt(self):
        token = self.current
        if token.is_keyword("index"):
            return self.parse_index_decl()
        if token.is_keyword("unroll"):
            return self.parse_unroll()
        if token.kind == KEYWORD and token.text in ELEMENT_TYPES:
            return self.parse_var_decl()
        if token.kind == KEYWORD and token.text in DOMAINS:
            domain = self.advance().text
            self.expect_op(":")
            return self.parse_component_call(domain, token.line)
        if token.kind == NAME:
            # Lookahead: NAME '(' is a component instantiation; anything else
            # (NAME '=' or NAME '[') is a formula assignment.
            if self.peek().is_op("("):
                return self.parse_component_call(None, token.line)
            return self.parse_assign()
        self.error(f"expected statement, found {token.text!r}")

    def parse_index_decl(self):
        start = self.advance()  # 'index'
        specs = [self.parse_index_spec()]
        while self.accept_op(","):
            specs.append(self.parse_index_spec())
        self.expect_op(";")
        return ast.IndexDecl(specs=tuple(specs), line=start.line)

    def parse_index_spec(self):
        name = self.expect_name()
        self.expect_op("[")
        low = self.parse_expr()
        self.expect_op(":")
        high = self.parse_expr()
        self.expect_op("]")
        return ast.IndexSpec(name=name.text, low=low, high=high)

    def parse_var_decl(self):
        dtype_token = self.current
        dtype = self.parse_element_type()
        items = [self.parse_declarator()]
        while self.accept_op(","):
            items.append(self.parse_declarator())
        self.expect_op(";")
        return ast.VarDecl(dtype=dtype, items=tuple(items), line=dtype_token.line)

    def parse_declarator(self):
        name = self.expect_name()
        dims = self.parse_dims()
        return ast.VarDeclItem(name=name.text, dims=dims)

    def parse_assign(self):
        name = self.expect_name()
        indices = self.parse_dims()
        self.expect_op("=")
        value = self.parse_expr()
        self.expect_op(";")
        return ast.Assign(
            target=name.text, target_indices=indices, value=value, line=name.line
        )

    def parse_component_call(self, domain, line):
        name = self.expect_name()
        self.expect_op("(")
        args = []
        if self.op != ")":
            args.append(self.parse_expr())
            while self.accept_op(","):
                args.append(self.parse_expr())
        self.expect_op(")")
        self.expect_op(";")
        return ast.ComponentCall(
            domain=domain, component=name.text, args=tuple(args), line=line
        )

    def parse_unroll(self):
        start = self.advance()  # 'unroll'
        var = self.expect_name().text
        self.expect_op("[")
        low = self.parse_expr()
        self.expect_op(":")
        high = self.parse_expr()
        self.expect_op("]")
        self.expect_op("{")
        body = []
        while self.op != "}":
            if self.current.kind == EOF:
                self.error("unterminated unroll body (missing '}')")
            body.append(self.parse_stmt())
        self.expect_op("}")
        return ast.Unroll(var=var, low=low, high=high, body=tuple(body), line=start.line)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self):
        return self.parse_ternary()

    def parse_ternary(self):
        cond = self.parse_logic_or()
        if self.accept_op("?"):
            then = self.parse_expr()
            self.expect_op(":")
            other = self.parse_expr()
            return ast.Ternary(cond=cond, then=then, other=other, line=cond.line)
        return cond

    def parse_logic_or(self):
        left = self.parse_logic_and()
        while self.op == "||":
            self.advance()
            right = self.parse_logic_and()
            left = ast.BinOp(op="||", left=left, right=right, line=left.line)
        return left

    def parse_logic_and(self):
        left = self.parse_comparison()
        while self.op == "&&":
            self.advance()
            right = self.parse_comparison()
            left = ast.BinOp(op="&&", left=left, right=right, line=left.line)
        return left

    def parse_comparison(self):
        left = self.parse_additive()
        op = self.op
        if op in _COMPARISONS:
            self.advance()
            right = self.parse_additive()
            return ast.BinOp(op=op, left=left, right=right, line=left.line)
        return left

    def parse_additive(self):
        left = self.parse_multiplicative()
        while self.op in ("+", "-"):
            op = self.advance().text
            right = self.parse_multiplicative()
            left = ast.BinOp(op=op, left=left, right=right, line=left.line)
        return left

    def parse_multiplicative(self):
        left = self.parse_unary()
        while self.op in ("*", "/", "%"):
            op = self.advance().text
            right = self.parse_unary()
            left = ast.BinOp(op=op, left=left, right=right, line=left.line)
        return left

    def parse_unary(self):
        token = self.current
        if self.op in ("-", "!"):
            self.advance()
            operand = self.parse_unary()
            return ast.UnaryOp(op=token.text, operand=operand, line=token.line)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_primary()
        if self.accept_op("^"):
            exponent = self.parse_unary()
            return ast.BinOp(op="^", left=base, right=exponent, line=base.line)
        return base

    def parse_primary(self):
        token = self.current
        if token.kind == INT:
            self.advance()
            return ast.Literal(value=int(token.text), line=token.line)
        if token.kind == FLOAT:
            self.advance()
            return ast.Literal(value=float(token.text), line=token.line)
        if token.kind == STRING:
            self.advance()
            return ast.Literal(value=token.text, line=token.line)
        if self.op == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if token.kind == NAME:
            return self.parse_name_expr()
        self.error(f"expected expression, found {token.text!r}")

    def parse_name_expr(self):
        name = self.expect_name()

        # Function call: NAME '(' args ')'.
        if self.op == "(":
            self.advance()
            args = []
            if self.op != ")":
                args.append(self.parse_expr())
                while self.accept_op(","):
                    args.append(self.parse_expr())
            self.expect_op(")")
            return ast.FuncCall(func=name.text, args=tuple(args), line=name.line)

        # Try a reduction call first; fall back to indexed access. The
        # attempt is made for any name so that misspelled reductions still
        # parse and fail in semantic analysis with a helpful message.
        if self.op == "[":
            saved = self.pos
            try:
                reduction = self._try_reduction_call(name)
            except PMLangSyntaxError:
                reduction = None
            if reduction is not None:
                return reduction
            self.seek(saved)

        if self.op == "[":
            indices = self.parse_dims()
            return ast.Indexed(base=name.text, indices=indices, line=name.line)

        return ast.Name(id=name.text, line=name.line)

    def _try_reduction_call(self, name):
        """Tentatively parse ``name[idx][idx: pred]...(expr)``.

        Returns None (without consuming a committed prefix) when the
        bracketed groups are not of reduction-index form or no parenthesised
        argument follows, in which case the caller backtracks and re-parses
        as an indexed access.
        """
        specs = []
        while self.op == "[":
            self.advance()
            if self.current.kind != NAME:
                return None
            index_name = self.advance().text
            predicate = None
            if self.accept_op(":"):
                predicate = self.parse_expr()
            if self.op != "]":
                return None
            self.advance()
            specs.append(ast.ReductionIndex(name=index_name, predicate=predicate))
        if not specs or self.op != "(":
            return None
        self.advance()
        arg = self.parse_expr()
        if self.op != ")":
            return None
        self.advance()
        return ast.ReductionCall(op=name.text, indices=tuple(specs), arg=arg, line=name.line)


def parse(source):
    """Parse PMLang *source* text into an :class:`ast_nodes.Program`."""
    return _Parser(source).parse_program()

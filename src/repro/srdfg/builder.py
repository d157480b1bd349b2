"""AST -> srDFG construction (§IV-A of the paper).

Each component *instantiation* gets its own srDFG built with concrete
shapes: formal dimension symbols are bound by unifying declared dims with
the shapes of the actual arguments, exactly as Fig 5 shows two separate
``mvmul`` graphs whose sizes come from ``R_g``/``HQ_g`` metadata.

The builder walks statements in program order maintaining an SSA-style
"current producer" per variable, so the resulting graph's edges encode
true dataflow (parallelism falls out of the partial order, §II-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


from ..errors import ShapeError
from ..pmlang import ast_nodes as ast
from ..pmlang.parser import parse
from ..pmlang.semantic import analyze
from . import opclass
from .graph import COMPONENT, COMPUTE, CONST, VAR, Node, SrDFG
from .metadata import INPUT, LOCAL, OUTPUT, PARAM, STATE, EdgeMeta, VarInfo

#: Default domain when a top-level instantiation carries no annotation.
DEFAULT_DOMAIN = "DA"

_STATIC_FUNCS = {
    "log2": lambda x: math.log2(x),
    "floor": math.floor,
    "ceil": math.ceil,
    "abs": abs,
    "fmin": min,
    "fmax": max,
    "sqrt": math.sqrt,
    "pow": lambda a, b: a**b,
}


def eval_static(expr, env):
    """Evaluate a compile-time expression over *env* (ints/floats).

    Used for dims, index bounds, unroll bounds, and constant ``param``
    actuals. Raises :class:`ShapeError` when the expression references a
    value that is not known at build time.
    """
    if isinstance(expr, ast.Literal):
        if not isinstance(expr.value, (int, float)):
            raise ShapeError(f"non-numeric constant {expr.value!r} in static context")
        return expr.value
    if isinstance(expr, ast.Name):
        if expr.id not in env:
            raise ShapeError(
                f"{expr.id!r} is not a compile-time constant (needed for a "
                "shape, bound, or param binding)"
            )
        return env[expr.id]
    if isinstance(expr, ast.UnaryOp):
        value = eval_static(expr.operand, env)
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return 0 if value else 1
        raise ShapeError(f"unsupported static unary {expr.op!r}")
    if isinstance(expr, ast.BinOp):
        left = eval_static(expr.left, env)
        right = eval_static(expr.right, env)
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a / b,
            "%": lambda a, b: a % b,
            "^": lambda a, b: a**b,
            "==": lambda a, b: int(a == b),
            "!=": lambda a, b: int(a != b),
            "<": lambda a, b: int(a < b),
            ">": lambda a, b: int(a > b),
            "<=": lambda a, b: int(a <= b),
            ">=": lambda a, b: int(a >= b),
            "&&": lambda a, b: int(bool(a) and bool(b)),
            "||": lambda a, b: int(bool(a) or bool(b)),
        }
        if expr.op not in ops:
            raise ShapeError(f"unsupported static operator {expr.op!r}")
        value = ops[expr.op](left, right)
        if expr.op == "/" and isinstance(left, int) and isinstance(right, int):
            if left % right == 0:
                value = left // right
        return value
    if isinstance(expr, ast.Ternary):
        return (
            eval_static(expr.then, env)
            if eval_static(expr.cond, env)
            else eval_static(expr.other, env)
        )
    if isinstance(expr, ast.FuncCall):
        if expr.func not in _STATIC_FUNCS:
            raise ShapeError(f"function {expr.func!r} not usable in static context")
        args = [eval_static(arg, env) for arg in expr.args]
        return _STATIC_FUNCS[expr.func](*args)
    raise ShapeError(f"expression of type {type(expr).__name__} is not static")


def _static_int(expr, env, what):
    value = eval_static(expr, env)
    rounded = int(round(value))
    if abs(value - rounded) > 1e-9:
        raise ShapeError(f"{what} must be an integer, got {value}")
    return rounded


def _is_full_write(stmt, shape, index_ranges):
    """True when the subscripts provably cover the whole target.

    Full writes need no merge with the previous value, which both trims
    edges and lets fusion passes treat the statement as a clean producer.
    Conservatively requires each subscript to be a distinct bare index
    variable spanning ``[0, dim-1]``.
    """
    if len(stmt.target_indices) != len(shape):
        return False
    seen = set()
    for dim, index_expr in zip(shape, stmt.target_indices):
        if not isinstance(index_expr, ast.Name):
            return False
        name = index_expr.id
        if name not in index_ranges or name in seen:
            return False
        low, high = index_ranges[name]
        if low != 0 or high != dim - 1:
            return False
        seen.add(name)
    return True


@dataclass
class ArgBinding:
    """How one formal argument of an instantiated component is bound."""

    formal: str
    modifier: str
    kind: str  # "var" or "const"
    actual: Optional[str] = None  # variable name at the caller (kind == var)
    value: object = None  # constant value (kind == const)


class _ComponentBuilder:
    """Builds the srDFG for one component instantiation."""

    def __init__(self, context, component, bindings, domain, instance_name):
        self.context = context
        self.component = component
        self.static_env = dict(bindings)
        self.domain = domain
        self.graph = SrDFG(name=instance_name, domain=domain)
        self.graph.vars: Dict[str, VarInfo] = {}
        self.graph.arg_order = tuple(arg.name for arg in component.args)
        self.graph.static_env = self.static_env
        self.graph.reductions = context.program.reductions
        self.index_ranges: Dict[str, Tuple[int, int]] = {}
        #: name -> producing Node for the variable's current version.
        self.producer: Dict[str, Node] = {}
        self.var_nodes: Dict[str, Node] = {}

    # -- helpers -------------------------------------------------------------

    def _resolve_dims(self, dims, what):
        return tuple(_static_int(dim, self.static_env, f"dimension of {what}") for dim in dims)

    def _add_var_node(self, info):
        node = Node(
            name=info.name,
            kind=VAR,
            domain=self.domain,
            attrs={
                "modifier": info.modifier,
                "dtype": info.dtype,
                "shape": info.shape,
            },
        )
        self.graph.add_node(node)
        self.graph.vars[info.name] = info
        self.var_nodes[info.name] = node
        return node

    def _current_producer(self, name, line=None):
        """Node currently producing *name*, creating a zero-initialised
        local var node on read-before-write."""
        if name in self.producer:
            return self.producer[name]
        info = self.graph.vars.get(name)
        if info is None:
            raise ShapeError(
                f"variable {name!r} has no declaration in component "
                f"{self.component.name!r} (line {line})"
            )
        node = self._add_var_node_if_needed(name, info)
        self.producer[name] = node
        return node

    def _add_var_node_if_needed(self, name, info):
        if name in self.var_nodes:
            return self.var_nodes[name]
        return self._add_var_node(info)

    def _read_vars(self, names):
        """The variables (not indices/statics) among *names*, sorted."""
        return [
            name for name in sorted(names)
            if name not in self.index_ranges and name not in self.static_env
            and name in self.graph.vars
        ]

    # -- argument setup ----------------------------------------------------------

    def declare_args(self, arg_bindings):
        """Create boundary var nodes and record static param bindings.

        *arg_bindings* maps formal names to :class:`ArgBinding` (empty for
        the entry component, whose args all become boundary vars).
        """
        for arg in self.component.args:
            binding = arg_bindings.get(arg.name)
            if binding is not None and binding.kind == "const":
                # Constant param folded straight into the static env; it
                # never becomes a var node.
                self.static_env[arg.name] = binding.value
                continue
            shape = self._resolve_dims(arg.dims, arg.name)
            info = VarInfo(
                name=arg.name, dtype=arg.dtype, modifier=arg.modifier, shape=shape
            )
            node = self._add_var_node(info)
            self.producer[arg.name] = node
            if arg.modifier == STATE:
                self.graph.add_edge(node, node, info.meta(STATE))

    # -- statement processing -------------------------------------------------------

    def build_body(self):
        self._process(self.component.body)
        self._finalize()
        return self.graph

    def _process(self, statements):
        for stmt in statements:
            if isinstance(stmt, ast.IndexDecl):
                self._process_index_decl(stmt)
            elif isinstance(stmt, ast.VarDecl):
                self._process_var_decl(stmt)
            elif isinstance(stmt, ast.Assign):
                self._process_assign(stmt)
            elif isinstance(stmt, ast.ComponentCall):
                self._process_call(stmt)
            elif isinstance(stmt, ast.Unroll):
                self._process_unroll(stmt)
            else:  # pragma: no cover - parser emits only the above
                raise ShapeError(f"unsupported statement {type(stmt).__name__}")

    def _process_index_decl(self, stmt):
        for spec in stmt.specs:
            low = _static_int(spec.low, self.static_env, f"lower bound of {spec.name}")
            high = _static_int(spec.high, self.static_env, f"upper bound of {spec.name}")
            self.index_ranges[spec.name] = (low, high)

    def _process_var_decl(self, stmt):
        for item in stmt.items:
            shape = self._resolve_dims(item.dims, item.name)
            self.graph.vars[item.name] = VarInfo(
                name=item.name, dtype=stmt.dtype, modifier=LOCAL, shape=shape
            )

    def _process_assign(self, stmt):
        target_info = self.graph.vars.get(stmt.target)
        if target_info is None:
            raise ShapeError(
                f"assignment to undeclared variable {stmt.target!r} "
                f"(line {stmt.line})"
            )
        descriptor, (value_names, *index_names) = opclass.classify_reads(
            stmt, self.index_ranges, self.context.program.reductions
        )
        reads = self._read_vars(value_names)
        for names in index_names:
            for name in self._read_vars(names):
                if name not in reads:
                    reads.append(name)

        partial = bool(stmt.target_indices) and not _is_full_write(
            stmt, target_info.shape, self.index_ranges
        )
        node = Node(
            name=descriptor.opname,
            kind=COMPUTE,
            domain=self.domain,
            attrs={
                "stmt": stmt,
                "descriptor": descriptor,
                "dtype": target_info.dtype,
                "lhs": stmt.target,
                "lhs_shape": target_info.shape,
                "index_ranges": dict(self.index_ranges),
                "static_env": dict(self.static_env),
                "reads": tuple(reads),
                "writes": (stmt.target,),
                "partial_write": partial,
            },
        )
        self.graph.add_node(node)

        for name in reads:
            producer = self._current_producer(name, stmt.line)
            info = self.graph.vars[name]
            modifier = info.modifier if producer.kind == VAR else LOCAL
            self.graph.add_edge(producer, node, info.meta(modifier))

        # Partial (indexed) writes merge into the previous version of the
        # target, so the node also consumes it.
        if partial and stmt.target not in reads:
            producer = self._current_producer(stmt.target, stmt.line)
            if producer is not node:
                info = self.graph.vars[stmt.target]
                modifier = info.modifier if producer.kind == VAR else LOCAL
                self.graph.add_edge(producer, node, info.meta(modifier))

        self.producer[stmt.target] = node

    def _process_call(self, stmt):
        callee = self.context.program.components[stmt.component]
        domain = stmt.domain or self.domain
        callee_bindings: Dict[str, object] = {}
        arg_bindings: Dict[str, ArgBinding] = {}

        for actual, formal in zip(stmt.args, callee.args):
            binding = self._bind_argument(actual, formal, callee_bindings, stmt.line)
            arg_bindings[formal.name] = binding

        instance_name = f"{callee.name}"
        subgraph = self.context.build_component(
            callee, callee_bindings, domain, instance_name, arg_bindings
        )

        node = Node(
            name=callee.name,
            kind=COMPONENT,
            subgraph=subgraph,
            domain=domain,
            attrs={
                "bindings": tuple(arg_bindings[arg.name] for arg in callee.args),
                "writes": tuple(
                    binding.actual
                    for binding in arg_bindings.values()
                    if binding.kind == "var" and binding.modifier in (OUTPUT, STATE)
                ),
            },
        )
        self.graph.add_node(node)

        for formal in callee.args:
            binding = arg_bindings[formal.name]
            if binding.kind == "const":
                const_node = Node(
                    name=f"{formal.name}=const",
                    kind=CONST,
                    domain=domain,
                    attrs={"value": binding.value, "dtype": formal.dtype},
                )
                self.graph.add_node(const_node)
                meta = EdgeMeta(
                    name=formal.name, dtype=formal.dtype, modifier=PARAM, shape=()
                )
                self.graph.add_edge(const_node, node, meta)
                continue

            info = self.graph.vars[binding.actual]
            if binding.modifier in (INPUT, PARAM, STATE):
                producer = self._current_producer(binding.actual, stmt.line)
                self.graph.add_edge(producer, node, info.meta(binding.modifier))
            if binding.modifier in (OUTPUT, STATE):
                # For in/out aliasing semantics the node also consumes the
                # current value of an output-bound variable when one exists.
                if (
                    binding.modifier == OUTPUT
                    and binding.actual in self.producer
                    and self.producer[binding.actual].kind != VAR
                ):
                    producer = self.producer[binding.actual]
                    self.graph.add_edge(producer, node, info.meta(INPUT))
                elif binding.modifier == OUTPUT and binding.actual in self.var_nodes:
                    producer = self.var_nodes[binding.actual]
                    if self.graph.vars[binding.actual].modifier in (STATE, INPUT, PARAM):
                        self.graph.add_edge(producer, node, info.meta(INPUT))
                self.producer[binding.actual] = node

    def _bind_argument(self, actual, formal, callee_bindings, line):
        """Unify one actual argument with its formal declaration."""
        if isinstance(actual, ast.Name) and actual.id in self.graph.vars:
            info = self.graph.vars[actual.id]
            self._unify_dims(formal, info.shape, callee_bindings, line)
            return ArgBinding(
                formal=formal.name,
                modifier=formal.modifier,
                kind="var",
                actual=actual.id,
            )
        # Not a variable: must be a static constant (typically a param).
        try:
            value = eval_static(actual, self.static_env)
        except ShapeError as exc:
            raise ShapeError(
                f"argument for {formal.name!r} of component is neither a "
                f"declared variable nor a static constant (line {line}): {exc}"
            ) from exc
        if formal.modifier in (OUTPUT, STATE):
            raise ShapeError(
                f"cannot bind constant to {formal.modifier} parameter "
                f"{formal.name!r} (line {line})"
            )
        if formal.dims:
            raise ShapeError(
                f"cannot bind scalar constant to array parameter "
                f"{formal.name!r} (line {line})"
            )
        callee_bindings[formal.name] = value
        return ArgBinding(
            formal=formal.name, modifier=formal.modifier, kind="const", value=value
        )

    def _unify_dims(self, formal, actual_shape, callee_bindings, line):
        if len(formal.dims) != len(actual_shape):
            raise ShapeError(
                f"rank mismatch binding {formal.name!r}: declared "
                f"{len(formal.dims)}-d, actual {len(actual_shape)}-d (line {line})"
            )
        for dim_expr, actual_dim in zip(formal.dims, actual_shape):
            if isinstance(dim_expr, ast.Name) and dim_expr.id not in callee_bindings:
                callee_bindings[dim_expr.id] = actual_dim
                continue
            declared = _static_int(
                dim_expr, callee_bindings, f"dimension of {formal.name}"
            )
            if declared != actual_dim:
                raise ShapeError(
                    f"shape mismatch binding {formal.name!r}: declared "
                    f"{declared}, actual {actual_dim} (line {line})"
                )

    def _process_unroll(self, stmt):
        low = _static_int(stmt.low, self.static_env, "unroll lower bound")
        high = _static_int(stmt.high, self.static_env, "unroll upper bound")
        saved = self.static_env.get(stmt.var, _MISSING)
        for value in range(low, high + 1):
            self.static_env[stmt.var] = value
            self._process(stmt.body)
        if saved is _MISSING:
            self.static_env.pop(stmt.var, None)
        else:
            self.static_env[stmt.var] = saved

    # -- finalisation -----------------------------------------------------------------

    def _finalize(self):
        """Connect final producers back to output/state boundary nodes."""
        for arg in self.component.args:
            if arg.name not in self.graph.vars:
                continue  # const-bound param
            info = self.graph.vars[arg.name]
            if info.modifier not in (OUTPUT, STATE):
                continue
            producer = self.producer.get(arg.name)
            var_node = self.var_nodes[arg.name]
            if producer is not None and producer is not var_node:
                self.graph.add_edge(producer, var_node, info.meta(info.modifier))


class _MissingType:
    pass


_MISSING = _MissingType()


class BuildContext:
    """Shared state for building one program's srDFG."""

    def __init__(self, program, info):
        self.program = program
        self.info = info

    def build_component(self, component, bindings, domain, instance_name, arg_bindings):
        builder = _ComponentBuilder(self, component, bindings, domain, instance_name)
        builder.declare_args(arg_bindings)
        return builder.build_body()


def build(source_or_program, entry="main", domain=None, bindings=None, info=None):
    """Compile PMLang source (or a parsed Program) into an srDFG.

    Returns the srDFG of the *entry* component (``main`` by default) with
    every instantiation recursively expanded into its own sub-srDFG.
    *bindings* optionally pre-binds entry dimension symbols/params for
    entry components with symbolic shapes. *info* is the program's
    :func:`~repro.pmlang.semantic.analyze` result for *entry*, when the
    caller has it; else the program is analyzed here.
    """
    if isinstance(source_or_program, str):
        program = parse(source_or_program)
    else:
        program = source_or_program
    if info is None:
        info = analyze(program, entry=entry)
    context = BuildContext(program, info)
    component = program.components[entry]
    graph = context.build_component(
        component, dict(bindings or {}), domain or DEFAULT_DOMAIN, entry, {}
    )
    graph.validate()
    return graph

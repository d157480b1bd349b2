"""Seeded random PMLang program generation.

The generator draws from the surface the rest of the stack already
exercises — elementwise arithmetic, scalar builtins, group reductions
(dot/matvec/row-sum, predicated prefix sums, predicates and
argmin/argmax over run-time data), rotated/reversed affine subscripts,
data-dependent subscripts through int inputs, contractions over strided
windows, reversed operands and offset reduce ranges, matrix products
(two-dimensional outputs, whose matmuls the plan swaps), ternary selects,
``unroll`` accumulation loops, ``state`` variables threaded across
invocations, and cross-domain component calls — and builds programs that
are *valid by construction*: every local is written before it is read,
every subscript is provably in range (bare indices, rotations modulo the
dimension, reversals, windows sized to their operand, int inputs drawn
below their length), and numeric ranges stay in [-1, 1] territory so
no oracle diverges on overflow instead of on a real compiler bug.

A :class:`FuzzProgram` is an intermediate representation (declarations +
statement records with read/write sets), not a string: the differential
harness renders it to PMLang on demand, and the minimizer shrinks it by
deleting statement records and re-rendering — unreferenced declarations
and helper components drop out automatically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["FuzzProgram", "GenConfig", "Stmt", "VarSpec", "generate_program"]

#: Domains used for generated cross-domain component calls. Every entry
#: has a default accelerator model, so fault campaigns can strike it.
CALL_DOMAINS = ("DSP", "DA", "RBT")

#: Scalar builtins safe on inputs in roughly [-4, 4]: total, smooth-ish,
#: and free of poles, so f32 tolerance comparison stays meaningful.
SAFE_FUNCS = ("sin", "cos", "sigmoid", "tanh", "relu", "gaussian", "abs")

#: Group reductions the generator emits over any value (argmax/argmin
#: read run-time data only: a tie broken differently under f32 rounding
#: is not a bug).
SAFE_REDUCTIONS = ("sum", "max", "min")

#: Helper components instantiable from ``main`` under a random domain.
#: Dimensions are symbolic; the builder binds them from the actual args.
HELPER_SOURCES = {
    "h_mix": (
        "h_mix(input float ha[k], input float hb[k], output float hy[k]) {\n"
        "  index z[0:k-1];\n"
        "  hy[z] = ha[z]*hb[z] + sin(ha[z]);\n"
        "}"
    ),
    "h_mv": (
        "h_mv(input float hm[r][c], input float hv[c], output float hy[r]) {\n"
        "  index z[0:r-1], w[0:c-1];\n"
        "  hy[z] = sum[w](hm[z][w]*hv[w]);\n"
        "}"
    ),
    "h_smooth": (
        "h_smooth(input float ha[k], output float hy[k]) {\n"
        "  index z[0:k-1];\n"
        "  hy[z] = sigmoid(ha[z]) - 0.5;\n"
        "}"
    ),
}


@dataclass(frozen=True)
class VarSpec:
    """One declared variable of the generated program."""

    name: str
    shape: Tuple[int, ...]  # () scalar, (n,) vector, (n, m) matrix
    modifier: str  # input | param | state | output | local
    #: ``int`` only for subscript operands, drawn in range of their length;
    #: ``bin`` only for edge matrices, drawn 0/1 with the diagonal set.
    dtype: str = "float"

    def declare(self):
        dims = "".join(f"[{dim}]" for dim in self.shape)
        return f"{self.name}{dims}"


@dataclass
class Stmt:
    """One generated statement: rendered text plus its dataflow facts."""

    text: str  # one or more PMLang lines (unroll blocks span several)
    writes: str
    reads: Tuple[str, ...] = ()
    kind: str = "elemwise"
    #: Helper component instantiated by this statement, if any.
    helper: Optional[str] = None
    #: Output-copy statements anchor the program and are not candidates
    #: for removal themselves (the minimizer rebinds them instead).
    removable: bool = True


@dataclass
class GenConfig:
    """Knobs bounding the generated programs (defaults suit CI smoke)."""

    min_statements: int = 3
    max_statements: int = 9
    min_dim: int = 3
    max_dim: int = 5
    max_inputs: int = 3
    max_params: int = 2
    p_state: float = 0.5
    p_matrix: float = 0.7
    p_helper: float = 0.6
    max_outputs: int = 2
    max_steps: int = 2


class FuzzProgram:
    """A generated program: declarations, statements, and its data."""

    def __init__(self, seed, sizes, args, locals_, statements, steps=1):
        self.seed = seed
        self.sizes = dict(sizes)  # {"n": int, "m": int}
        self.args: List[VarSpec] = list(args)
        self.locals: List[VarSpec] = list(locals_)
        self.statements: List[Stmt] = list(statements)
        self.steps = steps

    # -- dataflow ----------------------------------------------------------

    def live_statements(self):
        """Statements whose writes (transitively) reach an output copy.

        Dead statements still render — the interpreter and every oracle
        must agree on them too — but the minimizer uses liveness to drop
        whole dependency cones at once.
        """
        needed = set()
        live = []
        for stmt in reversed(self.statements):
            if not stmt.removable or stmt.writes in needed:
                live.append(stmt)
                needed.update(stmt.reads)
                needed.add(stmt.writes)  # read-modify-write chains
        return list(reversed(live))

    def referenced_names(self):
        names = set()
        for stmt in self.statements:
            names.add(stmt.writes)
            names.update(stmt.reads)
        return names

    # -- rendering ---------------------------------------------------------

    def render(self):
        """The program as PMLang source (helpers first, then ``main``)."""
        referenced = self.referenced_names()
        helpers = sorted(
            {stmt.helper for stmt in self.statements if stmt.helper}
        )
        pieces = [HELPER_SOURCES[name] for name in helpers]

        arg_decls = []
        for spec in self.args:
            if spec.modifier != "output" and spec.name not in referenced:
                continue  # minimized away
            arg_decls.append(f"{spec.modifier} {spec.dtype} {spec.declare()}")
        header = "main(" + ", ".join(arg_decls) + ") {"

        n, m = self.sizes["n"], self.sizes["m"]
        body = [
            f"  index i[0:{n - 1}], j[0:{m - 1}], "
            f"p[0:{n - 1}], q[0:{m - 1}];"
        ]
        local_decls = [
            spec.declare()
            for spec in self.locals
            if spec.name in referenced
        ]
        if local_decls:
            body.append("  float " + ", ".join(local_decls) + ";")
        for stmt in self.statements:
            for line in stmt.text.splitlines():
                body.append("  " + line)
        pieces.append("\n".join([header] + body + ["}"]))
        return "\n\n".join(pieces)

    # -- data --------------------------------------------------------------

    def _rng(self):
        return np.random.default_rng(self.seed)

    def _draw(self, rng, spec):
        if spec.dtype == "int":
            return rng.integers(0, spec.shape[0], size=spec.shape)
        if spec.dtype == "bin":
            # Edges at a density of its own, either side of the share
            # above which a reduction keeps its lattice; the diagonal set.
            edges = rng.random(spec.shape) < rng.random()
            np.fill_diagonal(edges, True)
            return edges.astype(np.int8)
        if not spec.shape:
            return float(rng.uniform(-1.0, 1.0))
        return rng.uniform(-1.0, 1.0, size=spec.shape)

    def bindings(self, modifier):
        rng = self._rng()
        referenced = self.referenced_names()
        values = {}
        # One pass in declaration order keeps every modifier's draw
        # deterministic regardless of which bindings the caller asks for
        # or which statements the minimizer has dropped; arguments no
        # longer referenced (and so no longer rendered) are skipped.
        for spec in self.args:
            value = self._draw(rng, spec)
            if spec.modifier != modifier:
                continue
            if spec.modifier != "output" and spec.name not in referenced:
                continue
            values[spec.name] = value
        return values

    def inputs(self):
        return self.bindings("input")

    def params(self):
        return self.bindings("param")

    def initial_state(self):
        return self.bindings("state")

    def outputs(self):
        return [spec.name for spec in self.args if spec.modifier == "output"]

    # -- minimizer support -------------------------------------------------

    def clone_with(self, statements):
        return FuzzProgram(
            seed=self.seed,
            sizes=self.sizes,
            args=self.args,
            locals_=self.locals,
            statements=statements,
            steps=self.steps,
        )

    def describe(self):
        outputs = ", ".join(self.outputs())
        return (
            f"fuzz[{self.seed}]: {len(self.statements)} stmt(s), "
            f"n={self.sizes['n']} m={self.sizes['m']}, "
            f"steps={self.steps}, outputs [{outputs}]"
        )


def _vector_pool(specs, size):
    return [spec.name for spec in specs if spec.shape == (size,)]


class _Generator:
    """One seeded generation run (all randomness through ``self.rng``)."""

    def __init__(self, seed, config, sizes=None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.config = config
        self.counter = 0
        self.forced_sizes = dict(sizes) if sizes else None

    def fresh(self, prefix="t"):
        self.counter += 1
        return f"{prefix}{self.counter}"

    def generate(self):
        cfg = self.config
        rng = self.rng
        n = rng.randint(cfg.min_dim, cfg.max_dim)
        m = rng.randint(cfg.min_dim, cfg.max_dim)
        while m == n:  # distinct sizes catch transposed-shape bugs
            m = rng.randint(cfg.min_dim, cfg.max_dim)
        if self.forced_sizes is not None:
            # Dim variation: the seed's usual draws are consumed first so
            # the rest of the RNG stream starts from the same point, then
            # the extents are overridden. Statement texts embed literal
            # dims (rotations modulo n, reversal n-1-i, unroll trips), so
            # a variant is generated, not re-rendered — every variant is
            # still valid by construction at its own sizes.
            n = int(self.forced_sizes.get("n", n))
            m = int(self.forced_sizes.get("m", m))
            if n < 2 or m < 2 or n == m:
                raise ValueError(
                    f"forced sizes need two distinct dims >= 2, "
                    f"got n={n} m={m}"
                )
        sizes = {"n": n, "m": m}

        args: List[VarSpec] = []
        for _ in range(rng.randint(1, cfg.max_inputs)):
            size = rng.choice((n, m))
            args.append(VarSpec(self.fresh("x"), (size,), "input"))
        for _ in range(rng.randint(0, cfg.max_params)):
            if rng.random() < cfg.p_matrix:
                shape = rng.choice(((n, m), (m, n)))
            else:
                shape = (rng.choice((n, m)),) if rng.random() < 0.7 else ()
            args.append(VarSpec(self.fresh("c"), shape, "param"))
        state_spec = None
        if rng.random() < cfg.p_state:
            state_spec = VarSpec(self.fresh("s"), (rng.choice((n, m)),), "state")
            args.append(state_spec)

        locals_: List[VarSpec] = []
        statements: List[Stmt] = []
        # Readable vector names by size; scalars tracked separately.
        readable = {n: _vector_pool(args, n), m: _vector_pool(args, m)}
        scalars = [spec.name for spec in args if spec.shape == ()]
        matrices = [spec for spec in args if len(spec.shape) == 2]

        # Guarantee at least one readable vector of each size.
        for size in (n, m):
            if not readable[size]:
                spec = VarSpec(self.fresh("x"), (size,), "input")
                args.append(spec)
                readable[size].append(spec.name)

        budget = rng.randint(cfg.min_statements, cfg.max_statements)
        makers = [
            self._make_elemwise,
            self._make_funcmap,
            self._make_rotate,
            self._make_ternary,
            self._make_scalar_reduce,
            self._make_affine,
        ]
        if matrices:
            makers += [self._make_matvec, self._make_row_reduce]
        makers.append(self._make_prefix_reduce)
        makers.append(self._make_unroll)
        makers.append(self._make_view_contraction)
        makers += [self._make_data_reduce, self._make_gather]
        if rng.random() < cfg.p_helper:
            makers.append(self._make_helper_call)
            makers.append(self._make_helper_call)  # weight helpers up

        context = {
            "sizes": sizes,
            "readable": readable,
            "scalars": scalars,
            "matrices": matrices,
            "locals": locals_,
            "args": args,
        }
        for _ in range(budget):
            maker = rng.choice(makers)
            stmt = maker(context)
            if stmt is not None:
                statements.append(stmt)

        if state_spec is not None:
            statements.append(self._make_state_update(context, state_spec))

        # Outputs: full copies of live values (never read back).
        outputs = []
        for _ in range(rng.randint(1, cfg.max_outputs)):
            size = rng.choice((n, m))
            source = rng.choice(readable[size])
            name = self.fresh("o")
            outputs.append(VarSpec(name, (size,), "output"))
            index = self._index_for(context, size)
            statements.append(
                Stmt(
                    text=f"{name}[{index}] = {source}[{index}];",
                    writes=name,
                    reads=(source,),
                    kind="output",
                    removable=False,
                )
            )
        product = self._make_matmul(context, random.Random(f"matmul/{self.seed}"))
        if product is not None:
            statements.extend(product[0])
            outputs.append(product[1])
        args.extend(outputs)

        steps = self.rng.randint(1, self.config.max_steps)
        if state_spec is None:
            steps = 1  # extra invocations are pure repetition
        return FuzzProgram(
            seed=self.seed,
            sizes=sizes,
            args=args,
            locals_=locals_,
            statements=statements,
            steps=steps,
        )

    # -- statement makers --------------------------------------------------
    # Each returns a Stmt writing a fresh local, or None when the pool
    # lacks the ingredients (the caller just draws another maker).

    def _index_for(self, context, size):
        return "i" if size == context["sizes"]["n"] else "j"

    def _reduce_index_for(self, context, size):
        return "p" if size == context["sizes"]["n"] else "q"

    def _pick_vec(self, context, size=None):
        sizes = context["sizes"]
        if size is None:
            size = self.rng.choice((sizes["n"], sizes["m"]))
        return size, self.rng.choice(context["readable"][size])

    def _new_local(self, context, shape):
        name = self.fresh()
        spec = VarSpec(name, shape, "local")
        context["locals"].append(spec)
        if len(shape) == 1:
            context["readable"][shape[0]].append(name)
        elif not shape:
            context["scalars"].append(name)
        return name

    def _const(self):
        return f"{self.rng.uniform(-1.0, 1.0):.4f}"

    def _make_elemwise(self, context):
        size, a = self._pick_vec(context)
        _, b = self._pick_vec(context, size)
        op = self.rng.choice(("+", "-", "*"))
        target = self._new_local(context, (size,))
        index = self._index_for(context, size)
        if op == "*" and self.rng.random() < 0.3:
            # Pole-free division: denominator bounded away from zero.
            text = (
                f"{target}[{index}] = {a}[{index}] / "
                f"(abs({b}[{index}]) + 1.5);"
            )
        else:
            text = f"{target}[{index}] = {a}[{index}] {op} {b}[{index}];"
        return Stmt(text=text, writes=target, reads=(a, b))

    def _make_funcmap(self, context):
        size, a = self._pick_vec(context)
        func = self.rng.choice(SAFE_FUNCS)
        target = self._new_local(context, (size,))
        index = self._index_for(context, size)
        return Stmt(
            text=f"{target}[{index}] = {func}({a}[{index}]);",
            writes=target,
            reads=(a,),
            kind="funcmap",
        )

    def _make_rotate(self, context):
        size, a = self._pick_vec(context)
        target = self._new_local(context, (size,))
        index = self._index_for(context, size)
        if self.rng.random() < 0.5:
            shift = self.rng.randint(1, size - 1)
            access = f"{a}[({index} + {shift}) % {size}]"
        else:
            access = f"{a}[{size - 1} - {index}]"
        return Stmt(
            text=f"{target}[{index}] = {access};",
            writes=target,
            reads=(a,),
            kind="rotate",
        )

    def _make_ternary(self, context):
        size, a = self._pick_vec(context)
        _, b = self._pick_vec(context, size)
        target = self._new_local(context, (size,))
        index = self._index_for(context, size)
        return Stmt(
            text=(
                f"{target}[{index}] = ({a}[{index}] < {b}[{index}] "
                f"? {a}[{index}] : {b}[{index}]);"
            ),
            writes=target,
            reads=(a, b),
            kind="ternary",
        )

    def _make_scalar_reduce(self, context):
        size, a = self._pick_vec(context)
        _, b = self._pick_vec(context, size)
        reduce_op = self.rng.choice(SAFE_REDUCTIONS)
        target = self._new_local(context, ())
        r = self._reduce_index_for(context, size)
        if reduce_op == "sum":
            body = f"{a}[{r}]*{b}[{r}]"  # the dot-product idiom
            reads = (a, b)
        else:
            body = f"{a}[{r}]"
            reads = (a,)
        return Stmt(
            text=f"{target} = {reduce_op}[{r}]({body});",
            writes=target,
            reads=reads,
            kind="reduce",
        )

    def _make_affine(self, context):
        size, a = self._pick_vec(context)
        target = self._new_local(context, (size,))
        index = self._index_for(context, size)
        scale = (
            self.rng.choice(context["scalars"])
            if context["scalars"] and self.rng.random() < 0.5
            else self._const()
        )
        reads = (a,) + ((scale,) if not scale.lstrip("-").replace(".", "").isdigit() else ())
        return Stmt(
            text=f"{target}[{index}] = {a}[{index}] * {scale} + {self._const()};",
            writes=target,
            reads=reads,
            kind="affine",
        )

    def _make_matvec(self, context):
        matrix = self.rng.choice(context["matrices"])
        rows, cols = matrix.shape
        _, vec = self._pick_vec(context, cols)
        target = self._new_local(context, (rows,))
        free = self._index_for(context, rows)
        reduce_index = self._reduce_index_for(context, cols)
        if free == "i" and reduce_index == "p":
            reduce_index = "q" if cols == context["sizes"]["m"] else "p"
        return Stmt(
            text=(
                f"{target}[{free}] = sum[{reduce_index}]"
                f"({matrix.name}[{free}][{reduce_index}]*{vec}[{reduce_index}]);"
            ),
            writes=target,
            reads=(matrix.name, vec),
            kind="matvec",
        )

    def _make_matmul(self, context, rng):
        """A contraction with a two-dimensional output, MovieL's ``pred``,
        and an output reading it, or None: ``T[i][p] = sum[q](M[i][q] *
        N[q][p])`` with ``N`` a matrix of the transposed shape, else the
        Gram matrix ``M[i][q]*M[p][q]`` — a matmul whose product einsum
        would transpose, so the plan takes its terms swapped — then
        ``o[i] = sum[p](T[i][p]*v[p])``. Drawn from *rng*, not the
        program's stream, and reading arguments only: appended to a
        program, it leaves every other statement as it was drawn.
        Returns ``(statements, output spec)``."""
        matrices = context["matrices"]
        if not matrices or rng.random() < 0.5:
            return None
        matrix = rng.choice(matrices)
        rows, cols = matrix.shape
        free, other = ("i", "p") if rows == context["sizes"]["n"] else ("j", "q")
        reduce_index = "q" if free == "i" else "p"
        partners = [spec.name for spec in matrices if spec.shape == (cols, rows)]
        if partners and rng.random() < 0.5:
            partner = rng.choice(partners)
            right = f"{partner}[{reduce_index}][{other}]"
        else:
            partner, right = matrix.name, f"{matrix.name}[{other}][{reduce_index}]"
        vec = rng.choice([
            spec.name for spec in context["args"]
            if spec.shape == (rows,) and spec.dtype == "float" and spec.modifier != "output"
        ])
        product = self._new_local(context, (rows, rows))
        output = VarSpec(self.fresh("o"), (rows,), "output")
        return (
            Stmt(
                text=f"{product}[{free}][{other}] = sum[{reduce_index}]"
                f"({matrix.name}[{free}][{reduce_index}]*{right});",
                writes=product,
                reads=tuple(dict.fromkeys((matrix.name, partner))),
                kind="matmul",
            ),
            Stmt(
                text=f"{output.name}[{free}] = "
                f"sum[{other}]({product}[{free}][{other}]*{vec}[{other}]);",
                writes=output.name,
                reads=(product, vec),
                kind="output",
                removable=False,
            ),
        ), output

    def _make_view_contraction(self, context):
        """A sum of products over affine subscripts — what dispatches to
        einsum over a strided view: a strided window
        ``sum[k](w[k+d]*a[i*s+k])`` or, given a matrix, a reversed row
        ``sum[k](M[i][c-1-k]*v[k])`` or an offset reduce range
        ``k[1:c-1]``. The reduce index is the statement's own, sized so
        every subscript is in range."""
        rng = self.rng
        r = self.fresh("k")
        variant = rng.choice(
            ("window", "reversed", "offset") if context["matrices"]
            else ("window",)
        )
        if variant == "window":
            small, large = sorted(context["sizes"].values())
            stride = rng.choice((1, 2)) if large >= 2 * small - 1 else 1
            width = rng.randint(1, large - stride * (small - 1))
            _, a = self._pick_vec(context, large)
            w_size, w = self._pick_vec(
                context, large if width > small else None
            )
            shift = rng.randint(0, w_size - width)
            free = self._index_for(context, small)
            shape, reads, low, high = (small,), (w, a), 0, width - 1
            product = f"{w}[{r} + {shift}]*{a}[{free}*{stride} + {r}]"
        else:
            matrix = rng.choice(context["matrices"])
            rows, cols = matrix.shape
            _, vec = self._pick_vec(context, cols)
            free = self._index_for(context, rows)
            shape, reads, high = (rows,), (matrix.name, vec), cols - 1
            low, sub = (0, f"{high} - {r}") if variant == "reversed" else (1, r)
            product = f"{matrix.name}[{free}][{sub}]*{vec}[{r}]"
        target = self._new_local(context, shape)
        return Stmt(
            text=(
                f"index {r}[{low}:{high}];\n"
                f"{target}[{free}] = sum[{r}]({product});"
            ),
            writes=target,
            reads=reads,
            kind=variant,
        )

    def _make_data_reduce(self, context):
        """A reduction under a predicate on run-time data, the graph
        programs' ``min[u: adj[u][v] == 1](...)``:
        ``t[i] = min[p: m[p] <= m[i]](a[p])``, or ``argmin[...](d[p]) *
        0.25``. ``m`` and ``d`` are float inputs or params — data no
        statement computes — so the mask, and the index an argmin/argmax
        picks, are equal on every path at either precision. Point
        ``p == i`` always passes, so no selection is empty. Half the time
        the predicate is the graph programs' own (:meth:`_make_edge_reduce`)."""
        size, a = self._pick_vec(context)
        if self.rng.random() < 0.5:
            return self._make_edge_reduce(context, size, a)
        data = [
            spec.name for spec in context["args"]
            if spec.modifier in ("input", "param") and spec.dtype == "float"
            and spec.shape == (size,)
        ]
        if not data:
            return None
        m, d = self.rng.choice(data), self.rng.choice(data)
        free, r = self._index_for(context, size), self._reduce_index_for(context, size)
        reduce_op = self.rng.choice(SAFE_REDUCTIONS + ("argmin", "argmax"))
        arg, scale = (a, "") if reduce_op in SAFE_REDUCTIONS else (d, " * 0.25")
        compare = self.rng.choice(("<=", ">="))
        target = self._new_local(context, (size,))
        return Stmt(
            text=f"{target}[{free}] = {reduce_op}"
            f"[{r}: {m}[{r}] {compare} {m}[{free}]]({arg}[{r}]){scale};",
            writes=target,
            reads=(arg, m),
            kind="data_reduce",
        )

    def _make_edge_reduce(self, context, size, a):
        """The graph programs' shape over a new ``param bin e[size][size]``:
        ``t[i] = min[p: e[p][i] == 1](a[p] + c)``, or ``max``. Its
        predicate reads a param only, so read-only params run it on its
        points. ``e`` keeps its diagonal (:meth:`FuzzProgram._draw`), so
        no selection is empty."""
        edges = VarSpec(self.fresh("e"), (size, size), "param", dtype="bin")
        context["args"].append(edges)
        free, r = self._index_for(context, size), self._reduce_index_for(context, size)
        reduce_op = self.rng.choice(("min", "max"))
        target = self._new_local(context, (size,))
        return Stmt(
            text=f"{target}[{free}] = {reduce_op}[{r}: {edges.name}[{r}][{free}] == 1]"
            f"({a}[{r}] + {self._const()});",
            writes=target,
            reads=(a, edges.name),
            kind="data_reduce",
        )

    def _make_gather(self, context):
        """A data-dependent subscript, the FFTs' bit reversal
        ``sig[br[t]]``: ``t[i] = a[k[i]]`` through a new int input ``k``
        drawn in range."""
        size, a = self._pick_vec(context)
        key = VarSpec(self.fresh("ix"), (size,), "input", dtype="int")
        context["args"].append(key)
        index, target = self._index_for(context, size), self._new_local(context, (size,))
        text = f"{target}[{index}] = {a}[{key.name}[{index}]];"
        return Stmt(text=text, writes=target, reads=(a, key.name), kind="gather")

    def _make_row_reduce(self, context):
        matrix = self.rng.choice(context["matrices"])
        rows, cols = matrix.shape
        target = self._new_local(context, (rows,))
        free = self._index_for(context, rows)
        reduce_index = self._reduce_index_for(context, cols)
        return Stmt(
            text=(
                f"{target}[{free}] = "
                f"sum[{reduce_index}]({matrix.name}[{free}][{reduce_index}]);"
            ),
            writes=target,
            reads=(matrix.name,),
            kind="row_reduce",
        )

    def _make_prefix_reduce(self, context):
        sizes = context["sizes"]
        size = sizes["n"]  # free index i pairs with reduce index p
        _, a = self._pick_vec(context, size)
        reduce_op = self.rng.choice(SAFE_REDUCTIONS)
        target = self._new_local(context, (size,))
        return Stmt(
            text=f"{target}[i] = {reduce_op}[p: p <= i]({a}[p]);",
            writes=target,
            reads=(a,),
            kind="prefix",
        )

    def _make_unroll(self, context):
        size, a = self._pick_vec(context)
        target = self._new_local(context, (size,))
        index = self._index_for(context, size)
        binder = self.fresh("u")
        trips = self.rng.randint(2, 3)
        lines = [
            f"{target}[{index}] = {a}[{index}];",
            f"unroll {binder}[1:{trips}] {{",
            f"  {target}[{index}] = {target}[{index}] "
            f"+ {a}[({index} + {binder}) % {size}] * 0.5;",
            "}",
        ]
        return Stmt(
            text="\n".join(lines),
            writes=target,
            reads=(a,),
            kind="unroll",
        )

    def _make_helper_call(self, context):
        domain = self.rng.choice(CALL_DOMAINS)
        choices = ["h_mix", "h_smooth"]
        if context["matrices"]:
            choices.append("h_mv")
        helper = self.rng.choice(choices)
        if helper == "h_mv":
            matrix = self.rng.choice(context["matrices"])
            rows, cols = matrix.shape
            _, vec = self._pick_vec(context, cols)
            target = self._new_local(context, (rows,))
            text = f"{domain}: h_mv({matrix.name}, {vec}, {target});"
            reads = (matrix.name, vec)
        elif helper == "h_mix":
            size, a = self._pick_vec(context)
            _, b = self._pick_vec(context, size)
            target = self._new_local(context, (size,))
            text = f"{domain}: h_mix({a}, {b}, {target});"
            reads = (a, b)
        else:
            size, a = self._pick_vec(context)
            target = self._new_local(context, (size,))
            text = f"{domain}: h_smooth({a}, {target});"
            reads = (a,)
        return Stmt(
            text=text,
            writes=target,
            reads=reads,
            kind="call",
            helper=helper,
        )

    def _make_state_update(self, context, state_spec):
        size = state_spec.shape[0]
        _, a = self._pick_vec(context, size)
        index = self._index_for(context, size)
        return Stmt(
            text=(
                f"{state_spec.name}[{index}] = "
                f"{state_spec.name}[{index}] * 0.5 + {a}[{index}] * 0.25;"
            ),
            writes=state_spec.name,
            reads=(state_spec.name, a),
            kind="state",
        )


def generate_program(seed, config=None, sizes=None):
    """The deterministic :class:`FuzzProgram` for *seed*.

    *sizes* (``{"n": int, "m": int}``, distinct, >= 2) forces the tensor
    extents instead of drawing them — the harness uses this to run dim
    variants of one seed through the oracles: several bindings of the
    same generated template, each its own graph and plan.
    """
    return _Generator(seed, config or GenConfig(), sizes=sizes).generate()

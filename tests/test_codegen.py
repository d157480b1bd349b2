"""Tests for the kernel codegen tier (repro.codegen).

The contract under test: a generated kernel is *bit-identical* to the
interpreted ExecutionPlan at f64 — it either prints the interpreter's
own numpy op sequence with build-time-folded index arithmetic, or
falls back per-statement to the interpreter's own StatementPlan — and
codegen failure at any level (build decline, runtime fallback, corrupt
cache entry) is a counted diagnostic, never an error.

Equivalence tests use integer-valued floats so bit-identity assertions
(``np.array_equal``) also hold at f32, where the plan rounds at
statement boundaries.
"""

from __future__ import annotations

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import (
    CODEGEN_STATS,
    build_kernel,
    kernel_cache_key,
)
from repro.driver import CompilerSession
from repro.targets import default_accelerators
from repro.driver.cache import KERNEL, PLAN, ArtifactCache
from repro.driver.diagnostics import Diagnostics

MATVEC = (
    "main(input float A[6][5], input float x[5], output float y[6]) {"
    " index i[0:5], j[0:4];"
    " y[i] = sum[j](A[i][j] * x[j]); }"
)

STATEFUL = (
    "main(input float u[4], state float acc[4], output float y[4]) {"
    " index i[0:3];"
    " acc[i] = acc[i] + u[i];"
    " y[i] = 2.0 * acc[i]; }"
)

#: Predicated reduction (the guarded-stencil idiom): the write into
#: ``y[i]`` is masked by the ``i + j < 8`` predicate.
PREDICATED = (
    "main(input float w[3], input float x[8], output float y[8]) {"
    " index i[0:7], j[0:2];"
    " y[i] = sum[j: i + j < 8](w[j] * x[i + j]); }"
)


def _int_floats(rng, shape, dtype=np.float64):
    return rng.integers(-6, 7, size=shape).astype(dtype)


def _compile_plan(source, codegen=True, **plan_kwargs):
    session = CompilerSession(default_accelerators())
    app = session.compile(source, domain="DA")
    plan = session.plan_for(app, codegen=codegen, **plan_kwargs)
    return session, plan


def _assert_identical(ref, got):
    assert set(ref.outputs) == set(got.outputs)
    for key in ref.outputs:
        a, b = ref.outputs[key], got.outputs[key]
        assert a.dtype == b.dtype, key
        assert a.shape == b.shape, key
        assert np.array_equal(a, b, equal_nan=True), key
    assert set(ref.state) == set(got.state)
    for key in ref.state:
        assert np.array_equal(ref.state[key], got.state[key],
                              equal_nan=True), key


class TestKernelEquivalence:
    def test_matvec_bit_identical(self):
        session, plan = _compile_plan(MATVEC)
        assert plan.kernel is not None
        rng = np.random.default_rng(3)
        inputs = {"A": _int_floats(rng, (6, 5)), "x": _int_floats(rng, 5)}
        ref = plan._execute(inputs, {}, {}, {}, None)
        got = plan.kernel.try_execute(plan, inputs)
        assert got is not None
        _assert_identical(ref, got)

    def test_chunked_statement_bit_identical(self):
        """A lattice_limit small enough to force the interpreter's
        chunked accumulation path must not diverge from the kernel."""
        session, plan = _compile_plan(MATVEC, lattice_limit=8)
        assert plan.kernel is not None
        rng = np.random.default_rng(5)
        inputs = {"A": _int_floats(rng, (6, 5)), "x": _int_floats(rng, 5)}
        ref = plan._execute(inputs, {}, {}, {}, None)
        got = plan.kernel.try_execute(plan, inputs)
        assert got is not None
        _assert_identical(ref, got)

    def test_predicated_write_bit_identical(self):
        session, plan = _compile_plan(PREDICATED)
        assert plan.kernel is not None
        rng = np.random.default_rng(7)
        inputs = {"w": _int_floats(rng, 3), "x": _int_floats(rng, 8)}
        ref = plan._execute(inputs, {}, {}, {}, None)
        got = plan.kernel.try_execute(plan, inputs)
        assert got is not None
        _assert_identical(ref, got)

    @pytest.mark.parametrize("op", ["max", "min"])
    def test_predicated_extremum_identity_is_not_a_source_literal(self, op):
        """The mask fill of a predicated max/min is -inf/+inf, whose repr
        is a name the kernel namespace does not define: it must travel
        as a constant, or every execution raises NameError and silently
        runs interpreted."""
        session, plan = _compile_plan(
            "main(input float x[8], output float y[8]) {"
            " index i[0:7], j[0:7];"
            f" y[i] = {op}[j: j <= i](x[j]); }}"
        )
        kernel = plan.kernel
        assert kernel is not None
        assert kernel.report["specialized"] == 1
        rng = np.random.default_rng(29)
        inputs = {"x": _int_floats(rng, 8)}
        base = CODEGEN_STATS.to_dict()
        outputs, _ = kernel.run(inputs)
        ref = plan._execute(inputs, {}, {}, {}, None)
        assert outputs["y"].dtype == ref.outputs["y"].dtype
        assert np.array_equal(outputs["y"], ref.outputs["y"])
        _assert_identical(ref, plan.execute(inputs))
        stats = CODEGEN_STATS.to_dict()
        assert stats["kernel_fallbacks"] == base["kernel_fallbacks"]

    def test_f32_precision_threaded(self):
        """f32 plans generate f32 kernels: same dtypes, same values on
        integer-valued data (exact at f32)."""
        session, plan = _compile_plan(MATVEC, precision="f32")
        assert plan.kernel is not None
        rng = np.random.default_rng(9)
        inputs = {
            "A": _int_floats(rng, (6, 5), np.float32),
            "x": _int_floats(rng, 5, np.float32),
        }
        ref = plan._execute(inputs, {}, {}, {}, None)
        got = plan.kernel.try_execute(plan, inputs)
        assert got is not None
        assert got.outputs["y"].dtype == np.float32
        _assert_identical(ref, got)

    def test_stateful_session_50_steps_one_build(self):
        """50 stateful steps re-using one pinned plan build exactly one
        kernel (CODEGEN_STATS.kernels_built), and the kernel-tier state
        thread is bit-identical to the interpreter's."""
        base = CODEGEN_STATS.to_dict()
        session = CompilerSession(default_accelerators())
        app = session.compile(STATEFUL, domain="DA")
        rng = np.random.default_rng(11)
        ref_state = {"acc": np.zeros(4)}
        kern_state = {"acc": np.zeros(4)}
        plan = None
        for step in range(50):
            # plan_for every step, like a serving session would: the
            # cache returns the same plan with its kernel still attached.
            plan = session.plan_for(app, codegen=True)
            assert plan.kernel is not None
            u = {"u": _int_floats(rng, 4)}
            ref = plan._execute(u, {}, ref_state, {}, None)
            got = plan.execute(u, params={}, state=kern_state)
            _assert_identical(ref, got)
            ref_state, kern_state = ref.state, got.state
        stats = CODEGEN_STATS.to_dict()
        assert stats["kernels_built"] - base["kernels_built"] == 1
        assert stats["kernel_fallbacks"] == base["kernel_fallbacks"]

    def test_plan_execute_prefers_kernel(self):
        session, plan = _compile_plan(STATEFUL)
        base = CODEGEN_STATS.to_dict()
        result = plan.execute({"u": np.ones(4)}, state={"acc": np.zeros(4)})
        assert np.array_equal(result.outputs["y"], 2.0 * np.ones(4))
        stats = CODEGEN_STATS.to_dict()
        assert stats["kernel_executions"] - base["kernel_executions"] == 1

    def test_traced_execution_skips_kernel(self):
        """A traced run (per-statement observation) must use the
        interpreter even when a kernel is attached."""
        session, plan = _compile_plan(MATVEC)
        assert plan.kernel is not None
        base = CODEGEN_STATS.to_dict()
        rng = np.random.default_rng(13)
        inputs = {"A": _int_floats(rng, (6, 5)), "x": _int_floats(rng, 5)}
        trace = []
        plan.execute(inputs, trace=trace)
        assert trace, "trace list should receive per-step records"
        stats = CODEGEN_STATS.to_dict()
        assert stats["kernel_executions"] == base["kernel_executions"]


def _blocked_store(target, out="out[8][8]", names=("by", "bx", "u", "v")):
    """``<target> = img[..][..] * 2.0`` over 4x4 blocks of 2x2 cells."""
    outer_row, outer_col, inner_row, inner_col = names
    return (
        f"main(input float img[8][8], output float {out}) {{"
        f" index {outer_row}[0:3], {outer_col}[0:3],"
        f" {inner_row}[0:1], {inner_col}[0:1];"
        f" {target} = img[{outer_row}*2+{inner_row}][{outer_col}*2+{inner_col}]"
        " * 2.0; }"
    )


def _store_lines(kernel):
    """The kernel's copying statement stores (``_vN... = ...`` writes)."""
    return [
        line.strip() for line in kernel.source.splitlines()
        if "[...] =" in line or "[(" in line
    ]


def _binding(kernel, op):
    """The line binding a statement result computed by *op*."""
    [line] = [
        line.strip() for line in kernel.source.splitlines()
        if line.strip().startswith("_v") and op in line
    ]
    return line


class TestStoreShapes:
    """The three store shapes: identity cover, row-major cover, scatter."""

    def _check(self, source, inputs):
        session, plan = _compile_plan(source)
        assert plan.kernel is not None
        assert plan.kernel.report["fallback"] == 0
        ref = plan._execute(inputs, {}, {}, {}, None)
        got = plan.kernel.try_execute(plan, inputs)
        assert got is not None
        _assert_identical(ref, got)
        return plan.kernel

    def _index_constants(self, kernel, shape):
        return [
            name for name, value in kernel.constants.items()
            if isinstance(value, np.ndarray) and value.dtype.kind == "i"
            and value.shape == shape
        ]

    def test_dct_stores_through_reshape_view(self):
        from repro.eval import Harness

        harness = Harness()
        workload, app, _ = harness.compiled("DCT-1024")
        plan = harness.session.plan_for(app, codegen=True)
        kernel = plan.kernel
        assert kernel is not None
        # The blocked store is a row-major cover of a fresh einsum result:
        # bound as it is, reshaped from the lattice to the target. (``t1``
        # is an einsum over an affine view of ``img`` and binds the same
        # way, so the op names ``out``'s temporary.)
        assert "(128, 8, 128, 8, 1)" in kernel.source
        assert _binding(
            kernel, "ascontiguousarray(_np.squeeze(_t2"
        ).endswith(".reshape((1024, 1024))")
        # No fancy write, and no out-shaped subscript constants for one.
        assert not any("[(" in line for line in _store_lines(kernel))
        assert not self._index_constants(kernel, (128, 8, 128, 8))
        params = workload.params()
        ref_prev = got_prev = None
        for step in range(3):
            ref = plan._execute(
                workload.inputs(step, ref_prev), params, {}, None, None
            )
            got = kernel.try_execute(
                plan, workload.inputs(step, got_prev), params, {}
            )
            assert got is not None
            _assert_identical(ref, got)
            ref_prev, got_prev = ref, got

    def test_row_major_cover_in_lattice_axis_order(self):
        """Free axes are ordered by first use in the target, names
        sorted within a subscript, so swapping the two blocked
        subscripts still enumerates ``out`` in row-major order."""
        rng = np.random.default_rng(13)
        inputs = {"img": _int_floats(rng, (8, 8))}
        for target in ("out[by*2+u][bx*2+v]", "out[bx*2+v][by*2+u]"):
            kernel = self._check(_blocked_store(target), inputs)
            assert "(4, 2, 4, 2)" in kernel.source
            assert _binding(kernel, "_np.multiply").endswith(".reshape((8, 8))")
            assert not _store_lines(kernel)
            assert not self._index_constants(kernel, (4, 2, 4, 2))

    @pytest.mark.parametrize("source, lattice", [
        # Transposed blocks: the inner index sorts before the outer one,
        # so each subscript walks its two axes in column-major order.
        (_blocked_store("out[p*2+a][q*2+b]", names=("p", "q", "a", "b")),
         (2, 4, 2, 4)),
        # Partial cover: rows 8 and 9 keep their previous value.
        (_blocked_store("out[by*2+u][bx*2+v]", out="out[10][8]"),
         (4, 2, 4, 2)),
    ])
    def test_other_blocked_stores_still_scatter(self, source, lattice):
        rng = np.random.default_rng(17)
        kernel = self._check(source, {"img": _int_floats(rng, (8, 8))})
        assert not any(".reshape(" in line and "[...] =" in line
                       for line in _store_lines(kernel))
        assert len(self._index_constants(kernel, lattice)) == 2

    def test_repeated_cell_store_still_scatters(self):
        source = (
            "main(input float x[8], output float y[4]) {"
            " index i[0:7]; y[i % 4] = x[i] * 2.0; }"
        )
        rng = np.random.default_rng(19)
        kernel = self._check(source, {"x": _int_floats(rng, 8)})
        assert any("[(" in line for line in _store_lines(kernel))
        assert not any("[...] =" in line for line in _store_lines(kernel))

    def test_cover_stores_bind_fresh_values_and_copy_the_rest(self):
        """A full-cover store of a fresh value of the target dtype binds
        it — escaping or not, reshape-view store exactly as identity store
        — and every other payload is copied into a new buffer; no
        statement result lives in the kernel's scratch set."""
        template = (
            "main(input float img[8][8], output float out[8][8]) {{"
            " index by[0:3], bx[0:3], u[0:1], v[0:1], r[0:7], c[0:7];"
            " float t[8][8];"
            " {first} = img[by*2+u][bx*2+v] * 2.0;"
            " out[r][c] = t[r][c] + t[c][r]; }}"
        )
        rng = np.random.default_rng(23)
        inputs = {"img": _int_floats(rng, (8, 8))}
        blocked = self._check(
            template.format(first="t[by*2+u][bx*2+v]"), inputs
        )
        identity = self._check(
            template.replace("img[by*2+u][bx*2+v]", "img[r][c]")
            .format(first="t[r][c]"), inputs
        )
        for kernel in (blocked, identity):
            # ``t`` stays inside the kernel, ``out`` escapes: bound alike.
            for op in ("_np.multiply", "_np.add"):
                line = _binding(kernel, op)
                assert "= _np.ascontiguousarray(" in line
                assert line.endswith(".reshape((8, 8))")
            assert "_np.empty(" not in kernel.source
            assert not re.search(r"_v\d+ = _S\[", kernel.source)
        # Not fresh (a gathered operand view), and not the target dtype
        # (f64 sum into an int target): copied into a new buffer.
        for source, inputs in (
            ("main(input float x[8], output float y[8]) {"
             " index i[0:7]; y[i] = x[7 - i]; }",
             {"x": _int_floats(rng, 8)}),
            ("main(input float x[8], output int y[8]) {"
             " index i[0:7]; y[i] = x[i] + 1.0; }",
             {"x": _int_floats(rng, 8)}),
        ):
            kernel = self._check(source, inputs)
            assert "= _np.empty((8,)" in kernel.source
            assert len(_store_lines(kernel)) == 1


def _arrays(*mappings):
    return [
        value for mapping in mappings for value in mapping.values()
        if isinstance(value, np.ndarray)
    ]


class TestBufferLifetimes:
    """Statement results are bound or freshly allocated, released after
    their last reader, and never alias anything the caller or the kernel
    keeps."""

    #: ``xx`` is read by A and B; C reads only A's result.
    READERS_OF_XX = (
        "main(input float x[8], output float y[8], output float z[8]) {"
        " index i[0:7]; float xx[8], a[8];"
        " xx[i] = x[i] * 3.0;"
        " a[i] = xx[i] + 1.0;"
        " z[i] = xx[i] * 2.0;"
        " y[i] = a[7 - i] * 5.0; }"
    )

    def test_operand_released_after_its_last_reader(self):
        session, plan = _compile_plan(self.READERS_OF_XX)
        kernel = plan.kernel
        assert kernel.report["fallback"] == 0
        lines = [line.strip() for line in kernel.source.splitlines()]
        [xx] = [
            line.split(" = ")[0] for line in lines
            if line.startswith("_v") and "3.0" in line
        ]
        [released] = [
            number for number, line in enumerate(lines)
            if line.startswith("del ") and xx in line.replace(",", " ").split()
        ]
        [last_reader] = [
            number for number, line in enumerate(lines) if "2.0" in line
        ]
        [consumer] = [
            number for number, line in enumerate(lines) if "5.0" in line
        ]
        assert last_reader < released < consumer
        rng = np.random.default_rng(31)
        inputs = {"x": _int_floats(rng, 8)}
        outputs, _ = kernel.run(inputs)
        ref = plan._execute(inputs, {}, {}, {}, None)
        for name in ("y", "z"):
            assert np.array_equal(outputs[name], ref.outputs[name])

    @given(st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=25, deadline=None)
    def test_generated_programs_never_read_a_released_local(self, seed):
        from repro.fuzz.generator import generate_program

        program = generate_program(seed)
        session = CompilerSession(default_accelerators())
        plan = session.plan_for(
            session.compile(program.render(), domain="DA"), codegen=True
        )
        if plan.kernel is None:
            return
        state = ref_state = program.initial_state()
        for _ in range(program.steps):
            # ``run`` has no interpreter behind it: a NameError escapes.
            outputs, state = plan.kernel.run(
                program.inputs(), program.params(), state
            )
            ref = plan._execute(
                program.inputs(), program.params(), ref_state, {}, None
            )
            ref_state = ref.state
            for name, value in ref.outputs.items():
                assert np.array_equal(outputs[name], value, equal_nan=True)

    def _check_no_aliasing(self, kernel, inputs, params, state):
        outputs, state_out = kernel.run(inputs, params, state)
        returned = _arrays(outputs, state_out)
        expected = [array.copy() for array in returned]
        kept = _arrays(inputs, params, state, kernel.constants) + [
            buffer for scratch in kernel._pool for buffer in scratch
        ]
        for array in returned:
            assert array.flags.writeable
            assert not any(np.shares_memory(array, other) for other in kept)
            array[...] = -7
        again = kernel.run(inputs, params, state)
        for want, got in zip(expected, _arrays(*again)):
            assert np.array_equal(want, got, equal_nan=True)

    @pytest.mark.parametrize("name", ["MovieL-100K", "ElecUse"])
    def test_workload_results_never_alias(self, name):
        from repro.workloads import get_workload

        workload = get_workload(name)
        session = CompilerSession()
        app, _ = session.compile_workload(workload)
        kernel = session.plan_for(app, codegen=True).kernel
        state = {
            key: np.asarray(value)
            for key, value in workload.initial_state().items()
        }
        self._check_no_aliasing(
            kernel, workload.inputs(0, None), workload.params(), state
        )

    @pytest.mark.parametrize("source", [
        # An identity copy: the payload is a view of the operand.
        "main(state float W[4][3], output float y[4][3]) {"
        " index u[0:3], k[0:2];"
        " W[u][k] = W[u][k]; y[u][k] = W[u][k]; }",
        # A dtype-narrowing store: the payload is fresh, but float64.
        "main(state float W[4][3], output int y[4][3]) {"
        " index u[0:3], k[0:2];"
        " W[u][k] = W[u][k] + 1.0; y[u][k] = W[u][k] * 2.0; }",
    ])
    def test_copied_stores_never_alias(self, source):
        session, plan = _compile_plan(source)
        assert plan.kernel.report["fallback"] == 0
        rng = np.random.default_rng(37)
        self._check_no_aliasing(
            plan.kernel, {}, {}, {"W": _int_floats(rng, (4, 3))}
        )

    def test_movielens_kernel_holds_no_statement_result_in_scratch(self):
        """The structural form of the memory claim (an RSS assertion
        would flake): MovieL-100K's five 12.7 MB statement results used
        to be pinned ``_S`` slots, 25.6 MB a scratch set."""
        from repro.workloads import get_workload

        session = CompilerSession()
        app, _ = session.compile_workload(get_workload("MovieL-100K"))
        kernel = session.plan_for(app, codegen=True).kernel
        scratch_bytes = sum(
            int(np.prod(shape)) * dtype.itemsize
            for shape, dtype in kernel.scratch_specs
        )
        assert scratch_bytes < 1 << 20
        assert not re.search(r"_v\d+ = _S\[", kernel.source)
        # pred, err, gw and gh are released once their last reader ran.
        assert len(re.findall(r"^ +del .*_v", kernel.source, re.M)) >= 4


#: ``(statements, specialized, fallback, einsum, gathers)`` of the 17
#: ledger programs' kernels, and the reason of every statement fallback
#: — literals of the commit before the emitter became the reference
#: evaluator run over symbolic operands, but for the DCT and conv
#: statements: contractions over affine subscripts (``img[by*8+x]``,
#: ``x[ic][oy*s+ky][ox*s+kx]``) dispatch to einsum over a strided view,
#: so they left ``gathers`` (and the deleted ``blocked`` column) for
#: ``einsum``, and DCT-2048's over-limit stencil no longer chunks; and
#: for the three statements elementwise inlining used to fold into their
#: consumer (MobileRobot, Hexacopter, BrainStimul), each now one gather
#: fewer.
REPORT_COUNTERS = ("statements", "specialized", "fallback", "einsum", "gathers")
DATA_DEPENDENT_SUBSCRIPT = "xr := copy: subscript 0 of 'sig' is data-dependent"
DATA_DEPENDENT_PREDICATE = (
    "relax := reduce_min: data-dependent reduction predicate"
)
ARGMIN = (
    "assign := reduce_argmin: reduction 'argmin' "
    "(argmax/argmin/custom combiner)"
)
LEDGER_REPORTS = {
    "MobileRobot": ((9, 9, 0, 4, 3), []),
    "Hexacopter": ((12, 12, 0, 4, 5), []),
    "Twitter-BFS": ((3, 2, 1, 0, 0), [DATA_DEPENDENT_PREDICATE]),
    "Wiki-BFS": ((3, 2, 1, 0, 0), [DATA_DEPENDENT_PREDICATE]),
    "LiveJourn-SSP": ((3, 2, 1, 0, 0), [DATA_DEPENDENT_PREDICATE]),
    "MovieL-20M": ((7, 7, 0, 4, 0), []),
    "MovieL-100K": ((7, 7, 0, 4, 0), []),
    "DigitCluster": ((7, 6, 1, 3, 0), [ARGMIN]),
    "ElecUse": ((7, 6, 1, 3, 0), [ARGMIN]),
    "FFT-8192": ((30, 29, 1, 0, 130), [DATA_DEPENDENT_SUBSCRIPT]),
    "FFT-16384": ((32, 31, 1, 0, 140), [DATA_DEPENDENT_SUBSCRIPT]),
    "DCT-1024": ((2, 2, 0, 2, 0), []),
    "DCT-2048": ((2, 2, 0, 2, 0), []),
    "ResNet-18": ((56, 56, 0, 22, 0), []),
    "MobileNet": ((45, 45, 0, 19, 0), []),
    "BrainStimul": ((39, 38, 1, 5, 123), [DATA_DEPENDENT_SUBSCRIPT]),
    "OptionPricing": ((5, 5, 0, 1, 0), []),
}


#: Prints a gather of an int operand (an index constant and a ``_S``
#: slot) before it declines on ``argmin``.
DECLINED_AFTER_A_GATHER = (
    "main(input int k[4][6], input float x[4][6], output float y[4]) {"
    " index i[0:3], j[0:5];"
    " y[i] = k[i][0] + argmin[j](x[i][j]); }"
)


class TestKernelNamespace:
    """Every constant and scratch slot a kernel carries is one its source
    names: a declined statement leaves none behind, and a store registers
    none it does not print."""

    @staticmethod
    def _assert_all_referenced(kernel):
        for name in kernel.constants:
            assert re.search(rf"\b{name}\b", kernel.source), name
        for slot in range(len(kernel.scratch_specs)):
            assert f"_S[{slot}]" in kernel.source, slot

    @pytest.mark.parametrize("name", sorted(LEDGER_REPORTS))
    def test_ledger_programs(self, name):
        from repro.eval import Harness

        harness = Harness()
        _, app, _ = harness.compiled(name)
        self._assert_all_referenced(
            harness.session.plan_for(app, codegen=True).kernel
        )

    def test_declined_statement_rolls_back(self):
        session, plan = _compile_plan(DECLINED_AFTER_A_GATHER)
        kernel = plan.kernel
        assert kernel.report["fallback"] == 1
        assert kernel.report["gathers"] == 1
        self._assert_all_referenced(kernel)
        assert not kernel.scratch_specs
        rng = np.random.default_rng(41)
        inputs = {
            "k": rng.integers(-6, 7, size=(4, 6)),
            "x": _int_floats(rng, (4, 6)),
        }
        ref = plan._execute(inputs, {}, {}, {}, None)
        outputs, _ = kernel.run(inputs)
        assert np.array_equal(outputs["y"], ref.outputs["y"])


class TestStagedEvaluator:
    """The emitter is ``_ExprEvaluator`` staged, not a second walker."""

    @pytest.mark.parametrize("name", sorted(LEDGER_REPORTS))
    def test_ledger_program_reports_unchanged(self, name):
        from repro.eval import Harness

        harness = Harness()
        _, app, _ = harness.compiled(name)
        report = harness.session.plan_for(app, codegen=True).kernel.report
        counters, reasons = LEDGER_REPORTS[name]
        assert tuple(report[key] for key in REPORT_COUNTERS) == counters
        assert report["fallback_reasons"] == reasons

    def test_nested_einsum_dispatches_through_compile_einsum(
        self, monkeypatch
    ):
        """An einsum that fires only in a nested position has no
        statement-level plan; the evaluator and the emitter both get it
        from the one ``compile_einsum``."""
        from repro.srdfg import interpreter

        dispatched = []
        compile_einsum = interpreter.compile_einsum

        def counting(expr, space, static_env):
            einsum = compile_einsum(expr, space, static_env)
            dispatched.append(einsum)
            return einsum

        monkeypatch.setattr(interpreter, "compile_einsum", counting)
        session, plan = _compile_plan(
            "main(input float a[6], input float M[6][5], input float x[5],"
            " output float y[6]) {"
            " index i[0:5], j[0:4];"
            " y[i] = a[i] + sum[j](M[i][j] * x[j]); }"
        )
        [statement] = plan.statements.values()
        assert statement.einsum is None
        assert statement.path() == "lattice"
        # One dispatch so far: the emitter's, printed into the kernel.
        assert [einsum.spec for einsum in dispatched] == ["ab,b->a"]
        assert plan.kernel.report["einsum"] == 1
        assert "_np.einsum('ab,b->a'" in plan.kernel.source
        rng = np.random.default_rng(31)
        inputs = {
            "a": _int_floats(rng, 6),
            "M": _int_floats(rng, (6, 5)),
            "x": _int_floats(rng, 5),
        }
        ref = plan._execute(inputs, {}, {}, {}, None)
        assert [einsum.spec for einsum in dispatched] == ["ab,b->a"] * 2
        outputs, _ = plan.kernel.run(inputs)
        assert np.array_equal(outputs["y"], ref.outputs["y"])
        assert np.array_equal(
            ref.outputs["y"], inputs["a"] + inputs["M"] @ inputs["x"]
        )


class TestBuildContract:
    def test_unsupported_plan_counts_decline(self):
        class Hostile:
            graph_name = "hostile"
            steps = ()
            _components = {"sub": None}

        base = CODEGEN_STATS.to_dict()
        diagnostics = Diagnostics()
        assert build_kernel(Hostile(), diagnostics=diagnostics) is None
        stats = CODEGEN_STATS.to_dict()
        assert stats["builds_declined"] - base["builds_declined"] == 1
        assert any(
            "codegen declined" in entry.message
            for entry in diagnostics.entries
        )

    def test_emitter_defect_propagates(self, monkeypatch):
        """Only ``Unsupported`` is a decline: an emitter crash must not
        pass for one, or the codegen fuzz oracle would wave it through."""
        from repro.codegen.emitter import KernelEmitter

        def crash(self, step, local):
            raise KeyError("emitter defect")

        _, plan = _compile_plan(MATVEC, codegen=False)
        monkeypatch.setattr(KernelEmitter, "_emit_compute_step", crash)
        base = CODEGEN_STATS.to_dict()
        with pytest.raises(KeyError, match="emitter defect"):
            build_kernel(plan)
        assert CODEGEN_STATS.to_dict()["builds_declined"] == (
            base["builds_declined"]
        )

    def test_codegen_stage_recorded(self):
        session, plan = _compile_plan(MATVEC)
        assert session.stage_executions("codegen") == 1
        stats = session.stats_dict()
        assert "codegen" in stats
        assert stats["cache"]["kernel_stores"] == 1

    def test_declined_build_is_attempted_once_per_plan(self, monkeypatch):
        calls = []

        def decline(plan, plan_key=None, diagnostics=None):
            calls.append(plan_key)
            return None

        monkeypatch.setattr("repro.driver.session.build_kernel", decline)
        session = CompilerSession(default_accelerators())
        app = session.compile(MATVEC, domain="DA")
        plans = [session.plan_for(app, codegen=True) for _ in range(5)]
        assert len(calls) == 1
        assert all(plan is plans[0] and plan.kernel is None for plan in plans)
        records = [r for r in session.records if r.stage == "codegen"]
        assert [r.detail.split(",")[0] for r in records] == ["declined"]
        # Still served, interpreted.
        rng = np.random.default_rng(29)
        inputs = {"A": _int_floats(rng, (6, 5)), "x": _int_floats(rng, 5)}
        assert plans[0].execute(inputs).tier == "interpreted"

    def test_codegen_off_by_default(self):
        session, plan = _compile_plan(MATVEC, codegen=False)
        assert plan.kernel is None


class TestKernelCache:
    def test_disk_round_trip_recompiles_source(self, tmp_path):
        session, plan = _compile_plan(MATVEC)
        artifact = plan.kernel
        cache = ArtifactCache(cache_dir=str(tmp_path))
        key = kernel_cache_key("k1")
        cache.put(KERNEL, key, artifact)
        cache.clear()
        loaded = cache.get(KERNEL, key)
        assert loaded is not None
        assert loaded.source == artifact.source
        assert cache.stats.kernel_disk_hits == 1
        rng = np.random.default_rng(17)
        inputs = {"A": _int_floats(rng, (6, 5)), "x": _int_floats(rng, 5)}
        ref = plan._execute(inputs, {}, {}, {}, None)
        outputs, _ = loaded.run(inputs)
        assert np.array_equal(ref.outputs["y"], outputs["y"])

    def test_corrupt_pickle_evicted_not_raised(self, tmp_path):
        diagnostics = Diagnostics()
        cache = ArtifactCache(cache_dir=str(tmp_path),
                              diagnostics=diagnostics)
        key = kernel_cache_key("k2")
        cache._path(key).write_bytes(b"\x80garbage")
        assert cache.get(KERNEL, key) is None
        assert not cache._path(key).exists()
        assert cache.stats.disk_errors == 1
        assert any(
            "corrupt kernel" in entry.message
            for entry in diagnostics.entries
        )

    def test_corrupt_source_record_evicted_not_raised(self, tmp_path):
        """A record that unpickles but holds uncompilable source is the
        stale-artifact case: evicted with a diagnostic, counted a miss,
        never a raise."""
        import pickle

        diagnostics = Diagnostics()
        cache = ArtifactCache(cache_dir=str(tmp_path),
                              diagnostics=diagnostics)
        key = kernel_cache_key("k3")
        record = {
            "plan_key": "k3",
            "source": "def _kernel(:  # truncated mid-write",
            "constants": {},
            "scratch_specs": [],
            "report": {},
        }
        cache._path(key).write_bytes(pickle.dumps(record))
        assert cache.get(KERNEL, key) is None
        assert not cache._path(key).exists()
        assert any(
            "corrupt kernel source" in entry.message
            for entry in diagnostics.entries
        )
        # Still a functioning cache afterwards.
        assert cache.get(KERNEL, key) is None

    def test_evict_plan_evicts_sibling_kernel(self, tmp_path):
        session, plan = _compile_plan(MATVEC)
        cache = ArtifactCache(cache_dir=str(tmp_path))
        plan_key = "plan-xyz"
        cache.put(PLAN, plan_key, plan)
        cache.put(KERNEL, kernel_cache_key(plan_key), plan.kernel)
        assert cache._path(kernel_cache_key(plan_key)).exists()
        assert cache.evict(PLAN, plan_key)
        assert cache.get(PLAN, plan_key) is None
        assert not cache._path(kernel_cache_key(plan_key)).exists()
        assert cache.get(KERNEL, kernel_cache_key(plan_key)) is None
        assert cache.stats.kernel_evictions == 1

    def test_second_session_hits_kernel_disk_tier(self, tmp_path):
        first = CompilerSession(default_accelerators(), cache_dir=str(tmp_path))
        app = first.compile(MATVEC, domain="DA")
        plan = first.plan_for(app, codegen=True)
        assert plan.kernel is not None

        second = CompilerSession(default_accelerators(), cache_dir=str(tmp_path))
        app2 = second.compile(MATVEC, domain="DA")
        plan2 = second.plan_for(app2, codegen=True)
        assert plan2.kernel is not None
        assert second.cache.stats.kernel_disk_hits == 1
        assert plan2.kernel.source == plan.kernel.source


    def test_record_of_another_kernel_abi_is_a_miss(self, tmp_path, monkeypatch):
        """The key is salted with ``KERNEL_ABI``: source printed under
        another contract is never found, so never exec'd — the kernel is
        rebuilt under the current one."""
        import hashlib

        import repro.codegen

        assert kernel_cache_key("k") != hashlib.sha256(b"kernel:k").hexdigest()

        def plan_in(session):
            return session.plan_for(
                session.compile(MATVEC, domain="DA"), codegen=True
            )

        first = CompilerSession(default_accelerators(), cache_dir=str(tmp_path))
        plan_in(first)
        assert first.cache.stats.kernel_stores == 1
        # Were the old record decoded, its source would run and raise.
        for path in tmp_path.glob("*.pkl"):
            record = pickle.loads(path.read_bytes())
            if isinstance(record, dict) and "source" in record:
                record["source"] = "raise RuntimeError('stale kernel ran')\n"
                path.write_bytes(pickle.dumps(record))

        monkeypatch.setattr(
            repro.codegen, "KERNEL_ABI", repro.codegen.KERNEL_ABI + 1
        )
        base = CODEGEN_STATS.kernels_built
        second = CompilerSession(default_accelerators(), cache_dir=str(tmp_path))
        plan = plan_in(second)
        assert plan.kernel is not None
        assert CODEGEN_STATS.kernels_built - base == 1
        stats = second.cache.stats
        assert (stats.kernel_misses, stats.kernel_disk_hits) == (1, 0)
        assert stats.disk_errors == 0

    def test_kernel_with_fallback_statement_reaches_disk_tier(self, tmp_path):
        """A fallback statement rides in the kernel's constants as its
        StatementPlan, which holds a lock: it must still pickle, or the
        kernel silently never leaves the process that built it."""
        from repro.workloads import get_workload

        workload = get_workload("Twitter-BFS")

        def plan_in(session):
            app = session.compile(
                workload.source(), domain=workload.domain,
                data_hints=workload.hints(),
            )
            return session.plan_for(app, codegen=True)

        first = CompilerSession(default_accelerators(), cache_dir=str(tmp_path))
        plan = plan_in(first)
        assert plan.kernel.report["fallback"] == 1
        assert first.cache.stats.disk_errors == 0

        second = CompilerSession(default_accelerators(), cache_dir=str(tmp_path))
        plan2 = plan_in(second)
        assert second.cache.stats.kernel_disk_hits == 1
        assert second.cache.stats.disk_errors == 0
        assert plan2.kernel is not plan.kernel
        inputs, params = workload.inputs(0, None), workload.params()
        ref = plan._execute(inputs, params, {}, {}, None)
        got = plan2.kernel.try_execute(plan2, inputs, params)
        assert got is not None
        _assert_identical(ref, got)

    def test_unpicklable_kernel_is_reported(self, tmp_path):
        session, plan = _compile_plan(MATVEC)
        plan.kernel.constants["_c_unpicklable"] = lambda: None
        diagnostics = Diagnostics()
        cache = ArtifactCache(cache_dir=str(tmp_path), diagnostics=diagnostics)
        assert cache.put(KERNEL, kernel_cache_key("k4"), plan.kernel) is False
        assert cache.stats.disk_errors == 1
        assert any(
            "not picklable" in entry.message for entry in diagnostics.entries
        )


class TestServeIntegration:
    def test_request_provenance_is_the_tier_that_ran(self):
        """Serving always asks for the kernel tier; ``execute`` provenance
        records what answered, and the report renders it."""
        from repro.serve import Request, Server

        with Server(workers=2, queue_capacity=8) as server:
            ticket = server.submit(Request(workload="MobileRobot", steps=2))
            response = ticket.wait(timeout=120)
        assert response.ok
        assert response.metrics.kernel_provenance == "kernel"
        report = server.report()
        assert report.provenance_counts("execute") == {"kernel": 1}
        assert "  execute: 1 kernel" in report.render()

    def test_metrics_registry_exposes_codegen(self):
        from repro.serve import Server

        with Server(workers=1, queue_capacity=4) as server:
            registry = server.metrics_registry()
        assert "codegen" in registry.sources()


class TestFuzzOracle:
    def test_codegen_oracle_registered(self):
        from repro.fuzz import ORACLES

        assert "codegen" in ORACLES

    def test_codegen_oracle_runs_and_builds(self):
        from repro.fuzz import run_fuzz

        base = CODEGEN_STATS.to_dict()
        report = run_fuzz(programs=2, seed=1, campaigns="none",
                          minimize=False, dim_variants=2)
        assert report.ok, report.render()
        oracle_checks = [
            check
            for row in report.matrix
            for check in row["checks"]
            if check["oracle"] == "codegen"
        ]
        # 2 seeds x 2 variants x 2 precisions.
        assert len(oracle_checks) == 8
        assert all(check["ok"] for check in oracle_checks)
        stats = CODEGEN_STATS.to_dict()
        assert stats["kernels_built"] > base["kernels_built"]


class TestCli:
    def test_codegen_compare_json(self, capsys):
        from repro.cli import main

        code = main([
            "codegen", "--workload", "MobileRobot", "--compare",
            "--steps", "2", "--json", "-",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        import json

        payload = json.loads(out[out.index("{"):])
        entry = payload["workloads"]["MobileRobot"]
        assert entry["provenance"] == "kernel"
        assert entry["identical"] is True

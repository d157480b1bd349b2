"""Tests for the kernel codegen tier (repro.codegen).

The contract under test: a generated kernel is *bit-identical* to the
interpreted ExecutionPlan at f64 — it prints the interpreter's own numpy
op sequence with build-time-folded index arithmetic for every statement
of the plan, or the plan declines as a whole and runs interpreted — and
a declined build or a corrupt cache entry is a counted diagnostic, never
an error.

Equivalence tests use integer-valued floats so bit-identity assertions
(``np.array_equal``) also hold at f32, where the plan rounds at
statement boundaries.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.codegen import (
    CODEGEN_STATS,
    KernelEmitter,
    build_kernel,
    kernel_cache_key,
)
from repro.driver import CompilerSession
from repro.errors import ExecutionError
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

    def test_chunked_statement_bit_identical(self, monkeypatch):
        """A lattice limit small enough to plan the interpreter's chunked
        accumulation path must not diverge from the kernel (its
        contraction runs first)."""
        monkeypatch.setattr("repro.srdfg.interpreter.DEFAULT_LATTICE_LIMIT", 8)
        session, plan = _compile_plan(MATVEC)
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
        rng = np.random.default_rng(29)
        inputs = {"x": _int_floats(rng, 8)}
        outputs, _ = kernel.run(inputs)
        ref = plan._execute(inputs, {}, {}, {}, None)
        assert outputs["y"].dtype == ref.outputs["y"].dtype
        assert np.array_equal(outputs["y"], ref.outputs["y"])
        result = plan.execute(inputs)
        assert result.tier == "kernel"
        _assert_identical(ref, result)

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
            assert got.tier == "kernel"
            _assert_identical(ref, got)
            ref_state, kern_state = ref.state, got.state
        stats = CODEGEN_STATS.to_dict()
        assert stats["kernels_built"] - base["kernels_built"] == 1

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
    """The store forms: full cover (bound, or copied whole), slice, and
    scatter."""

    def _check(self, source, inputs):
        session, plan = _compile_plan(source)
        assert plan.kernel is not None
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
        # The binding's own reshape drops the reduced axis: no squeeze.
        assert _binding(
            kernel, "ascontiguousarray(_t2)"
        ).endswith(".reshape((1024, 1024))")
        assert "squeeze" not in kernel.source
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
        — and every other payload is copied into a new buffer."""
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
        # Not fresh (a take, which other gathers may read, or a strided
        # view of the operand), and not the target dtype (f64 sum into an
        # int target): copied into a new buffer.
        for source, inputs in (
            ("main(input float x[8], output float y[8]) {"
             " index i[0:7]; y[i] = x[7 - i]; }",
             {"x": _int_floats(rng, 8)}),
            ("main(input float x[8], output float y[4]) {"
             " index i[0:3]; y[i] = x[2 * i]; }",
             {"x": _int_floats(rng, 8)}),
            ("main(input float x[8], output int y[8]) {"
             " index i[0:7]; y[i] = x[i] + 1.0; }",
             {"x": _int_floats(rng, 8)}),
        ):
            kernel = self._check(source, inputs)
            assert re.search(r"= _np\.empty\(\(\d,\)", kernel.source)
            assert len(_store_lines(kernel)) == 1


def _lattice_ramp(lattice, axis):
    """The coordinates along lattice *axis*, broadcastable over it."""
    shape = [1] * len(lattice)
    shape[axis] = lattice[axis]
    return np.arange(lattice[axis], dtype=np.int64).reshape(shape)


@st.composite
def _subscripts(draw, lattice, rank):
    """*rank* static subscripts over *lattice*, each a constant (drawn
    as None) or ``origin + step*axis`` (any sign of step) or
    ``origin + axis % m``, drawn as ``(axis, step)`` with the effective
    step: 0 or ``"repeats"`` when cells repeat."""
    arrays, steps = [], []
    # Mostly distinct axes, in a drawn (often permuted) order.
    axes = draw(st.permutations(range(len(lattice))))
    for dim in range(rank):
        origin = draw(st.integers(0, 2))
        kind = draw(st.sampled_from(["affine", "mod", "const"])) if lattice else "const"
        if kind == "const":
            shape = draw(st.sampled_from([(), (1,) * len(lattice)]))
            arrays.append(np.full(shape, origin, dtype=np.int64))
            steps.append(None)  # maps no axis
            continue
        axis = axes[dim % len(axes)] if draw(st.booleans()) else draw(
            st.integers(0, len(lattice) - 1)
        )
        ramp, count = _lattice_ramp(lattice, axis), lattice[axis]
        if kind == "affine":
            step = draw(st.integers(-1, 2))
            arrays.append(origin + max(0, -step * (count - 1)) + step * ramp)
        else:
            modulus = draw(st.integers(1, 3))
            arrays.append(origin + ramp % modulus)
            step = 1 if modulus >= count else 0 if modulus == 1 else "repeats"
        steps.append((axis, step))
    return arrays, steps


#: Lattices of up to three axes; one in about seven extents is zero.
_LATTICES = st.lists(st.sampled_from([1, 2, 3, 4, 0, 3, 4]), max_size=3)


def _qualifies(lattice, steps):
    """The slice rule, read from how the subscripts were drawn: each
    maps a lattice axis of its own with a positive step (or none, or an
    extent-1 one), and every lattice axis of extent other than 1 is
    mapped."""
    mapped = []
    for drawn in steps:
        if drawn is None or lattice[drawn[0]] == 1:
            continue
        axis, step = drawn
        if lattice[axis] == 0 or step == "repeats" or step < 1 or axis in mapped:
            return False
        mapped.append(axis)
    return all(
        extent == 1 or axis in mapped for axis, extent in enumerate(lattice)
    )


def _run_printed(emitter, namespace):
    exec("\n".join(line.strip() for line in emitter.lines), namespace)
    return namespace


class TestSliceDecision:
    """A static store or gather prints as a basic slice exactly when its
    subscripts make one, and the slice moves the bytes the scatter or
    ``np.take`` would have."""

    @staticmethod
    def _emitter():
        from types import SimpleNamespace

        return KernelEmitter(SimpleNamespace(steps=[]))

    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_store_slice_equals_the_scatter(self, data):
        from types import SimpleNamespace

        from repro.codegen.emitter import _Val

        lattice = tuple(data.draw(_LATTICES, label="lattice"))
        rank = data.draw(st.integers(1, 3), label="rank")
        arrays, steps = data.draw(_subscripts(lattice, rank), label="subscripts")
        lhs_shape = tuple(
            (int(array.max()) + 1 if array.size else 1) + data.draw(st.integers(0, 2))
            for array in arrays
        )
        # A payload over the lattice, or broadcast along some of its axes.
        payload_shape = data.draw(st.sampled_from([
            (),
            lattice,
            tuple(1 if axis % 2 else extent for axis, extent in enumerate(lattice)),
        ]), label="payload")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        payload = rng.standard_normal(payload_shape)
        previous = rng.standard_normal(lhs_shape) if data.draw(st.booleans()) else None

        shadow = np.zeros(())
        raw = _Val("P", payload_shape, shadow, fresh=data.draw(st.booleans()))
        if payload_shape != lattice:
            raw = _Val("_np.broadcast_to(P, L)", lattice, shadow, unbroadcast=raw)
        statement = SimpleNamespace(
            stmt=SimpleNamespace(target="y", target_indices=arrays),
            lhs_shape=lhs_shape, target_dtype="float64",
        )
        ev = SimpleNamespace(
            statement=statement,
            operands={} if previous is None else {"y": _Val("prev", lhs_shape, shadow)},
            write_subscripts=lambda stmt, shape: arrays,
        )
        emitter = self._emitter()
        emitter._emit_store(ev, raw, "out")
        got = _run_printed(emitter, {
            "_np": np, "P": payload, "L": lattice, "prev": previous, **emitter.constants,
        })["out"]

        # The interpreter's _store: prev-copy or zeros, then the scatter.
        want = np.zeros(lhs_shape) if previous is None else previous.copy()
        *targets, values = np.broadcast_arrays(
            *arrays, np.broadcast_to(payload, lattice)
        )
        want[tuple(targets)] = values
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        scatters = any(re.search(r"\[\(_c\d+", line) for line in emitter.lines)
        assert scatters != _qualifies(lattice, steps)
        assert emitter.report["scatters"] == scatters

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_gather_slice_equals_the_take(self, data):
        from repro.codegen.emitter import _Val

        lattice = tuple(data.draw(_LATTICES, label="lattice"))
        rank = data.draw(st.integers(1, 3), label="rank")
        arrays, _ = data.draw(_subscripts(lattice, rank), label="subscripts")
        base_shape = tuple(
            (int(array.max()) + 1 if array.size else 1) + data.draw(st.integers(0, 2))
            for array in arrays
        )
        base = np.arange(math.prod(base_shape), dtype=np.float64).reshape(base_shape)
        emitter = self._emitter()
        operand = _Val("base", base_shape, np.zeros(()))
        value = emitter._emit_gather(operand, emitter._index_map(operand, arrays))
        namespace = _run_printed(emitter, {"_np": np, "base": base, **emitter.constants})
        got = eval(value.code, namespace)

        want = base[tuple(np.broadcast_arrays(*arrays))]
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        # A positive-step progression, read off the flat index itself.
        flat = np.ravel_multi_index(np.broadcast_arrays(*arrays), base_shape).reshape(-1)
        steps = set(np.diff(flat).tolist())
        progression = flat.size == 1 or flat.size > 1 and len(steps) == 1 and steps.pop() >= 1
        assert ("_np.take(" in value.code or "_np.take(" in "".join(emitter.lines)) != progression
        assert emitter.report["slice_gathers"] == progression


#: Values a convolution window must carry through a take byte for byte.
_WINDOW_SPECIALS = (0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-40)


@st.composite
def _conv_window(draw):
    """``(base, view, shape, weights, spec)``: a convolution's window
    :func:`_affine_view` of a padded ``(C, H, W)`` base — standard
    (``oy, ox, c, ky, kx``) or depthwise (``c, oy, ox, ky, kx``) — and
    the weights it contracts with, in f32 or f64, holding signed zeros,
    NaNs, infinities and subnormals."""
    channels = draw(st.integers(1, 64), label="C")
    kernel = draw(st.integers(1, 7), label="K")
    stride = draw(st.integers(1, 2), label="stride")
    out = draw(st.integers(1, 5), label="out")
    offset = draw(st.integers(0, 1), label="offset")
    slack = draw(st.integers(0, 2), label="slack")
    depthwise = draw(st.booleans(), label="depthwise")
    dtype = draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
    side = offset + stride * (out - 1) + kernel + slack
    base = rng.standard_normal((channels, side, side))
    sprinkled = rng.random(base.shape) < 0.1
    base[sprinkled] = rng.choice(_WINDOW_SPECIALS, size=int(sprinkled.sum()))
    base = base.astype(dtype)
    if depthwise:
        coeffs = ((1, 0, 0, 0, 0), (0, stride, 0, 1, 0), (0, 0, stride, 0, 1))
        shape = (channels, out, out, kernel, kernel)
        weights, spec = (channels, kernel, kernel), "abc,adebc->ade"
    else:
        coeffs = ((0, 0, 1, 0, 0), (stride, 0, 0, 1, 0), (0, stride, 0, 0, 1))
        shape = (out, out, channels, kernel, kernel)
        weights = (draw(st.integers(1, 8), label="Cout"), channels, kernel, kernel)
        spec = "abcd,efbcd->aef"
    view = ((0, offset, offset), coeffs)
    return base, view, shape, rng.standard_normal(weights).astype(dtype), spec


class TestWindowTakes:
    """A contraction operand that is a short-run window view prints as a
    take through its flat index constant, and hands ``_contract`` the
    bytes the view's ``reshape`` copy did; DCT's blocks and 1x1 views
    keep the view."""

    @given(window=_conv_window())
    @settings(max_examples=300, deadline=None)
    def test_take_equals_the_view_copy(self, window):
        from types import SimpleNamespace

        from repro.codegen.emitter import WINDOW_RUN, _copy_run, _matrix_shape, _Val
        from repro.srdfg.interpreter import _affine_view, _contract, _contraction_steps

        base, view, shape, weights, spec = window
        steps = _contraction_steps(spec, (weights.shape, shape))
        matrix = _matrix_shape(steps, 2, 1)
        emitter = KernelEmitter(SimpleNamespace(steps=[]))
        operand = _Val("base", base.shape, np.zeros((), dtype=base.dtype))
        taken = emitter._window_take(operand, view, shape, matrix)
        windowed = _affine_view(base, *view, shape)
        strides = [stride // base.itemsize for stride in windowed.strides]
        copies = matrix is not None and not np.may_share_memory(windowed.reshape(matrix), base)
        assert (taken is not None) == (copies and _copy_run(shape, strides) <= WINDOW_RUN)
        event(f"window take: {taken is not None}")
        if taken is None:
            return
        assert re.fullmatch(r"_t1 = _np\.take\(base\.reshape\(-1\), _c1\)\.reshape\(.*\)",
                            emitter.lines[-1].strip())
        got = _run_printed(emitter, {"_np": np, "base": base, **emitter.constants})[taken.code]
        assert got.shape == shape and got.flags.c_contiguous
        assert got.reshape(matrix).tobytes() == windowed.reshape(matrix).tobytes()
        with np.errstate(all="ignore"):
            want = np.asarray(_contract(steps, (weights, windowed)))
            result = np.asarray(_contract(steps, (weights, got)))
        assert (result.dtype, result.shape) == (want.dtype, want.shape)
        assert result.tobytes() == want.tobytes()

    def test_only_a_reshaped_matmul_side_is_a_matrix(self):
        """The take stands in for the copy ``reshape`` makes before a
        matmul; a side ``c_einsum`` rewrites first, or a step with no
        matmul, has no such copy."""
        from repro.codegen.emitter import _matrix_shape

        lowering = ("ab->ba", None, (4, 3), (3, 5), None, None, False)
        steps = (((1, 0), "ba,bc->ac", lowering),)
        assert _matrix_shape(steps, 2, 0) == (3, 5)
        assert _matrix_shape(steps, 2, 1) is None
        assert _matrix_shape((((1, 0), "ab,b->a", None),), 2, 1) is None
        # Operand 2 meets the first step's result in the second step.
        later = (((0, 0), "ab,b->a", None), ((1, 0), "a,ac->c", lowering))
        assert _matrix_shape(later, 3, 2) == (3, 5)
        assert _matrix_shape(later, 3, 0) is None

    def test_window_whose_reshape_is_a_view_keeps_it(self):
        """A 1x1 window over a 2x2 plane is the plane itself: ``reshape``
        copies nothing, so there is no copy for a take to replace."""
        from types import SimpleNamespace

        from repro.codegen.emitter import _Val

        emitter = KernelEmitter(SimpleNamespace(steps=[]))
        view = ((0, 0, 0), ((1, 0, 0, 0, 0), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)))
        operand = _Val("base", (1, 2, 2), np.zeros(()))
        assert emitter._window_take(operand, view, (1, 2, 2, 1, 1), (1, 4, 1)) is None
        assert emitter.lines == [] and emitter.constants == {}

    @pytest.mark.parametrize("name, taken, kept", [
        ("ResNet-18", 0, 20), ("MobileNet", 8, 1), ("DCT-1024", 0, 1), ("DCT-2048", 0, 1),
    ])
    def test_rule_per_paper_program(self, name, taken, kept):
        """MobileNet's depthwise 3x3 windows are taken (one take per
        distinct base). ResNet-18's 3x3 windows and MobileNet's first,
        which their swapped matmuls transpose by ``c_einsum`` first,
        ResNet-18's three 1x1 shortcut views and DCT's 8x8 blocks (its
        first contraction) keep ``_affine_view``."""
        source = _ledger_kernel(name).source
        windows = re.findall(r"_np\.take\(_v\d+\.reshape\(-1\), _c\d+\)\.reshape\(\((.*?)\)\)",
                             source)
        assert len(windows) == taken
        assert all(shape.endswith("3, 3") for shape in windows)
        assert source.count("_affine_view(") == kept


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
        kept = _arrays(inputs, params, state, kernel.constants)
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
        rng = np.random.default_rng(37)
        self._check_no_aliasing(
            plan.kernel, {}, {}, {"W": _int_floats(rng, (4, 3))}
        )

    def test_movielens_kernel_releases_results_after_their_last_reader(self):
        """The structural form of the memory claim (an RSS assertion
        would flake): MovieL-100K's 12.7 MB statement results live from
        their store to their last reader, in no buffer the kernel keeps."""
        from repro.workloads import get_workload

        session = CompilerSession()
        app, _ = session.compile_workload(get_workload("MovieL-100K"))
        kernel = session.plan_for(app, codegen=True).kernel
        # pred, err, gw and gh are released once their last reader ran.
        assert len(re.findall(r"^ +del .*_v", kernel.source, re.M)) >= 4


#: :data:`REPORT_COUNTERS` of the 17 ledger programs' kernels. The first
#: five are literals of the commit before the emitter
#: became the reference evaluator run over symbolic operands, but for the
#: DCT and conv statements: contractions over affine subscripts
#: (``img[by*8+x]``, ``x[ic][oy*s+ky][ox*s+kx]``) dispatch to einsum over
#: a strided view, so they left ``gathers`` (and the deleted ``blocked``
#: column) for ``einsum``, and DCT-2048's over-limit stencil no longer
#: chunks; for the three statements elementwise inlining used to fold
#: into their consumer (MobileRobot, Hexacopter, BrainStimul), each now
#: one gather fewer; and for the eight statements that used to fall back
#: (the graph programs' data-dependent predicate, DigitCluster's and
#: ElecUse's ``argmin``, the FFTs' and BrainStimul's bit-reversal copy
#: ``sig[br[t]]``), each now specialized. Since a kernel is the whole
#: plan or none, the ``specialized`` (always ``statements``) and
#: ``fallback`` (always 0) columns are gone.
#: Since static stores and gathers were decided by their subscripts, the
#: 11 gathers that are positive-step progressions (MobileRobot 3,
#: Hexacopter 5, BrainStimul 3) left ``gathers`` (the ``np.take``s) for
#: ``slice_gathers``, and the 35 stores that scattered left for
#: ``slice_stores``: no program scatters. Since a kernel moves each value
#: once, ``gathers`` counts the takes printed, one per (SSA base, index
#: constant), and ``gathers_shared`` the gathers that read one of them
#: (FFT-8192 130 = 78 + 52, FFT-16384 140 = 84 + 56, BrainStimul 120 =
#: 72 + 48); ElecUse's and DigitCluster's ``X[i][j]-C[c][j]`` is staged
#: once (``subexpressions_shared``). Since short sums fold slice by slice,
#: ElecUse's ``dsq`` is its one ``short_sums`` statement: four slices,
#: each staging ``X[i][j]-C[c][j]`` once (``subexpressions_shared`` 4)
#: through two column slices (``slice_gathers`` 8). Since a predicate over
#: a read-only param runs on its true points, each graph program's
#: ``relax`` is its one ``compressed`` reduction. A short-run 3x3
#: convolution window that a matmul would copy through ``reshape`` is one
#: of ``gathers``: MobileNet's 8 depthwise windows. Since a transposed
#: matmul takes its terms swapped, ResNet-18's windows and MobileNet's
#: first one are transposed by ``c_einsum`` before ``reshape`` copies them
#: in runs along ``w``, so no take stands in for that copy.
REPORT_COUNTERS = (
    "statements", "einsum", "gathers", "gathers_shared",
    "subexpressions_shared", "short_sums", "compressed", "slice_gathers",
    "slice_stores", "scatters",
)
LEDGER_REPORTS = {
    "MobileRobot": (9, 4, 0, 0, 0, 0, 0, 3, 2, 0),
    "Hexacopter": (12, 4, 0, 0, 0, 0, 0, 5, 5, 0),
    "Twitter-BFS": (3, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    "Wiki-BFS": (3, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    "LiveJourn-SSP": (3, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    "MovieL-20M": (7, 4, 0, 0, 0, 0, 0, 0, 0, 0),
    "MovieL-100K": (7, 4, 0, 0, 0, 0, 0, 0, 0, 0),
    "DigitCluster": (7, 3, 0, 0, 1, 0, 0, 0, 0, 0),
    "ElecUse": (7, 3, 0, 0, 4, 1, 0, 8, 0, 0),
    "FFT-8192": (30, 0, 78, 52, 0, 0, 0, 0, 0, 0),
    "FFT-16384": (32, 0, 84, 56, 0, 0, 0, 0, 0, 0),
    "DCT-1024": (2, 2, 0, 0, 0, 0, 0, 0, 0, 0),
    "DCT-2048": (2, 2, 0, 0, 0, 0, 0, 0, 0, 0),
    "ResNet-18": (56, 22, 0, 0, 0, 0, 0, 0, 17, 0),
    "MobileNet": (45, 19, 8, 0, 0, 0, 0, 0, 9, 0),
    "BrainStimul": (39, 5, 72, 48, 0, 0, 0, 3, 2, 0),
    "OptionPricing": (5, 1, 0, 0, 0, 0, 0, 0, 0, 0),
}


@functools.lru_cache(maxsize=None)
def _ledger_plan(name):
    """``(workload, plan)`` of ledger program *name*, its kernel attached,
    built once per test run."""
    from repro.eval import Harness

    harness = Harness()
    workload, app, _ = harness.compiled(name)
    return workload, harness.session.plan_for(app, codegen=True)


def _ledger_kernel(name):
    return _ledger_plan(name)[1].kernel


#: sha256 of each ledger program's kernel source, and of its array
#: constants (name, dtype, shape and bytes, in registration order) —
#: literals of the commit whose kernels move each value once: a take per
#: (SSA base, index constant), without ``out=``, and repeated
#: subexpressions staged once; ElecUse's of the commit whose short sums
#: fold slice by slice; the three graph programs' of the commit whose
#: predicates over read-only params run on their true points (``relax``
#: prints the memo lookup, the argument at the points and ``reduceat``),
#: re-taken when a one-index gather at the points became ``np.take``;
#: LiveJourn-SSP's of the commit whose point branch reads ``w[u][v]``
#: from ``Points.taken``; ResNet-18's and MobileNet's of the one whose
#: matmuls einsum would transpose take their terms swapped (their windows'
#: takes and index constants went with it).
#: The source changes by design;
#: :data:`OUTPUT_DIGESTS` pins what it computes.
KERNEL_DIGESTS = {
    "MobileRobot": (
        "6c939c6ac5ef81df366d8581828f75bf9e938f5e72469584fcd9ce558c87dd49",
        "1ab33432bc6219fdf74a78be0066ea74bf19215d30b79f4d480a521a124acf3d",
    ),
    "Hexacopter": (
        "65ce6496a638307911e1ec24f1abef4803d49882f97c0c89055354a7adc20739",
        "4bccfdeff6542eaa2787dc230c0a740ff791e2671f6f4c53090f5ce57d2bc05b",
    ),
    "Twitter-BFS": (
        "d5839e4a8cc17d1f5308d88a8eea4b1f17b4da7029034158d65b0271c36894e1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "Wiki-BFS": (
        "d10b929f2d1f7746752b03784c3b57874ebe2c1796ac5c3f4cc149b88d06809b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "LiveJourn-SSP": (
        "4773462bd4dc2ac6d397d68c5cce46d25c338b40290e819d25a240850809038a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "MovieL-20M": (
        "db501e933121ebc596bd6aea423ddc8d376ae3e02825badfd0180d649036b889",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "MovieL-100K": (
        "21e93bccb0299d7d061ff1df339da5f35592da4a8d37d0ad8e58aa7b6d4f82ce",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "DigitCluster": (
        "32130a4f684d51d52d64ff7e01fc8181567c67cdb3d9ed56b08d5b29248ad210",
        "6e6f799c117f4228d21501bfeebbd7b016c2c646e7e10073d576ef83d9951d95",
    ),
    "ElecUse": (
        "207b5ded8ea33f93700ba0fc4090109e7e50cff46f8c423bfe5e14c647c7404f",
        "99c71331694394815895e82a233c0f836a75eaa5c16788316c16bbc8797504d7",
    ),
    "FFT-8192": (
        "45758ffa8c6c3eb3f044b46ed4a24e15bd1163a33e62a3c6559a6344bd07bb08",
        "e2f823bd4254d98dfa956b5e446ef03f0d2794ca1668e2bdb354307e75e65bc6",
    ),
    "FFT-16384": (
        "6499869f7a1d4387b4510de45e9707ca5b5e15c78da80a84e54586809e5b4780",
        "f501962719de04ca11cb92ed4957a6c90c89fa941c0ca572843d1c4b8e8717e3",
    ),
    "DCT-1024": (
        "0e681653b4bb5a9596ef418f438565bb0e92da52e276c0d4e5b6c0ddeabb3fd4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "DCT-2048": (
        "9bb68fd4cdd4bf97faabfe8d902aebb54a8959144186498d0ca7833518cbd6a6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "ResNet-18": (
        "ce1ffcdd5094874d28202382d779ae2acfb059b7b1508b7f31f81318efe925c8",
        "3182a0ab9442c52b4a41838439f6094bf91a61597cda06887d2350784ba22d87",
    ),
    "MobileNet": (
        "d3772ab4db5cd96617dba384013cee5fba4d81c02f118879955d599e75f72f79",
        "8c0ee4542f6104858a9a780101db07cbde2a2e6b5e01de8313ab7e81ea4131a7",
    ),
    "BrainStimul": (
        "1568e22bb3e3bc6785147b5fa529920faaa99a934978c7d5cf4815962c266482",
        "401d6f2b9e24f2b56b59cf4f68ffdc56945301a36f2961ad85353ae403c4eeb5",
    ),
    "OptionPricing": (
        "04f2e9bc6dc19b686ca4b534fdcd0b437b626e87dd1fe6b0829e4e16df5d9651",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


def _kernel_digests(kernel):
    source = hashlib.sha256(kernel.source.encode()).hexdigest()
    arrays = hashlib.sha256()
    for name, value in kernel.constants.items():
        if isinstance(value, np.ndarray):
            arrays.update(f"{name}:{value.dtype}:{value.shape}:".encode())
            arrays.update(np.ascontiguousarray(value).tobytes())
    return source, arrays.hexdigest()


#: sha256 of each ledger program's outputs and state over a 3-step
#: kernel-tier trajectory (kind, name, dtype, shape and bytes, names
#: sorted) — literals of the commit before kernels addressed memory with
#: slices, whose stores scattered and whose gathers all took: however
#: the kernel is printed, not a byte it computes may move. Taken under
#: the ledger's ``PINNED_ENV`` (single-thread BLAS): DigitCluster,
#: ElecUse and both MovieLens programs were re-taken in that env at the
#: commit before short sums folded slice by slice, since their matmuls
#: round differently with more OpenBLAS threads. MovieL-100K's was
#: re-taken when a matmul einsum would transpose began to take its terms
#: swapped: a contraction's bytes are those of the form the plan chose, and
#: its ``pred`` product now runs as ``U @ V`` instead of ``(V.T @ U.T).T``.
OUTPUT_DIGESTS = {
    "MobileRobot": "74e0ffd992f0d6c94edf35c102f62695498bc4cf1dc08d0ba11db362f96c2cfd",
    "Hexacopter": "8ad7fbbeac94336ea2ddc22a007c607ac30dd66044d93b3f2184735e719f9461",
    "Twitter-BFS": "003ec710bb041a9481029db16f0e17b8ff0f4b0e853330b09fce279631ab88b8",
    "Wiki-BFS": "fe1a4005b689bc7a2126c7c38dcd2b0339379028d9a435213283162687868e75",
    "LiveJourn-SSP": "6e2abe2f410440329295cf46062b9fd3dffc3c1366d1c75a6f15fa8c66821f3f",
    "MovieL-20M": "312a63a9fe278638b5abda8e1242a19bab9172dbae7b960f71f38c73bd9a28ce",
    "MovieL-100K": "38f06058d8127d5b094cbdbc926b989781b7c2e2d34c19e97227e177c79c4d68",
    "DigitCluster": "809081b13f4a1f7318dcf87c10cf86c90b23c9638f72809054703bcef89d4275",
    "ElecUse": "1afbfdf44c2ada57e1d3c701ea92cbe65cd9828e4fc69c07b02dba71ce665e31",
    "FFT-8192": "a437796a87eaeb7f545e6b8a610d49e96a30e03837ef29b251d6a90386c28e8c",
    "FFT-16384": "63f077103f5663039b0bf3a842f4055b4003a498d070a138094ee317fe7036d8",
    "DCT-1024": "956a6890eb6d3ca9b9e403629798be0eb7f171721f86513f82bd6e6ac3c4de4a",
    "DCT-2048": "eb1f4b7eacd4bcc27d2736dfe56bb1e203ed868b5b5ca8965b7a64baaa79cafa",
    "ResNet-18": "921ca5ff7f43fb7ac783211a7cf26ecf05dd58cfeee5a58e72b6d29ae47557bd",
    "MobileNet": "92b9f4dedd57e3c4123839a87d1ef9c7f10f7de773995a430f5048bf41ce9a1c",
    "BrainStimul": "f34055b8dad6fbedfe44c9f338abde05a19d1d7c59c79e3b2f59fc4c80dea95c",
    "OptionPricing": "f66d2bfc2206276a2939e8698b587a1c07d54379d0511ebd07e6d194b0e28d0f",
}


def _trajectory_digest(name):
    from repro.workloads import Trajectory

    workload, plan = _ledger_plan(name)

    def kernel(**call):
        result = plan.kernel.try_execute(plan, **call)
        assert result is not None and result.tier == "kernel"
        return result

    trajectory = Trajectory(workload)
    digest = hashlib.sha256()
    for _ in range(3):
        result = trajectory.step(kernel)
        for kind, values in (("output", result.outputs), ("state", result.state)):
            for key in sorted(values):
                value = np.asarray(values[key])
                digest.update(f"{kind}:{key}:{value.dtype}:{value.shape}:".encode())
                digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Prints :func:`_trajectory_digest` of every :data:`OUTPUT_DIGESTS`
#: program as one JSON object; argv names the directories to import from.
_DIGESTS_SCRIPT = (
    "import json, sys\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import test_codegen as t\n"
    "print(json.dumps({n: t._trajectory_digest(n) for n in sorted(t.OUTPUT_DIGESTS)}))\n"
)


def pinned_env():
    """This environment under the ledger's ``PINNED_ENV``, without
    ``PYTHONPATH``: what a child computing :data:`OUTPUT_DIGESTS` runs in."""
    loader = importlib.util.spec_from_file_location(
        "_ledger_spec", ROOT / "benchmarks" / "ledger" / "spec.py"
    )
    spec = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spec)
    env = {**os.environ, **spec.PINNED_ENV}
    env.pop("PYTHONPATH", None)
    return env


@functools.lru_cache(maxsize=None)
def _pinned_trajectory_digests():
    """:func:`_trajectory_digest` of every program, computed in one child
    started with the ledger's ``PINNED_ENV``: OpenBLAS's thread count
    moves the f64 bytes of some contractions, so the pins must not
    depend on the host's core count or this process's environment."""
    completed = subprocess.run(
        [sys.executable, "-c", _DIGESTS_SCRIPT, str(ROOT / "src"), str(ROOT / "tests")],
        env=pinned_env(), capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_ledger_kernel_outputs_are_pinned(name):
    assert _pinned_trajectory_digests()[name] == OUTPUT_DIGESTS[name]


@pytest.mark.parametrize("name", ["Twitter-BFS", "Wiki-BFS", "LiveJourn-SSP"])
def test_graph_kernels_relax_on_points_without_fallback(name):
    """20 steps of each graph program run on its kernel (a broken point
    reduction raises: nothing re-runs it interpreted), and ``relax``
    holds the points of the workload's own adjacency."""
    from repro.workloads import Trajectory

    workload, plan = _ledger_plan(name)
    trajectory = Trajectory(workload)
    for _ in range(20):
        result = trajectory.step(lambda **call: plan.kernel.try_execute(plan, **call))
        assert result.tier == "kernel"
    relax = next(statement for label, statement in plan.iter_statements()
                 if label.startswith("relax"))
    refs, _, points = relax.compressed[0]._memo
    assert refs[0]() is workload.shared_params()["adj"] and points is not None
    # SSSP's ``w[u][v]`` was gathered with the points; BFS reads no param.
    weights = workload.shared_params().get("w")
    if weights is None:
        assert points.taken == ()
        return
    [taken] = points.taken
    assert refs[1]() is weights and not taken.flags.writeable
    assert taken.tobytes() == weights[points.coords["u"], points.coords["v"]].tobytes()
    assert "_t1.taken[0]" in plan.kernel.source


#: A short sum whose first slice prints a take of an int operand
#: (``k[7 - i][j]`` walks back, so it is no slice) and registers its
#: index map, then reads ``x`` through a subscript known only at run time:
#: the fold is taken back, and the lattice path prints the sum.
TAKEN_BACK_AFTER_A_GATHER = (
    "main(input int k[8][4], input float x[8][4], input int idx[4],"
    " output float y[8]) {"
    " index i[0:7], j[0:3];"
    " y[i] = sum[j](k[7 - i][j] + x[i][idx[j]]); }"
)


def _taken_back_inputs(seed):
    rng = np.random.default_rng(seed)
    return {
        "k": rng.integers(-6, 7, size=(8, 4)),
        "x": _int_floats(rng, (8, 4)),
        "idx": rng.integers(0, 4, size=4),
    }


class TestKernelNamespace:
    """Every constant a kernel carries is one its source names: a fold
    taken back leaves none behind, and a store registers none it does not
    print."""

    @staticmethod
    def _assert_all_referenced(kernel):
        for name in kernel.constants:
            assert re.search(rf"\b{name}\b", kernel.source), name

    @pytest.mark.parametrize("name", sorted(LEDGER_REPORTS))
    def test_ledger_programs(self, name):
        self._assert_all_referenced(_ledger_kernel(name))

    def test_declined_statement_rolls_back(self):
        session, plan = _compile_plan(TAKEN_BACK_AFTER_A_GATHER)
        kernel = plan.kernel
        assert kernel.report["short_sums"] == 0
        # The take-back restored the report: only the lattice's take counts.
        assert kernel.report["gathers"] == 1
        self._assert_all_referenced(kernel)
        assert kernel.source.count("_np.take(") == 1
        assert "_np.sum(" in kernel.source
        inputs = _taken_back_inputs(41)
        ref = plan._execute(inputs, {}, {}, {}, None)
        outputs, _ = kernel.run(inputs)
        assert np.array_equal(outputs["y"], ref.outputs["y"])


#: ``y``'s fold maps ``k[7 - i][j]`` on its first slice and is taken
#: back; its lattice path registers a constant of its own, under the name
#: the taken-back map had. ``z``'s fold, over the same lattice, maps the
#: same slice after the rollback.
MEMO_AFTER_A_TAKE_BACK = (
    "main(input int k[8][4], input float x[8][4], input int idx[4],"
    " output float y[8], output float z[8]) {"
    " index i[0:7], j[0:3];"
    " y[i] = sum[j](k[7 - i][j] + x[i][idx[j]]);"
    " z[i] = y[i] + sum[j](k[7 - i][j] + x[i][j]); }"
)


class TestIndexMapMemo:
    """A kernel build evaluates, ravels and hashes each distinct static
    index map once; a repeat reuses the constant, byte for byte."""

    @pytest.mark.parametrize("name", sorted(KERNEL_DIGESTS))
    def test_ledger_kernels_are_byte_identical(self, name):
        assert _kernel_digests(_ledger_kernel(name)) == KERNEL_DIGESTS[name]

    def test_fft_ravels_each_index_map_once(self, monkeypatch):
        """FFT-8192's 130 gathers print 78 takes, one per (base, index
        constant), through 38 distinct index constants. Its build ravels
        39 maps: ``twr[t % 4096]`` and ``xr[t - t % 8192 + t % 4096]``
        (last stage) are different subscripts over different bases whose
        maps happen to be equal, so no structural key can tell; the
        content digest still shares one constant between them."""
        from repro.eval import Harness

        harness = Harness()
        _, app, _ = harness.compiled("FFT-8192")
        plan = harness.session.plan_for(app)
        raveled = []
        ravel = np.ravel_multi_index

        def counting(*args, **kwargs):
            raveled.append(args[1])
            return ravel(*args, **kwargs)

        monkeypatch.setattr(np, "ravel_multi_index", counting)
        kernel = build_kernel(plan)
        assert kernel.report["gathers"] == 78
        assert kernel.report["gathers"] + kernel.report["gathers_shared"] == 130
        assert len(raveled) == 39
        taken = re.findall(r"_np\.take\((\w+), (_c\d+)\)", kernel.source)
        assert len(taken) == len(set(taken)) == 78
        assert len({constant for _, constant in taken}) == 38

    def test_declined_statement_leaves_no_index_map(self):
        """The rollback of a fold taken back drops the index maps whose
        constant it removed: a later repeat of the map rebuilds it
        instead of printing a name the kernel defines as another map."""
        session, plan = _compile_plan(MEMO_AFTER_A_TAKE_BACK)
        emitter = KernelEmitter(plan)
        emitted = emitter.emit()
        # ``z`` folds, ``y`` was taken back: its lattice take, z's four.
        assert (emitted.report["short_sums"], emitted.report["gathers"]) == (1, 5)
        assert emitter._index_maps
        for constant, shape in emitter._index_maps.values():
            if ":" not in constant:
                assert emitted.constants[constant].size == math.prod(shape)
        for name in set(re.findall(r"\b_c\d+\b", emitted.source)):
            assert name in emitted.constants, name
        inputs = _taken_back_inputs(43)
        ref = plan._execute(inputs, {}, {}, {}, None)
        outputs, _ = plan.kernel.run(inputs)
        for name in ("y", "z"):
            assert np.array_equal(outputs[name], ref.outputs[name]), name


def _takes(kernel):
    """``(temp, base, index constant)`` of every take the kernel prints."""
    return re.findall(
        r"(_t\d+) = _np\.take\((\w+)(?:\.reshape\(-1\))?, (_c\d+)\)", kernel.source
    )


def _check_steps(plan, inputs, state=None, steps=3):
    """Step the kernel and the interpreted plan *steps* times, threading
    state: every output and state value bit-identical."""
    ref_state = kern_state = state or {}
    for _ in range(steps):
        ref = plan._execute(inputs, {}, ref_state, {}, None)
        got = plan.kernel.try_execute(plan, inputs, state=kern_state)
        assert got is not None
        _assert_identical(ref, got)
        ref_state, kern_state = ref.state, got.state


#: ``P`` is a transposed contraction result (``perm_ab``); *reader* is
#: its one reader.
TRANSPOSED = (
    "main(input float A[6][4], input float B[4][5], input float C[5][3],"
    " output float y[{out}]) {{"
    " index i[0:5], k[0:3], j[0:4], l[0:2]; float P[6][5];"
    " P[i][j] = sum[k](A[i][k] * B[k][j]); {reader} }}"
)


class TestValueTable:
    """A kernel computes and moves each distinct value once, and shares
    nothing where sharing could show: across an SSA update, a predicate
    mask, a contraction's operand order, an ``out=`` write or a rollback."""

    def test_a_base_updated_between_reads_is_taken_again(self):
        _, plan = _compile_plan(
            "main(input float x[8], state float s[8], output float y[8],"
            " output float z[8]) {"
            " index i[0:7]; float t[8];"
            " t[i] = x[i] * 2.0; y[i] = s[7 - i] + t[7 - i] + x[7 - i];"
            " s[i] = s[i] + x[i]; t[i] = t[i] + 1.0;"
            " z[i] = s[7 - i] + t[7 - i] + x[7 - i]; }"
        )
        report = plan.kernel.report
        # ``s`` and ``t`` are each taken before and after their update;
        # ``x[7 - i]`` is taken once and read again.
        assert (report["gathers"], report["gathers_shared"]) == (5, 1)
        bases = [base for _, base, _ in _takes(plan.kernel)]
        assert len(set(bases)) == 5
        rng = np.random.default_rng(59)
        _check_steps(plan, {"x": _int_floats(rng, 8)}, {"s": _int_floats(rng, 8)})

    def test_a_subexpression_under_a_predicate_is_not_shared(self):
        rng = np.random.default_rng(61)
        inputs = {"x": _int_floats(rng, 8), "w": _int_floats(rng, 8)}
        template = (
            "main(input float x[8], input float w[8], output float y[8]) {{"
            " index i[0:7], j[0:7]; y[i] = {value}; }}"
        )
        for value, shared in (
            # Inside the masked max, a stray subscript would clamp.
            ("(x[i] - w[i]) + max[j: j <= i](x[i] - w[i] + w[j])", 0),
            # Equal under expr_key, but 2 and 2.0 promote apart.
            ("(x[i] - 2) * (x[i] - 2.0)", 0),
            ("(x[i] - w[i]) * (x[i] - w[i])", 1),
        ):
            _, plan = _compile_plan(template.format(value=value))
            report = plan.kernel.report
            assert report["subexpressions_shared"] == shared, value
            subtracts = plan.kernel.source.count("_np.subtract(")
            assert subtracts == 2 - shared, value
            _check_steps(plan, inputs, steps=1)

    def test_a_staged_value_is_written_over_only_by_its_only_reader(self):
        _, plan = _compile_plan(
            "main(input float x[8], input float w[8], output float y[8],"
            " output float z[8], output float v[8]) {"
            " index i[0:7];"
            " y[i] = (x[i] - w[i]) * (x[i] - w[i]);"
            " z[i] = (x[i] - w[i]) + exp(x[i] - w[i]) * (x[i] - w[i]);"
            " v[i] = x[7 - i] + x[(15 - i) % 8] * x[7 - i]; }"
        )
        [y_temp, z_temp] = re.findall(r"(_t\d+) = _np\.subtract\(", plan.kernel.source)
        # Both of y's occurrences are multiply's arguments: it may write
        # over them. z's third occurrence is read after exp's.
        assert f"out=_reuse({y_temp})" in plan.kernel.source
        assert f"out=_reuse({z_temp})" not in plan.kernel.source
        # v's x[7 - i] is a take, never staged: x[(15 - i) % 8], the same
        # index constant, reads it too, and nothing writes over it.
        [(taken, _, _)] = _takes(plan.kernel)
        assert plan.kernel.report["gathers_shared"] == 2
        assert f"out=_reuse({taken})" not in plan.kernel.source
        rng = np.random.default_rng(67)
        _check_steps(plan, {"x": _int_floats(rng, 8), "w": _int_floats(rng, 8)}, steps=1)

    def test_a_node_appearing_twice_counts_twice(self):
        """A rewrite that substitutes one expression object in two places
        leaves a node twice in the tree: each appearance is a reader, so
        the staged ``x[i] - w[i]`` is not squared in place while ``exp``
        still has to read it."""
        _, plan = _compile_plan(
            "main(input float x[8], input float w[8], output float y[8]) {"
            " index i[0:7]; y[i] = (x[i] - w[i]) * (x[i] - w[i]) + exp(x[i] - w[i]); }",
            codegen=False,
        )
        [statement] = plan.statements.values()
        value = statement.stmt.value
        value.right.args = (value.left.left,)
        kernel = build_kernel(plan)
        assert "out=_reuse(_t1)" not in kernel.source
        rng = np.random.default_rng(89)
        inputs = {"x": _int_floats(rng, 8), "w": _int_floats(rng, 8)}
        ref = plan._execute(inputs, {}, {}, {}, None)
        outputs, _ = kernel.run(inputs)
        assert outputs["y"].tobytes() == ref.outputs["y"].tobytes()

    @pytest.mark.parametrize("reader, out", [
        ("y[i][l] = sum[j](P[i][j] * C[j][l]);", "6][3"),
        ("y[i][j] = P[i][j] * 2.0 + P[i][j];", "6][5"),
    ])
    def test_a_transposed_result_is_copied_into_c_order(self, reader, out):
        """A contraction reads C-ordered operands, as the interpreter
        hands them: a different layout can take BLAS another path. So
        ``P``, held transposed, is copied by its store whoever reads it."""
        _, plan = _compile_plan(TRANSPOSED.format(reader=reader, out=out))
        [store] = [line.strip() for line in plan.kernel.source.splitlines()
                   if re.match(r"\s+_v\d+ = .*\.reshape\(\(6, 5\)\)$", line)
                   and "multiply" not in line]
        assert "ascontiguousarray" in store
        rng = np.random.default_rng(71)
        inputs = {
            name: _int_floats(rng, shape)
            for name, shape in (("A", (6, 4)), ("B", (4, 5)), ("C", (5, 3)))
        }
        _check_steps(plan, inputs, steps=1)

    def test_a_take_of_another_shape_is_taken_again(self):
        """``x[7 - i]`` ravels to one index constant under ``s``'s
        lattice, of shape (8,), and under ``z``'s, of shape (8, 1): the
        second is another value, so it is taken again."""
        _, plan = _compile_plan(
            "main(input float x[8], input float w[8], output float s,"
            " output float z[8][8]) { index i[0:7], j[0:7];"
            " s = max[i](x[7 - i]); z[i][j] = x[7 - i] + w[j]; }"
        )
        [(_, _, constant), (_, _, again)] = _takes(plan.kernel)
        assert constant == again
        assert plan.kernel.report["gathers_shared"] == 0
        rng = np.random.default_rng(97)
        _check_steps(plan, {"x": _int_floats(rng, 8), "w": _int_floats(rng, 8)}, steps=1)

    @pytest.mark.parametrize("first", ["x[7 - i] + 1.0", "x[7 - i]"])
    def test_a_take_is_never_written_over_or_bound(self, first):
        """``x[7 - i]`` and ``x[(15 - i) % 8]`` are no structural repeat,
        but their index constants are one: ``z`` reads ``y``'s take, so
        ``y`` neither writes its sum over it nor binds it as its result."""
        _, plan = _compile_plan(
            "main(input float x[8], output float y[8], output float z[8]) {"
            f" index i[0:7]; y[i] = {first}; z[i] = x[(15 - i) % 8] * 2.0; }}"
        )
        [(taken, _, _)] = _takes(plan.kernel)
        assert plan.kernel.report["gathers_shared"] == 1
        assert f"out=_reuse({taken})" not in plan.kernel.source
        assert f"_np.ascontiguousarray({taken})" not in plan.kernel.source
        rng = np.random.default_rng(79)
        _check_steps(plan, {"x": _int_floats(rng, 8)}, steps=1)

    def test_a_declined_statement_drops_the_takes_it_printed(self):
        """``y``'s fold, on its first slice, reads ``w``'s take of
        ``k[7 - i][0]``, takes ``x`` through the index constant ``w``
        registered for it (``x[7 - i][j]`` at ``j = 0``), and is taken back
        on ``x[i][idx[j]]``: the rollback keeps the first take and drops
        the second, so ``z``'s fold reads one and takes the other again."""
        session, plan = _compile_plan(
            "main(input int k[8][4], input float x[8][4], input int idx[4],"
            " output float w[8], output float y[8], output float z[8]) {"
            " index i[0:7], j[0:3];"
            " w[i] = max[j](k[7 - i][0] * k[7 - i][j]);"
            " y[i] = w[i] + sum[j](k[7 - i][0] + x[7 - i][j] + x[i][idx[j]]);"
            " z[i] = y[i] + sum[j](k[7 - i][0] + x[7 - i][j]); }"
        )
        report = plan.kernel.report
        # Only ``z`` folds; the take-back restored the report.
        assert report["short_sums"] == 1
        assert (report["gathers"], report["gathers_shared"]) == (7, 5)
        takes = _takes(plan.kernel)
        assert [base for _, base, _ in takes] == ["_v0", "_v0"] + ["_v1"] * 5
        assert takes[3][2] == takes[0][2]
        # Bound by a line or inside one (``out=`` writes over a temp).
        defined = set(re.findall(r"(?:^\s+|\()(_t\d+) :?= ", plan.kernel.source, re.M))
        assert set(re.findall(r"\b_t\d+\b", plan.kernel.source)) == defined
        _check_steps(plan, _taken_back_inputs(83), steps=1)

    def test_steady_step_peak_memory(self):
        """ElecUse's ``X[i][j]-C[c][j]`` lattice (7.7 MB) is computed once
        and squared in place, so its steady step peaks one lattice lower
        than when it was computed twice (15,492,416 traced bytes, the
        literal of the commit before subexpressions were staged).
        MovieL-100K's holds at 25,378,888 bytes, before and after: ``err``
        needs ``pred`` and its own result at once, two 12.7 MB arrays."""
        import tracemalloc

        from repro.workloads import Trajectory

        def peak(name):
            workload, plan = _ledger_plan(name)
            calls = []

            def kernel(**call):
                calls.append(call)
                return plan.kernel.try_execute(plan, **call)

            trajectory = Trajectory(workload)
            for _ in range(2):
                trajectory.step(kernel)
            tracemalloc.start()
            try:
                plan.kernel.run(**calls[-1])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak("ElecUse") < 15_492_416 - 5_000_000
        # Python's own small objects move the peak by some bytes a run.
        assert peak("MovieL-100K") < 25_378_888 + 4096

    @pytest.mark.parametrize("name", sorted(LEDGER_REPORTS))
    def test_ledger_kernels_hold_no_buffer(self, name):
        source = _ledger_kernel(name).source
        assert source.startswith("def _kernel(_inputs, _params, _state, _output_init):")
        assert not re.search(r"\b_[SA]\b", source)
        takes = re.findall(r"_np\.take\([^)]*\)", source)
        # A take at a reduction's points reads the points' coordinates
        # (the graph programs' one, ``dist`` at the edges' sources); every
        # other take goes through an index constant, one per gather.
        at_points = [take for take in takes if ".coords[" in take]
        counts = dict(zip(REPORT_COUNTERS, LEDGER_REPORTS[name]))
        assert len(at_points) == counts["compressed"]
        assert len(takes) - len(at_points) == counts["gathers"]
        assert not any("out=" in take for take in takes)


class TestStagedEvaluator:
    """The emitter is ``_ExprEvaluator`` staged, not a second walker."""

    @pytest.mark.parametrize("name", sorted(LEDGER_REPORTS))
    def test_ledger_program_reports_unchanged(self, name):
        report = _ledger_kernel(name).report
        counters = tuple(report[key] for key in REPORT_COUNTERS)
        assert counters == LEDGER_REPORTS[name]
        assert set(report) == set(REPORT_COUNTERS)

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
        # One dispatch so far: the emitter's, printed into the kernel as a
        # replay of the steps it planned.
        [einsum] = dispatched
        assert einsum.spec == "ab,b->a"
        assert plan.kernel.report["einsum"] == 1
        [steps] = [
            name for name, value in plan.kernel.constants.items()
            if value == einsum.steps
        ]
        assert f"_contract({steps}, (" in plan.kernel.source
        assert "einsum(" not in plan.kernel.source
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

    @pytest.mark.parametrize("name", sorted(
        name for name, report in LEDGER_REPORTS.items()
        if report[REPORT_COUNTERS.index("einsum")]
    ))
    def test_contractions_are_planned_once(self, name, monkeypatch):
        """After plan build and one warm step, neither tier asks numpy to
        plan a contraction again: both replay the planned steps."""
        from repro.eval import Harness
        from repro.workloads import Trajectory

        harness = Harness()
        workload, app, _ = harness.compiled(name)
        plan = harness.session.plan_for(app, codegen=True)
        assert "optimize=" not in plan.kernel.source

        def kernel(**call):
            result = plan.kernel.try_execute(plan, **call)
            assert result is not None and result.tier == "kernel"
            return result

        def interpreted(**call):
            result = plan.execute(trace=[], **call)
            assert result.tier == "interpreted"
            return result

        trajectories = {
            tier: Trajectory(workload) for tier in (kernel, interpreted)
        }
        for tier, trajectory in trajectories.items():
            trajectory.step(tier)

        def planning(*args, **kwargs):
            raise AssertionError("a contraction was planned at run time")

        monkeypatch.setattr(np, "einsum_path", planning)
        monkeypatch.setattr(np, "einsum", planning)
        for tier, trajectory in trajectories.items():
            trajectory.step(tier)


@functools.lru_cache(maxsize=None)
def _plan_of(source):
    return _compile_plan(source)[1]


def _predicated_by_data(op):
    """*op* under a predicate that reads the run-time operand ``m``."""
    if op in ("min", "max"):
        # Two predicated bound indices: their masks combine.
        body = f"{op}[u: m[u][v] > 0.0][w: z[w] >= x[u]](x[u] + z[w])"
    else:  # argmin / argmax bind a single index
        body = f"{op}[u: m[u][v] > 0.0](x[u] + z[v])"
    return (
        "main(input float m[6][5], input float x[6], input float z[5],"
        " output float y[5]) {"
        f" index u[0:5], v[0:4], w[0:4]; y[v] = {body}; }}"
    )


def _specials(shape):
    """Arrays of signed zeros, NaN, infinities and a few plain values."""
    values = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0])
    size = int(np.prod(shape))
    return st.lists(values, min_size=size, max_size=size).map(
        lambda drawn: np.array(drawn).reshape(shape)
    )


class TestRunTimeValues:
    """Predicates and subscripts known only at run time are printed:
    the kernel computes the mask, rounds, range-checks and gathers
    through the interpreter's own calls."""

    @pytest.mark.parametrize("op", ["min", "max", "argmin", "argmax"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_data_dependent_predicate_is_byte_identical(self, op, data):
        plan = _plan_of(_predicated_by_data(op))
        inputs = {
            name: data.draw(_specials(shape), label=name)
            for name, shape in (("m", (6, 5)), ("x", (6,)), ("z", (5,)))
        }
        with np.errstate(invalid="ignore"):  # inf + -inf is a payload
            ref = plan._execute(inputs, {}, {}, {}, None)
            outputs, _ = plan.kernel.run(inputs)
        assert outputs["y"].dtype == ref.outputs["y"].dtype
        assert outputs["y"].tobytes() == ref.outputs["y"].tobytes()

    def test_predicated_min_over_an_empty_range_still_raises(self):
        """An empty bound range keeps the select-then-reduce, so numpy's
        error for a reduction without an identity, on both tiers."""
        _, plan = _compile_plan(
            "main(input float x[8], input float m[8], output float y[4]) {"
            " index i[0:3], j[4:3]; y[i] = min[j: m[j] > 0.0](x[j]); }"
        )
        inputs = {"x": np.ones(8), "m": np.ones(8)}
        for run in (
            lambda: plan._execute(inputs, {}, {}, {}, None),
            lambda: plan.kernel.run(inputs),
        ):
            with pytest.raises(ValueError, match="zero-size array"):
                run()

    @pytest.mark.parametrize("dtype, stray, message", [
        ("int", 9, "out of range [0, 9] for extent 8"),
        ("float", -0.7, "out of range [-1, 7] for extent 8"),
    ])
    def test_data_dependent_subscript_errors_alike(self, dtype, stray,
                                                   message):
        _, plan = _compile_plan(
            f"main(input float x[8], input {dtype} k[8], output float y[8])"
            " { index i[0:7]; y[i] = x[k[i]] * 2.0; }"
        )
        rng = np.random.default_rng(47)
        inputs = {"x": _int_floats(rng, 8), "k": np.arange(8.0)[::-1] + 0.4}
        ref = plan._execute(inputs, {}, {}, {}, None)
        outputs, _ = plan.kernel.run(inputs)
        assert np.array_equal(outputs["y"], ref.outputs["y"])
        inputs["k"] = np.where(np.arange(8) == 3, stray, inputs["k"])
        errors = []
        for run in (
            lambda: plan._execute(inputs, {}, {}, {}, None),
            lambda: plan.kernel.run(inputs),
        ):
            with pytest.raises(ExecutionError) as raised:
                run()
            errors.append(str(raised.value))
        assert errors[0] == errors[1]
        assert errors[0] == f"subscript 0 of 'x' {message}"

    def test_data_dependent_subscript_under_a_predicate_declines(self):
        """Where a predicate masks it, the interpreter clamps a stray
        subscript: the plan stays interpreted, with the statement's reason."""
        rng = np.random.default_rng(53)
        _assert_declines_like_the_reference(
            "main(input float x[8], input int k[8], output float y[8]) {"
            " index i[0:7], j[0:7]; y[i] = sum[j: j <= i](x[k[j]]); }",
            "subscript 0 of 'x' is data-dependent under a reduction predicate",
            {"x": _int_floats(rng, 8), "k": rng.integers(0, 8, size=8)},
        )


def _assert_declines_like_the_reference(source, reason, inputs):
    """*source*'s one statement declines the whole kernel build with
    *reason*, named by its label: no kernel, one counted decline, one
    diagnostics warning, and the interpreted plan matches the reference
    :class:`~repro.srdfg.Executor` over the unoptimized graph bit for bit."""
    from repro.srdfg import Executor, build

    ref = Executor(build(source)).run(inputs=inputs)
    base = CODEGEN_STATS.to_dict()
    session, plan = _compile_plan(source)
    assert plan.kernel is None
    [label] = plan.statements
    assert plan.kernel_declined == f"{label}: {reason}"
    assert CODEGEN_STATS.to_dict()["builds_declined"] - base["builds_declined"] == 1
    assert [
        entry.message for entry in session.diagnostics.entries
        if "codegen declined" in entry.message
    ] == [f"codegen declined for {plan.graph_name!r}: {label}: {reason}"]
    got = plan.execute(inputs)
    assert got.tier == "interpreted"
    _assert_identical(ref, got)


class TestDeclinedPlans:
    """A statement the emitter cannot print declines the whole plan, which
    runs interpreted: a kernel is the whole plan or none."""

    def test_custom_combiner_declines(self):
        rng = np.random.default_rng(89)
        _assert_declines_like_the_reference(
            "reduction rmin(a,b) = a < b ? a : b;\n"
            "main(input float x[4][6], output float y[4]) {"
            " index i[0:3], j[0:5]; y[i] = rmin[j](x[i][j]); }",
            "reduction 'rmin' (custom combiner)",
            {"x": _int_floats(rng, (4, 6))},
        )

    def test_chunked_reduction_declines(self, monkeypatch):
        """A reduction over a lattice above the limit is chunked, which the
        emitter does not print (not a product of operands: no contraction
        runs first)."""
        monkeypatch.setattr("repro.srdfg.interpreter.DEFAULT_LATTICE_LIMIT", 8)
        rng = np.random.default_rng(97)
        _assert_declines_like_the_reference(
            "main(input float A[6][5], output float y[6]) {"
            " index i[0:5], j[0:4]; y[i] = sum[j](A[i][j] * 2.0 + 1.0); }",
            "chunked reduction (over-limit lattice)",
            {"A": _int_floats(rng, (6, 5))},
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
            plan.kernel_declined = "declined by the test"
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
        rebuilt under the current one. A ``--cache-dir`` of ``KERNEL_ABI``
        10 holds einsum's steps for a matmul the plan now swaps; it
        misses cleanly, and the rebuilt kernel replays the plan's form."""
        import hashlib

        import repro.codegen

        assert kernel_cache_key("k") != hashlib.sha256(b"kernel:k").hexdigest()
        matmul = (
            "main(input float A[6][5], input float B[5][7], output float C[6][7]) {"
            " index i[0:5], j[0:4], k[0:6];"
            " C[i][k] = sum[j](A[i][j] * B[j][k]); }"
        )

        def plan_in(session):
            return session.plan_for(
                session.compile(matmul, domain="DA"), codegen=True
            )

        abi = repro.codegen.KERNEL_ABI
        assert abi > 10
        monkeypatch.setattr(repro.codegen, "KERNEL_ABI", 10)
        first = CompilerSession(default_accelerators(), cache_dir=str(tmp_path))
        plan_in(first)
        assert first.cache.stats.kernel_stores == 1
        # Were the old record decoded, its source would run and raise.
        for path in tmp_path.glob("*.pkl"):
            record = pickle.loads(path.read_bytes())
            if isinstance(record, dict) and "source" in record:
                record["source"] = "raise RuntimeError('stale kernel ran')\n"
                path.write_bytes(pickle.dumps(record))

        monkeypatch.setattr(repro.codegen, "KERNEL_ABI", abi)
        base = CODEGEN_STATS.kernels_built
        second = CompilerSession(default_accelerators(), cache_dir=str(tmp_path))
        plan = plan_in(second)
        assert plan.kernel is not None
        assert CODEGEN_STATS.kernels_built - base == 1
        stats = second.cache.stats
        assert (stats.kernel_misses, stats.kernel_disk_hits) == (1, 0)
        assert stats.disk_errors == 0
        from repro.srdfg.interpreter import _contraction_steps

        # The swapped matmul, which einsum would run as ``bc,ab->ac``.
        steps = _contraction_steps("ab,bc->ac", ((6, 5), (5, 7)))
        assert steps[0][:2] == ((0, 0), "ab,bc->ac")
        assert any(
            isinstance(value, tuple) and value == steps
            for value in plan.kernel.constants.values()
        )
        rng = np.random.default_rng(0)
        inputs = {"A": rng.normal(size=(6, 5)), "B": rng.normal(size=(5, 7))}
        outputs, _ = plan.kernel.run(inputs)
        assert outputs["C"].tobytes() == (inputs["A"] @ inputs["B"]).tobytes()

    def test_record_of_kernel_abi_6_is_a_miss(self, tmp_path, monkeypatch):
        """A ``--cache-dir`` written under ``KERNEL_ABI`` 6 holds records
        with ``scratch_specs`` whose kernel takes ``_S``: under 7 and later
        their key is never asked for, so the kernel is rebuilt, with no
        disk error."""
        import repro.codegen

        def plan_in(session):
            return session.plan_for(
                session.compile(MATVEC, domain="DA"), codegen=True
            )

        abi = repro.codegen.KERNEL_ABI
        assert abi > 6
        monkeypatch.setattr(repro.codegen, "KERNEL_ABI", 6)
        plan_in(CompilerSession(default_accelerators(), cache_dir=str(tmp_path)))
        [path] = [
            path for path in tmp_path.glob("*.pkl")
            if isinstance(record := pickle.loads(path.read_bytes()), dict)
            and "source" in record
        ]
        record = pickle.loads(path.read_bytes())
        record["scratch_specs"] = ()
        record["source"] = record["source"].replace(
            "_output_init):", "_output_init, _S):"
        )
        path.write_bytes(pickle.dumps(record))

        monkeypatch.setattr(repro.codegen, "KERNEL_ABI", abi)
        base = CODEGEN_STATS.kernels_built
        second = CompilerSession(default_accelerators(), cache_dir=str(tmp_path))
        plan = plan_in(second)
        assert "_S" not in plan.kernel.source
        assert CODEGEN_STATS.kernels_built - base == 1
        stats = second.cache.stats
        assert (stats.kernel_misses, stats.kernel_disk_hits) == (1, 0)
        assert stats.disk_errors == 0
        # The version 6 record is left as it was, under its own key.
        assert pickle.loads(path.read_bytes()) == record

    def test_record_of_another_numpy_is_a_miss(self, tmp_path, monkeypatch):
        """Kernels bake numpy's contraction steps into their constants, so
        a record is stamped with numpy's version: under another numpy it
        is a miss — rebuilt and overwritten, not reported as corrupt —
        and the kernel key (hence the file) stays the same."""
        def plan_in(session):
            return session.plan_for(
                session.compile(MATVEC, domain="DA"), codegen=True
            )

        def kernel_records():
            records = {}
            for path in tmp_path.glob("*.pkl"):
                record = pickle.loads(path.read_bytes())
                if isinstance(record, dict) and "source" in record:
                    records[path.name] = record
            return records

        first = CompilerSession(default_accelerators(), cache_dir=str(tmp_path))
        plan_in(first)
        [(name, record)] = kernel_records().items()
        assert record["numpy"] == np.__version__

        monkeypatch.setattr(np, "__version__", "0.0.0+another")
        base = CODEGEN_STATS.kernels_built
        second = CompilerSession(default_accelerators(), cache_dir=str(tmp_path))
        plan = plan_in(second)
        assert plan.kernel is not None
        assert CODEGEN_STATS.kernels_built - base == 1
        stats = second.cache.stats
        assert (stats.kernel_misses, stats.kernel_disk_hits) == (1, 0)
        assert stats.disk_errors == 0
        [(rebuilt_name, rebuilt)] = kernel_records().items()
        assert rebuilt_name == name
        assert rebuilt["numpy"] == "0.0.0+another"

    def test_kernel_with_a_statement_constant_reaches_disk_tier(self, tmp_path):
        """ElecUse's folded sum calls a lattice-reduction constant when its
        total holds a NaN; the constant holds its StatementPlan, which holds
        a lock: it must still pickle, or the kernel silently never leaves
        the process that built it."""
        from repro.codegen.emitter import _LatticeReduction
        from repro.workloads import Trajectory, get_workload

        workload = get_workload("ElecUse")

        def plan_in(session):
            app, _ = session.compile_workload(workload)
            return session.plan_for(app, codegen=True)

        first = CompilerSession(cache_dir=str(tmp_path))
        plan = plan_in(first)
        assert any(
            isinstance(value, _LatticeReduction)
            for value in plan.kernel.constants.values()
        )
        assert first.cache.stats.disk_errors == 0

        second = CompilerSession(cache_dir=str(tmp_path))
        plan2 = plan_in(second)
        assert second.cache.stats.kernel_disk_hits == 1
        assert second.cache.stats.disk_errors == 0
        assert plan2.kernel is not plan.kernel
        ref_run, got_run = Trajectory(workload), Trajectory(workload)
        for _ in range(2):
            ref = ref_run.step(functools.partial(plan._execute, output_init=None, trace=None))
            got = got_run.step(functools.partial(plan2.kernel.try_execute, plan2))
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

    def test_a_declined_build_is_a_divergence(self, monkeypatch):
        """No generated construct is one the emitter declines, so a decline
        is lost coverage: the oracle reports it, its detail the reason."""
        from repro.codegen import Unsupported
        from repro.fuzz import run_fuzz

        def decline(self):
            raise Unsupported("no kernel here")

        monkeypatch.setattr(KernelEmitter, "emit", decline)
        report = run_fuzz(programs=1, seed=1, campaigns="none", minimize=False)
        assert not report.ok
        declined = [d for d in report.divergences if d.oracle == "codegen"]
        assert [d.precision for d in declined] == ["f64", "f32"]
        assert all(d.detail == "no kernel here" for d in declined)
        assert all(d.oracle == "codegen" for d in report.divergences)


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
        # The selfcheck's codegen row reads these: no store scatters, and
        # takes are counted.
        assert (entry["slice_stores"], entry["slice_gathers"], entry["scatters"]) == (2, 3, 0)
        assert (entry["gathers"], entry["gathers_shared"]) == (0, 0)
        assert entry["subexpressions_shared"] == 0
        assert entry["short_sums"] == 0

    def test_codegen_names_why_a_plan_declined(self, capsys, monkeypatch):
        import json

        from repro.cli import main
        from repro.codegen import Unsupported

        def decline(self):
            raise Unsupported("y := elemwise: no kernel here")

        monkeypatch.setattr(KernelEmitter, "emit", decline)
        code = main([
            "codegen", "--workload", "MobileRobot", "--compare", "--json", "-",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "DECLINED (interpreter tier only): y := elemwise: no kernel here" in out
        entry = json.loads(out[out.index("{"):])["workloads"]["MobileRobot"]
        assert entry == {
            "kernel": False, "provenance": "interpreter",
            "declined": "y := elemwise: no kernel here",
        }

    def test_statement_ms_times_a_copy(self, capsys, monkeypatch):
        """``--statement-ms`` times every statement of an instrumented
        copy; the built kernel's source is left as it is."""
        import json
        import types

        from repro.cli import main
        from repro.serve import heap

        # The serving heap policy it sets is this process's for good.
        monkeypatch.setattr(
            heap, "_libc", lambda: types.SimpleNamespace(mallopt=lambda *_: 1)
        )

        source = _ledger_kernel("ElecUse").source
        code = main([
            "codegen", "--workload", "ElecUse", "--statement-ms",
            "--steps", "2", "--json", "-",
        ])
        assert code == 0
        out = capsys.readouterr().out
        entry = json.loads(out[out.index("{"):])["workloads"]["ElecUse"]
        assert entry["short_sums"] == 1
        timed = entry["statement_ms"]
        assert [row["statement"] for row in timed] == [
            "dsq := reduce_sum", "assign := reduce_argmin", "member := elemwise",
            "cnt := reduce_sum", "csum := matmul", "inertia := contract", "C := elemwise",
        ]
        assert all(row["ms"] > 0 for row in timed)
        assert "ms  dsq := reduce_sum" in out
        assert _ledger_kernel("ElecUse").source == source
        assert "_lap" not in source

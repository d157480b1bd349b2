"""Tests for the plan/execute engine (repro.srdfg.plan).

Path-equivalence tests use integer-valued floats throughout: einsum
(BLAS), plain ``np.sum`` (pairwise), and chunked accumulation can differ
in the last ulp on arbitrary reals, but are exact on integers — so
``np.array_equal`` (bit-identity) is the right assertion, not allclose.
"""

import os

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.driver import CompilerSession
from repro.errors import ExecutionError
from repro.obs import Counters
from repro.srdfg import build
from repro.srdfg.interpreter import Executor, _ExprEvaluator, resolve_dtype
from repro.srdfg.plan import (
    PLAN_FIELDS,
    PlanConfig,
    build_plan,
    graph_fingerprint,
    plan_cache_key,
    plan_for_graph,
)

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


def matvec_data(rng=None):
    rng = rng or np.random.default_rng(11)
    a = rng.integers(-6, 7, size=(6, 5)).astype(np.float64)
    x = rng.integers(-6, 7, size=5).astype(np.float64)
    return {"A": a, "x": x}


class TestPlanConfig:
    def test_unknown_precision_rejected(self):
        with pytest.raises(ExecutionError):
            PlanConfig(precision="f16")

    def test_hashable_for_memo_keys(self):
        assert PlanConfig() == PlanConfig()
        assert hash(PlanConfig()) == hash(PlanConfig())
        assert PlanConfig() != PlanConfig(precision="f32")


class TestResolveDtype:
    def test_float_follows_precision(self):
        assert resolve_dtype("float") is np.float64
        assert resolve_dtype("float", np.float32) is np.float32

    def test_non_float_ignores_precision(self):
        assert resolve_dtype("int", np.float32) is np.int64
        assert resolve_dtype("bin", np.float32) is np.int8
        assert resolve_dtype("complex", np.float32) is np.complex128

    def test_unknown_defaults_to_float64(self):
        assert resolve_dtype("mystery") is np.float64


class TestPathEquivalence:
    """The same statement down einsum, lattice, and chunked paths."""

    def test_three_paths_bit_identical(self, monkeypatch):
        inputs = matvec_data()
        graphs = [build(MATVEC) for _ in range(3)]
        einsum_plan = build_plan(graphs[0])
        lattice_plan = build_plan(
            graphs[1], config=PlanConfig(enable_einsum=False)
        )
        monkeypatch.setattr("repro.srdfg.interpreter.DEFAULT_LATTICE_LIMIT", 8)
        chunked_plan = build_plan(
            graphs[2], config=PlanConfig(enable_einsum=False)
        )

        # Each plan must actually have picked the intended path.
        assert [s.path() for s in einsum_plan.statements.values()] == ["einsum"]
        assert [s.path() for s in lattice_plan.statements.values()] == ["lattice"]
        assert [s.path() for s in chunked_plan.statements.values()] == ["chunked"]

        results = [
            plan.execute(inputs=inputs).outputs["y"]
            for plan in (einsum_plan, lattice_plan, chunked_plan)
        ]
        expected = inputs["A"] @ inputs["x"]
        for got in results:
            assert np.array_equal(got, expected)

    def test_executor_flags_reach_the_plan(self, monkeypatch):
        monkeypatch.setattr("repro.srdfg.interpreter.DEFAULT_LATTICE_LIMIT", 8)
        graph = build(MATVEC)
        executor = Executor(graph, enable_einsum=False)
        result = executor.run(inputs=matvec_data())
        assert [s.path() for s in executor.plan.statements.values()] == ["chunked"]
        data = matvec_data()
        assert np.array_equal(result.outputs["y"], data["A"] @ data["x"])


class TestPlanReuse:
    def test_reused_plan_matches_fresh_plans_across_stateful_steps(self):
        graph = build(STATEFUL)
        shared = build_plan(graph)
        rng = np.random.default_rng(5)
        drives = [
            rng.integers(-4, 5, size=4).astype(np.float64) for _ in range(12)
        ]

        state_a, state_b = {}, {}
        for u in drives:
            got = shared.execute(inputs={"u": u}, state=state_a)
            fresh = build_plan(build(STATEFUL)).execute(
                inputs={"u": u}, state=state_b
            )
            assert np.array_equal(got.outputs["y"], fresh.outputs["y"])
            assert np.array_equal(got.state["acc"], fresh.state["acc"])
            state_a, state_b = got.state, fresh.state

        assert shared.counters.executions == len(drives)
        for statement in shared.statements.values():
            assert statement.built == 1
            assert statement.executions == len(drives)

    def test_executors_over_one_graph_share_one_plan(self):
        graph = build(MATVEC)
        first = Executor(graph)
        second = Executor(graph)
        assert first.plan is second.plan
        # A different configuration gets its own plan.
        other = Executor(graph, precision="f32")
        assert other.plan is not first.plan

    def test_plan_builds_once_per_graph(self):
        graph = build(MATVEC)
        stats = Counters(PLAN_FIELDS)
        plan = plan_for_graph(graph, stats=stats)
        assert plan_for_graph(graph, stats=stats) is plan
        assert stats.graphs_planned == 1
        assert stats.statements_planned == plan.statement_count

    def test_custom_reductions_bypass_sharing(self):
        graph = build(MATVEC)
        shared = plan_for_graph(graph)
        source_with_reduction = "reduction both(a, b) = a + b; " + MATVEC
        custom_graph = build(source_with_reduction)
        custom = plan_for_graph(
            graph, reductions=getattr(custom_graph, "reductions", None)
        )
        assert custom is not shared


class TestCompiledApplicationCounters:
    """The issue's acceptance criterion, as a regression test."""

    def test_50_step_run_plans_once_executes_50_times(self):
        from repro.eval import Harness

        harness = Harness()
        workload, app, _ = harness.compiled("MobileRobot")
        # Planned through the session, so the build lands in the session's
        # own registry (``app.run`` shares the plan via the graph memo).
        plan = harness.session.plan_for(app)
        assert app.execution_plan() is plan

        before = harness.session.metrics.snapshot()
        assert before["plan.statements_planned"] == plan.statement_count
        state = {
            key: np.asarray(value)
            for key, value in workload.initial_state().items()
        }
        previous = None
        for step in range(50):
            result, _, _ = app.run(
                inputs=workload.inputs(step, previous),
                params=workload.params(),
                state=state,
            )
            state = result.state
            previous = result
        after = harness.session.metrics.snapshot()

        # Nothing was planned during the steps (the plan pre-existed),
        # and every statement plan was built once and ran 50 times.
        assert after == before
        assert plan.plans_built == plan.statement_count
        for _, statement in plan.iter_statements():
            assert statement.built == 1
            assert statement.executions >= 50

    def test_app_run_matches_plain_executor(self):
        from repro.eval import Harness

        harness = Harness()
        workload, app, _ = harness.compiled("MobileRobot")
        state_a = {
            key: np.asarray(value)
            for key, value in workload.initial_state().items()
        }
        state_b = dict(state_a)
        executor = Executor(app.graph)
        previous = None
        for step in range(5):
            via_app, _, _ = app.run(
                inputs=workload.inputs(step, previous),
                params=workload.params(),
                state=state_a,
            )
            direct = executor.run(
                inputs=workload.inputs(step, previous),
                params=workload.params(),
                state=state_b,
            )
            for name in via_app.outputs:
                assert np.array_equal(via_app.outputs[name], direct.outputs[name])
            state_a, state_b = via_app.state, direct.state
            previous = via_app


class TestSingleFlight:
    def test_exactly_one_build_per_key_under_contention(self):
        """The invariant a lost update would break: lookup and flight
        registration are one critical section, so a caller sees the
        published value or joins the running build — never neither."""
        import sys
        import threading

        from repro.srdfg.plan import SingleFlight

        flights, store, builds = SingleFlight(), {}, []
        keys, threads = range(40), 4 * (os.cpu_count() or 2)
        barrier = threading.Barrier(threads, timeout=30.0)
        seen = [[] for _ in range(threads)]

        def build(key):
            builds.append(key)  # list.append is atomic
            store[key] = value = object()
            return value

        def worker(mine):
            barrier.wait()
            for key in keys:
                value, how = flights.run(
                    key, lambda: store.get(key), lambda: build(key)
                )
                mine.append((key, value, how))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=worker, args=(mine,)) for mine in seen
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in workers)
        assert sorted(builds) == list(keys)
        for mine in seen:
            assert [key for key, _, _ in mine] == list(keys)
            assert all(value is store[key] for key, value, _ in mine)
        hows = [how for mine in seen for _, _, how in mine]
        assert hows.count("built") == len(keys)
        assert set(hows) <= {"built", "cache", "coalesced"}
        assert not flights._flights

    def test_followers_reraise_the_leaders_error(self):
        import threading

        from repro.srdfg.plan import SingleFlight

        flights = SingleFlight()
        started, finish = threading.Event(), threading.Event()
        errors = []

        def failing():
            started.set()
            assert finish.wait(timeout=30)
            raise ValueError("build failed")

        def ask(build, looked):
            try:
                flights.run("key", looked.set, build)  # Event.set() is None
            except ValueError as exc:
                errors.append(exc)

        leader = threading.Thread(
            target=ask, args=(failing, threading.Event())
        )
        leader.start()
        assert started.wait(timeout=30)
        looked = threading.Event()
        follower = threading.Thread(
            target=ask, args=(lambda: pytest.fail("built twice"), looked)
        )
        follower.start()
        # Lookup and joining the flight are one critical section: once
        # the lock is free again after the lookup, the follower is in.
        assert looked.wait(timeout=30)
        with flights._lock:
            pass
        finish.set()
        leader.join(timeout=30)
        follower.join(timeout=30)
        assert not leader.is_alive() and not follower.is_alive()
        assert len(errors) == 2 and errors[0] is errors[1]
        assert not flights._flights  # a failed flight is not remembered


class TestFingerprintAndCacheTier:
    def test_fingerprint_stable_across_rebuilds(self):
        assert graph_fingerprint(build(MATVEC)) == graph_fingerprint(build(MATVEC))

    def test_fingerprint_distinguishes_programs(self):
        assert graph_fingerprint(build(MATVEC)) != graph_fingerprint(build(STATEFUL))

    def test_cache_key_covers_config(self):
        graph = build(MATVEC)
        assert plan_cache_key(graph) != plan_cache_key(
            graph, PlanConfig(precision="f32")
        )

    def test_plan_tier_hits_across_graph_instances(self):
        from types import SimpleNamespace

        session = CompilerSession()
        cache = session.cache
        first = SimpleNamespace(graph=build(MATVEC))
        plan = session.plan_for(first)
        assert cache.stats.plan_misses == 1
        assert cache.stats.plan_stores == 1

        # A structurally identical graph (fresh build, different node
        # uids) hits the tier and reuses the very same plan object.
        second = SimpleNamespace(graph=build(MATVEC))
        again = session.plan_for(second)
        assert again is plan
        assert cache.stats.plan_hits == 1

        inputs = matvec_data()
        got = again.execute(inputs=inputs)
        assert np.array_equal(got.outputs["y"], inputs["A"] @ inputs["x"])

    def test_session_plan_for_replays_skip_planning(self):
        from repro.targets import default_accelerators

        session = CompilerSession(default_accelerators())
        source = (
            "main(input float A[6][5], input float x[5], output float y[6]) {"
            " index i[0:5], j[0:4];"
            " y[i] = sum[j](A[i][j] * x[j]); }"
        )
        app = session.compile(source, domain="DA")
        plan = session.plan_for(app)
        assert session.cache.stats.plan_misses == 1
        assert session.plan_for(app) is plan
        assert session.cache.stats.plan_hits == 1
        # The plan stage shows up in the record stream, hit marked cached.
        plan_records = [r for r in session.records if r.stage == "plan"]
        assert len(plan_records) == 2
        assert [r.cached for r in plan_records] == [False, True]
        assert "plan" in session.stats_report()

    def test_warm_plan_for_does_not_rehash_the_graph(self, monkeypatch, tmp_path):
        import pickle

        from repro.srdfg import plan as plan_module
        from repro.targets import default_accelerators

        session = CompilerSession(
            default_accelerators(), cache_dir=str(tmp_path)
        )
        app = session.compile(MATVEC, domain="DA")
        # The compile hashed the lowered graph once and stamped the app.
        assert app.graph_fingerprint == graph_fingerprint(app.graph)
        plan = session.plan_for(app)

        def rehash(graph):
            raise AssertionError("a stamped app's plan lookup rehashed")

        monkeypatch.setattr(plan_module, "graph_fingerprint", rehash)
        assert session.plan_for(app) is plan
        # The stamp rides the disk form, so a sibling process's first
        # lookup is as cheap.
        (entry,) = tmp_path.glob("*.pkl")
        assert pickle.loads(entry.read_bytes()).graph_fingerprint == (
            app.graph_fingerprint
        )
        monkeypatch.undo()

        # An artifact pickled before the field existed has no stamp in
        # its __dict__: it loads, reads None, and falls back to hashing
        # onto the same key.
        del app.__dict__["graph_fingerprint"]
        assert app.graph_fingerprint is None
        assert session.plan_for(app) is plan


class TestPrecisionThreading:
    def test_host_fallback_honours_precision(self):
        """DA-crash fallback at f32 is bit-identical to a plain f32 run."""
        from repro.eval import Harness
        from repro.runtime import FaultPlan, HostManager, RecoveryPolicy

        harness = Harness()
        workload, app, accelerators = harness.compiled("BrainStimul")
        manager = HostManager(
            accelerators, policy=RecoveryPolicy(max_attempts=2)
        )

        def drive(precision, fault_plan):
            active = fault_plan.activate()
            state = {
                key: np.asarray(value)
                for key, value in workload.initial_state().items()
            }
            previous = None
            reports = []
            for step in range(2):
                report = manager.run(
                    app,
                    inputs=workload.inputs(step, previous),
                    params=workload.params(),
                    state=state,
                    fault_plan=active,
                    hints=workload.hints(),
                    precision=precision,
                )
                reports.append(report)
                previous = report.result
                state = report.result.state
            return reports

        faulty_reports = drive("f32", FaultPlan.parse(["crash@DA"], seed=7))
        # The crash really degraded DA on some step of the faulty run.
        assert any(report.degraded_domains for report in faulty_reports)
        faulty = faulty_reports[-1]
        clean = drive("f32", FaultPlan(seed=7))[-1]
        for name in faulty.result.outputs:
            assert np.array_equal(
                faulty.result.outputs[name], clean.result.outputs[name]
            )
            # And f32 really is a different numeric mode than f64.
            assert faulty.result.outputs[name].dtype == np.float32

    def test_f32_rounds_at_statement_boundaries(self):
        graph = build(MATVEC)
        rng = np.random.default_rng(3)
        inputs = {
            "A": rng.standard_normal((6, 5)),
            "x": rng.standard_normal(5),
        }
        f64 = Executor(graph).run(inputs=inputs).outputs["y"]
        f32 = Executor(graph, precision="f32").run(inputs=inputs).outputs["y"]
        assert f64.dtype == np.float64
        assert f32.dtype == np.float32
        assert not np.array_equal(f64, f32.astype(np.float64))


class TestTraceCompatibility:
    def test_trace_one_record_per_node(self):
        graph = build(MATVEC)
        trace = []
        Executor(graph).run(inputs=matvec_data(), trace=trace)
        assert len(trace) == len(graph.nodes)
        compute = [r for r in trace if r["kind"] == "compute"]
        assert compute and compute[0]["produced"]["y"][0] == (6,)


#: What a store payload and a previous value are drawn from: signed
#: zeros, NaNs, infinities, and ordinary values of each kind.
_SPECIALS = (0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.5, -2.0, 3.0, 7.0)
_DTYPES = (np.float64, np.float32, np.int64, np.bool_)


def _ramp(lattice, axis):
    """The coordinates along lattice *axis*, broadcastable over it."""
    shape = [1] * len(lattice)
    shape[axis] = lattice[axis]
    return np.arange(lattice[axis], dtype=np.int64).reshape(shape)


@st.composite
def _blocked_subscripts(draw):
    """A blocked store, ``out[by*u_n+u][bx*v_n+v]`` over ``(by, u, bx, v)``,
    its two subscripts in either order: a row-major cover, or not."""
    lattice = tuple(draw(st.lists(st.integers(1, 3), min_size=4, max_size=4)))
    rows = _ramp(lattice, 0) * lattice[1] + _ramp(lattice, 1)
    cols = _ramp(lattice, 2) * lattice[3] + _ramp(lattice, 3)
    subscripts = [rows, cols] if draw(st.booleans()) else [cols, rows]
    return lattice, subscripts


@st.composite
def _affine_subscripts(draw):
    """Up to three subscripts over a lattice of up to three axes (one in
    about five extents zero), each a constant, ``origin + step*axis`` of
    any sign of step, or ``origin + axis % m`` (cells repeat), over
    distinct or shared axes in a drawn order."""
    lattice = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 4, 0]), max_size=3)))
    axes = draw(st.permutations(range(len(lattice))))
    subscripts = []
    for dim in range(draw(st.integers(1, 3))):
        origin = draw(st.integers(0, 2))
        kind = draw(st.sampled_from(["affine", "affine", "mod", "const"])) if lattice else "const"
        if kind == "const":
            shape = draw(st.sampled_from([(), (1,) * len(lattice)]))
            subscripts.append(np.full(shape, origin, dtype=np.int64))
            continue
        axis = axes[dim % len(axes)] if draw(st.booleans()) else draw(
            st.integers(0, len(lattice) - 1)
        )
        ramp, count = _ramp(lattice, axis), lattice[axis]
        if kind == "affine":
            step = draw(st.integers(-1, 2))
            subscripts.append(origin + max(0, -step * (count - 1)) + step * ramp)
        else:
            subscripts.append(origin + ramp % draw(st.integers(1, 3)))
    return lattice, subscripts


def _values(draw, shape, dtype, label):
    values = np.array(
        draw(st.lists(st.sampled_from(_SPECIALS), min_size=1, max_size=8), label=label)
    )
    with np.errstate(all="ignore"):
        return np.resize(values, shape).astype(dtype)


@st.composite
def _store_case(draw):
    """``(subscripts, shape, lattice, raw, previous, dtype)`` of one
    static store: its payload *raw* spans the lattice (broadcast, or 0-d
    over an empty one, as ``statement_value`` hands it), *previous* is
    None, the target's or of another shape."""
    lattice, subscripts = draw(st.one_of(_affine_subscripts(), _blocked_subscripts()))
    shape = tuple(
        (int(value.max()) + 1 if value.size else 1) + draw(st.integers(0, 2))
        for value in subscripts
    )
    dtype = draw(st.sampled_from(_DTYPES), label="target dtype")
    core = draw(st.sampled_from([
        (), lattice, tuple(1 if axis % 2 else n for axis, n in enumerate(lattice)),
    ]), label="payload shape")
    payload = _values(draw, core, draw(st.sampled_from(_DTYPES), label="payload dtype"),
                      "payload")
    if lattice:
        raw = np.broadcast_to(payload, lattice)
    else:
        raw = payload[()] if draw(st.booleans(), label="numpy scalar") else payload
    previous = draw(st.sampled_from([None, shape, shape + (1,)]), label="previous")
    if previous is not None:
        previous = _values(draw, previous, dtype, "previous")
    return subscripts, shape, lattice, raw, previous, dtype


def _scatter_store(subscripts, shape, raw, previous, dtype):
    """How every statement stored before store forms: a copy of the
    previous value (zeros without one of the target's shape), then a
    fancy write through the broadcast subscripts."""
    if previous is not None:
        out = np.array(previous, dtype=dtype, copy=True)
        if tuple(out.shape) != shape:
            out = np.zeros(shape, dtype=dtype)
    else:
        out = np.zeros(shape, dtype=dtype)
    *targets, payload = np.broadcast_arrays(*subscripts, np.asarray(raw))
    out[tuple(targets)] = payload
    return out


def _storing(subscripts, shape, dtype, form):
    """What ``StatementPlan.write`` reads of a statement storing into
    ``y`` through *form*, and of a staged evaluator over it."""
    import functools
    from types import SimpleNamespace

    from repro.pmlang import ast_nodes
    from repro.srdfg.plan import StatementPlan

    statement = SimpleNamespace(
        stmt=SimpleNamespace(target="y", target_indices=subscripts, value=ast_nodes.Literal(0.0)),
        lhs_shape=shape, target_dtype=dtype, store=form, space=None, static_env={},
        reductions={}, contractions=(), compressed=(), einsum=None,
    )
    statement.write = functools.partial(StatementPlan.write, statement)
    return statement


class TestStoreForms:
    """A statement's store form — cover, slice store or scatter, decided
    once from its static write subscripts and run by every tier — writes
    the bytes the zero-fill-and-scatter store wrote."""

    @given(_store_case())
    @settings(max_examples=600, deadline=None)
    def test_form_is_byte_identical_to_the_scatter(self, case):
        from repro.srdfg.plan import store_form

        subscripts, shape, lattice, raw, previous, dtype = case
        form = store_form(subscripts, shape, lattice)
        event("cover" if form.cover else "scatter" if form.index is None else "slice")
        event(f"view {form.view is not None}, transpose {form.order is not None}")
        evaluator = _ExprEvaluator(None, {}, {} if previous is None else {"y": previous}, {})
        with np.errstate(all="ignore"):
            got = _storing(subscripts, shape, dtype, form).write(evaluator, raw)
            want = _scatter_store(subscripts, shape, raw, previous, dtype)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @given(_store_case(), st.data())
    @settings(max_examples=600, deadline=None)
    def test_printed_store_is_byte_identical_to_the_numpy_one(self, case, data):
        """The one store routine (``StatementPlan.write``), run through the
        numpy primitives and printed through the kernel emitter's (the
        lines exec'd), writes the same bytes: every form, a fresh payload
        bound as the result, a partial store copying its previous value
        or writing over it as a dead buffer, and an assignment without
        subscripts."""
        import re
        from types import SimpleNamespace

        from repro.codegen.emitter import (
            _OVERWRITTEN, KernelEmitter, _StagedEvaluator, _Val,
        )
        from repro.srdfg.plan import store_form

        subscripts, shape, lattice, raw, previous, dtype = case
        if not lattice and data.draw(st.booleans(), label="no subscripts"):
            subscripts, shape = [], data.draw(st.sampled_from([(), (1,)]), label="shape")
        form = store_form(subscripts, shape, lattice) if subscripts else None
        event("whole" if form is None else "cover" if form.cover
              else "scatter" if form.index is None else "slice")
        statement = _storing(subscripts, shape, dtype, form)

        # The payload as the staged evaluator hands it: a numpy scalar is no
        # array; a broadcast keeps what it broadcasts (its stride-0 axes).
        core = raw
        if np.ndim(raw):
            core = raw[tuple(slice(0, 1) if stride == 0 else slice(None) for stride in raw.strides)]
        shadow = np.zeros((), dtype=np.asarray(raw).dtype)
        fresh = np.shape(core) == lattice and data.draw(st.booleans(), label="fresh")
        staged = _Val("P", np.shape(core), shadow if isinstance(raw, np.ndarray) else shadow[()],
                      fresh=fresh)
        if np.shape(core) != lattice:
            staged = _Val("_np.broadcast_to(P, L)", lattice, shadow, unbroadcast=staged)
        emitter = KernelEmitter(SimpleNamespace(steps=[]))
        operands = {}
        if previous is not None:
            with np.errstate(all="ignore"):
                previous = previous.astype(data.draw(st.sampled_from(_DTYPES), label="previous"))
            owned = data.draw(st.booleans(), label="dead buffer")
            if owned:
                emitter._owned["_v1"] = True
            operands["y"] = _Val("_v1", previous.shape, np.zeros((), dtype=previous.dtype),
                                 contiguous=owned)
        ev = _StagedEvaluator(emitter, statement, operands, "out")
        emitter._emit_store(ev, staged)
        # A dead previous value is written over, as the kernel settles it.
        lines = [_OVERWRITTEN.sub(r"\1", line) for line in emitter.lines]
        if lines != emitter.lines:
            event("written over its previous value")
        namespace = {
            "_np": np, "P": core, "L": lattice,
            "_v1": None if previous is None else previous.copy(), **emitter.constants,
        }
        with np.errstate(all="ignore"):
            exec("\n".join(line.strip() for line in lines), namespace)
            got = namespace["out"]
            want = statement.write(
                _ExprEvaluator(None, {}, {"y": previous}, {}), raw
            )
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        if re.search(r"^out = (?!_np\.(zeros|empty|array)\()", lines[0].strip()):
            event("bound as the result")

    @pytest.mark.parametrize("target, index, order, cover, view", [
        # Identity covers: the lattice follows the target's subscripts.
        ("y[i][j] = x[i][j]", (Ellipsis,), None, True, None),
        ("y[j][i] = x[i][j]", (Ellipsis,), None, True, None),
        # A strided window over the previous value, and a constant row.
        ("y[2*i+1][j] = x[i][j]", (slice(1, 8, 2), slice(None)), None, False, None),
        ("y[3][j] = sum[i](x[i][j])", (3, slice(None)), None, False, None),
        # A blocked cover viewed as its lattice.
        ("y[b*2+u][j] = x[b*2+u][j] * 2.0", (Ellipsis,), None, True, (2, 2, 3)),
        # Cells repeat: the scatter.
        ("y[i % 2][j] = x[i][j]", None, None, False, None),
    ])
    def test_plan_records_the_form(self, target, index, order, cover, view):
        declared, ranges = {
            "y[j][i]": ("y[3][4]", "i[0:3], j[0:2]"),
            "y[b*2+u": ("y[4][3]", "b[0:1], u[0:1], j[0:2]"),
            "y[2*i+1": ("y[8][3]", "i[0:3], j[0:2]"),
        }.get(target[:7], ("y[4][3]", "i[0:3], j[0:2]"))
        source = (
            f"main(input float x[4][3], output float {declared}) {{"
            f" index {ranges}; {target}; }}"
        )
        [statement] = build_plan(build(source, domain="DA")).statements.values()
        form = statement.store
        assert (form.index, form.order, form.cover, form.view) == (index, order, cover, view)

    def test_data_dependent_subscripts_are_evaluated_when_run(self):
        source = (
            "main(input float x[4], input int k[4], output float y[4]) {"
            " index i[0:3]; y[k[i]] = x[i] * 2.0; }"
        )
        plan = build_plan(build(source, domain="DA"))
        [statement] = plan.statements.values()
        assert statement.store is None
        inputs = {"x": np.array([1.0, 2.0, 3.0, 4.0]), "k": np.array([3, 1, 1, 0])}
        result = plan.execute(inputs=inputs)
        assert result.outputs["y"].tolist() == [8.0, 6.0, 0.0, 2.0]


def _paper_plans(names=None):
    """``(name, workload, app, plan)`` of each of the 17 paper programs (or
    of *names*), planned without a kernel, so ``plan.execute`` steps the
    interpreted plan (the app keeps the plan's graph alive)."""
    from repro.eval import Harness
    from repro.workloads import END_TO_END, SINGLE_DOMAIN

    harness = Harness()
    for name in names or SINGLE_DOMAIN + END_TO_END:
        workload, app, _ = harness.compiled(name)
        yield name, workload, app, harness.session.plan_for(app)


def test_read_off_store_forms_equal_the_evaluated_ones(monkeypatch):
    """A write through index names, bare or shifted by a literal, takes
    the store form the evaluated subscripts give, field by field, in
    every statement of the 17 paper programs; only the strided and the
    blocked targets are evaluated."""
    from repro.srdfg.plan import StatementPlan

    evaluated = []
    real = StatementPlan._evaluated_store_form

    def counted(statement):
        evaluated.append(statement.label)
        return real(statement)

    plans = list(_paper_plans())
    monkeypatch.setattr(StatementPlan, "_evaluated_store_form", counted)
    compared = 0
    for _, _, _, plan in plans:
        for _, statement in build_plan(plan.graph).iter_statements():
            if statement.stmt.target_indices:
                want = real(statement)
                assert statement.store._asdict() == want._asdict()
                compared += 1
    assert compared > 250
    # MobileRobot's, Hexacopter's and BrainStimul's ``9*j``-style strides,
    # and both DCTs' ``by*8+u`` blocks.
    assert len(evaluated) == 5, evaluated


def test_second_fft_step_evaluates_no_static_subscript(monkeypatch):
    """FFT-8192's butterflies read ``xr[t - t%(2^(s+1)) + t%(2^s)]`` and
    the twiddles at static subscripts: from its second interpreted step
    on, the only subscript evaluated is the bit reversal's ``sig[br[t]]``,
    which reads operand data."""
    from repro.srdfg.interpreter import _ExprEvaluator
    from repro.workloads import Trajectory

    [(_, workload, _, plan)] = _paper_plans(["FFT-8192"])
    trajectory = Trajectory(workload)
    trajectory.step(plan.execute)
    calls = []
    real = _ExprEvaluator._subscript

    def counted(self, expr, dim, value, extent):
        calls.append((expr.base, dim))
        return real(self, expr, dim, value, extent)

    monkeypatch.setattr(_ExprEvaluator, "_subscript", counted)
    trajectory.step(plan.execute)
    assert calls == [("sig", 0)]


class TestStaticMemo:
    """Static values — index arithmetic and static gathers' index arrays —
    are computed on the first interpreted step and reused: never where a
    value could differ, never shared where the key differs, never
    writeable, never pickled."""

    COMPONENT = (
        "scale(input float x[n], output float y[m], param int h) {"
        " index i[0:m-1]; y[i] = x[i*h] + i%h; }"
        " main(input float x[8], output float a[4], output float b[{b}]) {"
        " scale(x, a, 2); scale(x, b, {h}); }"
    )

    @staticmethod
    def _gathers(plan):
        # A gather's key is ``(("gather", static key), base shape)``.
        return [key for key in plan.memo if key[0][0] == "gather"]

    @pytest.mark.parametrize("source, name, want", [
        ("main(input float x[4], output float y[4]) { index i[0:3]; y[i] = i * 2; }",
         "y", [0.0, 2.0, 4.0, 6.0]),
        ("main(input float x[4], output float z) { z = 3 < 2 ? 1.0 : 2.5; }",
         "z", 2.5),
    ])
    def test_static_statement_returns_a_fresh_writeable_array(self, source, name, want):
        plan = build_plan(build(source))
        first = plan.execute(inputs={"x": np.zeros(4)}).outputs[name]
        assert len(plan.memo) == 1 and first.flags.writeable
        first[...] = -1.0
        assert plan.execute(inputs={"x": np.zeros(4)}).outputs[name].tolist() == want

    def test_memo_values_are_read_only(self):
        plan = build_plan(build(self.COMPONENT.replace("{b}", "4").replace("{h}", "1")))
        plan.execute(inputs={"x": np.arange(8.0)})
        arrays = [
            array for value in plan.memo.values()
            for array in (value if isinstance(value, tuple) else (value,))
        ]
        assert len(arrays) == 4
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 7

    def test_axis_order_and_ranges_key_their_entries(self):
        source = (
            "main(input float x[8], output float c[4][3], output float d[3][4],"
            " output float e[5]) {"
            " index i[0:3], k[0:2], n[0:4];"
            " c[i][k] = x[i+k]; d[k][i] = x[i+k]; e[n] = x[n+2]; }"
        )
        plan = build_plan(build(source))
        x = np.arange(8.0) ** 2
        for _ in range(2):
            out = plan.execute(inputs={"x": x}).outputs
            assert out["c"].tolist() == x[np.add.outer(np.arange(4), np.arange(3))].tolist()
            assert out["d"].tolist() == out["c"].T.tolist()
            assert out["e"].tolist() == x[2:7].tolist()
        assert len(self._gathers(plan)) == 3
        # One subscript text over two ranges: its instances of ``scale``.
        plan = build_plan(build(self.COMPONENT.replace("{b}", "3").replace("{h}", "2")))
        for _ in range(2):
            out = plan.execute(inputs={"x": x}).outputs
            assert out["a"].tolist() == (x[0::2] + np.arange(4) % 2).tolist()
            assert out["b"].tolist() == (x[0:6:2] + np.arange(3) % 2).tolist()
        assert len(plan.memo) == 4

    def test_base_shapes_key_gathers(self):
        """``z[i+1]`` indexes past a shorter base: its range check runs."""
        plan = build_plan(build(
            "main(input float x[8], input float z[4], output float c[4],"
            " output float d[4]) { index i[0:3]; c[i] = x[i+1]; d[i] = z[i+1]; }"
        ))
        for _ in range(2):
            with pytest.raises(ExecutionError, match="subscript 0 of 'z' out of range"):
                plan.execute(inputs={"x": np.arange(8.0), "z": np.arange(4.0)})

    def test_literal_types_key_their_entries(self):
        """``expr_key`` equates ``0.0`` and ``-0.0``; their quotients differ."""
        from repro.pmlang import ast_nodes as ast
        from repro.pmlang.parser import parse
        from repro.srdfg.plan import StatementPlan

        memo, got = {}, []
        for zero in (0.0, -0.0, 0.0):
            program = parse(
                "main(output float y[4]) { index i[0:3]; y[i] = 1.0 / (i * 2.0); }"
            )
            stmt = program.components["main"].body[-1]
            [literal] = [node for node in ast.walk_expr(stmt.value)
                         if isinstance(node, ast.Literal) and node.value == 2.0]
            literal.value = zero
            statement = StatementPlan(stmt, {"i": (0, 3)}, {}, lhs_shape=(4,), memo=memo)
            with np.errstate(divide="ignore"):
                got.append(statement.execute({}).tolist())
        assert got == [[np.inf] * 4, [-np.inf] * 4, [np.inf] * 4]
        assert len(memo) == 2

    @staticmethod
    def _rekeyed_nodes(expr, space, static_env):
        """:attr:`StaticMemo.nodes` as each uncovered compound node keyed
        from scratch finds them: the definition the one walk must keep."""
        from repro.pmlang import ast_nodes as ast
        from repro.srdfg.interpreter import static_key

        nodes, covered = {}, set()
        for node in ast.walk_expr(expr):
            if id(node) in covered or isinstance(node, (ast.Literal, ast.Name, ast.ReductionCall)):
                continue
            gather = isinstance(node, ast.Indexed)
            if gather and all(isinstance(part, ast.Name) for part in node.indices):
                continue
            key = static_key(node.indices if gather else (node,), space, static_env)
            if key is not None:
                nodes[id(node)] = ("gather" if gather else "value", key)
                covered.update(id(part) for part in ast.walk_expr(node))
        return nodes

    def test_paper_programs_key_each_node_once(self, monkeypatch):
        """Over every statement plan of the 17 paper programs, the memo
        finds the nodes keying each from scratch finds, and hands no node
        to :func:`static_key` twice."""
        from repro.eval import Harness
        from repro.pmlang import ast_nodes as ast
        from repro.srdfg import interpreter
        from repro.workloads import END_TO_END, SINGLE_DOMAIN

        real, keyed = interpreter.static_key, []

        def counting(exprs, *args):
            keyed.extend(id(node) for expr in exprs for node in ast.walk_expr(expr))
            return real(exprs, *args)

        harness, statements, found = Harness(), 0, 0
        for name in SINGLE_DOMAIN + END_TO_END:
            _, app, _ = harness.compiled(name)
            for _, statement in harness.session.plan_for(app).iter_statements():
                value, space, env = statement.stmt.value, statement.space, statement.static_env
                want = self._rekeyed_nodes(value, space, env)
                keyed.clear()
                monkeypatch.setattr(interpreter, "static_key", counting)
                memo = interpreter.StaticMemo(value, space, env, {})
                monkeypatch.setattr(interpreter, "static_key", real)
                assert memo.nodes == want, (name, statement.label)
                assert len(keyed) == len(set(keyed)), (name, statement.label)
                statements += 1
                found += len(want)
        assert statements > 200 and found > 0

    def test_static_names_key_their_entries(self):
        plan = build_plan(build(self.COMPONENT.replace("{b}", "4").replace("{h}", "1")))
        x = np.arange(8.0) ** 2
        for _ in range(2):
            out = plan.execute(inputs={"x": x}).outputs
            assert out["a"].tolist() == (x[0::2] + np.arange(4) % 2).tolist()
            assert out["b"].tolist() == x[:4].tolist()
        assert len(self._gathers(plan)) == 2 and len(plan.memo) == 4

    def test_predicate_guarded_gather_is_never_stored(self):
        plan = build_plan(build(
            "main(input float x[6], output float y[6]) {"
            " index i[0:5], j[0:2]; y[i] = sum[j: i+j < 6](x[i+j]); }"
        ))
        x = np.arange(6.0) + 1.0
        want = [x[i:i + 3].sum() for i in range(6)]
        for _ in range(2):
            assert plan.execute(inputs={"x": x}).outputs["y"].tolist() == want
        [statement] = plan.statements.values()
        assert statement.statics.nodes and not self._gathers(plan)

    def test_short_sum_fold_and_chunks_bypass_the_memo(self, monkeypatch):
        source = (
            "main(input float x[24], output float y[6]) {"
            " index i[0:5], k[0:2]; y[i] = sum[k](x[i*3+k] * x[i*3+k] + 1.0); }"
        )
        x = np.arange(24.0)
        want = [sum(x[i * 3 + k] ** 2 + 1.0 for k in range(3)) for i in range(6)]

        def stepped(plan):
            for _ in range(2):
                assert plan.execute(inputs={"x": x}).outputs["y"].tolist() == want
            return len(plan.memo)

        assert stepped(build_plan(build(source))) == 0
        monkeypatch.setattr("repro.srdfg.interpreter.SHORT_SUM", 0)
        assert stepped(build_plan(build(source))) == 1  # on the lattice
        monkeypatch.setattr("repro.srdfg.interpreter.DEFAULT_LATTICE_LIMIT", 8)
        chunked = build_plan(build(source))
        assert [s.path() for s in chunked.statements.values()] == ["chunked"]
        assert stepped(chunked) == 0

    def test_statement_pickles_are_unchanged_by_steps(self):
        import pickle

        plan = build_plan(build(self.COMPONENT.replace("{b}", "4").replace("{h}", "1")))
        statements = [statement for _, statement in plan.iter_statements()]
        before = pickle.dumps(statements)
        plan.execute(inputs={"x": np.arange(8.0)})
        assert plan.memo and pickle.dumps(statements) == before
        loaded = pickle.loads(before)
        assert [s.statics for s in loaded] == [None, None] and loaded[0].memo == {}

    def test_stats_report_entries_and_the_bytes_stored(self):
        """Two like instances of ``scale`` read the same two entries (the
        gather's index array and ``i%h``): the first stores them, the
        second reads them and stores nothing."""
        from repro.targets import default_accelerators

        session = CompilerSession(default_accelerators())
        app = session.compile(
            self.COMPONENT.replace("{b}", "4").replace("{h}", "2"), domain="DA"
        )
        plan = session.plan_for(app)
        plan.execute(inputs={"x": np.arange(8.0)})
        rows = {row[0]: row[6:] for row in plan.stats_rows()}
        assert sorted(rows.values()) == [(2, 0), (2, 8 * 4 + 8 * 4)]
        assert " static " in plan.render_stats().splitlines()[1]
        [entry] = session.stats_dict()["plans"]
        assert sorted(
            (row["static_entries"], row["static_bytes"]) for row in entry["statements"]
        ) == sorted(rows.values())

    def test_threads_stepping_one_plan_agree_bitwise(self):
        """Four threads (more than the cores) fill one plan's memo at once,
        switching often: every result is the one a plan stepped alone
        gives, and the bytes the statements count as stored are exactly
        the memo's (a lost or doubled count breaks the sum)."""
        import sys
        import threading

        source = (
            "main(input float x[64], output float y[64]) { index t[0:63];"
            " float v[64], w[64]; v[t] = x[t];"
            " unroll s[0:2] { w[t] = v[t - t%(2^(s+1)) + t%(2^s)]"
            " + ((t%(2^(s+1))) < (2^s) ? 1.0 : -1.0) * v[t - t%(2^(s+1)) + t%(2^s) + 2^s];"
            " v[t] = w[t]; }"
            " y[t] = v[t]; }"
        )
        inputs = [{"x": np.random.default_rng(seed).standard_normal(64)} for seed in range(8)]
        want = [build_plan(build(source)).execute(inputs=i).outputs["y"].tobytes() for i in inputs]
        shared = build_plan(build(source))
        got = {}

        def run(thread):
            got[thread] = [shared.execute(inputs=i).outputs["y"].tobytes() for i in inputs]

        threads = [threading.Thread(target=run, args=(n,)) for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [got[n] for n in range(4)] == [want] * 4
        stored = sum(statement.statics.nbytes for statement in shared.statements.values())
        held = sum(
            array.nbytes for value in shared.memo.values()
            for array in (value if isinstance(value, tuple) else (value,))
        )
        assert stored == held > 0

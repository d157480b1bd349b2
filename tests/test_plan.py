"""Tests for the plan/execute engine (repro.srdfg.plan).

Path-equivalence tests use integer-valued floats throughout: einsum
(BLAS), plain ``np.sum`` (pairwise), and chunked accumulation can differ
in the last ulp on arbitrary reals, but are exact on integers — so
``np.array_equal`` (bit-identity) is the right assertion, not allclose.
"""

import os

import numpy as np
import pytest

from repro.driver import CompilerSession
from repro.errors import ExecutionError
from repro.obs import Counters
from repro.srdfg import build
from repro.srdfg.interpreter import (
    DEFAULT_LATTICE_LIMIT,
    Executor,
    resolve_dtype,
)
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
    def test_none_lattice_limit_normalises_to_default(self):
        assert PlanConfig(lattice_limit=None).lattice_limit == DEFAULT_LATTICE_LIMIT

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

    def test_three_paths_bit_identical(self):
        inputs = matvec_data()
        graphs = [build(MATVEC) for _ in range(3)]
        einsum_plan = build_plan(graphs[0])
        lattice_plan = build_plan(
            graphs[1], config=PlanConfig(enable_einsum=False)
        )
        chunked_plan = build_plan(
            graphs[2],
            config=PlanConfig(enable_einsum=False, lattice_limit=8),
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

    def test_executor_flags_reach_the_plan(self):
        graph = build(MATVEC)
        executor = Executor(graph, enable_einsum=False, lattice_limit=8)
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

"""Failure-injection tests: every phase fails loudly with its own error,
and the fault-tolerant runtime recovers from injected hardware faults."""

import itertools

import numpy as np
import pytest

from repro.driver import CompilerSession
from repro.errors import (
    ExecutionError,
    LoweringError,
    PMLangSemanticError,
    PMLangSyntaxError,
    PassError,
    RuntimeFailure,
    ShapeError,
    TargetError,
)
from repro.hw import HardwareParams, SoCRuntime
from repro.hw.soc import schedule
from repro.passes import PassManager
from repro.runtime import (
    FaultPlan,
    FaultSpec,
    HostManager,
    RecoveryPolicy,
    parse_fault_spec,
)
from repro.srdfg import Executor, build
from repro.targets import Accelerator, AcceleratorSpec, PolyMath, default_accelerators


class TestFrontEndFailures:
    def test_lexical_error(self):
        with pytest.raises(PMLangSyntaxError):
            build("main(input float x) { x @ 1; }")

    def test_semantic_error_reaches_build(self):
        with pytest.raises(PMLangSemanticError):
            build("main(input float x[2]) { index i[0:1]; x[i] = 1.0; }")

    def test_shape_error_on_symbolic_main_dims(self):
        with pytest.raises(ShapeError, match="compile-time"):
            build("main(input float x[n], output float y[n]) "
                  "{ index i[0:n-1]; y[i] = x[i]; }")

    def test_runtime_param_in_index_bound(self):
        source = (
            "f(input float x[4], param float k, output float y[4]) {"
            " index i[0:k-1]; y[i] = x[i]; }\n"
            "main(input float x[4], param float k, output float y[4]) {"
            " f(x, k, y); }"
        )
        with pytest.raises(ShapeError):
            build(source)


class TestCompilerFailures:
    class NoNonlinear(Accelerator):
        """A crippled backend with no transcendental support."""

        name = "no-nl"
        domain = "DA"
        spec = AcceleratorSpec(
            supported_ops=frozenset({"copy"}),
            scalar_classes=frozenset({"alu", "mul"}),
        )
        params = HardwareParams(
            name="no-nl",
            frequency_hz=1e8,
            throughput={"alu": 1.0, "mul": 1.0},
            power_w=1.0,
        )

    SIGMOID_SOURCE = (
        "main(input float x[4], output float y[4]) {"
        " index i[0:3]; y[i] = sigmoid(x[i]); }"
    )

    def test_unsupported_scalar_class_fails_compilation(self):
        # §III-C: "if the nodes ... cannot be lowered to a specific
        # hardware ... the compilation fails for that accelerator."
        compiler = PolyMath({"DA": self.NoNonlinear()})
        with pytest.raises(LoweringError, match="nonlinear"):
            compiler.compile(self.SIGMOID_SOURCE, domain="DA")

    def test_missing_domain_accelerator(self):
        compiler = PolyMath({"DA": default_accelerators()["DA"]})
        source = (
            "f(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = x[i]; }\n"
            "main(input float x[4], output float y[4]) { DSP: f(x, y); }"
        )
        with pytest.raises((TargetError, LoweringError)):
            compiler.compile(source, domain="DA")

    def test_pass_failure_is_wrapped(self, mpc_source):
        from repro.passes.base import Pass

        class Exploding(Pass):
            name = "exploding"

            def run(self, graph):
                raise RuntimeError("boom")

        with pytest.raises(PassError, match="exploding"):
            PassManager([Exploding()]).run(build(mpc_source, domain="RBT"))


class TestRuntimeFailures:
    SOURCE = (
        "main(input float x[4], param float p[2], state float s[3],"
        " output float y[4]) {"
        " index i[0:3]; y[i] = x[i] + p[0] + s[0]; }"
    )

    def test_missing_param(self):
        graph = build(self.SOURCE)
        with pytest.raises(ExecutionError, match="missing param"):
            Executor(graph).run(inputs={"x": np.zeros(4)})

    def test_bad_state_shape(self):
        graph = build(self.SOURCE)
        with pytest.raises(ExecutionError, match="shape"):
            Executor(graph).run(
                inputs={"x": np.zeros(4)},
                params={"p": np.zeros(2)},
                state={"s": np.zeros(7)},
            )

    def test_nan_inputs_propagate_not_crash(self):
        # Garbage in, garbage out — never a crash.
        graph = build(self.SOURCE)
        result = Executor(graph).run(
            inputs={"x": np.full(4, np.nan)},
            params={"p": np.zeros(2)},
        )
        assert np.all(np.isnan(result.outputs["y"]))

    def test_graph_mutation_detected_by_validate(self, mpc_source):
        from repro.errors import GraphError

        graph = build(mpc_source, domain="RBT")
        # Sabotage: create a genuine combinational cycle between two
        # compute nodes inside a component body.
        predict = next(
            node for node in graph.component_nodes()
            if node.name == "predict_trajectory"
        )
        inner = predict.subgraph
        first, second = inner.compute_nodes()[:2]
        from repro.srdfg.metadata import EdgeMeta

        inner.add_edge(second, first, EdgeMeta(name="bad"))
        inner.add_edge(first, second, EdgeMeta(name="bad2"))
        with pytest.raises(GraphError, match="cycle"):
            graph.validate()


#: A two-domain pipeline with a genuine cross-domain (DMA) crossing.
TWO_DOMAIN_SOURCE = (
    "f(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i]*2.0; }\n"
    "g(input float y[4], output float z[4]) { index i[0:3]; z[i] = y[i]+1.0; }\n"
    "main(input float x[4], output float z[4]) "
    "{ float y[4]; DSP: f(x, y); DA: g(y, z); }"
)


@pytest.fixture(scope="module")
def two_domain_app():
    session = CompilerSession(default_accelerators())
    return session.compile(TWO_DOMAIN_SOURCE, domain="DSP")


#: Cross-domain ping-pong: DSP -> DA -> DSP -> DA. Regression source for
#: the stage-planning bug the fuzzer found — one-stage-per-domain
#: planning manufactured a false DA<->DSP dependency cycle here.
PING_PONG_SOURCE = (
    "f(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i]*2.0; }\n"
    "g(input float y[4], output float z[4]) { index i[0:3]; z[i] = y[i]+1.0; }\n"
    "main(input float x[4], output float z[4]) "
    "{ float u[4], v[4], w[4]; "
    "DSP: f(x, u); DA: g(u, v); DSP: f(v, w); DA: g(w, z); }"
)


@pytest.fixture(scope="module")
def ping_pong_app():
    session = CompilerSession(default_accelerators())
    return session.compile(PING_PONG_SOURCE, domain="DSP")


def _compile_workload(name):
    from repro.workloads import get_workload

    workload = get_workload(name)
    app, _ = CompilerSession(default_accelerators()).compile_workload(workload)
    return workload, app


@pytest.fixture(scope="module")
def brainstimul():
    return _compile_workload("BrainStimul")


@pytest.fixture(scope="module")
def option_pricing():
    return _compile_workload("OptionPricing")


@pytest.fixture(scope="module")
def placed_apps(two_domain_app, ping_pong_app, brainstimul, option_pricing):
    """``name -> (app, hints)`` for the all-placements equality test."""
    placed = {"two-domain": (two_domain_app, None), "ping-pong": (ping_pong_app, None)}
    for workload, app in (brainstimul, option_pricing):
        placed[workload.name] = (app, workload.hints())
    return placed


#: (app, accelerated subset) for every placement — the empty, all-host
#: one included — of the two hand-written pipelines and the two
#: end-to-end programs.
PLACEMENTS = [
    (name, subset)
    for name, domains in (
        ("two-domain", ("DSP", "DA")),
        ("ping-pong", ("DSP", "DA")),
        ("BrainStimul", ("DSP", "DA", "RBT")),
        ("OptionPricing", ("DA", "DA-BLKS")),
    )
    for size in range(len(domains) + 1)
    for subset in itertools.combinations(domains, size)
]


@pytest.fixture()
def manager(two_domain_app):
    return HostManager(two_domain_app.accelerators)


class TestRuntimeFaults:
    """Runtime-level fault injection: stall, corruption, crash, determinism."""

    INPUTS = {"x": np.arange(4.0)}

    @pytest.mark.parametrize(
        "name,subset", PLACEMENTS,
        ids=[f"{name}-{'+'.join(subset) or 'host'}" for name, subset in PLACEMENTS],
    )
    def test_fault_free_run_matches_analytic_soc_cost(
        self, placed_apps, name, subset
    ):
        app, hints = placed_apps[name]
        assert set(subset) <= set(app.programs)
        report = HostManager(app.accelerators).run(
            app, hints=hints, accelerated_domains=subset, execute=False
        )
        analytic = SoCRuntime(app.accelerators).execute(
            app, accelerated_domains=subset, hints=hints
        )
        assert report.completed
        assert report.faults_injected == 0
        assert report.availability == pytest.approx(1.0)
        assert set(report.per_domain) == set(analytic.per_domain)
        for ours, theirs in [
            (report.total, analytic.total),
            (report.communication, analytic.communication),
            *((report.per_domain[d], analytic.per_domain[d])
              for d in analytic.per_domain),
        ]:
            assert ours.seconds == pytest.approx(theirs.seconds, rel=1e-9)
            assert ours.energy_j == pytest.approx(theirs.energy_j, rel=1e-9)

    def test_stall_hits_watchdog_then_retry_succeeds(self, two_domain_app, manager):
        plan = FaultPlan(specs=(FaultSpec(kind="stall", domain="DSP"),), seed=5)
        report = manager.run(two_domain_app, inputs=self.INPUTS, fault_plan=plan)
        assert report.completed
        timeouts = report.events_of("watchdog-timeout")
        assert len(timeouts) == 1 and timeouts[0].fault == "stall"
        assert report.retries >= 1
        assert report.faults_injected == 1
        assert report.faults_recovered == 1
        # The stall burned a watchdog budget the fault-free run never pays.
        assert report.total.seconds > report.fault_free.seconds
        assert report.availability < 1.0
        assert report.events_of("backoff")  # waited before the retry

    def test_dma_corruption_retries_transfer_then_succeeds(
        self, two_domain_app, manager
    ):
        plan = FaultPlan(specs=(FaultSpec(kind="dma-corrupt", domain="DA"),), seed=5)
        report = manager.run(two_domain_app, inputs=self.INPUTS, fault_plan=plan)
        assert report.completed
        faults = [event for event in report.events if event.fault == "dma-corrupt"]
        assert faults and "checksum" in faults[-1].detail
        assert report.events_of("retry")
        assert report.faults_recovered == 1
        assert not report.degraded_domains  # a retried DMA needs no fallback

    def test_crash_degrades_to_host_with_identical_outputs(
        self, two_domain_app, manager
    ):
        baseline = manager.run(two_domain_app, inputs=self.INPUTS)
        plan = FaultPlan(specs=(FaultSpec(kind="crash", domain="DA"),), seed=5)
        report = manager.run(two_domain_app, inputs=self.INPUTS, fault_plan=plan)

        assert report.completed
        assert report.degraded_domains == ["DA"]
        assert "DA" in report.unhealthy
        assert report.faults_injected == 1 and report.faults_recovered == 1
        assert report.retries >= 1
        assert report.events_of("host-fallback") and report.events_of("stage-replay")
        # Graceful degradation is functionally invisible: bit-for-bit.
        np.testing.assert_array_equal(
            report.result.outputs["z"], baseline.result.outputs["z"]
        )
        # The manager surfaced the fault through diagnostics too.
        assert any(
            "crash" in d.message for d in manager.diagnostics.warnings
        ) or any("crash" in d.message for d in manager.diagnostics.errors)

    def test_same_plan_and_seed_reproduce_identical_event_sequences(
        self, two_domain_app, manager
    ):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="stall", probability=0.4),
                FaultSpec(kind="dma-corrupt", probability=0.5),
            ),
            seed=11,
        )
        # Aborted runs must be exactly as reproducible as completed ones.
        first = manager.run(
            two_domain_app, fault_plan=plan, execute=False, raise_on_failure=False
        )
        second = manager.run(
            two_domain_app, fault_plan=plan, execute=False, raise_on_failure=False
        )
        assert first.event_signature() == second.event_signature()
        assert first.faults_injected == second.faults_injected
        assert first.completed == second.completed

        different = FaultPlan(specs=plan.specs, seed=12)
        third = manager.run(
            two_domain_app, fault_plan=different, execute=False, raise_on_failure=False
        )
        assert third.event_signature() != first.event_signature()

    def test_exhausted_retries_without_fallback_raise(self, two_domain_app):
        strict = HostManager(
            two_domain_app.accelerators,
            policy=RecoveryPolicy(max_attempts=2, host_fallback=False),
        )
        plan = FaultPlan(
            specs=(FaultSpec(kind="stall", domain="DSP", probability=1.0),), seed=1
        )
        with pytest.raises(RuntimeFailure) as excinfo:
            strict.run(two_domain_app, fault_plan=plan, execute=False)
        report = excinfo.value.report
        assert not report.completed
        assert report.events_of("abort")
        assert "failed" in report.abort_reason

    def test_crash_without_fallback_aborts(self, two_domain_app):
        strict = HostManager(
            two_domain_app.accelerators,
            policy=RecoveryPolicy(host_fallback=False),
        )
        plan = FaultPlan(specs=(FaultSpec(kind="crash", domain="DSP"),), seed=1)
        report = strict.run(
            two_domain_app, fault_plan=plan, execute=False, raise_on_failure=False
        )
        assert not report.completed
        assert "crash" in report.abort_reason

    def test_compiled_application_run_takes_the_runtime_path(self, two_domain_app):
        plan = FaultPlan(specs=(FaultSpec(kind="transient", domain="DSP"),), seed=2)
        report = two_domain_app.run(inputs=self.INPUTS, fault_plan=plan)
        assert report.completed
        assert report.faults_injected == 1
        np.testing.assert_array_equal(
            report.result.outputs["z"], np.arange(4.0) * 2.0 + 1.0
        )

    def test_run_report_serialises_and_renders(self, two_domain_app, manager):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", domain="DA"),), seed=5)
        report = manager.run(two_domain_app, inputs=self.INPUTS, fault_plan=plan)
        payload = report.to_dict()
        assert payload["completed"] is True
        assert payload["degraded_domains"] == ["DA"]
        assert payload["events"][0]["kind"] == "dispatch"
        text = report.render()
        assert "host-fallback" in text and "crash" in text
        assert "availability" in text

    def test_backoff_is_bounded_and_exponential(self):
        policy = RecoveryPolicy(
            backoff_base_s=1e-4, backoff_factor=2.0, backoff_cap_s=3e-4
        )
        assert policy.backoff_s(1) == pytest.approx(1e-4)
        assert policy.backoff_s(2) == pytest.approx(2e-4)
        assert policy.backoff_s(3) == pytest.approx(3e-4)  # capped
        assert policy.backoff_s(10) == pytest.approx(3e-4)

    def test_fault_spec_parsing(self):
        spec = parse_fault_spec("dma-corrupt@DA:p=0.25:n=2")
        assert spec.kind == "dma-corrupt"
        assert spec.domain == "DA"
        assert spec.probability == 0.25
        assert spec.max_triggers == 2
        scheduled = parse_fault_spec("stall@DSP:at=0,2")
        assert scheduled.at == (0, 2)
        with pytest.raises(ValueError):
            parse_fault_spec("meltdown@DA")
        with pytest.raises(ValueError):
            parse_fault_spec("stall@DA:frequency=often")


class TestPingPongStaging:
    """Ping-pong traffic needs per-segment stages, not one per domain."""

    INPUTS = {"x": np.arange(4.0)}

    def test_fault_free_ping_pong_runs_and_matches_analytic_result(
        self, ping_pong_app
    ):
        manager = HostManager(ping_pong_app.accelerators)
        report = manager.run(ping_pong_app, inputs=self.INPUTS)
        assert report.completed
        # z = ((x*2 + 1)*2) + 1
        np.testing.assert_array_equal(
            report.result.outputs["z"], np.arange(4.0) * 4.0 + 3.0
        )

    def test_stage_plan_segments_domains_and_orders_dependencies(
        self, ping_pong_app
    ):
        stages = schedule(ping_pong_app.programs)
        # The alternation forces at least one domain to split into
        # multiple segments (the old planner emitted one stage per
        # domain and deadlocked on the resulting false cycle).
        per_domain = {}
        for stage in stages:
            per_domain.setdefault(stage.domain, []).append(stage.name)
        assert max(len(names) for names in per_domain.values()) > 1
        names = [stage.name for stage in stages]
        assert len(names) == len(set(names))
        # Kahn order: every dependency resolves strictly earlier.
        seen = set()
        for stage in stages:
            assert stage.deps <= seen, (
                f"stage {stage.name} depends on {stage.deps - seen} "
                "which never ran"
            )
            seen.add(stage.name)

    def test_renamed_producer_pairs_with_its_load_by_key(self, ping_pong_app):
        # g stores its formal ``z``; the caller's f loads it as its formal
        # ``x``. Only the stamped ``moves`` key says they are one buffer.
        stages = schedule(ping_pong_app.programs)
        position = {stage.name: index for index, stage in enumerate(stages)}
        stores = {
            unit.moves: (stage.name, unit)
            for stage in stages for unit in stage.units
            if unit.direction == "store"
        }
        renamed = 0
        for stage in stages:
            for unit in stage.units:
                if unit.direction != "load":
                    continue
                producer, store = stores[unit.moves]
                assert (store.domain, store.nbytes) == (unit.peer, unit.nbytes)
                assert position[producer] < position[stage.name]
                renamed += store.buffer != unit.buffer
        assert renamed

    @pytest.mark.parametrize(
        "kind", ["transient", "stall", "dma-corrupt", "crash"]
    )
    def test_ping_pong_recovers_bit_identically_from_every_fault_kind(
        self, ping_pong_app, kind
    ):
        manager = HostManager(ping_pong_app.accelerators)
        baseline = manager.run(ping_pong_app, inputs=self.INPUTS)
        plan = FaultPlan(specs=(FaultSpec(kind=kind, domain="DA"),), seed=3)
        report = manager.run(
            ping_pong_app, inputs=self.INPUTS, fault_plan=plan
        )
        assert report.completed
        assert report.faults_injected == 1
        np.testing.assert_array_equal(
            report.result.outputs["z"], baseline.result.outputs["z"]
        )


class TestRecoveryPolicyEdges:
    """RecoveryPolicy corner cases: spec matrices, saturation, exhaustion."""

    @pytest.mark.parametrize("domain", [None, "DSP", "DA"])
    @pytest.mark.parametrize(
        "kind", ["transient", "stall", "crash", "dma-corrupt"]
    )
    def test_spec_matrix_parses_with_occurrence_schedule(self, kind, domain):
        text = kind if domain is None else f"{kind}@{domain}"
        spec = parse_fault_spec(f"{text}:at=1,3")
        assert spec.kind == kind
        assert spec.domain == domain
        assert spec.at == (1, 3)
        assert spec.probability is None
        if domain is not None:
            # Rendering round-trips through the parser (the any-domain
            # wildcard renders as ``@*``, which is display-only).
            again = parse_fault_spec(spec.render())
            assert (again.kind, again.domain, again.at) == (
                kind, domain, (1, 3)
            )

    @pytest.mark.parametrize("at_index,expect_hit", [(0, 1), (1, 1), (9, 0)])
    def test_occurrence_index_strikes_the_exact_dispatch(
        self, ping_pong_app, at_index, expect_hit
    ):
        # DSP dispatches twice in the ping-pong app, so at=0 and at=1
        # each strike exactly one of them and at=9 never fires.
        manager = HostManager(ping_pong_app.accelerators)
        plan = FaultPlan(
            specs=(FaultSpec(kind="transient", domain="DSP", at=(at_index,)),),
            seed=1,
        )
        report = manager.run(
            ping_pong_app, inputs={"x": np.arange(4.0)}, fault_plan=plan
        )
        assert report.completed
        assert report.faults_injected == expect_hit
        assert report.faults_recovered == expect_hit
        # The schedule is part of the event signature: reruns reproduce.
        again = manager.run(
            ping_pong_app, inputs={"x": np.arange(4.0)}, fault_plan=plan
        )
        assert again.event_signature() == report.event_signature()

    def test_backoff_saturates_at_the_cap(self):
        policy = RecoveryPolicy()
        assert policy.backoff_s(1) == pytest.approx(policy.backoff_base_s)
        delays = [policy.backoff_s(k) for k in range(1, 60)]
        assert delays == sorted(delays)  # monotone non-decreasing
        assert max(delays) == policy.backoff_cap_s
        # Far past the cap the exponent must not overflow into inf.
        assert policy.backoff_s(10_000) == policy.backoff_cap_s

    def test_watchdog_budget_has_a_floor_and_scales(self):
        policy = RecoveryPolicy(watchdog_factor=8.0, watchdog_min_s=1e-3)
        assert policy.watchdog_budget_s(0.0) == pytest.approx(1e-3)
        assert policy.watchdog_budget_s(1e-9) == pytest.approx(1e-3)
        assert policy.watchdog_budget_s(2.0) == pytest.approx(16.0)

    def test_invalid_policies_are_rejected(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_factor=0.5)

    def test_watchdog_exhaustion_degrades_with_bit_identity(
        self, two_domain_app
    ):
        # Every accelerator attempt at DSP stalls; the retry budget burns
        # out and the manager must degrade DSP to the host — with the
        # exact same outputs as a fault-free run.
        manager = HostManager(two_domain_app.accelerators)
        baseline = manager.run(two_domain_app, inputs={"x": np.arange(4.0)})
        policy = RecoveryPolicy(
            max_attempts=2,
            backoff_base_s=1e-6,
            backoff_cap_s=1e-5,
            watchdog_min_s=1e-4,
        )
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="stall", domain="DSP", probability=1.0,
                    max_triggers=99,
                ),
            ),
            seed=2,
        )
        report = manager.run(
            two_domain_app,
            inputs={"x": np.arange(4.0)},
            fault_plan=plan,
            policy=policy,
        )
        assert report.completed
        assert "DSP" in report.degraded_domains
        assert report.events_of("watchdog-timeout")
        assert report.events_of("host-fallback")
        np.testing.assert_array_equal(
            report.result.outputs["z"], baseline.result.outputs["z"]
        )


class TestEndToEndChaos:
    """Acceptance scenario: the cascaded FFT->LR->MPC application survives
    an accelerator crash via host fallback, bit-for-bit."""

    def test_crash_costs_the_degraded_placement_plus_the_watchdog(
        self, brainstimul
    ):
        # RBT crashes on its first dispatch: the run pays one burnt
        # watchdog budget, then exactly what the SoC prices with RBT on
        # the host — each host-placed burst its own kernels, once.
        workload, app = brainstimul
        manager = HostManager(app.accelerators)
        report = manager.run(
            app,
            fault_plan=FaultPlan.parse(["crash@RBT"], seed=7),
            hints=workload.hints(),
            execute=False,
        )
        degraded = SoCRuntime(app.accelerators).execute(
            app, accelerated_domains={"DSP", "DA"}, hints=workload.hints()
        )
        assert report.degraded_domains == ["RBT"]
        assert report.total.seconds == pytest.approx(
            degraded.total.seconds + manager.policy.watchdog_min_s, rel=1e-9
        )
        assert report.total.seconds * 1e6 == pytest.approx(1773.752, abs=1e-3)

    def test_crash_in_da_completes_via_host_fallback(self, brainstimul):
        workload, app = brainstimul
        manager = HostManager(app.accelerators)
        kwargs = dict(
            inputs=workload.inputs(0, None),
            params=workload.params(),
            state=workload.initial_state(),
            hints=workload.hints(),
        )
        baseline = manager.run(app, **kwargs)
        plan = FaultPlan(specs=(FaultSpec(kind="crash", domain="DA"),), seed=7)
        report = manager.run(app, fault_plan=plan, **kwargs)

        assert report.completed
        assert report.degraded_domains == ["DA"]
        assert report.faults_injected == 1 and report.faults_recovered == 1
        assert report.retries >= 1
        for name in baseline.result.outputs:
            np.testing.assert_array_equal(
                report.result.outputs[name], baseline.result.outputs[name]
            )
        # Identical plan + seed => identical event stream, twice.
        replay = manager.run(app, fault_plan=plan, **kwargs)
        assert replay.event_signature() == report.event_signature()

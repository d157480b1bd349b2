"""Unit tests for the hardware cost models and SoC runtime."""

import dataclasses

import pytest

from repro.hw import (
    HardwareParams,
    PerfStats,
    RooflineModel,
    SoCRuntime,
    make_jetson,
    make_titan_xp,
    make_xeon,
)
from repro.hw.soc import schedule
from repro.eval import Harness
from repro.runtime import HostManager
from repro.srdfg import build
from repro.targets import PolyMath, default_accelerators
from repro.workloads import END_TO_END, SINGLE_DOMAIN


def simple_params(**overrides):
    base = dict(
        name="test",
        frequency_hz=1e9,
        throughput={"alu": 4.0, "mul": 4.0, "div": 1.0, "nonlinear": 1.0},
        power_w=10.0,
        static_fraction=0.5,
        dram_bw=10e9,
        onchip_bw=100e9,
        dispatch_overhead_s=0.0,
        efficiency=1.0,
        system_power_w=0.0,
    )
    base.update(overrides)
    return HardwareParams(**base)


class TestRoofline:
    def test_compute_bound_kernel(self):
        model = RooflineModel(simple_params())
        stats = model.kernel_cost({"mul": 4_000_000}, dram_bytes=8, onchip_bytes=0)
        assert stats.seconds == pytest.approx(1e-3, rel=1e-3)

    def test_memory_bound_kernel(self):
        model = RooflineModel(simple_params())
        stats = model.kernel_cost({"alu": 4}, dram_bytes=10_000_000, onchip_bytes=0)
        assert stats.seconds == pytest.approx(1e-3, rel=1e-3)

    def test_dispatch_overhead_added(self):
        model = RooflineModel(simple_params(dispatch_overhead_s=1e-6))
        stats = model.kernel_cost({"alu": 4}, 0, 0)
        assert stats.seconds >= 1e-6

    def test_unsupported_class_emulated_slowly(self):
        params = simple_params(throughput={"alu": 4.0})
        model = RooflineModel(params)
        native = RooflineModel(simple_params()).kernel_cost({"nonlinear": 1000}, 0, 0)
        emulated = model.kernel_cost({"nonlinear": 1000}, 0, 0)
        assert emulated.seconds > native.seconds

    def test_efficiency_scales_throughput(self):
        fast = RooflineModel(simple_params(efficiency=1.0))
        slow = RooflineModel(simple_params(efficiency=0.25))
        kernel = {"mul": 1_000_000}
        assert slow.kernel_cost(kernel, 0, 0).seconds == pytest.approx(
            4 * fast.kernel_cost(kernel, 0, 0).seconds
        )

    def test_energy_includes_system_power(self):
        with_system = RooflineModel(simple_params(system_power_w=5.0))
        without = RooflineModel(simple_params())
        kernel = {"mul": 1_000_000}
        assert (
            with_system.kernel_cost(kernel, 0, 0).energy_j
            > without.kernel_cost(kernel, 0, 0).energy_j
        )

    def test_transfer_cost(self):
        model = RooflineModel(simple_params())
        stats = model.transfer_cost(10_000_000)
        assert stats.seconds == pytest.approx(1e-3, rel=1e-3)
        assert stats.dram_bytes == 10_000_000


class TestPerfStats:
    def test_add_accumulates(self):
        a = PerfStats(seconds=1.0, op_count=10, energy_j=2.0, kernels=1)
        b = PerfStats(seconds=0.5, op_count=5, energy_j=1.0, kernels=2)
        a.add(b)
        assert a.seconds == 1.5
        assert a.op_count == 15
        assert a.kernels == 3

    def test_scaled(self):
        stats = PerfStats(seconds=1.0, op_count=10, energy_j=2.0, kernels=1,
                          breakdown={"k": 1.0})
        scaled = stats.scaled(4)
        assert scaled.seconds == 4.0
        assert scaled.breakdown["k"] == 4.0
        assert stats.seconds == 1.0  # original untouched

    def test_watts(self):
        stats = PerfStats(seconds=2.0, energy_j=10.0)
        assert stats.watts == 5.0


class TestBaselines:
    def test_cpu_estimate_positive(self, mpc_source):
        graph = build(mpc_source, domain="RBT")
        stats = make_xeon().estimate_graph(graph)
        assert stats.seconds > 0
        assert stats.energy_j > 0

    def test_gpu_launch_overhead_dominates_small_kernels(self, mpc_source):
        graph = build(mpc_source, domain="RBT")
        cpu = make_xeon().estimate_graph(graph)
        titan = make_titan_xp().estimate_graph(graph)
        # A tiny MPC step is launch-bound on a discrete GPU.
        assert titan.seconds > cpu.seconds

    def test_op_scale_hint_reduces_cost(self, matvec_source):
        graph = build(matvec_source, domain="GA")
        dense = make_xeon().estimate_graph(graph)
        sparse = make_xeon().estimate_graph(graph, hints={"op_scale": 0.01})
        assert sparse.seconds < dense.seconds

    def test_jetson_slower_than_titan_on_big_dense(self):
        source = (
            "main(input float A[256][256], input float B[256][256],"
            " output float C[256][256]) {"
            " index i[0:255], j[0:255], k[0:255];"
            " C[i][j] = sum[k](A[i][k]*B[k][j]); }"
        )
        graph = build(source, domain="DL")
        titan = make_titan_xp().estimate_graph(graph)
        jetson = make_jetson().estimate_graph(graph)
        assert titan.seconds < jetson.seconds


class TestSoC:
    CROSS_SOURCE = (
        "filt(input float x[8192], output float y[8192]) {"
        " index i[0:8191]; y[i] = sin(x[i]) * 0.5; }\n"
        "classify(input float y[8192], param float w[8192], output float score) {"
        " index i[0:8191]; score = sigmoid(sum[i](w[i]*y[i])); }\n"
        "main(input float x[8192], param float w[8192], output float score) {"
        " float y[8192];"
        " DSP: filt(x, y);"
        " DA: classify(y, w, score); }"
    )

    @pytest.fixture()
    def compiled(self):
        accelerators = default_accelerators()
        app = PolyMath(accelerators).compile(self.CROSS_SOURCE, domain="DSP")
        return app, accelerators

    def test_full_acceleration_report(self, compiled):
        app, accelerators = compiled
        soc = SoCRuntime(accelerators)
        report = soc.execute(app)
        assert set(report.per_domain) == set(app.programs)
        assert report.total.seconds > 0
        assert 0 <= report.communication_fraction <= 1

    def test_partial_acceleration_uses_host(self, compiled):
        app, accelerators = compiled
        soc = SoCRuntime(accelerators)
        partial = soc.execute(app, accelerated_domains={"DSP"})
        assert partial.per_domain["DA"].seconds > 0

    def test_cross_domain_dma_charged_only_near_accelerators(self, compiled):
        app, accelerators = compiled
        soc = SoCRuntime(accelerators)
        nothing = soc.execute(app, accelerated_domains=set())
        assert nothing.communication.seconds == 0.0
        full = soc.execute(app)
        assert full.communication.seconds > 0.0

    def test_amdahl_behaviour(self, compiled):
        # Accelerating both kernels is at least as fast as either alone.
        app, accelerators = compiled
        soc = SoCRuntime(accelerators)
        both = soc.execute(app).total.seconds
        dsp_only = soc.execute(app, accelerated_domains={"DSP"}).total.seconds
        da_only = soc.execute(app, accelerated_domains={"DA"}).total.seconds
        assert both <= dsp_only * 1.001
        assert both <= da_only * 1.001


@pytest.fixture(scope="module")
def harness():
    return Harness()


@pytest.mark.parametrize("name", SINGLE_DOMAIN + END_TO_END)
def test_unaccelerated_soc_is_the_cpu_baseline(harness, name):
    """A host-placed burst is priced through its fragments' ``node_uid``:
    with nothing accelerated every kernel must be found exactly once, so
    the SoC total is the CPU baseline's estimate of the same graph."""
    workload, app, _ = harness.compiled(name)
    hints = workload.hints()
    soc = SoCRuntime(app.accelerators).execute(
        app, accelerated_domains=(), hints=hints
    )
    cpu = make_xeon().estimate_graph(app.graph, hints)
    assert soc.communication.seconds == 0.0
    assert soc.total.kernels == cpu.kernels
    assert soc.total.seconds == pytest.approx(cpu.seconds, rel=1e-12)
    assert soc.total.energy_j == pytest.approx(cpu.energy_j, rel=1e-12)


#: Per-invocation microseconds of four programs on the one cost plane.
WALK_US = {
    "MovieL-20M": 14857.9, "ResNet-18": 3824.6,
    "BrainStimul": 1675.6, "OptionPricing": 30.2,
}


@pytest.mark.parametrize("name", SINGLE_DOMAIN + END_TO_END)
def test_every_pricer_reads_the_one_walk(harness, name):
    """``app.run``, ``app.profile``, ``SoCRuntime.execute`` and a
    fault-free ``HostManager.run`` fold the same priced stream — transfers
    and spill included — so they report the same total."""
    workload, app, _ = harness.compiled(name)
    hints = workload.hints()
    walk = SoCRuntime(app.accelerators).execute(app, hints=hints).total
    _, run, _ = app.run(
        inputs=workload.inputs(0, None), params=workload.params(),
        state=workload.initial_state(), hints=hints,
    )
    _, profiled = app.profile()
    managed = HostManager(app.accelerators).run(app, hints=hints, execute=False)
    for total in (run.seconds, profiled, managed.total.seconds):
        assert total == pytest.approx(walk.seconds, rel=1e-12)
    if name in WALK_US:
        assert walk.seconds * 1e6 == pytest.approx(WALK_US[name], abs=0.05)


def _spills(app, hints, accelerated):
    """``(domain, seconds)`` of every spill the walk charges."""
    soc = SoCRuntime(app.accelerators)
    return [
        (unit.domain, cost.seconds)
        for segment in schedule(app.programs)
        for unit, cost in soc.priced(app.graph, segment.units, accelerated, hints)
        if unit.kind == "spill"
    ]


def test_spill_is_charged_once_per_invocation_on_the_accelerator_only(harness):
    # RBT pins 16.8 MB of MPC matrices against RoboX's 512 KB.
    workload, app, _ = harness.compiled("BrainStimul")
    hints = workload.hints()
    [(domain, seconds)] = _spills(app, hints, set(app.programs))
    assert domain == "RBT"
    assert seconds * 1e6 == pytest.approx(1272.0, abs=0.05)
    assert _spills(app, hints, set(app.programs) - {"RBT"}) == []


def test_fault_free_host_manager_pays_the_spill_the_soc_prices(harness):
    workload, app, _ = harness.compiled("BrainStimul")
    hints = workload.hints()
    report = HostManager(app.accelerators).run(app, hints=hints, execute=False)
    soc = SoCRuntime(app.accelerators).execute(app, hints=hints)
    assert report.per_domain["RBT"].breakdown["spill"] > 0
    assert report.total == soc.total
    assert report.per_domain == soc.per_domain


def test_translated_and_expert_pay_the_same_spill(harness):
    # MovieL-20M's translated program spills 1762.8 us per invocation;
    # before the expert paid it too, Fig 9 read 88.1% here.
    assert harness.run("MovieL-20M").percent_optimal >= 99.9


def test_resident_params_beat_streaming_them(harness):
    """Type-modifier residency (§II-A): with RoboX's scratchpad ablated to
    one byte, every MPC param spills on every invocation."""
    _, app, _ = harness.compiled("MobileRobot")
    streaming = app.accelerators["RBT"].bound()
    streaming.params = dataclasses.replace(
        streaming.params, onchip_capacity_bytes=1
    )
    resident = SoCRuntime(app.accelerators).execute(app).total
    ablated = SoCRuntime({"RBT": streaming}).execute(app).total
    assert ablated.seconds > resident.seconds * 1.5

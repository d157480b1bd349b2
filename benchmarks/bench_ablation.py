"""Ablation studies for the design choices DESIGN.md calls out.

Not paper figures — these quantify the mechanisms the stack's results rest
on, so a change that silently disables one fails here:

* **algebraic combination** (§IV-B): fusing matvec chains reduces kernel
  count and dispatch cost on ROBOX;
* **einsum fast path**: the interpreter's contraction dispatch vs the
  general lattice evaluator;
* **analytic vs event-level GRAPHICIONADO**: how much load imbalance the
  per-stream simulation reveals on a power-law graph;
* **analytic vs cycle-level TABLA**: the roofline estimate against a real
  PE-array schedule.

Type-modifier residency (§II-A) is a tier-1 test against the SoC walk,
``tests/test_hw.py::test_resident_params_beat_streaming_them``.
"""

import numpy as np
import pytest

from repro.driver import CompilerSession
from repro.passes import PassManager, lower
from repro.rewrite import DEAD_CODE_ELIMINATION, RulePass, combination_pass
from repro.srdfg import Executor, build, expand_scalar
from repro.targets import Robox, compile_to_targets
from repro.targets.graphicionado_sim import simulate_sweep
from repro.targets.tabla_schedule import TablaScheduler
from repro.workloads import get_workload
from repro.workloads.datasets import rmat_graph

ALL_SCALAR = {"alu", "mul", "div", "nonlinear"}


class TestAlgebraicCombinationAblation:
    @pytest.fixture(scope="class")
    def programs(self):
        source = get_workload("MobileRobot").source()

        def compile_variant(fuse):
            graph = build(source, domain="RBT")
            lower(graph, {"RBT": Robox.spec.supported_ops}, {"RBT": ALL_SCALAR})
            if fuse:
                PassManager(
                    [combination_pass(), RulePass(DEAD_CODE_ELIMINATION)]
                ).run(graph)
            accelerator = Robox()
            return accelerator, compile_to_targets(graph, {"RBT": accelerator})["RBT"]

        return compile_variant(False), compile_variant(True)

    def test_fusion_reduces_fragment_count(self, programs):
        (_, unfused), (_, fused) = programs
        assert len(fused) < len(unfused)

    def test_fusion_reduces_runtime(self, programs, emit):
        (acc_plain, unfused), (acc_fused, fused) = programs
        plain = acc_plain.estimate(unfused)
        combined = acc_fused.estimate(fused)
        emit(
            "ablation_fusion",
            "Ablation: algebraic combination on ROBOX MobileRobot MPC\n"
            f"unfused: {len(unfused)} fragments, {plain.seconds * 1e6:.3f} us\n"
            f"fused:   {len(fused)} fragments, {combined.seconds * 1e6:.3f} us\n"
            f"speedup: {plain.seconds / combined.seconds:.2f}x",
        )
        assert combined.seconds < plain.seconds


class TestEinsumAblation:
    SIZE = 128

    def _matvec_source(self, defeat_fast_path):
        subscript = "i+0" if defeat_fast_path else "i"
        return (
            f"main(input float A[{self.SIZE}][{self.SIZE}],"
            f" input float x[{self.SIZE}], output float y[{self.SIZE}]) {{"
            f" index i[0:{self.SIZE - 1}], j[0:{self.SIZE - 1}];"
            f" y[j] = sum[i](A[j][{subscript}]*x[{subscript}]); }}"
        )

    def test_fast_and_general_paths_agree(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(self.SIZE, self.SIZE))
        x = rng.normal(size=self.SIZE)
        fast = Executor(build(self._matvec_source(False))).run(
            inputs={"A": a, "x": x}
        )
        general = Executor(build(self._matvec_source(True))).run(
            inputs={"A": a, "x": x}
        )
        assert np.allclose(fast.outputs["y"], general.outputs["y"])
        assert np.allclose(fast.outputs["y"], a @ x)

    def test_einsum_path_benchmark(self, benchmark):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(self.SIZE, self.SIZE))
        x = rng.normal(size=self.SIZE)
        executor = Executor(build(self._matvec_source(False)))
        benchmark(executor.run, {"A": a, "x": x})

    def test_general_path_benchmark(self, benchmark):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(self.SIZE, self.SIZE))
        x = rng.normal(size=self.SIZE)
        executor = Executor(build(self._matvec_source(True)))
        benchmark(executor.run, {"A": a, "x": x})


class TestGraphicionadoModelFidelity:
    def test_event_level_exposes_imbalance(self, emit):
        data = rmat_graph(1024, 16, seed=3)
        result = simulate_sweep(data.adjacency, streams=8)
        emit(
            "ablation_graphicionado",
            "Ablation: analytic vs event-level GRAPHICIONADO sweep\n"
            f"edges: {result.total_edges}\n"
            f"analytic cycles: {result.analytic_cycles:.0f}\n"
            f"event-level makespan: {result.makespan_cycles}\n"
            f"load imbalance (max/mean stream): {result.imbalance:.2f}x",
        )
        # Power-law imbalance: the analytic model is optimistic, but by a
        # bounded factor on hash-partitioned streams.
        assert result.analytic_cycles <= result.makespan_cycles
        assert result.makespan_cycles < result.analytic_cycles * 4


class TestTablaModelFidelity:
    def test_schedule_vs_analytic_estimate(self, emit):
        source = (
            "main(input float A[16][16], input float x[16], output float y[16]) {"
            " index i[0:15], j[0:15]; y[j] = sum[i](A[j][i]*x[i]); }"
        )
        graph = build(source, domain="DA")
        [node] = graph.compute_nodes()
        scheduler = TablaScheduler(num_pes=64, nonlinear_pes=8)
        schedule = scheduler.schedule_statement(node)

        from repro.targets import Tabla

        accelerator = Tabla()
        session = CompilerSession({"DA": accelerator}, run_pipeline=False)
        app = session.compile(source, domain="DA")
        fragment = next(
            f for f in app.programs["DA"].fragments if f.attrs.get("op_counts")
        )
        analytic_cycles = (
            accelerator.fragment_cost(fragment).seconds
            * accelerator.params.frequency_hz
        )
        emit(
            "ablation_tabla",
            "Ablation: analytic vs cycle-level TABLA (16x16 matvec)\n"
            f"list-scheduled makespan: {schedule.makespan} cycles "
            f"(utilisation {schedule.utilisation:.2f})\n"
            f"analytic estimate: {analytic_cycles:.1f} cycles",
        )
        # The two models agree within a small factor.
        assert analytic_cycles / 8 < schedule.makespan < analytic_cycles * 8
